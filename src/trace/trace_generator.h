/**
 * @file
 * Streaming synthetic instruction-trace generator.
 *
 * Combines the instruction-mix, address-stream and branch-stream models
 * of a WorkloadProfile into a single deterministic stream of
 * Instruction records.  The stream for a given (profile, seed) pair is
 * bit-identical across runs and platforms, so every table and figure
 * the benchmark harness regenerates is exactly reproducible.
 */

#ifndef SPECLENS_TRACE_TRACE_GENERATOR_H
#define SPECLENS_TRACE_TRACE_GENERATOR_H

#include <cstddef>
#include <cstdint>

#include "stats/rng.h"
#include "trace/address_stream.h"
#include "trace/branch_stream.h"
#include "trace/instruction.h"
#include "trace/record_batch.h"
#include "trace/workload_profile.h"

namespace speclens {
namespace trace {

/** Deterministic generator of synthetic dynamic instruction streams. */
class TraceGenerator
{
  public:
    /**
     * @param profile Validated workload model (validate() is called).
     * @param seed_salt Extra entropy mixed into the profile's own seed;
     *        pass different salts to obtain statistically independent
     *        re-runs of the same workload.
     */
    explicit TraceGenerator(const WorkloadProfile &profile,
                            std::uint64_t seed_salt = 0);

    /**
     * Generate the next dynamic instruction.  The per-record form,
     * used by the scalar reference simulator that the parity tests
     * hold the batched pipeline to.
     */
    Instruction next();

    /**
     * Generate up to min(@p count, capacity) records into @p batch,
     * overwriting its previous contents, and return the number
     * produced.  This is the hot-path form: the fused simulation
     * pipeline pulls one batch at a time so records never accumulate
     * into a window-sized buffer.  The record stream is bit-identical
     * to repeated next() calls — both are emitted by the same
     * primitive.
     */
    std::size_t fill(RecordBatch &batch, std::uint64_t count);

    /** The profile this generator draws from. */
    const WorkloadProfile &profile() const { return profile_; }

  private:
    /** Emit one record; the single primitive behind next() and fill(). */
    void step(std::uint64_t &pc, OpClass &op, std::uint64_t &address,
              std::uint32_t &branch_id, bool &taken, bool &kernel);

    WorkloadProfile profile_;
    stats::Rng rng_;
    DataAddressStream data_;
    CodeAddressStream code_;
    BranchStream branches_;

    // Cumulative op-class thresholds, precomputed from the mix.
    double p_load_;
    double p_store_;
    double p_branch_;
    double p_fp_;
    double p_simd_;
    double p_other_;
};

} // namespace trace
} // namespace speclens

#endif // SPECLENS_TRACE_TRACE_GENERATOR_H
