/**
 * @file
 * Structure-of-arrays batch of dynamic instruction records.
 *
 * The fused simulation pipeline streams records from the trace
 * generator into the micro-architecture models in fixed-capacity
 * batches instead of materializing whole simulation windows as
 * std::vector<Instruction>.  A batch keeps the in-flight working set
 * small (a few tens of KiB, L1/L2 resident) and stores each field in
 * its own contiguous array, so the retirement-counting passes over a
 * batch are plain strided loops the compiler can vectorize.
 *
 * Field semantics are identical to trace::Instruction.
 */

#ifndef SPECLENS_TRACE_RECORD_BATCH_H
#define SPECLENS_TRACE_RECORD_BATCH_H

#include <array>
#include <cstddef>
#include <cstdint>

#include "trace/instruction.h"

namespace speclens {
namespace trace {

/**
 * Records per batch.  Large enough that per-batch overhead (loop
 * prologue, counter flush) is noise against thousands of records,
 * small enough that the whole SoA working set (~90 KiB) plus the
 * simulated structures stay cache-resident.
 */
inline constexpr std::size_t kRecordBatchCapacity = 4096;

/** One batch of dynamic instructions in structure-of-arrays form. */
struct RecordBatch
{
    /** Packed boolean flags (flags array). */
    static constexpr std::uint8_t kTakenBit = 1u << 0;
    static constexpr std::uint8_t kKernelBit = 1u << 1;

    std::array<std::uint64_t, kRecordBatchCapacity> pc;
    std::array<std::uint64_t, kRecordBatchCapacity> address;
    std::array<std::uint32_t, kRecordBatchCapacity> branch_id;
    std::array<OpClass, kRecordBatchCapacity> op;
    std::array<std::uint8_t, kRecordBatchCapacity> flags;

    /** Valid records (a prefix of every array). */
    std::size_t size = 0;

    bool taken(std::size_t i) const { return (flags[i] & kTakenBit) != 0; }
    bool kernel(std::size_t i) const
    {
        return (flags[i] & kKernelBit) != 0;
    }
};

} // namespace trace
} // namespace speclens

#endif // SPECLENS_TRACE_RECORD_BATCH_H
