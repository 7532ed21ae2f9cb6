/**
 * @file
 * Top-down CPI-stack model.
 *
 * Implements the cycles-per-instruction accounting the paper uses for
 * its bottleneck analysis (Section II-B, Fig. 1), following the spirit
 * of Yasin's top-down methodology: total CPI is decomposed into a base
 * component, front-end stalls (instruction-cache misses and branch
 * mispredictions), back-end memory stalls per hierarchy level, TLB
 * walks, and a dependency/"other" component.  The decomposition is
 * additive by construction, so stack components always sum to the total
 * CPI — a property the unit tests enforce.
 */

#ifndef SPECLENS_UARCH_CPI_MODEL_H
#define SPECLENS_UARCH_CPI_MODEL_H

#include <string>
#include <vector>

#include "trace/workload_profile.h"
#include "uarch/perf_counters.h"

namespace speclens {
namespace uarch {

/**
 * Cycle costs of micro-architectural events on a machine.
 *
 * Values are *visible* stall cycles — what an out-of-order core fails
 * to hide — not architectural latencies; e.g. an L2 hit costs ~12
 * cycles architecturally but a wide OOO window hides most of it.
 */
struct LatencyModel
{
    double l2_hit_cycles = 4.0;        //!< L1 miss serviced by L2.
    double l3_hit_cycles = 22.0;       //!< L2 miss serviced by L3.
    double memory_cycles = 140.0;      //!< Miss all the way to DRAM.
    double mispredict_penalty = 15.0;  //!< Pipeline refill after flush.
    double icache_l2_penalty = 8.0;    //!< Front-end bubble on L1I miss.
    double l2tlb_hit_cycles = 5.0;     //!< L1 TLB miss, L2 TLB hit.
    double page_walk_cycles = 38.0;    //!< Full page table walk.

    /** Feed every field, in declaration order, to @p fp. */
    void hashInto(stats::Fingerprinter &fp) const;
};

/** Additive CPI decomposition. */
struct CpiStack
{
    double base = 0.0;             //!< Issue-width / ILP limited.
    double dependency = 0.0;       //!< Inter-instruction dependencies.
    double frontend_icache = 0.0;  //!< Instruction fetch stalls.
    double frontend_branch = 0.0;  //!< Branch misprediction flushes.
    double backend_l2 = 0.0;       //!< Data misses serviced by L2.
    double backend_l3 = 0.0;       //!< Data misses serviced by L3.
    double backend_memory = 0.0;   //!< Data misses serviced by DRAM.
    double backend_tlb = 0.0;      //!< TLB refills and page walks.

    /** Total CPI (sum of all components). */
    double total() const;

    /** Front-end share of total (icache + branch). */
    double frontendFraction() const;

    /** Back-end memory share of total (L2 + L3 + memory + TLB). */
    double backendFraction() const;

    /** Component names in display order (matches components()). */
    static std::vector<std::string> componentNames();

    /** Component values in display order. */
    std::vector<double> components() const;

    /** Every component equal under exact floating-point comparison. */
    bool operator==(const CpiStack &) const = default;
};

/**
 * Build the CPI stack from simulation counters.
 *
 * @param counters Event counts for the measured window.
 * @param latencies Machine latency model.
 * @param exec The workload's non-memory execution behaviour; base and
 *        dependency CPI come from here, and ExecutionModel::mlp divides
 *        the data-side miss penalties to model overlapping misses.
 */
CpiStack computeCpiStack(const PerfCounters &counters,
                         const LatencyModel &latencies,
                         const trace::ExecutionModel &exec);

} // namespace uarch
} // namespace speclens

#endif // SPECLENS_UARCH_CPI_MODEL_H
