/**
 * @file
 * Scalar reference simulator implementation.
 */

#include "reference_simulator.h"

#include <cstdint>
#include <variant>

#include "trace/trace_generator.h"
#include "uarch/branch_predictor.h"
#include "uarch/cache_hierarchy.h"
#include "uarch/prewarm.h"
#include "uarch/tlb.h"

namespace speclens {
namespace reference {

namespace {

using uarch::PerfCounters;

/**
 * Add every structure counter of @p caches and @p tlbs to @p c, or
 * subtract it when @p negate.  Subtracting at the start of a window and
 * adding at its end leaves the window's delta (unsigned wrap-around is
 * exact), with the getter list written once.
 */
void
tallyStructures(PerfCounters &c, const uarch::CacheHierarchy &caches,
                const uarch::TlbHierarchy &tlbs, bool negate)
{
    auto add = [negate](std::uint64_t &field, std::uint64_t value) {
        field += negate ? 0 - value : value;
    };
    add(c.l1d_accesses, caches.l1d().accesses);
    add(c.l1d_misses, caches.l1d().misses);
    add(c.l1i_accesses, caches.l1i().accesses);
    add(c.l1i_misses, caches.l1i().misses);
    add(c.l2d_accesses, caches.l2d().accesses);
    add(c.l2d_misses, caches.l2d().misses);
    add(c.l2i_accesses, caches.l2i().accesses);
    add(c.l2i_misses, caches.l2i().misses);
    add(c.l3_accesses, caches.l3().accesses);
    add(c.l3_misses, caches.l3().misses);
    add(c.dtlb_accesses, tlbs.dtlbAccesses());
    add(c.dtlb_misses, tlbs.dtlbMisses());
    add(c.itlb_accesses, tlbs.itlbAccesses());
    add(c.itlb_misses, tlbs.itlbMisses());
    add(c.l2tlb_misses, tlbs.l2tlbMisses());
    add(c.page_walks, tlbs.pageWalks());
    add(c.prefetch_fills, caches.prefetchFills());
    add(c.prefetch_useful, caches.prefetchUseful());
    add(c.prefetch_evicted_unused, caches.prefetchEvictedUnused());
    add(c.way_pred_hits, caches.wayPredHits());
    add(c.way_pred_mispredicts, caches.wayPredMispredicts());
    add(c.dram_accesses, caches.dramAccesses());
    add(c.dram_row_hits, caches.dramRowHits());
    add(c.dram_busy_cycles, caches.dramBusyCycles());
    add(c.dram_budget_cycles, caches.dramBudgetCycles());
}

/** One machine's structures, driven one record at a time. */
struct Machine
{
    uarch::CacheHierarchy caches;
    uarch::TlbHierarchy tlbs;
    uarch::PredictorVariant predictor;

    /** Play @p count records from @p generator into @p c. */
    void
    play(trace::TraceGenerator &generator, std::uint64_t count,
         PerfCounters &c)
    {
        tallyStructures(c, caches, tlbs, /*negate=*/true);
        for (std::uint64_t i = 0; i < count; ++i) {
            trace::Instruction inst = generator.next();
            caches.accessInstr(inst.pc);
            tlbs.accessInstr(inst.pc);
            c.kernel_instructions += inst.kernel ? 1 : 0;
            switch (inst.op) {
              case trace::OpClass::Load:
              case trace::OpClass::Store:
                ++(inst.op == trace::OpClass::Load ? c.loads : c.stores);
                caches.accessData(inst.address, inst.pc);
                tlbs.accessData(inst.address);
                break;
              case trace::OpClass::Branch: {
                bool predicted = std::visit(
                    [&inst](auto &p) {
                        bool guess = p.predict(inst.pc, inst.branch_id);
                        p.update(inst.pc, inst.branch_id, inst.taken);
                        return guess;
                    },
                    predictor);
                ++c.branches;
                c.taken_branches += inst.taken ? 1 : 0;
                c.branch_mispredictions += predicted != inst.taken ? 1 : 0;
                break;
              }
              case trace::OpClass::FpAlu: ++c.fp_ops; break;
              case trace::OpClass::Simd: ++c.simd_ops; break;
              default: break;
            }
        }
        c.instructions += count;
        tallyStructures(c, caches, tlbs, /*negate=*/false);
    }
};

} // namespace

uarch::SimulationResult
simulate(const trace::WorkloadProfile &profile,
         const uarch::MachineConfig &machine,
         const uarch::SimulationConfig &config)
{
    trace::WorkloadProfile effective =
        config.apply_machine_transform
            ? uarch::transformForMachine(profile, machine)
            : profile;
    trace::TraceGenerator generator(effective, config.seed_salt);
    Machine m{uarch::CacheHierarchy(machine.caches),
              uarch::TlbHierarchy(machine.tlbs),
              uarch::makePredictorVariant(machine.predictor,
                                          machine.predictor_size_log2)};

    if (config.prewarm) {
        const std::uint64_t llc_bytes = machine.caches.l3
                                            ? machine.caches.l3->size_bytes
                                            : machine.caches.l2.size_bytes;
        uarch::PrewarmSolver::walk(m.caches, m.tlbs, effective,
                                   llc_bytes / trace::kLineBytes);
    }

    PerfCounters warmup;
    m.play(generator, config.warmup, warmup);
    m.caches.retireUnusedPrefetches();

    uarch::SimulationResult result;
    m.play(generator, config.instructions, result.counters);
    result.cpi_stack = uarch::computeCpiStack(
        result.counters, machine.latencies, effective.exec);
    result.power = uarch::computePower(
        result.counters, result.cpi_stack.total(), machine.power);
    return result;
}

} // namespace reference
} // namespace speclens
