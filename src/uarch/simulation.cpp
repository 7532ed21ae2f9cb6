/**
 * @file
 * Simulation driver implementation.
 */

#include "simulation.h"

#include <algorithm>
#include <array>
#include <bit>
#include <iostream>

#include "obs/metrics.h"
#include "trace/trace_generator.h"
#include "uarch/prewarm.h"
#include "verify/state_audit.h"

namespace speclens {
namespace uarch {

void
SimulationConfig::hashInto(stats::Fingerprinter &fp) const
{
    fp.tag("window");
    fp.u64(instructions);
    fp.u64(warmup);
    fp.u64(seed_salt);
    fp.boolean(apply_machine_transform);
    fp.boolean(prewarm);
}

double
SimulationResult::ipc() const
{
    double c = cpi();
    return c > 0.0 ? 1.0 / c : 0.0;
}

void
SimulationResult::hashInto(stats::Fingerprinter &fp) const
{
    const PerfCounters &c = counters;
    for (std::uint64_t v :
         {c.instructions, c.loads, c.stores, c.branches,
          c.taken_branches, c.fp_ops, c.simd_ops,
          c.kernel_instructions, c.l1d_accesses, c.l1d_misses,
          c.l1i_accesses, c.l1i_misses, c.l2d_accesses, c.l2d_misses,
          c.l2i_accesses, c.l2i_misses, c.l3_accesses, c.l3_misses,
          c.dtlb_accesses, c.dtlb_misses, c.itlb_accesses,
          c.itlb_misses, c.l2tlb_misses, c.page_walks,
          c.branch_mispredictions, c.prefetch_fills, c.prefetch_useful,
          c.prefetch_evicted_unused, c.way_pred_hits,
          c.way_pred_mispredicts, c.dram_accesses, c.dram_row_hits,
          c.dram_busy_cycles, c.dram_budget_cycles})
        fp.u64(v);
    for (double v : cpi_stack.components())
        fp.f64(v);
    fp.f64(power.core_watts);
    fp.f64(power.llc_watts);
    fp.f64(power.dram_watts);
}

namespace {

/** Structure counters snapshot used to subtract warm-up windows. */
struct Snapshot
{
    SideCounters l1d, l1i, l2d, l2i, l3;
    std::uint64_t dtlb_acc, dtlb_miss, itlb_acc, itlb_miss;
    std::uint64_t l2tlb_miss, walks;
    std::uint64_t pf_fills, pf_useful, pf_evicted;
    std::uint64_t wp_hits, wp_mispred;
    std::uint64_t dram_acc, dram_row_hits, dram_busy, dram_budget;
};

Snapshot
capture(const CacheHierarchy &caches, const TlbHierarchy &tlbs)
{
    return Snapshot{caches.l1d(),
                    caches.l1i(),
                    caches.l2d(),
                    caches.l2i(),
                    caches.l3(),
                    tlbs.dtlbAccesses(),
                    tlbs.dtlbMisses(),
                    tlbs.itlbAccesses(),
                    tlbs.itlbMisses(),
                    tlbs.l2tlbMisses(),
                    tlbs.pageWalks(),
                    caches.prefetchFills(),
                    caches.prefetchUseful(),
                    caches.prefetchEvictedUnused(),
                    caches.wayPredHits(),
                    caches.wayPredMispredicts(),
                    caches.dramAccesses(),
                    caches.dramRowHits(),
                    caches.dramBusyCycles(),
                    caches.dramBudgetCycles()};
}

/** Add the structure-count delta between two snapshots to counters. */
void
addDelta(PerfCounters &c, const Snapshot &start, const Snapshot &end)
{
    c.l1d_accesses += end.l1d.accesses - start.l1d.accesses;
    c.l1d_misses += end.l1d.misses - start.l1d.misses;
    c.l1i_accesses += end.l1i.accesses - start.l1i.accesses;
    c.l1i_misses += end.l1i.misses - start.l1i.misses;
    c.l2d_accesses += end.l2d.accesses - start.l2d.accesses;
    c.l2d_misses += end.l2d.misses - start.l2d.misses;
    c.l2i_accesses += end.l2i.accesses - start.l2i.accesses;
    c.l2i_misses += end.l2i.misses - start.l2i.misses;
    c.l3_accesses += end.l3.accesses - start.l3.accesses;
    c.l3_misses += end.l3.misses - start.l3.misses;
    c.dtlb_accesses += end.dtlb_acc - start.dtlb_acc;
    c.dtlb_misses += end.dtlb_miss - start.dtlb_miss;
    c.itlb_accesses += end.itlb_acc - start.itlb_acc;
    c.itlb_misses += end.itlb_miss - start.itlb_miss;
    c.l2tlb_misses += end.l2tlb_miss - start.l2tlb_miss;
    c.page_walks += end.walks - start.walks;
    c.prefetch_fills += end.pf_fills - start.pf_fills;
    c.prefetch_useful += end.pf_useful - start.pf_useful;
    c.prefetch_evicted_unused += end.pf_evicted - start.pf_evicted;
    c.way_pred_hits += end.wp_hits - start.wp_hits;
    c.way_pred_mispredicts += end.wp_mispred - start.wp_mispred;
    c.dram_accesses += end.dram_acc - start.dram_acc;
    c.dram_row_hits += end.dram_row_hits - start.dram_row_hits;
    c.dram_busy_cycles += end.dram_busy - start.dram_busy;
    c.dram_budget_cycles += end.dram_budget - start.dram_budget;
}

/** One machine's structures plus the per-instruction playback loop. */
class Playback
{
  public:
    explicit Playback(const MachineConfig &machine)
        : caches_(machine.caches),
          tlbs_(machine.tlbs),
          predictor_(makePredictorVariant(machine.predictor,
                                          machine.predictor_size_log2))
    {
    }

    /**
     * Touch every line of LLC-resident working sets once, coldest set
     * first, so short measurements reflect steady state rather than
     * cold-start compulsory misses (the paper measures full multi-
     * trillion-instruction runs).  Sets too large for the hierarchy
     * are skipped — their misses are genuine capacity misses.
     */
    void
    prewarm(const trace::WorkloadProfile &profile,
            const MachineConfig &machine, bool force_walk)
    {
        std::uint64_t llc_lines =
            (machine.caches.l3 ? machine.caches.l3->size_bytes
                               : machine.caches.l2.size_bytes) /
            trace::kLineBytes;

        // Closed-form fast path: when the warmup stream is provably
        // regular (see prewarm.h), the solver writes the exact final
        // state without the per-line walk.  Any structure outside the
        // provable regime — or a touched hierarchy, as in phase 2+ of
        // a phased run — falls back to the walk below, which remains
        // the semantic definition.
        if (!force_walk &&
            PrewarmSolver::apply(caches_, tlbs_, profile, llc_lines)) {
            static obs::Counter &analytic =
                obs::Registry::global().counter("uarch.prewarm.analytic");
            analytic.add();
            return;
        }
        static obs::Counter &walked =
            obs::Registry::global().counter("uarch.prewarm.walked");
        walked.add();
        PrewarmSolver::walk(caches_, tlbs_, profile, llc_lines);
    }

    /**
     * Attach an audit trail: subsequent auditPoint() calls (and the
     * sampled batch-boundary audits inside playLoop) prove the
     * structural invariants and append violations there.  With no
     * trail attached the hooks reduce to one well-predicted null test
     * per 4096-record batch.
     */
    void attachAudit(verify::AuditTrail *trail) { trail_ = trail; }

    /**
     * Close out prefetch attribution at the warmup->measurement
     * boundary (see CacheHierarchy::retireUnusedPrefetches): without
     * this, measured snapshot deltas could show more useful/evicted
     * prefetches than fills.
     */
    void retireUnusedPrefetches() { caches_.retireUnusedPrefetches(); }

    /**
     * Run one audit point.  @p post_prewarm selects the stricter
     * prewarm-boundary audit (fill counters and newest-first stamp
     * order are only defined before demand accesses start).
     */
    void
    auditPoint(bool post_prewarm)
    {
        if (!trail_)
            return;
        ++trail_->audits;
        std::size_t before = trail_->violations.size();
        if (post_prewarm) {
            verify::StateAuditor::auditPrewarm(caches_, tlbs_,
                                               trail_->violations);
            verify::StateAuditor::auditPredictor(predictor_,
                                                 trail_->violations);
        } else {
            verify::StateAuditor::auditAll(caches_, tlbs_, predictor_,
                                           trail_->violations);
        }
        static obs::Counter &audits =
            obs::Registry::global().counter("verify.audits");
        static obs::Counter &violations =
            obs::Registry::global().counter("verify.violations");
        audits.add();
        violations.add(trail_->violations.size() - before);
    }

    /**
     * Play @p count instructions from @p generator.  When @p record is
     * non-null, retirement counters accumulate there and the structure
     * deltas of the window are added at the end.
     *
     * This is the hottest code in SpecLens (hundreds of millions of
     * iterations per campaign).  Records stream from the generator in
     * structure-of-arrays batches (trace::RecordBatch) instead of a
     * materialized window, so the in-flight buffer stays L1/L2
     * resident.  Each batch is consumed in two passes: an ordered pass
     * drives the stateful structures (caches, TLBs, predictor) in
     * exact stream order — preserving bit-identical results — and a
     * branchless counting pass reduces the SoA arrays into retirement
     * counters with loops the compiler can vectorize.  std::visit
     * resolves the predictor's concrete type once per window so
     * predict()/update() are direct, inlinable calls, and the
     * record/no-record decision is a template parameter so the warm-up
     * loop carries no retirement bookkeeping.
     */
    void
    play(trace::TraceGenerator &generator, std::uint64_t count,
         PerfCounters *record)
    {
        std::visit(
            [&](auto &predictor) {
                if (record)
                    playLoop<true>(predictor, generator, count, record);
                else
                    playLoop<false>(predictor, generator, count,
                                    nullptr);
            },
            predictor_);
    }

  private:
    template <bool Record, typename Predictor>
    void
    playLoop(Predictor &predictor, trace::TraceGenerator &generator,
             std::uint64_t count, PerfCounters *record)
    {
        Snapshot start = capture(caches_, tlbs_);

        // Retirement counts batch in locals (registers) and flush to
        // the PerfCounters struct once after the loop.
        std::uint64_t kernel = 0, loads = 0, stores = 0, fp_ops = 0;
        std::uint64_t simd_ops = 0, branches = 0, taken_branches = 0;
        std::uint64_t mispredictions = 0;

        trace::RecordBatch batch;
        // Branch records compacted out of the ordered pass, resolved
        // per batch by the predictor's batch kernel (see updateBatch
        // in branch_predictor.h).  The predictor shares no state with
        // the caches or TLBs and branch outcomes are trace data, so
        // deferring all of a batch's predictor work behind the
        // structure pass is bit-exact.
        std::array<std::uint64_t, trace::kRecordBatchCapacity> branch_pc;
        std::array<std::uint32_t, trace::kRecordBatchCapacity> branch_id;
        std::array<std::uint8_t, trace::kRecordBatchCapacity> branch_taken;
        std::array<std::uint8_t, trace::kRecordBatchCapacity> branch_mispred;

        // Same-line / same-page run collapsing.  Sequential fetch
        // re-probes the same L1I line up to line_bytes/4 times in a
        // row and the same ITLB page thousands of times; each repeat
        // is a guaranteed hit (the line was resident or filled on the
        // previous record, and nothing else touches that structure in
        // between), and its state update collapses exactly (see
        // Cache::repeatLastHit).  So the loop only probes a structure
        // when the line/page changes and counts the repeats, flushing
        // the run right before the next real probe.  Final counters
        // and replacement state are bit-identical to probing every
        // record — the parity tests check exactly that against a
        // per-record scalar reference.
        constexpr std::uint64_t kNoRun = ~0ull;
        const unsigned i_line_shift = static_cast<unsigned>(
            std::countr_zero(std::uint64_t{caches_.instrLineBytes()}));
        const unsigned d_line_shift = static_cast<unsigned>(
            std::countr_zero(std::uint64_t{caches_.dataLineBytes()}));
        const unsigned i_page_shift = static_cast<unsigned>(
            std::countr_zero(tlbs_.instrPageBytes()));
        const unsigned d_page_shift = static_cast<unsigned>(
            std::countr_zero(tlbs_.dataPageBytes()));
        std::uint64_t last_iline = kNoRun, last_ipage = kNoRun;
        std::uint64_t last_dline = kNoRun, last_dpage = kNoRun;
        std::uint64_t irun = 0, iprun = 0, drun = 0, dprun = 0;

        // Sampled batch-boundary audits: every kAuditBatchInterval-th
        // batch when a trail is attached (the mid-run invariants hold
        // with runs still open — pending repeats only add counts).
        constexpr std::uint64_t kAuditBatchInterval = 16;

        std::uint64_t remaining = count;
        while (remaining > 0) {
            std::size_t n = generator.fill(batch, remaining);
            remaining -= n;
            if (trail_ && ++audit_batches_ % kAuditBatchInterval == 0)
                auditPoint(/*post_prewarm=*/false);

            // Pass 1 (ordered): drive the stateful structures in
            // exact stream order, with run collapsing.
            std::size_t branches_in_batch = 0;
            for (std::size_t i = 0; i < n; ++i) {
                std::uint64_t pc = batch.pc[i];

                std::uint64_t iline = pc >> i_line_shift;
                if (iline == last_iline) {
                    ++irun;
                } else {
                    if (irun) {
                        caches_.repeatInstrHits(irun);
                        irun = 0;
                    }
                    caches_.accessInstr(pc);
                    last_iline = iline;
                }
                std::uint64_t ipage = pc >> i_page_shift;
                if (ipage == last_ipage) {
                    ++iprun;
                } else {
                    if (iprun) {
                        tlbs_.repeatInstrHits(iprun);
                        iprun = 0;
                    }
                    tlbs_.accessInstr(pc);
                    last_ipage = ipage;
                }

                trace::OpClass op = batch.op[i];
                if (op == trace::OpClass::Branch) {
                    branch_pc[branches_in_batch] = pc;
                    branch_id[branches_in_batch] = batch.branch_id[i];
                    branch_taken[branches_in_batch] =
                        batch.taken(i) ? 1 : 0;
                    ++branches_in_batch;
                } else if (op == trace::OpClass::Load ||
                           op == trace::OpClass::Store) {
                    std::uint64_t address = batch.address[i];
                    std::uint64_t dline = address >> d_line_shift;
                    if (dline == last_dline) {
                        ++drun;
                    } else {
                        if (drun) {
                            caches_.repeatDataHits(drun);
                            drun = 0;
                        }
                        caches_.accessData(address, pc);
                        last_dline = dline;
                    }
                    std::uint64_t dpage = address >> d_page_shift;
                    if (dpage == last_dpage) {
                        ++dprun;
                    } else {
                        if (dprun) {
                            tlbs_.repeatDataHits(dprun);
                            dprun = 0;
                        }
                        tlbs_.accessData(address);
                        last_dpage = dpage;
                    }
                }
            }

            // Resolve the batch's branches through the predictor's
            // batch kernel (also needed when not recording: predictor
            // state must advance through warm-up windows).
            predictor.updateBatch(branch_pc.data(), branch_id.data(),
                                  branch_taken.data(),
                                  branch_mispred.data(),
                                  branches_in_batch);

            // Pass 2 (counting): branchless SoA reductions.  32-bit
            // lane accumulators are safe (n <= 4096) and give the
            // vectorizer narrower, denser lanes.
            if constexpr (Record) {
                const trace::OpClass *op = batch.op.data();
                const std::uint8_t *flags = batch.flags.data();
                std::uint32_t b_kernel = 0, b_loads = 0, b_stores = 0;
                std::uint32_t b_fp = 0, b_simd = 0, b_branches = 0;
                std::uint32_t b_taken = 0, b_mispred = 0;
                for (std::size_t i = 0; i < n; ++i) {
                    bool is_branch = op[i] == trace::OpClass::Branch;
                    b_kernel +=
                        (flags[i] & trace::RecordBatch::kKernelBit) >> 1;
                    b_loads += op[i] == trace::OpClass::Load ? 1 : 0;
                    b_stores += op[i] == trace::OpClass::Store ? 1 : 0;
                    b_fp += op[i] == trace::OpClass::FpAlu ? 1 : 0;
                    b_simd += op[i] == trace::OpClass::Simd ? 1 : 0;
                    b_branches += is_branch ? 1 : 0;
                    b_taken +=
                        is_branch
                            ? (flags[i] & trace::RecordBatch::kTakenBit)
                            : 0;
                }
                for (std::size_t k = 0; k < branches_in_batch; ++k)
                    b_mispred += branch_mispred[k];
                kernel += b_kernel;
                loads += b_loads;
                stores += b_stores;
                fp_ops += b_fp;
                simd_ops += b_simd;
                branches += b_branches;
                taken_branches += b_taken;
                mispredictions += b_mispred;
            }
        }

        // Flush the trailing runs so the window's counters are
        // complete before the closing snapshot.
        if (irun)
            caches_.repeatInstrHits(irun);
        if (iprun)
            tlbs_.repeatInstrHits(iprun);
        if (drun)
            caches_.repeatDataHits(drun);
        if (dprun)
            tlbs_.repeatDataHits(dprun);

        if constexpr (Record) {
            PerfCounters &c = *record;
            c.instructions += count;
            c.kernel_instructions += kernel;
            c.loads += loads;
            c.stores += stores;
            c.fp_ops += fp_ops;
            c.simd_ops += simd_ops;
            c.branches += branches;
            c.taken_branches += taken_branches;
            c.branch_mispredictions += mispredictions;
            addDelta(c, start, capture(caches_, tlbs_));
        }
    }

    CacheHierarchy caches_;
    TlbHierarchy tlbs_;
    PredictorVariant predictor_;
    verify::AuditTrail *trail_ = nullptr;
    std::uint64_t audit_batches_ = 0;
};

/** Fused-pipeline simulate() body, with an optional audit trail. */
SimulationResult
simulateFused(const trace::WorkloadProfile &profile,
              const MachineConfig &machine, const SimulationConfig &config,
              verify::AuditTrail *trail)
{
    trace::WorkloadProfile effective =
        config.apply_machine_transform
            ? transformForMachine(profile, machine)
            : profile;

    trace::TraceGenerator generator(effective, config.seed_salt);
    Playback playback(machine);
    playback.attachAudit(trail);
    if (config.prewarm) {
        playback.prewarm(effective, machine, config.force_prewarm_walk);
        playback.auditPoint(/*post_prewarm=*/true);
    }

    SimulationResult result;
    playback.play(generator, config.warmup, nullptr);
    playback.retireUnusedPrefetches();
    playback.play(generator, config.instructions, &result.counters);
    playback.auditPoint(/*post_prewarm=*/false);

    // Surfaced in the run manifest so the prefetch-vs-demand-miss
    // separation (lint rule SL014) is checkable from artifacts alone.
    if (result.counters.prefetch_fills != 0) {
        static obs::Counter &prefetch_fills =
            obs::Registry::global().counter("uarch.prefetch.fills");
        prefetch_fills.add(result.counters.prefetch_fills);
    }

    result.cpi_stack = computeCpiStack(result.counters,
                                       machine.latencies,
                                       effective.exec);
    result.power = computePower(result.counters,
                                result.cpi_stack.total(), machine.power);
    return result;
}

#ifndef SPECLENS_AUDIT_OFF
/**
 * Surface violations found by the implicit (SPECLENS_AUDIT=ON) hooks:
 * nothing holds the trail after simulate() returns, so print each
 * record to stderr.  The verify.violations counter has already moved.
 */
void
reportImplicitAudit(const verify::AuditTrail &trail)
{
    for (const verify::Violation &v : trail.violations)
        std::cerr << "speclens: audit violation: "
                  << verify::renderViolation(v) << "\n";
}
#endif

} // namespace

SimulationResult
simulate(const trace::WorkloadProfile &profile, const MachineConfig &machine,
         const SimulationConfig &config)
{
#ifndef SPECLENS_AUDIT_OFF
    verify::AuditTrail trail;
    SimulationResult result = simulateFused(profile, machine, config, &trail);
    reportImplicitAudit(trail);
    return result;
#else
    return simulateFused(profile, machine, config, nullptr);
#endif
}

SimulationResult
simulateAudited(const trace::WorkloadProfile &profile,
                const MachineConfig &machine, const SimulationConfig &config,
                verify::AuditTrail &trail)
{
    return simulateFused(profile, machine, config, &trail);
}

bool
bitIdentical(const SimulationResult &a, const SimulationResult &b)
{
    return a.counters == b.counters && a.cpi_stack == b.cpi_stack &&
           a.power == b.power;
}

PhasedSimulationResult
simulatePhased(const trace::PhasedWorkload &workload,
               const MachineConfig &machine,
               const SimulationConfig &config)
{
    workload.validate();

    Playback playback(machine);
#ifndef SPECLENS_AUDIT_OFF
    verify::AuditTrail trail;
    playback.attachAudit(&trail);
#endif
    PhasedSimulationResult result;
    double weighted_cpi = 0.0;

    bool first_phase = true;
    for (const trace::Phase &phase : workload.phases) {
        trace::WorkloadProfile effective =
            config.apply_machine_transform
                ? transformForMachine(phase.profile, machine)
                : phase.profile;
        if (config.prewarm) {
            playback.prewarm(effective, machine, config.force_prewarm_walk);
            // The prewarm-boundary fill invariants only hold while the
            // structures are untouched; later phases warm into state
            // the previous phase left behind.
            playback.auditPoint(/*post_prewarm=*/first_phase);
        }
        first_phase = false;

        auto share = [&phase](std::uint64_t total) {
            return std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(
                       phase.weight * static_cast<double>(total)));
        };

        trace::TraceGenerator generator(effective, config.seed_salt);
        playback.play(generator, share(config.warmup), nullptr);
        playback.retireUnusedPrefetches();

        SimulationResult phase_result;
        playback.play(generator, share(config.instructions),
                      &phase_result.counters);
        phase_result.cpi_stack = computeCpiStack(
            phase_result.counters, machine.latencies, effective.exec);
        phase_result.power =
            computePower(phase_result.counters,
                         phase_result.cpi_stack.total(), machine.power);

        result.combined_counters += phase_result.counters;
        weighted_cpi += phase.weight * phase_result.cpi();
        result.per_phase.push_back(std::move(phase_result));
    }
    playback.auditPoint(/*post_prewarm=*/false);
#ifndef SPECLENS_AUDIT_OFF
    reportImplicitAudit(trail);
#endif

    result.combined_cpi = weighted_cpi;
    return result;
}

} // namespace uarch
} // namespace speclens
