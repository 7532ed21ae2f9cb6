/**
 * @file
 * Trace-driven simulation driver: the perf-counter measurement
 * equivalent.
 *
 * simulate() plays a workload's synthetic instruction stream through a
 * machine's cache hierarchy, TLBs and branch predictor, collects the
 * event counts a perf session would report, and derives the CPI stack
 * and power estimate.  A warm-up window is excluded from the counters
 * so cold-start compulsory misses do not distort the steady-state
 * rates the paper's metrics describe.
 *
 * There is one playback loop, behind simulate(), simulateAudited() and
 * simulatePhased().  Its batching, run collapsing and analytic prewarm
 * are checked bit for bit against a per-record scalar reference that
 * lives with the tests (tests/uarch/reference_simulator.h).
 */

#ifndef SPECLENS_UARCH_SIMULATION_H
#define SPECLENS_UARCH_SIMULATION_H

#include <cstdint>
#include <vector>

#include "stats/fingerprint.h"
#include "trace/phased_workload.h"
#include "trace/workload_profile.h"
#include "uarch/cpi_model.h"
#include "uarch/machine.h"
#include "uarch/perf_counters.h"
#include "uarch/power_model.h"
#include "verify/violation.h"

namespace speclens {
namespace uarch {

/** Simulation window parameters. */
struct SimulationConfig
{
    /** Measured instructions (after warm-up). */
    std::uint64_t instructions = 200'000;

    /** Warm-up instructions excluded from all counters. */
    std::uint64_t warmup = 40'000;

    /** Extra seed entropy for independent re-runs. */
    std::uint64_t seed_salt = 0;

    /**
     * When false the machine's ISA/compiler workload transform is
     * skipped (used by tests that need the untouched profile).
     */
    bool apply_machine_transform = true;

    /**
     * Touch every line of LLC-resident working sets before the warm-up
     * window, so a short measurement reflects steady state rather than
     * cold-start compulsory misses (the paper measures full multi-
     * trillion-instruction runs).
     */
    bool prewarm = true;

    /**
     * Skip the closed-form prewarm solver and run the walking path
     * even when the pattern is provable.  Both paths leave bit-for-bit
     * identical state (enforced by tests/uarch/prewarm_equivalence_
     * test.cpp), so this knob is not result-determining and is
     * excluded from hashInto(); it exists for equivalence tests and
     * A/B timing.
     */
    bool force_prewarm_walk = false;

    /**
     * Feed every result-determining field (the window sizes, the seed
     * salt and both mode flags) to @p fp — the canonical "window" hash
     * shared by all artifact-store fingerprints.
     */
    void hashInto(stats::Fingerprinter &fp) const;
};

/** Everything a measurement run produces. */
struct SimulationResult
{
    PerfCounters counters;  //!< Steady-state event counts.
    CpiStack cpi_stack;     //!< Top-down CPI decomposition.
    PowerBreakdown power;   //!< Core / LLC / DRAM power estimate.

    /** Total CPI. */
    double cpi() const { return cpi_stack.total(); }

    /** Instructions per cycle. */
    double ipc() const;

    /**
     * Feed every event count, then every CPI-stack component, then the
     * three power rails (each double by bit pattern) to @p fp, so a
     * digest over results changes if any result changes in any bit.
     */
    void hashInto(stats::Fingerprinter &fp) const;
};

/**
 * Measure @p profile on @p machine.
 *
 * Deterministic for a given (profile, machine, config) triple.  The
 * instruction stream is fused into the structure models: records flow
 * from the generator in small structure-of-arrays batches, never as a
 * window-sized buffer.
 */
SimulationResult simulate(const trace::WorkloadProfile &profile,
                          const MachineConfig &machine,
                          const SimulationConfig &config = {});

/**
 * simulate() with the structural invariant prover forced on,
 * independent of the SPECLENS_AUDIT build switch: the live structures
 * are audited after prewarm, at sampled batch boundaries and at end of
 * run, and the evidence accumulates in @p trail (verify.audits /
 * verify.violations obs counters move in step).  Auditing never
 * mutates structure state, so the returned result is bit-identical to
 * simulate() on the same inputs.  This is the entry point behind
 * `speclens audit`.
 */
SimulationResult simulateAudited(const trace::WorkloadProfile &profile,
                                 const MachineConfig &machine,
                                 const SimulationConfig &config,
                                 verify::AuditTrail &trail);

/**
 * True when two results agree bit-for-bit: every event count equal and
 * every derived double (CPI-stack components, power rails) identical
 * under exact floating-point comparison.  This is the contract the
 * fused pipeline must honour against the scalar reference in the
 * tests, and a warm artifact-store rerun against a cold one.
 */
bool bitIdentical(const SimulationResult &a, const SimulationResult &b);

/** Result of simulating a phased workload. */
struct PhasedSimulationResult
{
    /** Per-phase results, in phase order. */
    std::vector<SimulationResult> per_phase;

    /** Counters accumulated over the whole run. */
    PerfCounters combined_counters;

    /** Execution-weighted mean CPI of the run. */
    double combined_cpi = 0.0;
};

/**
 * Measure a phased workload end to end: phases run in sequence within
 * one set of machine structures (caches, TLBs and predictor state
 * carry across phase boundaries, as on hardware), each receiving a
 * share of the measured window proportional to its weight.
 *
 * @param workload Validated phased workload.
 * @param machine Machine model.
 * @param config Window sizes apply to the whole run.
 */
PhasedSimulationResult
simulatePhased(const trace::PhasedWorkload &workload,
               const MachineConfig &machine,
               const SimulationConfig &config = {});

} // namespace uarch
} // namespace speclens

#endif // SPECLENS_UARCH_SIMULATION_H
