/**
 * @file
 * Pinned performance trajectory for the per-PR BENCH_<pr>.json artifact.
 *
 * Every PR that touches the simulation or stats hot paths re-runs one
 * fixed, single-threaded campaign (all of CPU2017 on the seven
 * profiling machines, 150k measured + 40k warm-up instructions, seed
 * salt 0) and records what it measured: wall-clock per stage,
 * simulations/sec and records/sec for the fused streaming pipeline,
 * the cumulative speedup over the seed baseline, and the stats stage
 * (feature matrix, PCA, pairwise distances).  Committing the emitted
 * BENCH_<pr>.json per PR gives the repo a perf trajectory that is
 * diffable across PRs without re-running old binaries.
 *
 * Split contract so reruns are comparable:
 *  - renderTrajectoryFacts() — deterministic facts only (configuration,
 *    counts, result fingerprints, the warm-reuse verdict).  This is
 *    what the CLI prints to stdout, so a warm-store rerun's stdout is
 *    byte-identical to the cold run's.
 *  - renderTrajectoryJson() — facts plus timings.  Timings vary run to
 *    run, so they live only in the JSON artifact (and stderr), never
 *    on stdout.
 *
 * Result correctness is pinned by the campaign fingerprint (every
 * counter and derived double of all 301 pairs) rather than by a second
 * simulator: the parity tests hold the fused pipeline to a scalar
 * reference.  When a store directory is given the run also re-proves
 * that warm-store results equal the cold campaign's.
 */

#ifndef SPECLENS_CORE_PERF_TRAJECTORY_H
#define SPECLENS_CORE_PERF_TRAJECTORY_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace speclens {
namespace core {

/** Pinned measured-window size (instructions per simulation). */
constexpr std::uint64_t kTrajectoryInstructions = 150'000;

/** Pinned warm-up window size. */
constexpr std::uint64_t kTrajectoryWarmup = 40'000;

/**
 * Seed-tree baseline for the pinned campaign, measured once on the
 * reference container (single thread, best of 3) by replaying the
 * seed commit's Characterizer over the same 43 x 7 / 150k+40k / salt 0
 * configuration.  Recorded as constants so every BENCH_<pr>.json can
 * report a cumulative `speedup_vs_seed` (DESIGN.md §5e).
 */
constexpr double kSeedRecordsPerSecond = 8.221188e6;
constexpr double kSeedSimulationsPerSecond = 43.269411;

/** Trajectory run parameters.  Defaults are the pinned configuration. */
struct TrajectoryConfig
{
    /** PR number stamped into the artifact (BENCH_<pr>.json). */
    int pr = 0;

    /**
     * Window sizes.  The pinned values make artifacts comparable
     * across PRs; tests shrink them to keep runtimes down.
     */
    std::uint64_t instructions = kTrajectoryInstructions;
    std::uint64_t warmup = kTrajectoryWarmup;

    /** Seed salt (pinned to 0 for the committed artifact). */
    std::uint64_t seed_salt = 0;

    /**
     * Artifact-store directory for the cold/warm reuse proof; empty
     * skips that stage.
     */
    std::string store_dir;
};

/** Everything one trajectory run measured and proved. */
struct TrajectoryResult
{
    TrajectoryConfig config;

    // -- Campaign shape (deterministic). --
    std::size_t benchmarks = 0; //!< CPU2017 workloads measured.
    std::size_t machines = 0;   //!< Profiling machines measured on.
    std::size_t simulations = 0; //!< (benchmark, machine) pairs run.
    std::uint64_t records_per_simulation = 0; //!< warmup + instructions.
    std::uint64_t records_total = 0;

    /**
     * FNV-1a fingerprint over every simulation result in (benchmark,
     * machine) order — every counter and every derived double by bit
     * pattern (SimulationResult::hashInto).  Identical across reruns
     * and thread counts; the headline determinism fact.
     */
    std::uint64_t campaign_fingerprint = 0;

    // -- Fused streaming campaign (timed). --
    double fused_seconds = 0.0;
    double simulations_per_second = 0.0;
    double records_per_second = 0.0;

    /** records_per_second / kSeedRecordsPerSecond (cumulative). */
    double speedup_vs_seed = 0.0;

    // -- Stats stage (timed). --
    double stats_seconds = 0.0;
    std::size_t feature_rows = 0;
    std::size_t feature_cols = 0;
    std::size_t pca_retained = 0;
    double pca_variance_covered = 0.0;
    /** Fingerprint over feature matrix, eigenvalues and distances. */
    std::uint64_t stats_fingerprint = 0;

    // -- Artifact-store reuse proof (only when store_dir set). --
    bool store_checked = false;
    double store_cold_seconds = 0.0;
    double store_warm_seconds = 0.0;
    /** Simulations the warm rerun had to run; must be 0. */
    std::size_t warm_simulations_run = 0;
    /** Fraction of pairs the warm rerun served without simulating. */
    double warm_hit_rate = 0.0;
    /** Warm results bit-identical to the cold campaign's. */
    bool warm_bit_identical = false;
};

/**
 * Run the pinned campaign (CPU2017 x profiling machines, single
 * thread) plus the stats stage, and the warm-store reuse proof when
 * a store directory is configured.
 */
TrajectoryResult runTrajectory(const TrajectoryConfig &config);

/**
 * Deterministic facts block for stdout — no timings, no rates, nothing
 * that can differ between a cold and a warm rerun.
 */
std::string renderTrajectoryFacts(const TrajectoryResult &result);

/**
 * The BENCH_<pr>.json document: facts plus stage timings and derived
 * rates.  Well-formed JSON (obs::validateJson accepts it).
 */
std::string renderTrajectoryJson(const TrajectoryResult &result);

/** Canonical artifact file name, e.g. "BENCH_6.json" for pr 6. */
std::string trajectoryArtifactName(int pr);

} // namespace core
} // namespace speclens

#endif // SPECLENS_CORE_PERF_TRAJECTORY_H
