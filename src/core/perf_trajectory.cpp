/**
 * @file
 * Pinned performance-trajectory runner and BENCH_<pr>.json renderer.
 */

#include "perf_trajectory.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "core/analysis_session.h"
#include "core/characterization.h"
#include "obs/manifest.h"
#include "stats/distance.h"
#include "stats/fingerprint.h"
#include "stats/pca.h"
#include "suites/machines.h"
#include "suites/spec2017.h"
#include "uarch/simulation.h"

namespace speclens {
namespace core {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Finite double as a JSON number ("%.9g"; non-finite clamps to 0). */
std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    return buf;
}

const char *
yesNo(bool value)
{
    return value ? "yes" : "NO";
}

} // namespace

TrajectoryResult
runTrajectory(const TrajectoryConfig &config)
{
    TrajectoryResult out;
    out.config = config;

    const std::vector<suites::BenchmarkInfo> &benchmarks =
        suites::spec2017();
    const std::vector<uarch::MachineConfig> &machines =
        suites::profilingMachines();
    out.benchmarks = benchmarks.size();
    out.machines = machines.size();

    CharacterizationConfig ccfg;
    ccfg.instructions = config.instructions;
    ccfg.warmup = config.warmup;
    ccfg.seed_salt = config.seed_salt;
    ccfg.jobs = 1; // Single-threaded by contract: wall-clock per stage
                   // is the artifact, so parallelism would hide the
                   // per-simulation cost the trajectory tracks.

    // -- Stage 1: the campaign. --
    Characterizer fused(machines, ccfg);
    Clock::time_point t0 = Clock::now();
    fused.prepare(benchmarks, /*jobs=*/1);
    out.fused_seconds = secondsSince(t0);

    out.simulations = fused.simulationsRun();
    out.records_per_simulation = config.warmup + config.instructions;
    out.records_total =
        out.records_per_simulation * static_cast<std::uint64_t>(out.simulations);
    if (out.fused_seconds > 0.0) {
        out.simulations_per_second =
            static_cast<double>(out.simulations) / out.fused_seconds;
        out.records_per_second =
            static_cast<double>(out.records_total) / out.fused_seconds;
        out.speedup_vs_seed =
            out.records_per_second / kSeedRecordsPerSecond;
    }

    stats::Fingerprinter campaign_fp;
    campaign_fp.tag("speclens-campaign-results-v1");
    for (const suites::BenchmarkInfo &b : benchmarks)
        for (std::size_t m = 0; m < machines.size(); ++m)
            fused.simulation(b, m).hashInto(campaign_fp);
    out.campaign_fingerprint = campaign_fp.value();

    // -- Stage 2: stats pipeline over the campaign's feature matrix. --
    t0 = Clock::now();
    stats::Matrix features = fused.featureMatrix(benchmarks);
    stats::PcaResult pca = stats::fitPca(features);
    stats::Matrix distances = stats::pairwiseDistances(pca.scores);
    out.stats_seconds = secondsSince(t0);

    out.feature_rows = features.rows();
    out.feature_cols = features.cols();
    out.pca_retained = pca.retained;
    out.pca_variance_covered = pca.variance_covered;

    stats::Fingerprinter stats_fp;
    stats_fp.tag("speclens-stats-results-v1");
    stats_fp.u64(features.rows());
    stats_fp.u64(features.cols());
    for (double v : features.data())
        stats_fp.f64(v);
    for (double v : pca.eigenvalues)
        stats_fp.f64(v);
    for (double v : distances.data())
        stats_fp.f64(v);
    out.stats_fingerprint = stats_fp.value();

    // -- Stage 3: artifact-store reuse proof (optional). --
    if (!config.store_dir.empty()) {
        out.store_checked = true;
        SessionConfig scfg;
        scfg.machines = machines;
        scfg.characterization = ccfg;
        scfg.store_dir = config.store_dir;

        {
            AnalysisSession cold(scfg);
            t0 = Clock::now();
            cold.characterizer().prepare(benchmarks, /*jobs=*/1);
            out.store_cold_seconds = secondsSince(t0);
        }

        AnalysisSession warm(scfg);
        t0 = Clock::now();
        warm.characterizer().prepare(benchmarks, /*jobs=*/1);
        out.store_warm_seconds = secondsSince(t0);
        out.warm_simulations_run = warm.characterizer().simulationsRun();

        std::size_t pairs = benchmarks.size() * machines.size();
        if (pairs > 0)
            out.warm_hit_rate =
                1.0 - static_cast<double>(out.warm_simulations_run) /
                          static_cast<double>(pairs);

        out.warm_bit_identical = true;
        for (const suites::BenchmarkInfo &b : benchmarks)
            for (std::size_t m = 0; m < machines.size(); ++m)
                if (!uarch::bitIdentical(warm.characterizer().simulation(b, m),
                                         fused.simulation(b, m)))
                    out.warm_bit_identical = false;
    }

    return out;
}

std::string
renderTrajectoryFacts(const TrajectoryResult &r)
{
    std::ostringstream os;
    os << "bench trajectory: suite=cpu2017 benchmarks=" << r.benchmarks
       << " machines=" << r.machines << "\n";
    os << "window: instructions=" << r.config.instructions
       << " warmup=" << r.config.warmup
       << " seed_salt=" << r.config.seed_salt << " jobs=1\n";
    os << "campaign: simulations=" << r.simulations
       << " records=" << r.records_total
       << " fingerprint=" << obs::hex16(r.campaign_fingerprint) << "\n";
    os << "stats: rows=" << r.feature_rows << " cols=" << r.feature_cols
       << " pca_retained=" << r.pca_retained
       << " fingerprint=" << obs::hex16(r.stats_fingerprint) << "\n";
    if (r.store_checked)
        os << "store: warm rerun simulations=" << r.warm_simulations_run
           << " bit-identical: " << yesNo(r.warm_bit_identical) << "\n";
    else
        os << "store: skipped (no store directory)\n";
    return os.str();
}

std::string
renderTrajectoryJson(const TrajectoryResult &r)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": \"speclens-bench-trajectory-v3\",\n";
    os << "  \"pr\": " << r.config.pr << ",\n";
    os << "  \"seed_baseline\": {\n";
    os << "    \"records_per_second\": "
       << jsonNumber(kSeedRecordsPerSecond) << ",\n";
    os << "    \"simulations_per_second\": "
       << jsonNumber(kSeedSimulationsPerSecond) << "\n";
    os << "  },\n";
    os << "  \"config\": {\n";
    os << "    \"suite\": \"cpu2017\",\n";
    os << "    \"benchmarks\": " << r.benchmarks << ",\n";
    os << "    \"machines\": " << r.machines << ",\n";
    os << "    \"instructions\": " << r.config.instructions << ",\n";
    os << "    \"warmup\": " << r.config.warmup << ",\n";
    os << "    \"seed_salt\": " << r.config.seed_salt << ",\n";
    os << "    \"jobs\": 1\n";
    os << "  },\n";
    os << "  \"campaign\": {\n";
    os << "    \"simulations\": " << r.simulations << ",\n";
    os << "    \"records_per_simulation\": " << r.records_per_simulation
       << ",\n";
    os << "    \"records_total\": " << r.records_total << ",\n";
    os << "    \"fingerprint\": \"" << obs::hex16(r.campaign_fingerprint)
       << "\",\n";
    os << "    \"fused_seconds\": " << jsonNumber(r.fused_seconds) << ",\n";
    os << "    \"speedup_vs_seed\": " << jsonNumber(r.speedup_vs_seed)
       << ",\n";
    os << "    \"simulations_per_second\": "
       << jsonNumber(r.simulations_per_second) << ",\n";
    os << "    \"records_per_second\": " << jsonNumber(r.records_per_second)
       << "\n";
    os << "  },\n";
    os << "  \"stats\": {\n";
    os << "    \"seconds\": " << jsonNumber(r.stats_seconds) << ",\n";
    os << "    \"feature_rows\": " << r.feature_rows << ",\n";
    os << "    \"feature_cols\": " << r.feature_cols << ",\n";
    os << "    \"pca_retained\": " << r.pca_retained << ",\n";
    os << "    \"pca_variance_covered\": "
       << jsonNumber(r.pca_variance_covered) << ",\n";
    os << "    \"fingerprint\": \"" << obs::hex16(r.stats_fingerprint)
       << "\"\n";
    os << "  },\n";
    os << "  \"store\": {\n";
    os << "    \"checked\": " << (r.store_checked ? "true" : "false");
    if (r.store_checked) {
        os << ",\n";
        os << "    \"cold_seconds\": " << jsonNumber(r.store_cold_seconds)
           << ",\n";
        os << "    \"warm_seconds\": " << jsonNumber(r.store_warm_seconds)
           << ",\n";
        os << "    \"warm_simulations_run\": " << r.warm_simulations_run
           << ",\n";
        os << "    \"warm_hit_rate\": " << jsonNumber(r.warm_hit_rate)
           << ",\n";
        os << "    \"warm_bit_identical\": "
           << (r.warm_bit_identical ? "true" : "false") << "\n";
    } else {
        os << "\n";
    }
    os << "  }\n";
    os << "}\n";
    return os.str();
}

std::string
trajectoryArtifactName(int pr)
{
    return "BENCH_" + std::to_string(pr) + ".json";
}

} // namespace core
} // namespace speclens
