/**
 * @file
 * Trajectory artifact (BENCH_<pr>.json) contract tests.
 *
 * The committed artifact is only useful if (a) the deterministic facts
 * it records are actually deterministic across reruns, (b) the JSON it
 * emits is well-formed, and (c) the run re-proves the warm-store
 * reuse contract rather than asserting it on faith.  Timings are
 * checked for sanity only — they are the one part allowed to vary.
 */

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "core/perf_trajectory.h"
#include "obs/json.h"

using namespace speclens;

namespace {

/** Fresh (pre-cleaned) store directory unique to one test. */
std::string
storeDir(const std::string &test)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("speclens_trajectory_test_" + test);
    std::filesystem::remove_all(dir);
    return dir.string();
}

/** Tiny window so a full 301-pair trajectory stays fast. */
core::TrajectoryConfig
tinyConfig()
{
    core::TrajectoryConfig config;
    config.pr = 6;
    config.instructions = 1'500;
    config.warmup = 500;
    return config;
}

TEST(Trajectory, PinnedDefaultsAndArtifactName)
{
    core::TrajectoryConfig config;
    EXPECT_EQ(config.instructions, core::kTrajectoryInstructions);
    EXPECT_EQ(config.warmup, core::kTrajectoryWarmup);
    EXPECT_EQ(config.seed_salt, 0u);
    EXPECT_EQ(core::trajectoryArtifactName(6), "BENCH_6.json");
    EXPECT_EQ(core::trajectoryArtifactName(0), "BENCH_0.json");
}

TEST(Trajectory, CampaignShape)
{
    core::TrajectoryResult r = core::runTrajectory(tinyConfig());

    // The pinned campaign: all of CPU2017 on the seven profiling
    // machines, single-threaded.
    EXPECT_EQ(r.benchmarks, 43u);
    EXPECT_EQ(r.machines, 7u);
    EXPECT_EQ(r.simulations, r.benchmarks * r.machines);
    EXPECT_EQ(r.records_per_simulation, 2'000u);
    EXPECT_EQ(r.records_total,
              r.records_per_simulation * r.simulations);

    EXPECT_NE(r.campaign_fingerprint, 0u);

    // Stats stage ran over the campaign's feature matrix.
    EXPECT_EQ(r.feature_rows, 43u);
    EXPECT_GT(r.feature_cols, 0u);
    EXPECT_GE(r.pca_retained, 1u);
    EXPECT_GT(r.pca_variance_covered, 0.0);
    EXPECT_NE(r.stats_fingerprint, 0u);

    // Timings: positive, and rates consistent with them.
    EXPECT_GT(r.fused_seconds, 0.0);
    EXPECT_GT(r.simulations_per_second, 0.0);
    EXPECT_GT(r.records_per_second, 0.0);

    // No store directory given, so the reuse stage was skipped.
    EXPECT_FALSE(r.store_checked);
}

TEST(Trajectory, DeterministicFactsAndWarmStoreReuse)
{
    core::TrajectoryConfig config = tinyConfig();
    core::TrajectoryResult first = core::runTrajectory(config);

    config.store_dir = storeDir("warm_reuse");
    core::TrajectoryResult second = core::runTrajectory(config);

    // Deterministic facts agree across independent runs (with and
    // without a store attached).
    EXPECT_EQ(first.campaign_fingerprint, second.campaign_fingerprint);
    EXPECT_EQ(first.stats_fingerprint, second.stats_fingerprint);
    EXPECT_EQ(first.pca_retained, second.pca_retained);
    EXPECT_EQ(first.pca_variance_covered, second.pca_variance_covered);

    // The store stage proved cold/warm reuse: the warm rerun simulated
    // nothing and produced bit-identical results.
    EXPECT_TRUE(second.store_checked);
    EXPECT_EQ(second.warm_simulations_run, 0u);
    EXPECT_EQ(second.warm_hit_rate, 1.0);
    EXPECT_TRUE(second.warm_bit_identical);
    EXPECT_GT(second.store_cold_seconds, 0.0);
    EXPECT_GT(second.store_warm_seconds, 0.0);
    EXPECT_LT(second.store_warm_seconds, second.store_cold_seconds);

    // The stdout facts block is byte-identical apart from the store
    // line (absent vs proven), so compare the runs' common prefix and
    // each block's own stability re-rendered.
    std::string facts_first = core::renderTrajectoryFacts(first);
    std::string facts_second = core::renderTrajectoryFacts(second);
    EXPECT_NE(facts_first.find("store: skipped"), std::string::npos);
    EXPECT_NE(facts_second.find("store: warm rerun simulations=0 "
                                "bit-identical: yes"),
              std::string::npos);
    std::string prefix =
        facts_first.substr(0, facts_first.find("store:"));
    EXPECT_EQ(facts_second.compare(0, prefix.size(), prefix), 0);

    std::filesystem::remove_all(config.store_dir);
}

TEST(Trajectory, JsonIsWellFormedAndCarriesTheFacts)
{
    core::TrajectoryResult r = core::runTrajectory(tinyConfig());

    std::string json = core::renderTrajectoryJson(r);
    EXPECT_TRUE(obs::validateJson(json));

    // Schema marker and the determinism-bearing fields must be present.
    EXPECT_NE(json.find("\"schema\": \"speclens-bench-trajectory-v3\""),
              std::string::npos);
    EXPECT_NE(json.find("\"pr\": 6"), std::string::npos);
    EXPECT_NE(json.find("\"simulations\": 301"), std::string::npos);
    // No materialized baseline: v3 times one simulator only.
    EXPECT_EQ(json.find("materialized"), std::string::npos);
    EXPECT_EQ(json.find("parity_bit_identical"), std::string::npos);
    EXPECT_NE(json.find("\"fingerprint\""), std::string::npos);
    EXPECT_NE(json.find("\"checked\": false"), std::string::npos);

    // The recorded seed baseline plus the cumulative speedup derived
    // from it.
    EXPECT_NE(json.find("\"seed_baseline\""), std::string::npos);
    EXPECT_NE(json.find("\"speedup_vs_seed\""), std::string::npos);
    EXPECT_GT(r.speedup_vs_seed, 0.0);
    EXPECT_DOUBLE_EQ(r.speedup_vs_seed,
                     r.records_per_second / core::kSeedRecordsPerSecond);

    // Facts block never leaks timings: no "seconds" token on stdout.
    std::string facts = core::renderTrajectoryFacts(r);
    EXPECT_EQ(facts.find("seconds"), std::string::npos);
    EXPECT_EQ(facts.find("_per_second"), std::string::npos);
}

} // namespace
