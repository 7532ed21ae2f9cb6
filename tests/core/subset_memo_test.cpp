/**
 * @file
 * The service context's per-category subset-analysis memo (ctest label
 * `parallel`, so the ThreadSanitizer leg runs the concurrent case).
 *
 * A memoized analysis must render exactly the bytes a fresh context
 * computes, concurrent first requests must share one computation, and
 * a warm context must fit one PCA per category however many `subset`
 * queries it answers.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/query_ops.h"
#include "core/service_context.h"
#include "obs/metrics.h"

using namespace speclens;

namespace {

const char *const kCategories[] = {"speed-int", "rate-int", "speed-fp",
                                   "rate-fp"};

core::ServiceConfig
tinyServiceConfig()
{
    core::ServiceConfig config;
    config.characterization.instructions = 2'000;
    config.characterization.warmup = 500;
    return config;
}

std::uint64_t
counterValue(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

std::size_t
suiteSize(const std::string &category)
{
    std::vector<suites::BenchmarkInfo> suite;
    suites::Category resolved;
    if (!core::resolveCategory(category, suite, resolved))
        throw std::invalid_argument(category);
    return suite.size();
}

} // namespace

// Every category at k = 1, 3 and n: a context answering from its memo
// prints what a fresh context computes from scratch.
TEST(SubsetAnalysisMemo, RepeatedQueryMatchesFreshContextBytes)
{
    core::ServiceContext warm(tinyServiceConfig());
    for (const char *category : kCategories) {
        const std::size_t n = suiteSize(category);
        for (std::size_t k : {std::size_t{1}, std::size_t{3}, n}) {
            core::ServiceContext fresh(tinyServiceConfig());
            core::QueryOutcome expected =
                core::runSubsetQuery(fresh, category, k);
            ASSERT_TRUE(expected.ok) << expected.error;
            for (int round = 0; round < 2; ++round) {
                core::QueryOutcome memoized =
                    core::runSubsetQuery(warm, category, k);
                ASSERT_TRUE(memoized.ok) << memoized.error;
                EXPECT_EQ(memoized.output, expected.output)
                    << category << " k=" << k << " round " << round;
            }
        }
    }
}

// Eight simultaneous first requests wait on one analysis.
TEST(SubsetAnalysisMemo, ConcurrentFirstRequestsShareOneAnalysis)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    const std::uint64_t misses_before =
        counterValue("core.query.subset_analysis.misses");
    const std::uint64_t hits_before =
        counterValue("core.query.subset_analysis.hits");

    core::ServiceContext context(tinyServiceConfig());
    std::vector<std::string> outputs(8);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < outputs.size(); ++t) {
        threads.emplace_back([&, t]() {
            core::QueryOutcome outcome =
                core::runSubsetQuery(context, "speed-int", 3);
            if (outcome.ok)
                outputs[t] = outcome.output;
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    ASSERT_FALSE(outputs[0].empty());
    for (const std::string &output : outputs)
        EXPECT_EQ(output, outputs[0]);
    EXPECT_EQ(counterValue("core.query.subset_analysis.misses") -
                  misses_before,
              1u);
    EXPECT_EQ(counterValue("core.query.subset_analysis.hits") -
                  hits_before,
              7u);
}

// The layer the memo saves: 20 queries per category fit 4 PCAs.
TEST(SubsetAnalysisMemo, WarmContextFitsOnePcaPerCategory)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    obs::Timing &fit = obs::Registry::global().timing("stats.pca.fit");
    const std::uint64_t fits_before = fit.stats().count;

    core::ServiceContext context(tinyServiceConfig());
    for (const char *category : kCategories)
        for (int request = 0; request < 20; ++request)
            ASSERT_TRUE(core::runSubsetQuery(context, category, 3).ok);
    EXPECT_EQ(fit.stats().count - fits_before, 4u);
}

TEST(SubsetAnalysisMemo, RejectsCategoriesOutsideCpu2017)
{
    core::ServiceContext context(tinyServiceConfig());
    EXPECT_THROW(context.subsetAnalysis(suites::Category::Int),
                 std::invalid_argument);
    EXPECT_THROW(context.subsetAnalysis(suites::Category::Other),
                 std::invalid_argument);
}
