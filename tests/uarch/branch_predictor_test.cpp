/**
 * @file
 * Unit tests for the branch predictor suite.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

#include "stats/rng.h"
#include "uarch/branch_predictor.h"

namespace speclens {
namespace uarch {
namespace {

/** Misprediction rate of @p predictor on a generated stream. */
template <typename NextOutcome>
double
mispredictionRate(PredictorVariant &predictor, NextOutcome next, int n)
{
    return std::visit(
        [&](auto &concrete) {
            int mispredictions = 0;
            for (int i = 0; i < n; ++i) {
                auto [id, taken] = next(i);
                bool predicted = concrete.predict(0, id);
                if (predicted != taken)
                    ++mispredictions;
                concrete.update(0, id, taken);
            }
            return static_cast<double>(mispredictions) / n;
        },
        predictor);
}

std::vector<PredictorKind>
allKinds()
{
    return {PredictorKind::StaticTaken, PredictorKind::Bimodal,
            PredictorKind::Gshare,      PredictorKind::Tournament,
            PredictorKind::Perceptron,  PredictorKind::TageLite};
}

class PredictorKindTest : public ::testing::TestWithParam<PredictorKind>
{
  protected:
    PredictorVariant predictor_ = makePredictorVariant(GetParam(), 12);
};

TEST_P(PredictorKindTest, LearnsAlwaysTaken)
{
    double rate = mispredictionRate(
        predictor_,
        [](int) { return std::pair<std::uint32_t, bool>{7, true}; },
        20000);
    EXPECT_LT(rate, 0.01) << predictorKindName(GetParam());
}

TEST_P(PredictorKindTest, LearnsAlwaysNotTakenExceptStatic)
{
    double rate = mispredictionRate(
        predictor_,
        [](int) { return std::pair<std::uint32_t, bool>{9, false}; },
        20000);
    if (GetParam() == PredictorKind::StaticTaken)
        EXPECT_DOUBLE_EQ(rate, 1.0);
    else
        EXPECT_LT(rate, 0.01) << predictorKindName(GetParam());
}

TEST_P(PredictorKindTest, RandomStreamIsHalfWrong)
{
    stats::Rng rng(5);
    double rate = mispredictionRate(
        predictor_,
        [&rng](int) {
            return std::pair<std::uint32_t, bool>{3, rng.bernoulli(0.5)};
        },
        40000);
    EXPECT_NEAR(rate, 0.5, 0.05) << predictorKindName(GetParam());
}

TEST_P(PredictorKindTest, SeparatesManyBiasedBranches)
{
    // 64 branches, even ids taken, odd ids not taken.
    if (GetParam() == PredictorKind::StaticTaken)
        GTEST_SKIP();
    double rate = mispredictionRate(
        predictor_,
        [](int i) {
            std::uint32_t id = static_cast<std::uint32_t>(i) % 64;
            return std::pair<std::uint32_t, bool>{id, id % 2 == 0};
        },
        60000);
    EXPECT_LT(rate, 0.05) << predictorKindName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllPredictors, PredictorKindTest,
                         ::testing::ValuesIn(allKinds()),
                         [](const auto &info) {
                             std::string name =
                                 predictorKindName(info.param);
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

TEST(PredictorHistoryTest, HistoryPredictorsLearnAlternation)
{
    // A strict T/N alternation defeats bimodal (it saturates mid-way)
    // but is trivial for any history-based design.
    auto alternating = [](int i) {
        return std::pair<std::uint32_t, bool>{1, i % 2 == 0};
    };
    for (PredictorKind kind :
         {PredictorKind::Gshare, PredictorKind::Tournament,
          PredictorKind::Perceptron, PredictorKind::TageLite}) {
        PredictorVariant predictor = makePredictorVariant(kind, 12);
        double rate = mispredictionRate(predictor, alternating, 20000);
        EXPECT_LT(rate, 0.02) << predictorKindName(kind);
    }
    PredictorVariant bimodal =
        makePredictorVariant(PredictorKind::Bimodal, 12);
    double bimodal_rate = mispredictionRate(bimodal, alternating, 20000);
    EXPECT_GT(bimodal_rate, 0.4);
}

TEST(PredictorHistoryTest, PatternOfPeriodFour)
{
    // T T N T repeating: bimodal settles on "taken" (75% right at
    // best); history predictors should capture the pattern.
    auto pattern = [](int i) {
        static const bool p[4] = {true, true, false, true};
        return std::pair<std::uint32_t, bool>{2, p[i % 4]};
    };
    PredictorVariant bimodal =
        makePredictorVariant(PredictorKind::Bimodal, 12);
    PredictorVariant tage = makePredictorVariant(PredictorKind::TageLite, 12);
    PredictorVariant gshare = makePredictorVariant(PredictorKind::Gshare, 12);
    double bimodal_rate = mispredictionRate(bimodal, pattern, 30000);
    double tage_rate = mispredictionRate(tage, pattern, 30000);
    double gshare_rate = mispredictionRate(gshare, pattern, 30000);
    EXPECT_GT(bimodal_rate, 0.15);
    EXPECT_LT(tage_rate, 0.05);
    EXPECT_LT(gshare_rate, 0.05);
}

/**
 * The playback loop feeds resolved branches to updateBatch() in
 * per-RecordBatch chunks; the kernel must be bit-exact against the
 * scalar predict()/update() pair — same misprediction verdict for
 * every branch AND the same internal state afterwards.  Drive one
 * predictor through batches of varied (including empty and
 * single-branch) lengths and a twin through the scalar pair in
 * lock-step, then confirm the two still agree on a fresh probe stream.
 */
TEST(PredictorDispatchTest, BatchKernelMatchesScalarPairsBitExactly)
{
    for (PredictorKind kind : allKinds()) {
        PredictorVariant batched_variant = makePredictorVariant(kind, 12);
        PredictorVariant scalar_variant = makePredictorVariant(kind, 12);
        std::visit(
            [&](auto &batched) {
                auto &scalar =
                    std::get<std::decay_t<decltype(batched)>>(
                        scalar_variant);
                stats::Rng rng(17);
                int step = 0;
                auto nextBranch = [&] {
                    std::uint64_t pc =
                        0x400000 +
                        (static_cast<std::uint64_t>(step) % 777) * 4;
                    std::uint32_t id =
                        static_cast<std::uint32_t>(step) % 97;
                    bool taken = id % 3 == 0   ? true
                                 : id % 3 == 1 ? step % 2 == 0
                                               : rng.bernoulli(0.5);
                    ++step;
                    return std::tuple{pc, id, taken};
                };

                // Batch lengths the playback loop can produce: empty
                // (branchless record batch), a lone branch, and
                // larger odd sizes that stress any vector tail.
                const std::size_t lengths[] = {1,  0,   2,  7,   64, 1,
                                               33, 513, 3,  256, 0,  1000,
                                               5,  127, 96, 2048};
                std::vector<std::uint64_t> pc;
                std::vector<std::uint32_t> id;
                std::vector<std::uint8_t> taken;
                std::vector<std::uint8_t> mispred;
                for (std::size_t len : lengths) {
                    pc.resize(len);
                    id.resize(len);
                    taken.resize(len);
                    mispred.assign(len, 0xaa);
                    for (std::size_t k = 0; k < len; ++k) {
                        auto [p, i, t] = nextBranch();
                        pc[k] = p;
                        id[k] = i;
                        taken[k] = t ? 1 : 0;
                    }
                    batched.updateBatch(pc.data(), id.data(),
                                        taken.data(), mispred.data(),
                                        len);
                    for (std::size_t k = 0; k < len; ++k) {
                        bool predicted = scalar.predict(pc[k], id[k]);
                        std::uint8_t expected =
                            predicted != (taken[k] != 0) ? 1 : 0;
                        ASSERT_EQ(mispred[k], expected)
                            << predictorKindName(kind) << " len " << len
                            << " branch " << k;
                        scalar.update(pc[k], id[k], taken[k] != 0);
                    }
                }

                // Same state afterwards: the twins must keep agreeing
                // (and keep mutating identically) on a probe stream.
                for (int probe = 0; probe < 2000; ++probe) {
                    auto [p, i, t] = nextBranch();
                    ASSERT_EQ(batched.predict(p, i), scalar.predict(p, i))
                        << predictorKindName(kind) << " probe " << probe;
                    batched.update(p, i, t);
                    scalar.update(p, i, t);
                }
            },
            batched_variant);
    }
}

TEST(PredictorDispatchTest, VariantReportsSameName)
{
    for (PredictorKind kind : allKinds()) {
        PredictorVariant variant = makePredictorVariant(kind, 10);
        std::string name = std::visit(
            [](const auto &concrete) { return concrete.name(); },
            variant);
        EXPECT_EQ(name, predictorKindName(kind));
    }
}

TEST(PredictorFactoryTest, NamesAndCreation)
{
    // The variant lists the concrete types in PredictorKind order, and
    // every kind builds at the smallest and largest sizes in use.
    for (PredictorKind kind : allKinds())
        for (unsigned size_log2 : {1u, 10u, 16u}) {
            PredictorVariant predictor =
                makePredictorVariant(kind, size_log2);
            EXPECT_EQ(predictor.index(), static_cast<std::size_t>(kind))
                << predictorKindName(kind) << " size " << size_log2;
        }
}

TEST(PredictorFactoryTest, KindNames)
{
    EXPECT_EQ(predictorKindName(PredictorKind::TageLite), "tage-lite");
    EXPECT_EQ(predictorKindName(PredictorKind::Bimodal), "bimodal");
}

} // namespace
} // namespace uarch
} // namespace speclens
