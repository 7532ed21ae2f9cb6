/**
 * @file
 * Google-benchmark microbenchmarks of the SpecLens substrate: cache
 * and TLB simulation throughput, branch predictors, trace generation,
 * PCA and clustering.  These size the cost of a full characterization
 * campaign (43 benchmarks x 7 machines).
 *
 * Campaign mode: `micro_substrate --jobs N` skips the microbenchmarks
 * and instead times the full 43 x 7 characterization campaign at
 * --jobs 1, 2 and N, reports the wall-clock speedup, and verifies the
 * feature matrices are byte-identical across job counts (exit status 1
 * if not).  The session flags (--instructions, --warmup, --seed-salt,
 * --metrics) adjust the campaign; --store is refused, since store hits
 * would replace the simulations being timed.  Every other argument
 * goes to google-benchmark.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <variant>
#include <vector>

#include "bench_common.h"
#include "core/characterization.h"
#include "core/parallel.h"
#include "stats/clustering.h"
#include "stats/pca.h"
#include "stats/rng.h"
#include "suites/machines.h"
#include "suites/spec2017.h"
#include "trace/trace_generator.h"
#include "uarch/branch_predictor.h"
#include "uarch/cache.h"
#include "uarch/simulation.h"

using namespace speclens;

namespace {

void
BM_CacheAccess(benchmark::State &state)
{
    uarch::CacheConfig config;
    config.size_bytes = 32 * 1024;
    config.associativity = 8;
    config.policy = static_cast<uarch::ReplacementPolicy>(state.range(0));
    uarch::Cache cache(config);
    stats::Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.below(1 << 20) * 64));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheAccess)
    ->Arg(static_cast<int>(uarch::ReplacementPolicy::Lru))
    ->Arg(static_cast<int>(uarch::ReplacementPolicy::TreePlru))
    ->Arg(static_cast<int>(uarch::ReplacementPolicy::Fifo))
    ->Arg(static_cast<int>(uarch::ReplacementPolicy::Random));

/**
 * Predictor throughput through the variant dispatch the playback loop
 * uses: one std::visit, then direct calls on the concrete type.
 */
void
BM_BranchPredictorVariant(benchmark::State &state)
{
    uarch::PredictorVariant predictor = uarch::makePredictorVariant(
        static_cast<uarch::PredictorKind>(state.range(0)), 12);
    stats::Rng rng(11);
    std::uint32_t id = 0;
    std::visit(
        [&](auto &p) {
            for (auto _ : state) {
                bool taken = rng.bernoulli(0.6);
                benchmark::DoNotOptimize(p.predict(0, id));
                p.update(0, id, taken);
                id = (id + 1) & 255;
            }
        },
        predictor);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BranchPredictorVariant)
    ->Arg(static_cast<int>(uarch::PredictorKind::Bimodal))
    ->Arg(static_cast<int>(uarch::PredictorKind::Gshare))
    ->Arg(static_cast<int>(uarch::PredictorKind::Tournament))
    ->Arg(static_cast<int>(uarch::PredictorKind::Perceptron))
    ->Arg(static_cast<int>(uarch::PredictorKind::TageLite));

void
BM_TraceGeneration(benchmark::State &state)
{
    const auto &profile =
        suites::spec2017Benchmark("505.mcf_r").profile;
    trace::TraceGenerator generator(profile);
    for (auto _ : state)
        benchmark::DoNotOptimize(generator.next());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceGeneration);

void
BM_FullSimulation(benchmark::State &state)
{
    const auto &benchmark_info = suites::spec2017Benchmark("502.gcc_r");
    const auto &machine = suites::skylakeMachine();
    uarch::SimulationConfig config;
    config.instructions = static_cast<std::uint64_t>(state.range(0));
    config.warmup = config.instructions / 4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            uarch::simulate(benchmark_info.profile, machine, config));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_FullSimulation)->Arg(50'000)->Arg(150'000);

void
BM_Pca(benchmark::State &state)
{
    std::size_t rows = 43, cols = static_cast<std::size_t>(state.range(0));
    stats::Matrix m(rows, cols);
    stats::Rng rng(3);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = rng.gaussian();
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::fitPca(m));
}
BENCHMARK(BM_Pca)->Arg(20)->Arg(140);

void
BM_Clustering(benchmark::State &state)
{
    std::size_t n = static_cast<std::size_t>(state.range(0));
    stats::Matrix points(n, 6);
    stats::Rng rng(5);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < 6; ++c)
            points(r, c) = rng.gaussian();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            stats::clusterPoints(points, stats::Linkage::Ward));
    }
}
BENCHMARK(BM_Clustering)->Arg(10)->Arg(43)->Arg(100);

/**
 * Full 43 x 7 characterization campaign at one job count; wall-clock
 * in milliseconds goes to @p elapsed_ms.
 */
stats::Matrix
runCampaign(const std::vector<suites::BenchmarkInfo> &suite,
            core::CharacterizationConfig config, std::size_t jobs,
            double &elapsed_ms)
{
    config.jobs = jobs;
    core::Characterizer characterizer(suites::profilingMachines(),
                                      config);
    auto start = std::chrono::steady_clock::now();
    stats::Matrix features = characterizer.featureMatrix(suite);
    elapsed_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    return features;
}

/** True when two matrices are byte-for-byte identical. */
bool
byteIdentical(const stats::Matrix &a, const stats::Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(double)) == 0;
}

/**
 * Serial-vs-parallel campaign report: times the full campaign at
 * --jobs 1, 2 and @p jobs, prints the speedup, and checks the three
 * feature matrices are byte-identical.  Returns the process exit
 * status (1 on any mismatch).
 */
int
campaignReport(const core::CharacterizationConfig &config)
{
    std::vector<suites::BenchmarkInfo> suite = suites::spec2017();
    std::size_t n_machines = suites::profilingMachines().size();
    std::size_t jobs = core::resolveJobCount(config.jobs);

    std::printf("characterization campaign: %zu benchmarks x %zu "
                "machines = %zu simulations\n"
                "window: %llu measured + %llu warm-up instructions "
                "per pair\n\n",
                suite.size(), n_machines, suite.size() * n_machines,
                static_cast<unsigned long long>(config.instructions),
                static_cast<unsigned long long>(config.warmup));

    double serial_ms = 0.0, two_ms = 0.0, parallel_ms = 0.0;
    stats::Matrix serial = runCampaign(suite, config, 1, serial_ms);
    std::printf("  --jobs 1   %10.1f ms\n", serial_ms);
    stats::Matrix two = runCampaign(suite, config, 2, two_ms);
    std::printf("  --jobs 2   %10.1f ms   (%.2fx)\n", two_ms,
                serial_ms / two_ms);
    stats::Matrix parallel =
        runCampaign(suite, config, jobs, parallel_ms);
    std::printf("  --jobs %-3zu %10.1f ms   (%.2fx)\n\n", jobs,
                parallel_ms, serial_ms / parallel_ms);

    bool identical =
        byteIdentical(serial, two) && byteIdentical(serial, parallel);
    std::printf("speedup (--jobs %zu over --jobs 1): %.2fx\n", jobs,
                serial_ms / parallel_ms);
    std::printf("feature matrices byte-identical across job counts: "
                "%s\n",
                identical ? "yes" : "NO");
    return identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel off the session flags and --campaign; everything else goes
    // to google-benchmark.  Any --jobs/--campaign selects campaign mode.
    std::vector<char *> passthrough{argv[0]};
    bool campaign = false;
    core::SessionFlags opts =
        core::parseSessionFlags(argc, argv, 1, [&](int &i) {
            if (std::strcmp(argv[i], "--campaign") == 0)
                campaign = true;
            else
                passthrough.push_back(argv[i]);
            return true;
        });
    const bool jobs_given =
        std::any_of(argv + 1, argv + argc, [](const char *arg) {
            return std::strcmp(arg, "--jobs") == 0;
        });
    if (!opts.store_dir.empty()) {
        std::fprintf(stderr, "error: --store would turn the timed "
                             "simulations into store hits\n");
        return 1;
    }
    if (campaign || jobs_given)
        return campaignReport(
            core::serviceConfig(opts, bench::kBenchWindow).characterization);

    int pass_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&pass_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                               passthrough.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
