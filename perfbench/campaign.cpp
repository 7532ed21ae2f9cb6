/**
 * @file
 * campaign-cold: the paper's method as one batch run.  Every CPU2017
 * benchmark on the seven profiling machines at the pinned 150k + 40k
 * window, one thread, a fresh empty store attached; then the feature
 * matrix, PCA and a k = 3 subset for each of the four sub-suites.
 * Trace generation and the uarch pass do nearly all the work, the
 * store is only written, and the daemon is absent.
 */

#include <filesystem>
#include <memory>

#include "core/perf_trajectory.h"
#include "core/query_ops.h"
#include "probes.h"
#include "stats/distance.h"
#include "stats/fingerprint.h"
#include "stats/pca.h"
#include "workloads.h"

namespace perfbench {

namespace sl = speclens;
namespace fs = std::filesystem;

namespace {

/** Campaign and stats fingerprints the pinned configuration (seed 0)
 *  must reproduce. */
constexpr std::uint64_t kPinnedCampaignFingerprint = 0xd847d360243018d8ULL;
constexpr std::uint64_t kPinnedStatsFingerprint = 0x57331f8fe007d3eaULL;

constexpr const char *kCategories[] = {"speed-int", "rate-int", "speed-fp",
                                       "rate-fp"};

/** A round's p99 needs >= 1000 cells, so at least four rounds run. */
constexpr int kMinRounds = 4;

/**
 * Feed one result to @p fp field by field, in the order
 * core::runTrajectory hashes it, so the fingerprints are comparable
 * with the pinned ones.
 */
void
hashResult(sl::stats::Fingerprinter &fp, const sl::uarch::SimulationResult &r)
{
    const sl::uarch::PerfCounters &c = r.counters;
    for (std::uint64_t v :
         {c.instructions, c.loads, c.stores, c.branches, c.taken_branches,
          c.fp_ops, c.simd_ops, c.kernel_instructions, c.l1d_accesses,
          c.l1d_misses, c.l1i_accesses, c.l1i_misses, c.l2d_accesses,
          c.l2d_misses, c.l2i_accesses, c.l2i_misses, c.l3_accesses,
          c.l3_misses, c.dtlb_accesses, c.dtlb_misses, c.itlb_accesses,
          c.itlb_misses, c.l2tlb_misses, c.page_walks,
          c.branch_mispredictions, c.prefetch_fills, c.prefetch_useful,
          c.prefetch_evicted_unused, c.way_pred_hits, c.way_pred_mispredicts,
          c.dram_accesses, c.dram_row_hits, c.dram_busy_cycles,
          c.dram_budget_cycles})
        fp.u64(v);
    for (double v : r.cpi_stack.components())
        fp.f64(v);
    fp.f64(r.power.core_watts);
    fp.f64(r.power.llc_watts);
    fp.f64(r.power.dram_watts);
}

std::string
hex16(std::uint64_t value)
{
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

sl::core::ServiceConfig
campaignConfig(std::uint64_t seed, const std::string &store_dir)
{
    sl::core::ServiceConfig config;
    config.characterization.instructions = sl::core::kTrajectoryInstructions;
    config.characterization.warmup = sl::core::kTrajectoryWarmup;
    config.characterization.seed_salt = seed;
    config.characterization.jobs = 1;
    config.store_dir = store_dir;
    return config;
}

/** One cold campaign and what the gates need from it. */
struct Round
{
    std::unique_ptr<sl::core::ServiceContext> context;
    sl::core::Characterizer *characterizer = nullptr;
    double seconds = 0.0;
    std::vector<double> cell_s;
    std::vector<std::string> subsets;
    std::uint64_t campaign_fingerprint = 0;
    std::uint64_t stats_fingerprint = 0;
};

/** Context, empty store and warm-up simulations; returns seconds. */
double
setUp(const Options &options, const std::string &store_dir)
{
    Clock::time_point start = Clock::now();
    fs::remove_all(store_dir);
    {
        sl::core::ServiceContext context(
            campaignConfig(options.seed, store_dir));
        context.characterizerFor(context.profilingMachines());
    }
    // Warm up on one benchmark in a store-less context, so the measured
    // campaign still starts from an empty store and an empty memo.
    sl::core::ServiceContext warm(campaignConfig(options.seed, ""));
    warm.characterizerFor(warm.profilingMachines())
        .prepare({warm.cpu2017().front()}, 1);
    return secondsSince(start);
}

/** Run one campaign into a fresh store at @p store_dir. */
Round
campaignRound(const Options &options, const std::string &store_dir,
              Tracer &tracer, Report &report)
{
    fs::remove_all(store_dir);
    Round round;
    round.context = std::make_unique<sl::core::ServiceContext>(
        campaignConfig(options.seed, store_dir));
    sl::core::ServiceContext &context = *round.context;
    sl::core::Characterizer &characterizer =
        context.characterizerFor(context.profilingMachines());
    round.characterizer = &characterizer;
    const std::vector<sl::suites::BenchmarkInfo> &benchmarks =
        context.cpu2017();
    const std::size_t machines = characterizer.machines().size();

    sl::stats::Matrix features;
    sl::stats::PcaResult pca;
    sl::stats::Matrix distances;
    Clock::time_point start = Clock::now();
    {
        Tracer::Scope root(tracer, "bench.campaign");
        std::uint64_t cell = 0;
        for (const sl::suites::BenchmarkInfo &benchmark : benchmarks) {
            const std::vector<sl::suites::BenchmarkInfo> one{benchmark};
            for (std::size_t m = 0; m < machines; ++m) {
                Clock::time_point t = Clock::now();
                {
                    Tracer::Scope span(tracer, "core.prepare", cell++);
                    characterizer.prepare(one, {m}, 1);
                }
                round.cell_s.push_back(secondsSince(t));
            }
        }
        {
            Tracer::Scope span(tracer, "core.feature_matrix");
            features = characterizer.featureMatrix(benchmarks);
        }
        {
            Tracer::Scope span(tracer, "stats.pca");
            pca = sl::stats::fitPca(features);
        }
        {
            Tracer::Scope span(tracer, "stats.distance");
            distances = sl::stats::pairwiseDistances(pca.scores);
        }
        for (const char *category : kCategories) {
            Tracer::Scope span(tracer, "core.query.subset");
            sl::core::QueryOutcome outcome =
                sl::core::runSubsetQuery(context, category, 3);
            report.check(outcome.ok, std::string("subset ") + category +
                                         ": " + outcome.error);
            round.subsets.push_back(outcome.output);
        }
    }
    round.seconds = secondsSince(start);

    sl::stats::Fingerprinter campaign_fp;
    campaign_fp.tag("speclens-campaign-results-v1");
    for (const sl::suites::BenchmarkInfo &benchmark : benchmarks)
        for (std::size_t m = 0; m < machines; ++m)
            hashResult(campaign_fp, characterizer.simulation(benchmark, m));
    round.campaign_fingerprint = campaign_fp.value();

    sl::stats::Fingerprinter stats_fp;
    stats_fp.tag("speclens-stats-results-v1");
    stats_fp.u64(features.rows());
    stats_fp.u64(features.cols());
    for (double v : features.data())
        stats_fp.f64(v);
    for (double v : pca.eigenvalues)
        stats_fp.f64(v);
    for (double v : distances.data())
        stats_fp.f64(v);
    round.stats_fingerprint = stats_fp.value();
    return round;
}

/**
 * Gate: a second context over the round's store reloads every pair
 * without simulating, bit-identical to the cold results.
 */
void
checkReload(const Options &options, const std::string &store_dir,
            Round &round, Tracer &tracer, Report &report)
{
    Tracer::Scope span(tracer, "core.store.reload");
    sl::core::ServiceContext reload(campaignConfig(options.seed, store_dir));
    sl::core::Characterizer &characterizer =
        reload.characterizerFor(reload.profilingMachines());
    characterizer.prepare(reload.cpu2017(), 1);
    report.check(reload.simulationsRun() == 0,
                 "store reload simulated " +
                     std::to_string(reload.simulationsRun()) + " pairs");
    std::size_t differing = 0;
    for (const sl::suites::BenchmarkInfo &benchmark : reload.cpu2017())
        for (std::size_t m = 0; m < characterizer.machines().size(); ++m)
            if (!sl::uarch::bitIdentical(
                    characterizer.simulation(benchmark, m),
                    round.characterizer->simulation(benchmark, m)))
                ++differing;
    report.check(differing == 0, std::to_string(differing) +
                                     " reloaded pairs differ from the cold "
                                     "campaign");
}

/** Gates comparing a round with the first one and the pinned values. */
void
checkRound(const Options &options, const Round &first, const Round &round,
           Report &report)
{
    report.check(round.campaign_fingerprint == first.campaign_fingerprint &&
                     round.stats_fingerprint == first.stats_fingerprint,
                 "fingerprints differ between rounds of one seed");
    report.check(round.subsets == first.subsets,
                 "subset outputs differ between rounds of one seed");
    if (options.seed == 0) {
        report.check(round.campaign_fingerprint == kPinnedCampaignFingerprint,
                     "campaign fingerprint " +
                         hex16(round.campaign_fingerprint) + " != pinned " +
                         hex16(kPinnedCampaignFingerprint));
        report.check(round.stats_fingerprint == kPinnedStatsFingerprint,
                     "stats fingerprint " + hex16(round.stats_fingerprint) +
                         " != pinned " + hex16(kPinnedStatsFingerprint));
    }
}

} // namespace

void
runCampaignCold(const Options &options, Report &report)
{
    const std::string store_dir = options.work_dir + "/campaign-store";
    RegistryDelta run_delta;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepeats; ++i)
        setup_s.push_back(setUp(options, store_dir));

    Tracer off(false);
    Round first = campaignRound(options, store_dir, off, report);
    checkReload(options, store_dir, first, off, report);
    checkRound(options, first, first, report);
    report.detail("campaign_fingerprint",
                  jsonString(hex16(first.campaign_fingerprint)));
    report.detail("stats_fingerprint",
                  jsonString(hex16(first.stats_fingerprint)));
    report.detail("pinned_fingerprints_checked",
                  options.seed == 0 ? "true" : "false");
    // Only the first round's results are kept; its context (and the
    // manifest it writes on destruction) goes before the store is reused.
    first.context.reset();

    if (!options.trace) {
        std::vector<double> round_s{first.seconds};
        std::vector<double> hwm_mb{ProcSample::read().vmhwm_mb};
        std::vector<std::vector<double>> cell_s{first.cell_s};
        double elapsed = first.seconds;
        for (int rounds = 1; rounds < kMinRounds || elapsed < options.seconds;
             ++rounds) {
            Round round = campaignRound(options, store_dir, off, report);
            checkReload(options, store_dir, round, off, report);
            checkRound(options, first, round, report);
            round_s.push_back(round.seconds);
            hwm_mb.push_back(ProcSample::read().vmhwm_mb);
            elapsed += round.seconds;
            cell_s.push_back(round.cell_s);
            report.succeeded(round.cell_s.size());
        }
        report.succeeded(first.cell_s.size());
        reportEndToEnd(setup_s, round_s, cell_s, hwm_mb, kMinRounds, report);
        fs::remove_all(store_dir);
        return;
    }

    // Traced run: a second untraced campaign, so the overhead ratio does
    // not compare against the process's first, colder one; then the same
    // campaign with spans on, then the probes.
    double untraced_s =
        (first.seconds +
         campaignRound(options, store_dir, off, report).seconds) /
        2.0;
    Tracer tracer(true);
    std::uint64_t origin = speclens::obs::nowNs();
    Clock::time_point start = Clock::now();
    RegistryDelta delta;
    ProcSample before = ProcSample::read();
    Round traced = campaignRound(options, store_dir, tracer, report);
    checkReload(options, store_dir, traced, tracer, report);
    checkRound(options, first, traced, report);
    delta.stop();
    run_delta.stop();
    ProcSample after = ProcSample::read();

    layerProbe(crossProduct(traced.context->cpu2017(),
                            traced.context->profilingMachines()),
               campaignConfig(options.seed, "")
                   .characterization.simulationConfig(),
               tracer, report);
    statsProbe(*traced.characterizer, tracer, report);
    std::unique_ptr<ServerRunner> server;
    {
        Tracer::Scope span(tracer, "core.prepare");
        server = startWarmServer();
    }
    queryProbe(*server, tracer, report);
    double wall = secondsSince(start);

    reportRegistry(delta, run_delta, report);
    reportResources(before, after, report);
    report.metric("bench.trace_overhead_ratio", "ratio",
                  traced.seconds / untraced_s);
    reportLayerTable(tracer, origin, wall, report);
    traced.context.reset();
    fs::remove_all(store_dir);
}

} // namespace perfbench
