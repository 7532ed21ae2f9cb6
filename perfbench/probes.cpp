/**
 * @file
 * Traced-run probes (see probes.h).
 */

#include "probes.h"

#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/query_ops.h"
#include "serve/client.h"
#include "stats/clustering.h"
#include "stats/distance.h"
#include "stats/normalize.h"
#include "stats/pca.h"
#include "suites/spec2017.h"
#include "trace/record_batch.h"
#include "trace/trace_generator.h"
#include "uarch/cache_hierarchy.h"
#include "uarch/cpi_model.h"
#include "uarch/power_model.h"
#include "uarch/prewarm.h"
#include "uarch/tlb.h"

namespace perfbench {

namespace sl = speclens;

// ----- ServerRunner ---------------------------------------------------

ServerRunner::ServerRunner(sl::serve::ServerConfig config)
    : server_(std::move(config))
{
    std::string error;
    if (!server_.start(&error))
        throw std::runtime_error("perfbench: server start: " + error);
    loop_ = std::thread([this] { server_.serveForever(); });
}

ServerRunner::~ServerRunner()
{
    server_.requestDrain();
    loop_.join();
}

std::unique_ptr<ServerRunner>
startWarmServer(const std::string &store_dir)
{
    sl::serve::ServerConfig config;
    config.service = serveServiceConfig();
    config.service.store_dir = store_dir;
    auto runner = std::make_unique<ServerRunner>(std::move(config));
    sl::core::ServiceContext &context = runner->context();
    for (const auto *machines :
         {&context.profilingMachines(), &context.sensitivityMachines(),
          &context.memoryMachines()})
        context.characterizerFor(*machines).prepare(context.cpu2017());
    return runner;
}

std::vector<Pair>
crossProduct(const std::vector<sl::suites::BenchmarkInfo> &benchmarks,
             const std::vector<sl::uarch::MachineConfig> &machines)
{
    std::vector<Pair> pairs;
    for (const sl::suites::BenchmarkInfo &benchmark : benchmarks)
        for (const sl::uarch::MachineConfig &machine : machines)
            pairs.push_back({&benchmark, &machine});
    return pairs;
}

// ----- Layer probe ----------------------------------------------------

namespace {

/** CPI stacks and power rails equal bit for bit. */
bool
sameCpiPower(const sl::uarch::CpiStack &a, const sl::uarch::PowerBreakdown &pa,
             const sl::uarch::SimulationResult &b)
{
    std::vector<double> ca = a.components();
    std::vector<double> cb = b.cpi_stack.components();
    return ca.size() == cb.size() &&
           std::memcmp(ca.data(), cb.data(), ca.size() * sizeof(double)) ==
               0 &&
           std::memcmp(&pa.core_watts, &b.power.core_watts, sizeof(double)) ==
               0 &&
           std::memcmp(&pa.llc_watts, &b.power.llc_watts, sizeof(double)) ==
               0 &&
           std::memcmp(&pa.dram_watts, &b.power.dram_watts, sizeof(double)) ==
               0;
}

} // namespace

void
layerProbe(const std::vector<Pair> &pairs,
           const sl::uarch::SimulationConfig &window, Tracer &tracer,
           Report &report)
{
    sl::uarch::SimulationConfig walk = window;
    walk.force_prewarm_walk = true;
    const std::uint64_t records = window.warmup + window.instructions;
    auto batch = std::make_unique<sl::trace::RecordBatch>();
    std::uint64_t analytic = 0;
    std::uint64_t walked = 0;
    std::uint64_t checksum = 0;
    std::size_t mismatches = 0;

    Tracer::Scope root(tracer, "bench.layer_probe");
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const sl::trace::WorkloadProfile &profile = pairs[i].benchmark->profile;
        const sl::uarch::MachineConfig &machine = *pairs[i].machine;
        sl::trace::WorkloadProfile effective =
            sl::uarch::transformForMachine(profile, machine);
        {
            Tracer::Scope span(tracer, "trace.fill", i);
            sl::trace::TraceGenerator generator(effective, window.seed_salt);
            for (std::uint64_t left = records; left > 0;) {
                std::size_t n = generator.fill(*batch, left);
                checksum ^= batch->address[n - 1];
                left -= n;
            }
        }
        {
            sl::uarch::CacheHierarchy caches(machine.caches);
            sl::uarch::TlbHierarchy tlbs(machine.tlbs);
            std::uint64_t llc_lines = (machine.caches.l3
                                           ? machine.caches.l3->size_bytes
                                           : machine.caches.l2.size_bytes) /
                                      sl::trace::kLineBytes;
            Tracer::Scope span(tracer, "uarch.prewarm", i);
            if (sl::uarch::PrewarmSolver::apply(caches, tlbs, effective,
                                                llc_lines)) {
                ++analytic;
            } else {
                sl::uarch::PrewarmSolver::walk(caches, tlbs, effective,
                                               llc_lines);
                ++walked;
            }
        }
        // Alternate which prewarm path runs first so neither side of
        // the A/B always meets a cold host cache.
        sl::uarch::SimulationResult result;
        sl::uarch::SimulationResult walked_result;
        for (int leg = 0; leg < 2; ++leg) {
            if ((leg == 0) == (i % 2 == 0)) {
                Tracer::Scope span(tracer, "uarch.simulate", i);
                result = sl::uarch::simulate(profile, machine, window);
            } else {
                Tracer::Scope span(tracer, "uarch.simulate_walk", i);
                walked_result = sl::uarch::simulate(profile, machine, walk);
            }
        }
        sl::uarch::CpiStack cpi;
        sl::uarch::PowerBreakdown power;
        {
            Tracer::Scope span(tracer, "uarch.cpi_power", i);
            cpi = sl::uarch::computeCpiStack(result.counters,
                                             machine.latencies, effective.exec);
            power = sl::uarch::computePower(result.counters, cpi.total(),
                                            machine.power);
        }
        if (!sl::uarch::bitIdentical(result, walked_result) ||
            !sameCpiPower(cpi, power, result))
            ++mismatches;
    }
    report.check(mismatches == 0,
                 "layer probe: " + std::to_string(mismatches) +
                     " pairs differ between analytic and walked prewarm or "
                     "in the standalone CPI/power");
    report.detail("trace_fill_checksum", std::to_string(checksum));

    const std::string probe = "bench.layer_probe";
    double total_records = static_cast<double>(records * pairs.size());
    double fill = tracer.total("trace.fill", probe);
    double simulate = tracer.total("uarch.simulate", probe);
    double simulate_walk = tracer.total("uarch.simulate_walk", probe);
    double prewarm = tracer.total("uarch.prewarm", probe);
    double cpi_power = tracer.total("uarch.cpi_power", probe);
    std::vector<double> pair_s = tracer.durations("uarch.simulate", probe);
    std::vector<std::uint64_t> pair_ids =
        tracer.requests("uarch.simulate", probe);

    report.metric("trace.fill_s", "s", fill);
    report.metric("trace.records_per_s", "records/s",
                  fill > 0 ? total_records / fill : 0.0);
    report.metric("uarch.simulate_s", "s", simulate);
    report.metric("uarch.pair_p50_ms", "ms", quantile(pair_s, 0.5) * 1e3);
    report.metric("uarch.pair_p90_ms", "ms", quantile(pair_s, 0.9) * 1e3);
    report.metric("uarch.pair_max_ms", "ms", quantile(pair_s, 1.0) * 1e3);
    report.metric("uarch.prewarm_s", "s", prewarm);
    report.metric("uarch.prewarm_analytic_ratio", "ratio",
                  analytic + walked > 0
                      ? static_cast<double>(analytic) /
                            static_cast<double>(analytic + walked)
                      : 0.0);
    report.metric("uarch.prewarm_walk_ratio", "ratio",
                  simulate > 0 ? simulate_walk / simulate : 0.0);
    report.metric("uarch.cpi_power_s", "s", cpi_power);
    report.metric("uarch.playback_s", "s",
                  simulate - fill - prewarm - cpi_power);
    report.metric("uarch.records_per_s", "records/s",
                  simulate > 0 ? total_records / simulate : 0.0);

    std::size_t slowest = 0;
    for (std::size_t k = 1; k < pair_s.size(); ++k)
        if (pair_s[k] > pair_s[slowest])
            slowest = k;
    if (!pair_s.empty()) {
        const Pair &pair = pairs[pair_ids[slowest]];
        report.detail("uarch_slowest_pair",
                      "{\"benchmark\": " + jsonString(pair.benchmark->name) +
                          ", \"machine\": " +
                          jsonString(pair.machine->short_name) +
                          ", \"ms\": " + jsonNumber(pair_s[slowest] * 1e3) +
                          "}");
    }
    report.detail("layer_probe_pairs", std::to_string(pairs.size()));
}

// ----- Stats probe ----------------------------------------------------

void
statsProbe(sl::core::Characterizer &characterizer, Tracer &tracer,
           Report &report)
{
    constexpr int kPasses = 3;
    const std::vector<std::vector<sl::suites::BenchmarkInfo>> suites = {
        sl::suites::spec2017(),         sl::suites::spec2017SpeedInt(),
        sl::suites::spec2017RateInt(),  sl::suites::spec2017SpeedFp(),
        sl::suites::spec2017RateFp()};

    Tracer::Scope root(tracer, "bench.stats_probe");
    for (int pass = 0; pass < kPasses; ++pass) {
        for (std::size_t s = 0; s < suites.size(); ++s) {
            sl::stats::Matrix features;
            {
                Tracer::Scope span(tracer, "core.feature_matrix", s);
                features = characterizer.featureMatrix(suites[s]);
            }
            sl::stats::NormalizeReport normalize;
            {
                Tracer::Scope span(tracer, "stats.zscore", s);
                sl::stats::zscore(features, &normalize);
            }
            sl::stats::PcaResult pca;
            {
                Tracer::Scope span(tracer, "stats.pca", s);
                pca = sl::stats::fitPca(features);
            }
            sl::stats::Matrix distances;
            {
                Tracer::Scope span(tracer, "stats.distance", s);
                distances = sl::stats::pairwiseDistances(pca.scores);
            }
            {
                Tracer::Scope span(tracer, "stats.cluster", s);
                sl::stats::agglomerate(distances, sl::stats::Linkage::Ward);
            }
            if (pass == 0 && s == 0) {
                report.metric("stats.zero_variance_cols", "count",
                              static_cast<double>(
                                  normalize.degenerate_columns.size()));
                report.metric("stats.pca_retained", "count",
                              static_cast<double>(pca.retained));
            }
        }
    }

    const std::string probe = "bench.stats_probe";
    auto perPass = [&](const char *name) {
        return tracer.total(name, probe) / kPasses;
    };
    report.metric("core.feature_matrix_s", "s", perPass("core.feature_matrix"));
    report.metric("stats.zscore_s", "s", perPass("stats.zscore"));
    report.metric("stats.pca_s", "s", perPass("stats.pca"));
    report.metric("stats.distance_s", "s", perPass("stats.distance"));
    report.metric("stats.cluster_s", "s", perPass("stats.cluster"));
}

// ----- Query probe ----------------------------------------------------

namespace {

/** The probe's request list: every subset category and sensitivity
 *  metric, eight characterize and eight memory benchmarks, two stats. */
std::vector<sl::serve::Request>
probeRequests(const std::vector<sl::suites::BenchmarkInfo> &benchmarks)
{
    using sl::serve::Op;
    std::vector<sl::serve::Request> requests;
    for (const char *category :
         {"speed-int", "rate-int", "speed-fp", "rate-fp"}) {
        sl::serve::Request r;
        r.op = Op::Subset;
        r.category = category;
        r.k = 3;
        requests.push_back(r);
    }
    for (const char *metric : {"branch", "l1d", "dtlb"}) {
        sl::serve::Request r;
        r.op = Op::Sensitivity;
        r.metric = metric;
        requests.push_back(r);
    }
    for (std::size_t i = 0; i < benchmarks.size(); i += 5) {
        for (Op op : {Op::Characterize, Op::Memory}) {
            sl::serve::Request r;
            r.op = op;
            r.benchmarks = {benchmarks[i].name};
            requests.push_back(r);
        }
    }
    for (int i = 0; i < 2; ++i)
        requests.push_back(sl::serve::Request{});
    return requests;
}

/** The query @p request names, called directly on @p context. */
sl::core::QueryOutcome
directQuery(sl::core::ServiceContext &context,
            const sl::serve::Request &request)
{
    using sl::serve::Op;
    switch (request.op) {
    case Op::Characterize:
        return sl::core::runCharacterizeQuery(context, request.benchmarks);
    case Op::Memory:
        return sl::core::runMemoryQuery(context, request.benchmarks);
    case Op::Subset:
        return sl::core::runSubsetQuery(context, request.category, request.k);
    case Op::Sensitivity:
        return sl::core::runSensitivityQuery(context, request.metric);
    default:
        return sl::core::queryError("no direct form");
    }
}

} // namespace

void
queryProbe(ServerRunner &runner, Tracer &tracer, Report &report)
{
    constexpr int kPasses = 3;
    using sl::serve::Op;
    std::vector<sl::serve::Request> requests =
        probeRequests(runner.context().cpu2017());
    std::map<Op, std::vector<double>> direct_s;
    std::vector<double> overhead_s;
    std::vector<double> connect_s;
    std::vector<double> codec_s;
    std::uint64_t id = 0;

    Tracer::Scope root(tracer, "bench.query_probe");
    for (int pass = 0; pass < kPasses; ++pass) {
        for (const sl::serve::Request &request : requests) {
            ++id;
            sl::serve::Client client;
            sl::serve::Response response;
            std::string error;
            Clock::time_point t0 = Clock::now();
            bool ok;
            {
                Tracer::Scope span(tracer, "serve.connect", id);
                ok = client.connect("127.0.0.1", runner.port(), &error);
            }
            Clock::time_point t1 = Clock::now();
            {
                Tracer::Scope span(tracer, "serve.request", id);
                ok = ok && client.call(request, &response, &error);
            }
            double round_trip = secondsSince(t1);
            connect_s.push_back(std::chrono::duration<double>(t1 - t0).count());
            client.close();
            if (!report.check(ok && response.ok,
                              "query probe: " + requestKey(request) + ": " +
                                  error + response.error))
                continue;

            Clock::time_point c0 = Clock::now();
            {
                Tracer::Scope span(tracer, "serve.codec", id);
                sl::serve::Request decoded_request;
                sl::serve::Response decoded_response;
                std::string codec_error;
                bool same =
                    sl::serve::decodeRequest(sl::serve::encodeRequest(request),
                                             decoded_request, codec_error) &&
                    sl::serve::decodeResponse(
                        sl::serve::encodeResponse(response), decoded_response,
                        codec_error) &&
                    decoded_response.output == response.output &&
                    requestKey(decoded_request) == requestKey(request);
                report.check(same, "codec round trip: " + requestKey(request));
            }
            codec_s.push_back(secondsSince(c0));

            if (request.op == Op::Stats)
                continue;
            Clock::time_point d0 = Clock::now();
            sl::core::QueryOutcome outcome;
            {
                const char *name =
                    request.op == Op::Subset        ? "core.query.subset"
                    : request.op == Op::Sensitivity ? "core.query.sensitivity"
                    : request.op == Op::Memory      ? "core.query.memory"
                                                    : "core.query.characterize";
                Tracer::Scope span(tracer, name, id);
                outcome = directQuery(runner.context(), request);
            }
            double direct = secondsSince(d0);
            direct_s[request.op].push_back(direct);
            overhead_s.push_back(round_trip - direct);
            report.check(outcome.ok && outcome.output == response.output,
                         "query probe: served != direct for " +
                             requestKey(request));
        }
    }

    report.metric("core.query.subset_ms", "ms",
                  median(direct_s[Op::Subset]) * 1e3);
    report.metric("core.query.sensitivity_ms", "ms",
                  median(direct_s[Op::Sensitivity]) * 1e3);
    report.metric("core.query.characterize_ms", "ms",
                  median(direct_s[Op::Characterize]) * 1e3);
    report.metric("core.query.memory_ms", "ms",
                  median(direct_s[Op::Memory]) * 1e3);
    report.metric("serve.connect_ms", "ms", median(connect_s) * 1e3);
    report.metric("serve.overhead_ms", "ms", median(overhead_s) * 1e3);
    report.metric("serve.codec_us", "us", median(codec_s) * 1e6);
}

// ----- Registry, resources, layer table -------------------------------

void
reportRegistry(const RegistryDelta &rounds, const RegistryDelta &run,
               Report &report)
{
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    double simulations = rounds.counter("core.characterize.simulations");
    double memo_hits = rounds.counter("core.characterize.memo_hits");
    double dedup = rounds.counter("core.characterize.dedup_shared");
    double lookups =
        memo_hits + dedup + rounds.counter("core.store.hits") + simulations;
    double hits = run.counter("core.store.hits");
    double misses = run.counter("core.store.misses");
    double rejected = run.counter("core.store.rejected");

    report.metric("core.characterize.simulations", "count", simulations);
    report.metric("core.characterize.memo_hit_ratio", "ratio",
                  ratio(memo_hits, lookups));
    report.metric("core.characterize.dedup_shared", "count", dedup);
    report.metric("core.store.saves", "count",
                  run.counter("core.store.saves"));
    report.metric("core.store.save_s", "s",
                  run.timingSeconds("core.store.save"));
    report.metric("core.store.load_s", "s",
                  run.timingSeconds("core.store.load"));
    report.metric("core.store.hit_ratio", "ratio",
                  ratio(hits, hits + misses + rejected));
    report.metric("core.store.lru_hit_ratio", "ratio",
                  ratio(run.counter("core.store.lru.hits"), hits));
    report.metric("core.store.rejected", "count", rejected);
    report.metric("core.parallel.queue_wait_s", "s",
                  run.timingSeconds("core.parallel.queue_wait"));
    report.metric("serve.errors", "count", rounds.counter("serve.errors"));
    report.metric("serve.dropped", "count", rounds.counter("serve.dropped"));
}

void
reportResources(const ProcSample &start, const ProcSample &end,
                Report &report)
{
    report.metric("serve.vmsize_mb", "MB", end.vmsize_mb - start.vmsize_mb);
    report.metric("serve.threads", "count", end.threads - start.threads);
    report.metric("serve.fds", "count", end.fds - start.fds);
}

void
reportLayerTable(const Tracer &tracer, std::uint64_t origin_ns,
                 double wall_seconds, Report &report)
{
    LayerTable table = LayerTable::build(tracer.spans(), wall_seconds);
    bool every_layer = table.self_seconds.size() == 5;
    for (const char *layer : {"trace", "uarch", "core", "stats", "serve"})
        report.metric(std::string(layer) + ".self_s", "s",
                      table.self_seconds[layer]);
    report.metric("bench.traced_wall_s", "s", wall_seconds);
    report.metric("bench.unattributed_s", "s", table.unattributed_seconds);
    report.check(every_layer && table.self_sum_error_seconds < 1e-6 &&
                     table.min_self_seconds > -1e-6 &&
                     table.unattributed_seconds >= 0.0,
                 "layer table does not add up to the traced wall-clock");
    report.detail("layer_table", table.json());
    report.detail("spans", spansJson(tracer.spans(), origin_ns));
}

} // namespace perfbench
