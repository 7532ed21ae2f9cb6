/**
 * @file
 * The two daemon workloads.  Both run an in-process serve::Server at
 * the 15k + 5k window with jobs = 2 and closed-loop clients, because
 * `speclens query` and scripts wait for each reply before sending the
 * next.
 *
 *  - serve-warm: one client, one connection per request, as `speclens
 *    query` does, over a daemon whose memo already holds every cell the
 *    mix touches.  PCA, query formatting and connection handling do all
 *    the work; trace generation and the uarch pass do none.
 *  - serve-cold: a fresh daemon per round over a store that set-up half
 *    populated, three clients on one persistent connection each,
 *    characterize and memory requests over all of CPU2017 in
 *    overlapping orders.  Store reads run beside simulate-and-save
 *    writes, memo hits, in-flight dedup and worker-pool queueing.
 *
 * Every response is compared byte for byte with the same core query
 * called on a separate batch context (the oracle).
 */

#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "core/query_ops.h"
#include "probes.h"
#include "serve/client.h"
#include "stats/rng.h"
#include "workloads.h"

namespace perfbench {

namespace sl = speclens;
namespace fs = std::filesystem;
using sl::serve::Op;
using sl::serve::Request;

namespace {

/**
 * serve-warm's clients.  One: with three, each driving a CPU-bound
 * subset on its own daemon thread on a shared 4-vCPU host, the rounds
 * followed the host's other load, and in interleaved runs campaign_s and
 * query_per_s spread 18-19% between seeds against 5-7% with one client.
 */
constexpr int kWarmClients = 1;

/** serve-cold's clients, whose overlapping keys exercise in-flight dedup. */
constexpr int kColdClients = 3;

/** Requests in one deck of the serve-warm mix (see warmMix). */
constexpr std::size_t kDeckSize = 80;

/** Requests per client per serve-warm round, whole decks: 1200 a round,
 *  enough for the round's own p99 (kP99Samples). */
constexpr std::size_t kWarmRequestsPerRound = 15 * kDeckSize;

/** Decks in each client's serve-warm request stream: five rounds' worth;
 *  longer runs cycle through it. */
constexpr std::size_t kWarmStreamDecks = 75;

/**
 * serve-warm's minimum: 4 rounds (4800 connections).  peak_rss_mb is
 * read there, where the ~12 KB each connection's thread stack leaves
 * resident outweighs the few MB set-up leaves behind in the allocator,
 * which vary from run to run.
 */
constexpr int kWarmMinRounds = 4;

/** serve-cold's minimum: 4 rounds, the first with >= 1000 requests. */
constexpr int kColdMinRounds = 4;

/** Fraction of the serve-cold cells set-up writes to the store. */
constexpr double kPopulatedShare = 0.5;

/** What one client saw in one round. */
struct ClientLog
{
    std::vector<double> latency_s;
    std::map<std::string, std::vector<double>> latency_by_op_s;
    std::vector<double> connect_s;
    std::size_t failed = 0;
    std::string first_failure;

    void
    fail(const std::string &what)
    {
        if (failed++ == 0)
            first_failure = what;
    }
};

/** Samples of a daemon workload's measured rounds. */
struct Samples
{
    std::vector<double> round_s;
    /** Successful requests' latencies, one vector per round. */
    std::vector<std::vector<double>> round_latency_s;
    std::size_t requests = 0;
    std::map<std::string, std::vector<double>> latency_by_op_s;
    std::vector<double> connect_s;

    /** {op: {n, p50_ms, p99_ms}} of the successful requests. */
    std::string
    byOpJson() const
    {
        std::string json = "{";
        for (const auto &[op, seconds] : latency_by_op_s) {
            if (json.size() > 1)
                json += ", ";
            json += jsonString(op) + ": {\"n\": " +
                    std::to_string(seconds.size()) + ", \"p50_ms\": " +
                    jsonNumber(quantile(seconds, 0.5) * 1e3) +
                    ", \"p99_ms\": " +
                    jsonNumber(quantile(seconds, 0.99) * 1e3) + "}";
        }
        return json + "}";
    }
};

/** Merge one round's client logs into the run's samples and report. */
void
mergeLogs(const std::vector<ClientLog> &logs, Samples &samples,
          Report &report)
{
    std::vector<double> &round = samples.round_latency_s.emplace_back();
    for (const ClientLog &log : logs) {
        round.insert(round.end(), log.latency_s.begin(), log.latency_s.end());
        samples.requests += log.latency_s.size();
        report.succeeded(log.latency_s.size());
        for (const auto &[op, seconds] : log.latency_by_op_s) {
            std::vector<double> &all = samples.latency_by_op_s[op];
            all.insert(all.end(), seconds.begin(), seconds.end());
        }
        samples.connect_s.insert(samples.connect_s.end(),
                                 log.connect_s.begin(), log.connect_s.end());
        for (std::size_t i = 0; i < log.failed; ++i)
            report.check(false, log.first_failure);
    }
}

/** Expected output of every non-stats request in @p requests, computed on
 *  a separate batch context with the same window. */
std::map<std::string, std::string>
oracleOutputs(sl::core::ServiceContext &oracle,
              const std::vector<Request> &requests, Report &report)
{
    std::map<std::string, std::string> expected;
    for (const Request &request : requests) {
        std::string key = requestKey(request);
        if (request.op == Op::Stats || expected.count(key))
            continue;
        sl::core::QueryOutcome outcome;
        switch (request.op) {
        case Op::Characterize:
            outcome =
                sl::core::runCharacterizeQuery(oracle, request.benchmarks);
            break;
        case Op::Memory:
            outcome = sl::core::runMemoryQuery(oracle, request.benchmarks);
            break;
        case Op::Subset:
            outcome = sl::core::runSubsetQuery(oracle, request.category,
                                               request.k);
            break;
        default:
            outcome = sl::core::runSensitivityQuery(oracle, request.metric);
            break;
        }
        report.check(outcome.ok, "oracle rejected " + key);
        expected[key] = outcome.output;
    }
    return expected;
}

/** Send @p request on @p client and check the reply; logs the latency. */
void
callAndCheck(sl::serve::Client &client, const Request &request,
             const std::map<std::string, std::string> &expected,
             const std::string &stats_marker, ClientLog &log)
{
    sl::serve::Response response;
    std::string error;
    Clock::time_point start = Clock::now();
    bool sent = client.call(request, &response, &error);
    double seconds = secondsSince(start);
    const std::string key = requestKey(request);
    if (!sent || !response.ok) {
        log.fail(key + ": " + error + response.error);
        return;
    }
    bool right = request.op == Op::Stats
                     ? response.output.find(stats_marker) != std::string::npos
                     : response.output == expected.at(key);
    if (!right) {
        log.fail(key + ": response differs from the batch oracle");
        return;
    }
    log.latency_s.push_back(seconds);
    log.latency_by_op_s[sl::serve::opName(request.op)].push_back(seconds);
}

// ----- serve-warm -----------------------------------------------------

/**
 * Client @p client's request stream: @p decks shuffled decks of
 * kDeckSize requests, each exactly 25% subset (five per category), 20%
 * sensitivity, 35% characterize, 15% memory and 5% stats.  A round sends
 * whole decks, so every round of every seed does the same work.  With
 * each request drawn on its own, a round's count of subsets -- nearly
 * all of its time -- varied by about 12%, and so did the round.
 *
 * Fast operations are kept above half of the mix on purpose: with 40%
 * subset the median request falls near the 92nd percentile of the fast
 * operations, whose tail follows CPU contention, and query_p50_ms spread
 * 40-75% between seeds.
 */
std::vector<Request>
warmMix(std::uint64_t seed, int client, std::size_t decks,
        const std::vector<sl::suites::BenchmarkInfo> &benchmarks)
{
    static const char *const categories[] = {"speed-int", "rate-int",
                                             "speed-fp", "rate-fp"};
    static const char *const metrics[] = {"branch", "l1d", "dtlb"};
    sl::stats::Rng rng(seed * 0x9e3779b97f4a7c15ULL +
                       static_cast<std::uint64_t>(client) + 1);
    std::vector<Request> requests;
    for (std::size_t d = 0; d < decks; ++d) {
        const std::size_t first = requests.size();
        requests.resize(first + kDeckSize);
        Request *deck = requests.data() + first;
        for (std::size_t i = 0; i < kDeckSize; ++i) {
            Request &r = deck[i];
            if (i < 20) {
                r.op = Op::Subset;
                r.category = categories[i % 4];
                r.k = 3;
            } else if (i < 36) {
                r.op = Op::Sensitivity;
                r.metric = metrics[rng.below(3)];
            } else if (i < 76) {
                r.op = i < 64 ? Op::Characterize : Op::Memory;
                r.benchmarks = {benchmarks[rng.below(benchmarks.size())].name};
            } else {
                r.op = Op::Stats;
            }
        }
        for (std::size_t i = kDeckSize; i > 1; --i)
            std::swap(deck[i - 1], deck[rng.below(i)]);
    }
    return requests;
}

/** Set-up: a warm daemon writing its cells to a fresh store, plus a few
 *  requests, each on a new connection as in the measured phase; returns
 *  seconds. */
double
setUpWarm(const Options &options, const std::string &store_dir,
          std::unique_ptr<ServerRunner> &runner)
{
    runner.reset();
    fs::remove_all(store_dir);
    Clock::time_point start = Clock::now();
    runner = startWarmServer(store_dir);
    std::vector<Request> warm_up =
        warmMix(options.seed, kWarmClients, 1, runner->context().cpu2017());
    warm_up.resize(16);
    for (const Request &request : warm_up) {
        sl::serve::Client client;
        sl::serve::Response response;
        std::string error;
        if (!client.connect("127.0.0.1", runner->port(), &error) ||
            !client.call(request, &response, &error))
            throw std::runtime_error("perfbench: warm-up request: " + error);
    }
    return secondsSince(start);
}

/** One serve-warm round: each client sends its next requests, each on a
 *  new connection. */
void
warmRound(ServerRunner &runner, const std::vector<std::vector<Request>> &mix,
          std::size_t &cursor,
          const std::map<std::string, std::string> &expected,
          const std::string &stats_marker, std::vector<ClientLog> &logs)
{
    logs.assign(kWarmClients, ClientLog{});
    std::vector<std::thread> clients;
    for (int c = 0; c < kWarmClients; ++c) {
        clients.emplace_back([&, c] {
            const std::vector<Request> &requests = mix[c];
            for (std::size_t i = 0; i < kWarmRequestsPerRound; ++i) {
                const Request &request =
                    requests[(cursor + i) % requests.size()];
                sl::serve::Client client;
                std::string error;
                Clock::time_point start = Clock::now();
                if (!client.connect("127.0.0.1", runner.port(), &error)) {
                    logs[c].fail("connect: " + error);
                    continue;
                }
                logs[c].connect_s.push_back(secondsSince(start));
                callAndCheck(client, request, expected, stats_marker,
                             logs[c]);
            }
        });
    }
    for (std::thread &client : clients)
        client.join();
    cursor += kWarmRequestsPerRound;
}

// ----- serve-cold -----------------------------------------------------

/** A cell of the serve-cold workload: benchmark b on machine m of set s
 *  (0 = profiling, 1 = memory-centric). */
struct Cell
{
    std::size_t set = 0;
    std::size_t benchmark = 0;
    std::size_t machine = 0;
};

std::vector<const std::vector<sl::uarch::MachineConfig> *>
coldMachineSets(sl::core::ServiceContext &context)
{
    return {&context.profilingMachines(), &context.memoryMachines()};
}

/** The seeded half of the cells that set-up writes to the store. */
std::vector<Cell>
populatedCells(std::uint64_t seed, sl::core::ServiceContext &context)
{
    std::vector<Cell> cells;
    auto sets = coldMachineSets(context);
    for (std::size_t s = 0; s < sets.size(); ++s)
        for (std::size_t b = 0; b < context.cpu2017().size(); ++b)
            for (std::size_t m = 0; m < sets[s]->size(); ++m)
                cells.push_back({s, b, m});
    sl::stats::Rng rng(seed ^ 0x5eed5eed5eed5eedULL);
    for (std::size_t i = cells.size(); i > 1; --i)
        std::swap(cells[i - 1], cells[rng.below(i)]);
    cells.resize(static_cast<std::size_t>(
        static_cast<double>(cells.size()) * kPopulatedShare));
    return cells;
}

std::size_t
coldCellCount(sl::core::ServiceContext &context)
{
    std::size_t machines = 0;
    for (const auto *set : coldMachineSets(context))
        machines += set->size();
    return machines * context.cpu2017().size();
}

/** Set-up: write the seeded half of the cells into a fresh store. */
double
setUpCold(const Options &options, const std::string &store_dir)
{
    Clock::time_point start = Clock::now();
    fs::remove_all(store_dir);
    sl::core::ServiceConfig config = serveServiceConfig();
    config.store_dir = store_dir;
    sl::core::ServiceContext context(config);
    auto sets = coldMachineSets(context);
    std::vector<std::vector<std::vector<std::size_t>>> chosen(
        sets.size(),
        std::vector<std::vector<std::size_t>>(context.cpu2017().size()));
    for (const Cell &cell : populatedCells(options.seed, context))
        chosen[cell.set][cell.benchmark].push_back(cell.machine);
    for (std::size_t s = 0; s < sets.size(); ++s) {
        sl::core::Characterizer &characterizer =
            context.characterizerFor(*sets[s]);
        for (std::size_t b = 0; b < context.cpu2017().size(); ++b)
            if (!chosen[s][b].empty())
                characterizer.prepare({context.cpu2017()[b]}, chosen[s][b]);
    }
    return secondsSince(start);
}

/** Every characterize and memory request over CPU2017, one benchmark
 *  each. */
std::vector<Request>
coldRequests(const std::vector<sl::suites::BenchmarkInfo> &benchmarks)
{
    std::vector<Request> requests;
    for (const sl::suites::BenchmarkInfo &benchmark : benchmarks)
        for (Op op : {Op::Characterize, Op::Memory}) {
            Request r;
            r.op = op;
            r.benchmarks = {benchmark.name};
            requests.push_back(r);
        }
    return requests;
}

/**
 * One serve-cold round: a fresh daemon over a copy of the populated
 * store; each client walks its own seeded order of every request on one
 * connection.  Returns the round's serving wall-clock.
 */
double
coldRound(const Options &options, const std::string &template_dir,
          const std::string &store_dir, int round,
          const std::vector<Request> &requests,
          const std::map<std::string, std::string> &expected,
          std::size_t expected_simulations, std::vector<ClientLog> &logs,
          Report &report)
{
    fs::remove_all(store_dir);
    fs::copy(template_dir, store_dir, fs::copy_options::recursive);
    sl::serve::ServerConfig config;
    config.service = serveServiceConfig();
    config.service.store_dir = store_dir;
    double seconds = 0.0;
    {
        ServerRunner runner(config);
        logs.assign(kColdClients, ClientLog{});
        std::vector<std::thread> clients;
        Clock::time_point start = Clock::now();
        for (int c = 0; c < kColdClients; ++c) {
            clients.emplace_back([&, c] {
                std::vector<std::size_t> order(requests.size());
                for (std::size_t i = 0; i < order.size(); ++i)
                    order[i] = i;
                sl::stats::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL +
                                   static_cast<std::uint64_t>(round) * 31 +
                                   static_cast<std::uint64_t>(c) + 1);
                for (std::size_t i = order.size(); i > 1; --i)
                    std::swap(order[i - 1], order[rng.below(i)]);
                sl::serve::Client client;
                std::string error;
                for (std::size_t i : order) {
                    if (!client.connected() &&
                        !client.connect("127.0.0.1", runner.port(), &error)) {
                        logs[c].fail("connect: " + error);
                        continue;
                    }
                    callAndCheck(client, requests[i], expected, "", logs[c]);
                }
            });
        }
        for (std::thread &client : clients)
            client.join();
        seconds = secondsSince(start);
        report.check(runner.context().simulationsRun() == expected_simulations,
                     "serve-cold round simulated " +
                         std::to_string(runner.context().simulationsRun()) +
                         " cells, expected " +
                         std::to_string(expected_simulations));
    }
    fs::remove_all(store_dir);
    return seconds;
}

/**
 * The measured phase shared by the daemon workloads.  Timed: rounds
 * until --seconds, the workload's minimum rounds and kP99Samples
 * requests are all reached.
 * Traced: two untraced rounds, then the traced window -- two rounds as
 * `serve.round` spans, the layer, stats and query probes -- after which
 * the per-layer metrics are reported.  @p round runs one round and
 * appends to the samples; @p gate checks the rounds' registry delta.
 */
class DaemonPhase
{
  public:
    DaemonPhase(const Options &options, int min_rounds, Report &report)
        : options_(options), min_rounds_(min_rounds), report_(report),
          tracer_(options.trace)
    {
    }

    Samples samples;

    template <typename Round, typename Gate>
    void
    measure(Round round, Gate gate)
    {
        if (options_.trace) {
            round(samples);
            round(samples);
            untraced_round_ = median(samples.round_s);
            samples = Samples{};
        }
        origin_ = sl::obs::nowNs();
        start_ = Clock::now();
        RegistryDelta delta;
        ProcSample before = ProcSample::read();
        if (options_.trace) {
            for (int i = 0; i < 2; ++i) {
                Tracer::Scope span(tracer_, "serve.round", i);
                round(samples);
            }
        } else {
            while (!minimumDone() || secondsSince(start_) < options_.seconds) {
                round(samples);
                hwm_mb_.push_back(ProcSample::read().vmhwm_mb);
            }
        }
        delta.stop();
        run_delta_.stop();
        ProcSample after = ProcSample::read();
        gate(delta);
        report_.detail("resources", "{\"start\": " + before.json() +
                                        ", \"end\": " + after.json() + "}");
        report_.detail("latency_by_op", samples.byOpJson());
        report_.detail("connect_p50_ms",
                       jsonNumber(median(samples.connect_s) * 1e3));
        if (options_.trace) {
            reportRegistry(delta, run_delta_, report_);
            reportResources(before, after, report_);
            report_.metric("bench.trace_overhead_ratio", "ratio",
                           median(samples.round_s) / untraced_round_);
        }
    }

    /** Timed run: the end-to-end metrics. */
    void
    reportTimed(const std::vector<double> &setup_s)
    {
        reportEndToEnd(setup_s, samples.round_s, samples.round_latency_s,
                       hwm_mb_, static_cast<std::size_t>(min_rounds_),
                       report_);
    }

    /**
     * Traced run: the probes over @p pairs, statsProbe on
     * @p characterizer, queryProbe on @p server, then the layer table.
     */
    void
    probe(const std::vector<Pair> &pairs,
          const sl::uarch::SimulationConfig &window,
          sl::core::Characterizer &characterizer, ServerRunner &server)
    {
        layerProbe(pairs, window, tracer_, report_);
        statsProbe(characterizer, tracer_, report_);
        queryProbe(server, tracer_, report_);
        reportLayerTable(tracer_, origin_, secondsSince(start_), report_);
    }

    Tracer &tracer() { return tracer_; }

  private:
    bool
    minimumDone() const
    {
        return static_cast<int>(samples.round_s.size()) >= min_rounds_ &&
               samples.requests >= kP99Samples;
    }

    const Options &options_;
    const int min_rounds_;
    Report &report_;
    /** Set-ups and rounds: the scope of the store and pool counters. */
    RegistryDelta run_delta_;
    Tracer tracer_;
    double untraced_round_ = 0.0;
    std::vector<double> hwm_mb_;
    std::uint64_t origin_ = 0;
    Clock::time_point start_;
};

/** Every CPU2017 pair on the serve-cold machine sets. */
std::vector<Pair>
coldPairs(sl::core::ServiceContext &context)
{
    std::vector<Pair> pairs;
    for (const auto *set : coldMachineSets(context)) {
        std::vector<Pair> part = crossProduct(context.cpu2017(), *set);
        pairs.insert(pairs.end(), part.begin(), part.end());
    }
    return pairs;
}

} // namespace

void
runServeWarm(const Options &options, Report &report)
{
    // The oracle and the request streams come first, so the whole-run
    // registry scope below holds only the daemon's own work.
    sl::core::ServiceContext oracle(serveServiceConfig());
    std::vector<std::vector<Request>> mix;
    std::vector<Request> all;
    for (int c = 0; c < kWarmClients; ++c) {
        mix.push_back(
            warmMix(options.seed, c, kWarmStreamDecks, oracle.cpu2017()));
        all.insert(all.end(), mix.back().begin(), mix.back().end());
    }
    const std::map<std::string, std::string> expected =
        oracleOutputs(oracle, all, report);

    DaemonPhase phase(options, kWarmMinRounds, report);
    const std::string store_dir = options.work_dir + "/warm-store";
    std::unique_ptr<ServerRunner> runner;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepeats; ++i)
        setup_s.push_back(setUpWarm(options, store_dir, runner));

    const std::size_t warm_simulations = runner->context().simulationsRun();
    const std::string stats_marker =
        "\nsimulations=" + std::to_string(warm_simulations) + "\n";
    std::size_t cursor = 0;
    phase.measure(
        [&](Samples &samples) {
            std::vector<ClientLog> logs;
            Clock::time_point start = Clock::now();
            warmRound(*runner, mix, cursor, expected, stats_marker, logs);
            samples.round_s.push_back(secondsSince(start));
            mergeLogs(logs, samples, report);
        },
        [&](const RegistryDelta &delta) {
            report.check(
                delta.counter("core.characterize.simulations") == 0 &&
                    runner->context().simulationsRun() == warm_simulations,
                "serve-warm simulated after set-up");
        });
    if (!options.trace) {
        phase.reportTimed(setup_s);
        return;
    }
    sl::core::ServiceContext &context = runner->context();
    phase.probe(coldPairs(context),
                context.config().characterization.simulationConfig(),
                context.characterizerFor(context.profilingMachines()),
                *runner);
}

void
runServeCold(const Options &options, Report &report)
{
    sl::core::ServiceContext oracle(serveServiceConfig());
    const std::vector<Request> requests = coldRequests(oracle.cpu2017());
    const std::map<std::string, std::string> expected =
        oracleOutputs(oracle, requests, report);
    const std::size_t expected_simulations =
        coldCellCount(oracle) - populatedCells(options.seed, oracle).size();

    DaemonPhase phase(options, kColdMinRounds, report);
    const std::string template_dir = options.work_dir + "/cold-template";
    const std::string store_dir = options.work_dir + "/cold-store";
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepeats; ++i)
        setup_s.push_back(setUpCold(options, template_dir));

    int rounds = 0;
    phase.measure(
        [&](Samples &samples) {
            std::vector<ClientLog> logs;
            samples.round_s.push_back(coldRound(
                options, template_dir, store_dir, rounds++, requests,
                expected, expected_simulations, logs, report));
            mergeLogs(logs, samples, report);
        },
        [&](const RegistryDelta &delta) {
            double hits = delta.counter("core.store.hits");
            double misses = delta.counter("core.store.misses");
            report.check(hits > 0 && misses > 0,
                         "serve-cold did not use both the store read and "
                         "write paths");
            report.detail("store_hit_ratio",
                          jsonNumber(hits / (hits + misses)));
            report.detail(
                "dedup_shared",
                jsonNumber(delta.counter("core.characterize.dedup_shared")));
        });
    if (!options.trace) {
        phase.reportTimed(setup_s);
    } else {
        std::unique_ptr<ServerRunner> server;
        {
            Tracer::Scope span(phase.tracer(), "core.prepare");
            server = startWarmServer();
        }
        phase.probe(coldPairs(oracle),
                    oracle.config().characterization.simulationConfig(),
                    oracle.characterizerFor(oracle.profilingMachines()),
                    *server);
    }
    fs::remove_all(template_dir);
}

} // namespace perfbench
