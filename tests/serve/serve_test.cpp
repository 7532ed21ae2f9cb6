/**
 * @file
 * Serving-layer tests (ctest label `serve`).
 *
 * Covers the shared-core concurrency contracts the daemon is built
 * on: the sharded store serves parallel mixed read/write traffic with
 * byte-identical files to a serial run, the in-memory result LRU
 * stays within its bounds, two concurrent identical queries share
 * exactly one simulation, the wire protocol round-trips hostile
 * strings, daemon responses are byte-identical to direct query-op
 * rendering, a warm store answers queries with zero simulations, and
 * a graceful drain drops nothing.  The transport tests bound what a
 * connection costs: round trips on a persistent connection wait on no
 * TCP timer, thousands of connections leave threads and address space
 * flat, and the connection cap, the idle timeout and fd exhaustion each
 * leave the daemon serving.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/artifact_store.h"
#include "core/characterization.h"
#include "core/query_ops.h"
#include "core/service_context.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "suites/machines.h"
#include "suites/spec2017.h"
#include "uarch/simulation.h"

using namespace speclens;

namespace {

/** Fresh (pre-cleaned) store directory unique to one test. */
std::string
storeDir(const std::string &test)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("speclens_serve_test_" + test);
    std::filesystem::remove_all(dir);
    return dir.string();
}

/** Tiny window so the cross products stay fast. */
uarch::SimulationConfig
tinyWindow()
{
    uarch::SimulationConfig config;
    config.instructions = 2'000;
    config.warmup = 500;
    return config;
}

core::ServiceConfig
tinyServiceConfig(const std::string &store = "")
{
    core::ServiceConfig config;
    config.characterization.instructions = 2'000;
    config.characterization.warmup = 500;
    config.store_dir = store;
    return config;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** The sharded on-disk path of @p key under @p dir. */
std::string
shardedPath(const std::string &dir, const core::StoreKey &key)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(key.fingerprint));
    return dir + "/" +
           core::storeShardDirName(
               core::storeShardIndex(key.fingerprint)) +
           "/" + hex + ".slart";
}

/** Start @p server's accept loop on a background thread. */
std::thread
serveOnThread(serve::Server &server)
{
    return std::thread([&server]() { server.serveForever(); });
}

/** The number after @p key ("Threads:", "VmSize:") in
 *  /proc/self/status. */
long
procStatus(const std::string &key)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind(key, 0) == 0)
            return std::stol(line.substr(key.size()));
    return -1;
}

serve::Request
statsRequest()
{
    serve::Request request;
    request.op = serve::Op::Stats;
    return request;
}

/** One stats call on a new connection; true when it was answered ok. */
bool
statsOnNewConnection(std::uint16_t port, std::string *error)
{
    serve::Client client;
    serve::Response response;
    return client.connect("127.0.0.1", port, error) &&
           client.call(statsRequest(), &response, error) && response.ok;
}

/**
 * A started server whose accept loop runs on its own thread.  The
 * destructor drains it, so a failed assertion never leaves the loop
 * running.
 */
class Daemon
{
  public:
    explicit Daemon(serve::ServerConfig config) : server(std::move(config))
    {
        std::string error;
        if (!server.start(&error))
            throw std::runtime_error("server start: " + error);
        loop_ = std::thread([this]() { server.serveForever(); });
    }

    ~Daemon() { drain(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Drain and wait for the accept loop to return. */
    void
    drain()
    {
        server.requestDrain();
        if (loop_.joinable())
            loop_.join();
    }

    serve::Server server;

  private:
    std::thread loop_;
};

/** A daemon config at the tiny window. */
serve::ServerConfig
tinyServerConfig()
{
    serve::ServerConfig config;
    config.service = tinyServiceConfig();
    return config;
}

/** Poll @p done every 5 ms for up to @p limit; its last value. */
template <typename Predicate>
bool
waitFor(Predicate done,
        std::chrono::milliseconds limit = std::chrono::milliseconds(3000))
{
    auto deadline = std::chrono::steady_clock::now() + limit;
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline)
            return done();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
}

} // namespace

// Eight threads hammering one sharded store with mixed save/load
// traffic must leave exactly the same files on disk as a serial
// single-threaded campaign over the same pairs.
TEST(ShardedStore, ParallelMixedTrafficMatchesSerialStoreBytes)
{
    const uarch::SimulationConfig window = tinyWindow();
    const auto &machines = suites::profilingMachines();
    std::vector<suites::BenchmarkInfo> benchmarks =
        suites::spec2017();
    benchmarks.resize(16);

    // Serial reference.
    const std::string serial_dir = storeDir("parity_serial");
    {
        core::CampaignStore store(serial_dir);
        for (const auto &benchmark : benchmarks)
            for (const auto &machine : machines)
                core::storedSimulate(&store, benchmark.profile,
                                     machine, window);
    }

    // Parallel: 8 threads interleave saves (fresh simulate) and loads
    // across all shards.
    const std::string parallel_dir = storeDir("parity_parallel");
    {
        core::CampaignStore store(parallel_dir);
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < 8; ++t) {
            threads.emplace_back([&, t]() {
                for (std::size_t i = t; i < benchmarks.size();
                     i += 8) {
                    for (const auto &machine : machines)
                        core::storedSimulate(&store,
                                             benchmarks[i].profile,
                                             machine, window);
                }
                // Re-load a stride of everyone's entries (read side
                // of the mixed traffic; misses are fine while other
                // threads are still writing).
                for (std::size_t i = 0; i < benchmarks.size(); ++i) {
                    core::StoreKey key = core::makeStoreKey(
                        benchmarks[i].profile, machines[t % machines.size()],
                        window);
                    uarch::SimulationResult result;
                    store.load(key, result);
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }

    std::size_t compared = 0;
    for (const auto &benchmark : benchmarks)
        for (const auto &machine : machines) {
            core::StoreKey key = core::makeStoreKey(
                benchmark.profile, machine, window);
            std::string serial_bytes =
                readFile(shardedPath(serial_dir, key));
            std::string parallel_bytes =
                readFile(shardedPath(parallel_dir, key));
            ASSERT_FALSE(serial_bytes.empty()) << benchmark.name;
            EXPECT_EQ(serial_bytes, parallel_bytes)
                << benchmark.name << " on " << machine.name;
            ++compared;
        }
    EXPECT_EQ(compared, benchmarks.size() * machines.size());

    std::filesystem::remove_all(serial_dir);
    std::filesystem::remove_all(parallel_dir);
}

// Every entry must land in the shard its fingerprint's top nibble
// names, and loads look nowhere else: a pre-shard flat-layout entry
// left in the store root is a miss (the store is a cache; the pair is
// simply simulated again).
TEST(ShardedStore, EntriesLandInFingerprintShardAndLegacyRootMisses)
{
    const std::string dir = storeDir("layout");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017().front();
    const auto &machine = suites::profilingMachines().front();

    core::StoreKey key =
        core::makeStoreKey(benchmark.profile, machine, window);
    {
        core::CampaignStore store(dir);
        core::storedSimulate(&store, benchmark.profile, machine,
                             window);
        EXPECT_TRUE(std::filesystem::exists(shardedPath(dir, key)));

        // Demote the entry to the pre-shard flat layout.
        std::filesystem::path flat =
            std::filesystem::path(dir) /
            std::filesystem::path(shardedPath(dir, key)).filename();
        std::filesystem::rename(shardedPath(dir, key), flat);
    }
    core::CampaignStore reopened(dir);
    uarch::SimulationResult result;
    EXPECT_EQ(reopened.load(key, result), core::StoreStatus::Miss);
    EXPECT_EQ(reopened.counters().hits, 0u);
    EXPECT_EQ(reopened.counters().misses, 1u);
    std::filesystem::remove_all(dir);
}

// The in-memory result LRU never exceeds its configured capacity, and
// eviction / hit counters move.
TEST(ShardedStore, LruStaysBoundedAndCountsHitsAndEvictions)
{
    const std::string dir = storeDir("lru");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &machines = suites::profilingMachines();
    std::vector<suites::BenchmarkInfo> benchmarks =
        suites::spec2017();
    benchmarks.resize(12);

    const std::size_t capacity = 16;
    core::CampaignStore store(dir, capacity);
    EXPECT_EQ(store.lruCapacity(), capacity);

    for (const auto &benchmark : benchmarks)
        for (const auto &machine : machines)
            core::storedSimulate(&store, benchmark.profile, machine,
                                 window);
    EXPECT_EQ(store.lruSize(), 0u) << "save must not populate the LRU";

    // Load everything twice: first pass fills (and overflows) the
    // LRU from disk, second pass gets at least some LRU hits.
    for (int pass = 0; pass < 2; ++pass)
        for (const auto &benchmark : benchmarks)
            for (const auto &machine : machines) {
                core::StoreKey key = core::makeStoreKey(
                    benchmark.profile, machine, window);
                uarch::SimulationResult result;
                ASSERT_EQ(store.load(key, result),
                          core::StoreStatus::Hit);
            }

    EXPECT_LE(store.lruSize(), capacity);
    EXPECT_GT(store.counters().lru_evictions, 0u);
    // 84 entries > 16 slots: consecutive same-key loads are not in
    // the access pattern, but per-shard recency means *some* reload
    // lands in cache; assert on an explicit immediate re-load.
    core::StoreKey key = core::makeStoreKey(
        benchmarks.front().profile, machines.front(), window);
    uarch::SimulationResult result;
    ASSERT_EQ(store.load(key, result), core::StoreStatus::Hit);
    std::size_t before = store.counters().lru_hits;
    ASSERT_EQ(store.load(key, result), core::StoreStatus::Hit);
    EXPECT_GT(store.counters().lru_hits, before);
    std::filesystem::remove_all(dir);
}

// An LRU-cached result whose backing file was truncated after caching
// must be revalidated against the disk (size check) and recomputed —
// the cache must never outlive the artifact it mirrors.
TEST(ShardedStore, LruRevalidatesBackingFileSize)
{
    const std::string dir = storeDir("lru_revalidate");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017().front();
    const auto &machine = suites::profilingMachines().front();

    core::CampaignStore store(dir);
    core::storedSimulate(&store, benchmark.profile, machine, window);
    core::StoreKey key =
        core::makeStoreKey(benchmark.profile, machine, window);
    uarch::SimulationResult result;
    ASSERT_EQ(store.load(key, result), core::StoreStatus::Hit);
    ASSERT_EQ(store.lruSize(), 1u);

    std::filesystem::resize_file(shardedPath(dir, key), 20);
    EXPECT_EQ(store.load(key, result), core::StoreStatus::Corrupt);
    std::filesystem::remove_all(dir);
}

// Two concurrent identical queries against one shared Characterizer
// must run exactly one simulation: one thread simulates, the other
// blocks on the in-flight future and shares the result.
TEST(ServiceContext, ConcurrentIdenticalQueriesShareOneSimulation)
{
    core::ServiceContext context(tinyServiceConfig());
    std::vector<uarch::MachineConfig> one_machine = {
        suites::profilingMachines().front()};
    core::Characterizer &characterizer =
        context.characterizerFor(one_machine);
    const auto &benchmark = suites::spec2017().front();

    std::atomic<int> ready{0};
    auto race = [&]() {
        ready.fetch_add(1);
        while (ready.load() < 2) {
        } // spin: maximise overlap
        characterizer.simulation(benchmark, 0);
    };
    std::thread a(race), b(race);
    a.join();
    b.join();
    EXPECT_EQ(context.simulationsRun(), 1u);
}

// The same machine set requested twice must yield the same pooled
// Characterizer; a different set gets its own.
TEST(ServiceContext, PoolsCharacterizersByMachineSet)
{
    core::ServiceContext context(tinyServiceConfig());
    core::Characterizer &a =
        context.characterizerFor(context.profilingMachines());
    core::Characterizer &b =
        context.characterizerFor(context.profilingMachines());
    core::Characterizer &c =
        context.characterizerFor(context.sensitivityMachines());
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);
}

// The registry indexes every shipped suite by CLI-visible name.
TEST(ServiceContext, RegistryFindsBenchmarksAcrossSuites)
{
    core::ServiceContext context(tinyServiceConfig());
    ASSERT_NE(context.findBenchmark("505.mcf_r"), nullptr);
    EXPECT_EQ(context.findBenchmark("505.mcf_r")->name, "505.mcf_r");
    EXPECT_EQ(context.findBenchmark("no-such-benchmark"), nullptr);
    EXPECT_FALSE(context.cpu2017().empty());
    EXPECT_FALSE(context.cpu2006().empty());
}

// Wire protocol: requests and responses round-trip, including strings
// full of JSON-hostile bytes.
TEST(Protocol, RequestRoundTripsHostileStrings)
{
    serve::Request request;
    request.op = serve::Op::Characterize;
    request.benchmarks = {"505.mcf_r", "with \"quotes\"\n\tand\\back",
                          std::string("nul\x01byte")};
    serve::Request decoded;
    std::string error;
    ASSERT_TRUE(serve::decodeRequest(serve::encodeRequest(request),
                                     decoded, error))
        << error;
    EXPECT_EQ(decoded.op, serve::Op::Characterize);
    EXPECT_EQ(decoded.benchmarks, request.benchmarks);

    serve::Request subset;
    subset.op = serve::Op::Subset;
    subset.category = "rate-int";
    subset.k = 7;
    ASSERT_TRUE(serve::decodeRequest(serve::encodeRequest(subset),
                                     decoded, error));
    EXPECT_EQ(decoded.op, serve::Op::Subset);
    EXPECT_EQ(decoded.category, "rate-int");
    EXPECT_EQ(decoded.k, 7u);
}

TEST(Protocol, ResponseRoundTripsAndRejectsMalformed)
{
    serve::Response response;
    response.ok = true;
    response.output = "line one\nline \"two\"\t\\end\n";
    serve::Response decoded;
    std::string error;
    ASSERT_TRUE(serve::decodeResponse(
        serve::encodeResponse(response), decoded, error));
    EXPECT_TRUE(decoded.ok);
    EXPECT_EQ(decoded.output, response.output);

    serve::Request request;
    EXPECT_FALSE(serve::decodeRequest("not json", request, error));
    EXPECT_FALSE(serve::decodeRequest("{\"op\": \"nonsense\"}",
                                      request, error));
    EXPECT_FALSE(serve::decodeRequest(
        "{\"op\": \"subset\", \"k\": \"three\"}", request, error));
    EXPECT_FALSE(
        serve::decodeRequest("{\"op\": \"stats\"} trailing", request,
                             error));
    // A duplicate key has no single meaning: refuse, never last-wins.
    EXPECT_FALSE(serve::decodeRequest(
        "{\"op\": \"stats\", \"op\": \"shutdown\"}", request, error));
    // A raw control character is not JSON, even inside a string.
    EXPECT_FALSE(serve::decodeRequest(
        "{\"op\": \"characterize\", \"benchmarks\": [\"505.mcf\n_r\"]}",
        request, error));
}

// A daemon answer must be byte-identical to direct query-op
// rendering, from many concurrent clients at once.
TEST(Serve, ConcurrentClientsGetByteIdenticalAnswers)
{
    serve::ServerConfig config;
    config.service = tinyServiceConfig();
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread accept_thread = serveOnThread(server);

    core::QueryOutcome direct = core::runCharacterizeQuery(
        *server.context(), {"505.mcf_r"});
    ASSERT_TRUE(direct.ok);

    std::vector<std::string> outputs(8);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < outputs.size(); ++c) {
        clients.emplace_back([&, c]() {
            serve::Client client;
            std::string client_error;
            if (!client.connect("127.0.0.1", server.port(),
                                &client_error))
                return;
            serve::Request request;
            request.op = serve::Op::Characterize;
            request.benchmarks = {"505.mcf_r"};
            serve::Response response;
            if (client.call(request, &response, &client_error) &&
                response.ok)
                outputs[c] = response.output;
        });
    }
    for (std::thread &client : clients)
        client.join();
    for (const std::string &output : outputs)
        EXPECT_EQ(output, direct.output);

    server.requestDrain();
    accept_thread.join();
    EXPECT_EQ(server.stats().dropped, 0u);
}

// A rejected query reports the error without killing the connection.
TEST(Serve, RejectsUnknownBenchmarkButKeepsServing)
{
    serve::ServerConfig config;
    config.service = tinyServiceConfig();
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread accept_thread = serveOnThread(server);

    serve::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;
    serve::Request request;
    request.op = serve::Op::Characterize;
    request.benchmarks = {"no-such-benchmark"};
    serve::Response response;
    ASSERT_TRUE(client.call(request, &response, &error)) << error;
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, "unknown benchmark: no-such-benchmark");

    // Same connection still answers.
    request.op = serve::Op::Stats;
    request.benchmarks.clear();
    ASSERT_TRUE(client.call(request, &response, &error)) << error;
    EXPECT_TRUE(response.ok);

    server.requestDrain();
    accept_thread.join();
    EXPECT_EQ(server.stats().errors, 1u);
    EXPECT_EQ(server.stats().dropped, 0u);
}

// Repeated subset queries are answered from the daemon's memoized
// analysis and still print what a batch context computes.
TEST(Serve, RepeatedSubsetQueriesMatchBatchContext)
{
    core::ServiceContext batch(tinyServiceConfig());
    core::QueryOutcome expected =
        core::runSubsetQuery(batch, "speed-int", 3);
    ASSERT_TRUE(expected.ok) << expected.error;

    Daemon daemon(tinyServerConfig());
    serve::Client client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", daemon.server.port(), &error))
        << error;
    serve::Request request;
    request.op = serve::Op::Subset;
    request.category = "speed-int";
    request.k = 3;
    for (int round = 0; round < 2; ++round) {
        serve::Response response;
        ASSERT_TRUE(client.call(request, &response, &error)) << error;
        ASSERT_TRUE(response.ok) << response.error;
        EXPECT_EQ(response.output, expected.output) << "round " << round;
    }
}

// Warm-store acceptance criterion: a second daemon over a populated
// store answers the same query byte-identically with ZERO simulations.
TEST(Serve, WarmStoreQueryRunsZeroSimulations)
{
    const std::string dir = storeDir("warm");
    std::string cold_output;
    {
        serve::ServerConfig config;
        config.service = tinyServiceConfig(dir);
        serve::Server server(config);
        std::string error;
        ASSERT_TRUE(server.start(&error)) << error;
        std::thread accept_thread = serveOnThread(server);
        serve::Client client;
        ASSERT_TRUE(
            client.connect("127.0.0.1", server.port(), &error));
        serve::Request request;
        request.op = serve::Op::Characterize;
        request.benchmarks = {"505.mcf_r"};
        serve::Response response;
        ASSERT_TRUE(client.call(request, &response, &error));
        ASSERT_TRUE(response.ok);
        cold_output = response.output;
        EXPECT_GT(server.context()->simulationsRun(), 0u);
        server.requestDrain();
        accept_thread.join();
    }
    {
        serve::ServerConfig config;
        config.service = tinyServiceConfig(dir);
        serve::Server server(config);
        std::string error;
        ASSERT_TRUE(server.start(&error)) << error;
        std::thread accept_thread = serveOnThread(server);
        serve::Client client;
        ASSERT_TRUE(
            client.connect("127.0.0.1", server.port(), &error));
        serve::Request request;
        request.op = serve::Op::Characterize;
        request.benchmarks = {"505.mcf_r"};
        serve::Response response;
        ASSERT_TRUE(client.call(request, &response, &error));
        ASSERT_TRUE(response.ok);
        EXPECT_EQ(response.output, cold_output);
        EXPECT_EQ(server.context()->simulationsRun(), 0u);
        server.requestDrain();
        accept_thread.join();
    }
    std::filesystem::remove_all(dir);
}

// The shutdown op answers, then the server drains and returns; idle
// parked connections are half-closed cleanly, dropping nothing.
TEST(Serve, ShutdownOpDrainsGracefullyWithIdleConnections)
{
    serve::ServerConfig config;
    config.service = tinyServiceConfig();
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread accept_thread = serveOnThread(server);

    serve::Client idle;
    ASSERT_TRUE(idle.connect("127.0.0.1", server.port(), &error));

    serve::Client controller;
    ASSERT_TRUE(controller.connect("127.0.0.1", server.port(),
                                   &error));
    serve::Request request;
    request.op = serve::Op::Shutdown;
    serve::Response response;
    ASSERT_TRUE(controller.call(request, &response, &error)) << error;
    EXPECT_TRUE(response.ok);

    accept_thread.join(); // returns once drained
    EXPECT_TRUE(server.draining());
    EXPECT_EQ(server.stats().dropped, 0u);

    // The drained server no longer accepts.
    serve::Client late;
    EXPECT_FALSE(late.connect("127.0.0.1", server.port(), &error));
}

// One write per frame and TCP_NODELAY: a persistent connection's round
// trip waits on the work.  A payload written apart from its header
// waits under Nagle for the peer's delayed ACK, about 40 ms each way.
TEST(ServeTransport, PersistentConnectionRoundTripsWaitOnNoTimer)
{
    Daemon daemon(tinyServerConfig());
    serve::Client client;
    std::string error;
    ASSERT_TRUE(
        client.connect("127.0.0.1", daemon.server.port(), &error));
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 50; ++i) {
        serve::Response response;
        ASSERT_TRUE(client.call(statsRequest(), &response, &error))
            << error;
        ASSERT_TRUE(response.ok);
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
}

// Connections opened one after another are served by the fixed pool:
// threads stay at the pool's size and address space does not grow with
// the connection count, as it would with a stack kept per connection.
TEST(ServeTransport, SequentialConnectionsKeepThreadsAndMemoryBounded)
{
    const long threads_before = procStatus("Threads:");
    const serve::ServerConfig config = tinyServerConfig();
    Daemon daemon(config);
    const std::uint16_t port = daemon.server.port();
    std::string error;

    // Warm-up: max_connections clients open at once occupy every
    // worker, so each worker's allocator arena is mapped before the
    // baseline.
    {
        std::vector<serve::Client> clients(config.max_connections);
        for (serve::Client &client : clients) {
            serve::Response response;
            ASSERT_TRUE(client.connect("127.0.0.1", port, &error));
            ASSERT_TRUE(client.call(statsRequest(), &response, &error))
                << error;
            ASSERT_TRUE(response.ok) << response.error;
        }
    }
    ASSERT_TRUE(
        waitFor([&]() { return daemon.server.stats().live == 0; }));
    const long vmsize_before_kb = procStatus("VmSize:");

    long threads_max = 0;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(statsOnNewConnection(port, &error))
            << "connection " << i << ": " << error;
        if (i % 250 == 0)
            threads_max = std::max(threads_max, procStatus("Threads:"));
    }
    threads_max = std::max(threads_max, procStatus("Threads:"));
    const long vmsize_growth_kb = procStatus("VmSize:") - vmsize_before_kb;

    EXPECT_LE(threads_max, threads_before +
                               static_cast<long>(config.max_connections) +
                               4);
    EXPECT_LT(vmsize_growth_kb, 64 * 1024);
    daemon.drain();
    EXPECT_EQ(daemon.server.stats().dropped, 0u);
    EXPECT_EQ(daemon.server.stats().busy, 0u);
}

// At the cap a new connection gets one busy reply and is closed; once
// a live connection closes, the next client is served.
TEST(ServeTransport, ConnectionCapAnswersBusyThenAdmitsAgain)
{
    serve::ServerConfig config = tinyServerConfig();
    config.max_connections = 2;
    Daemon daemon(config);
    const std::uint16_t port = daemon.server.port();
    std::string error;

    serve::Client idle[2];
    serve::Response response;
    for (serve::Client &client : idle) {
        ASSERT_TRUE(client.connect("127.0.0.1", port, &error));
        ASSERT_TRUE(client.call(statsRequest(), &response, &error))
            << error;
    }

    serve::Client third;
    ASSERT_TRUE(third.connect("127.0.0.1", port, &error));
    ASSERT_TRUE(third.call(statsRequest(), &response, &error)) << error;
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error.rfind("server busy: ", 0), 0u)
        << response.error;
    EXPECT_EQ(daemon.server.stats().busy, 1u);

    // The slot frees once the worker has read the EOF.
    idle[0].close();
    ASSERT_TRUE(
        waitFor([&]() { return daemon.server.stats().live == 1; }));
    EXPECT_TRUE(statsOnNewConnection(port, &error)) << error;
    daemon.drain();
    EXPECT_EQ(daemon.server.stats().busy, 1u);
    EXPECT_EQ(daemon.server.stats().dropped, 0u);
}

// An idle connection is closed at the idle timeout, counted as idle
// and not as dropped, and a drain with an idle client returns at once.
TEST(ServeTransport, IdleTimeoutClosesIdleClientsAndDrainIsPrompt)
{
    serve::ServerConfig config = tinyServerConfig();
    config.idle_timeout_ms = 200;
    Daemon daemon(config);
    const std::uint16_t port = daemon.server.port();
    std::string error;

    serve::Client idle;
    serve::Response response;
    ASSERT_TRUE(idle.connect("127.0.0.1", port, &error));
    ASSERT_TRUE(idle.call(statsRequest(), &response, &error)) << error;
    auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(waitFor(
        [&]() { return daemon.server.stats().idle_closed == 1; }));
    EXPECT_GE(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(150));
    EXPECT_EQ(daemon.server.stats().live, 0u);
    EXPECT_FALSE(idle.call(statsRequest(), &response, &error));

    serve::Client parked;
    ASSERT_TRUE(parked.connect("127.0.0.1", port, &error));
    ASSERT_TRUE(parked.call(statsRequest(), &response, &error)) << error;
    start = std::chrono::steady_clock::now();
    daemon.drain();
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
    EXPECT_EQ(daemon.server.stats().dropped, 0u);
}

// Out of file descriptors, accept() fails with EMFILE; the loop backs
// off and retries instead of draining, and answers the waiting client
// once descriptors are available again.
TEST(ServeTransport, AcceptRetriesThroughFdExhaustion)
{
    Daemon daemon(tinyServerConfig());
    const std::uint16_t port = daemon.server.port();
    std::string error;
    ASSERT_TRUE(statsOnNewConnection(port, &error)) << error;
    // The daemon's end of that connection must be closed first, or its
    // descriptor frees up under the lowered limit.
    ASSERT_TRUE(
        waitFor([&]() { return daemon.server.stats().live == 0; }));

    // The client socket exists before the limit drops to the lowest
    // free descriptor, so only the daemon's accept() runs out.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    int lowest_free = ::fcntl(fd, F_DUPFD, 0);
    ASSERT_GE(lowest_free, 0);
    ::close(lowest_free);
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    rlimit low = saved;
    low.rlim_cur = static_cast<rlim_t>(lowest_free);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    const bool connected =
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0;
    const bool retried = waitFor(
        [&]() { return daemon.server.stats().accept_retries >= 2; });
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
    ASSERT_TRUE(connected);
    EXPECT_TRUE(retried);
    EXPECT_FALSE(daemon.server.draining());

    std::string payload;
    ASSERT_TRUE(
        serve::writeFrame(fd, serve::encodeRequest(statsRequest())));
    ASSERT_EQ(serve::readFrame(fd, payload), serve::FrameStatus::Ok);
    serve::Response response;
    ASSERT_TRUE(serve::decodeResponse(payload, response, error)) << error;
    EXPECT_TRUE(response.ok);
    ::close(fd);
    EXPECT_TRUE(statsOnNewConnection(port, &error)) << error;
}

// Requests are capped far below the 16 MiB response limit: a 70 KiB
// request is refused with an error and its connection closed, and the
// daemon goes on serving other connections.
TEST(ServeTransport, OversizeRequestIsRefusedAndDaemonKeepsServing)
{
    Daemon daemon(tinyServerConfig());
    std::string error;
    serve::Client client;
    ASSERT_TRUE(
        client.connect("127.0.0.1", daemon.server.port(), &error));
    serve::Request request;
    request.op = serve::Op::Sensitivity;
    request.metric = std::string(70 << 10, 'm');
    serve::Response response;
    ASSERT_TRUE(client.call(request, &response, &error)) << error;
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, "request frame too large");
    EXPECT_TRUE(statsOnNewConnection(daemon.server.port(), &error))
        << error;
    daemon.drain();
    EXPECT_EQ(daemon.server.stats().errors, 1u);
}
