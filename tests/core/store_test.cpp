/**
 * @file
 * Campaign artifact store tests (ctest label `store`).
 *
 * Round-trips every shipped profile on every profiling machine through
 * a store directory and asserts bit-identical reload; seeds each
 * defect class (truncation, checksum flip, engine-version bump,
 * fingerprint mismatch) and asserts the load rejects the entry and the
 * caller recomputes without crashing; and checks the warm-run
 * acceptance criterion — a second campaign over a populated store
 * executes zero simulations.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/analysis_session.h"
#include "core/artifact_store.h"
#include "core/characterization.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "suites/emerging.h"
#include "suites/machines.h"
#include "suites/spec2006.h"
#include "suites/spec2017.h"
#include "trace/phased_workload.h"
#include "uarch/simulation.h"

using namespace speclens;

namespace {

/** Fresh (pre-cleaned) store directory unique to one test. */
std::string
storeDir(const std::string &test)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("speclens_store_test_" + test);
    std::filesystem::remove_all(dir);
    return dir.string();
}

/** Tiny window so the full cross product stays fast. */
uarch::SimulationConfig
tinyWindow()
{
    uarch::SimulationConfig config;
    config.instructions = 2'000;
    config.warmup = 500;
    return config;
}

void
expectBitIdentical(const uarch::SimulationResult &a,
                   const uarch::SimulationResult &b)
{
    const uarch::PerfCounters &x = a.counters;
    const uarch::PerfCounters &y = b.counters;
    EXPECT_EQ(x.instructions, y.instructions);
    EXPECT_EQ(x.loads, y.loads);
    EXPECT_EQ(x.stores, y.stores);
    EXPECT_EQ(x.branches, y.branches);
    EXPECT_EQ(x.taken_branches, y.taken_branches);
    EXPECT_EQ(x.fp_ops, y.fp_ops);
    EXPECT_EQ(x.simd_ops, y.simd_ops);
    EXPECT_EQ(x.kernel_instructions, y.kernel_instructions);
    EXPECT_EQ(x.l1d_accesses, y.l1d_accesses);
    EXPECT_EQ(x.l1d_misses, y.l1d_misses);
    EXPECT_EQ(x.l1i_accesses, y.l1i_accesses);
    EXPECT_EQ(x.l1i_misses, y.l1i_misses);
    EXPECT_EQ(x.l2d_accesses, y.l2d_accesses);
    EXPECT_EQ(x.l2d_misses, y.l2d_misses);
    EXPECT_EQ(x.l2i_accesses, y.l2i_accesses);
    EXPECT_EQ(x.l2i_misses, y.l2i_misses);
    EXPECT_EQ(x.l3_accesses, y.l3_accesses);
    EXPECT_EQ(x.l3_misses, y.l3_misses);
    EXPECT_EQ(x.dtlb_accesses, y.dtlb_accesses);
    EXPECT_EQ(x.dtlb_misses, y.dtlb_misses);
    EXPECT_EQ(x.itlb_accesses, y.itlb_accesses);
    EXPECT_EQ(x.itlb_misses, y.itlb_misses);
    EXPECT_EQ(x.l2tlb_misses, y.l2tlb_misses);
    EXPECT_EQ(x.page_walks, y.page_walks);
    EXPECT_EQ(x.branch_mispredictions, y.branch_mispredictions);

    // Doubles are persisted as IEEE-754 bit patterns, so exact
    // equality is the contract, not a tolerance.
    EXPECT_EQ(a.cpi_stack.base, b.cpi_stack.base);
    EXPECT_EQ(a.cpi_stack.dependency, b.cpi_stack.dependency);
    EXPECT_EQ(a.cpi_stack.frontend_icache, b.cpi_stack.frontend_icache);
    EXPECT_EQ(a.cpi_stack.frontend_branch, b.cpi_stack.frontend_branch);
    EXPECT_EQ(a.cpi_stack.backend_l2, b.cpi_stack.backend_l2);
    EXPECT_EQ(a.cpi_stack.backend_l3, b.cpi_stack.backend_l3);
    EXPECT_EQ(a.cpi_stack.backend_memory, b.cpi_stack.backend_memory);
    EXPECT_EQ(a.cpi_stack.backend_tlb, b.cpi_stack.backend_tlb);
    EXPECT_EQ(a.power.core_watts, b.power.core_watts);
    EXPECT_EQ(a.power.llc_watts, b.power.llc_watts);
    EXPECT_EQ(a.power.dram_watts, b.power.dram_watts);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

// Every shipped profile on every profiling machine survives a save /
// reload cycle bit-identically, through a second store handle (a
// separate process in miniature).
TEST(CampaignStore, RoundTripEveryProfileAndMachine)
{
    const std::string dir = storeDir("round_trip");
    const uarch::SimulationConfig window = tinyWindow();

    std::vector<suites::BenchmarkInfo> benchmarks = suites::spec2017();
    for (const auto &b : suites::spec2006())
        benchmarks.push_back(b);
    for (const auto &b : suites::emergingBenchmarks())
        benchmarks.push_back(b);

    std::vector<uarch::SimulationResult> fresh;
    {
        core::CampaignStore store(dir);
        for (const auto &benchmark : benchmarks)
            for (const auto &machine : suites::profilingMachines())
                fresh.push_back(core::storedSimulate(
                    &store, benchmark.profile, machine, window));
        EXPECT_EQ(store.counters().saves, fresh.size());
        EXPECT_EQ(store.counters().computed, fresh.size());
        EXPECT_EQ(store.entryCount(), fresh.size());
    }

    core::CampaignStore reopened(dir);
    std::size_t i = 0;
    for (const auto &benchmark : benchmarks)
        for (const auto &machine : suites::profilingMachines()) {
            core::StoreKey key = core::makeStoreKey(benchmark.profile,
                                                    machine, window);
            uarch::SimulationResult loaded;
            ASSERT_EQ(reopened.load(key, loaded),
                      core::StoreStatus::Hit)
                << benchmark.name << " on " << machine.name;
            expectBitIdentical(fresh[i++], loaded);
        }
    EXPECT_EQ(reopened.counters().hits, fresh.size());
    EXPECT_EQ(reopened.counters().computed, 0u);
    std::filesystem::remove_all(dir);
}

// A truncated entry is rejected as Corrupt and recomputed in place.
TEST(CampaignStore, TruncatedEntryRecomputes)
{
    const std::string dir = storeDir("truncated");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017Benchmark("505.mcf_r");
    const auto &machine = suites::skylakeMachine();

    core::CampaignStore store(dir);
    uarch::SimulationResult fresh = core::storedSimulate(
        &store, benchmark.profile, machine, window);
    core::StoreKey key =
        core::makeStoreKey(benchmark.profile, machine, window);

    // Header cut short.
    std::filesystem::resize_file(store.entryPath(key), 20);
    uarch::SimulationResult out;
    EXPECT_EQ(store.load(key, out), core::StoreStatus::Corrupt);

    // storedSimulate() recovers: recompute, overwrite, serve again.
    uarch::SimulationResult recomputed = core::storedSimulate(
        &store, benchmark.profile, machine, window);
    expectBitIdentical(fresh, recomputed);
    EXPECT_EQ(store.load(key, out), core::StoreStatus::Hit);

    // Payload cut short (header intact) is also Corrupt.
    std::string bytes = readFile(store.entryPath(key));
    writeFile(store.entryPath(key), bytes.substr(0, bytes.size() - 9));
    EXPECT_EQ(store.load(key, out), core::StoreStatus::Corrupt);
    EXPECT_GE(store.counters().corrupt, 2u);
    std::filesystem::remove_all(dir);
}

// A flipped payload byte fails the checksum; a flipped checksum byte
// does too.  Both are Corrupt, never a wrong result.
TEST(CampaignStore, ChecksumFlipDetected)
{
    const std::string dir = storeDir("checksum");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017Benchmark("502.gcc_r");
    const auto &machine = suites::skylakeMachine();

    core::CampaignStore store(dir);
    core::storedSimulate(&store, benchmark.profile, machine, window);
    core::StoreKey key =
        core::makeStoreKey(benchmark.profile, machine, window);
    const std::string path = store.entryPath(key);
    const std::string original = readFile(path);

    std::string flipped = original;
    flipped[39] = static_cast<char>(flipped[39] ^ 0x7f); // checksum
    writeFile(path, flipped);
    uarch::SimulationResult out;
    EXPECT_EQ(store.load(key, out), core::StoreStatus::Corrupt);

    flipped = original;
    flipped[original.size() - 1] ^= 0x01; // payload
    writeFile(path, flipped);
    EXPECT_EQ(store.load(key, out), core::StoreStatus::Corrupt);
    std::filesystem::remove_all(dir);
}

// An entry written by a different engine version is StaleVersion (and
// would be recomputed), even though its checksum is intact.
TEST(CampaignStore, EngineVersionBumpDetected)
{
    const std::string dir = storeDir("version");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017Benchmark("519.lbm_r");
    const auto &machine = suites::skylakeMachine();

    core::CampaignStore store(dir);
    core::storedSimulate(&store, benchmark.profile, machine, window);
    core::StoreKey key =
        core::makeStoreKey(benchmark.profile, machine, window);

    std::string bytes = readFile(store.entryPath(key));
    bytes[8] = static_cast<char>(bytes[8] ^ 0xff); // engine version
    writeFile(store.entryPath(key), bytes);

    uarch::SimulationResult out;
    EXPECT_EQ(store.load(key, out), core::StoreStatus::StaleVersion);
    EXPECT_EQ(store.counters().stale_version, 1u);
    std::filesystem::remove_all(dir);
}

// An entry parked under the wrong file name (here: copied onto another
// key's address) is FingerprintMismatch — content addressing holds.
TEST(CampaignStore, FingerprintMismatchDetected)
{
    const std::string dir = storeDir("fingerprint");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017Benchmark("531.deepsjeng_r");
    const auto &machine = suites::skylakeMachine();

    core::CampaignStore store(dir);
    core::storedSimulate(&store, benchmark.profile, machine, window);
    core::StoreKey key =
        core::makeStoreKey(benchmark.profile, machine, window);

    uarch::SimulationConfig salted = window;
    salted.seed_salt = 7;
    core::StoreKey other =
        core::makeStoreKey(benchmark.profile, machine, salted);
    ASSERT_NE(key.fingerprint, other.fingerprint);

    std::filesystem::copy_file(store.entryPath(key),
                               store.entryPath(other));
    uarch::SimulationResult out;
    EXPECT_EQ(store.load(other, out),
              core::StoreStatus::FingerprintMismatch);

    // The misplaced copy still loads fine under its real address.
    EXPECT_EQ(store.load(key, out), core::StoreStatus::Hit);
    std::filesystem::remove_all(dir);
}

// Everything that determines a result re-addresses the entry.
TEST(CampaignStore, FingerprintCoversWindowAndModels)
{
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017Benchmark("505.mcf_r");
    const auto &machine = suites::skylakeMachine();
    const core::StoreKey base =
        core::makeStoreKey(benchmark.profile, machine, window);

    uarch::SimulationConfig salted = window;
    salted.seed_salt = 1;
    EXPECT_NE(core::makeStoreKey(benchmark.profile, machine, salted)
                  .fingerprint,
              base.fingerprint);

    uarch::SimulationConfig wider = window;
    wider.instructions += 1;
    EXPECT_NE(core::makeStoreKey(benchmark.profile, machine, wider)
                  .fingerprint,
              base.fingerprint);

    uarch::SimulationConfig raw = window;
    raw.apply_machine_transform = false;
    EXPECT_NE(core::makeStoreKey(benchmark.profile, machine, raw)
                  .fingerprint,
              base.fingerprint);

    uarch::SimulationConfig cold = window;
    cold.prewarm = false;
    EXPECT_NE(core::makeStoreKey(benchmark.profile, machine, cold)
                  .fingerprint,
              base.fingerprint);

    const auto &other = suites::spec2017Benchmark("502.gcc_r");
    EXPECT_NE(core::makeStoreKey(other.profile, machine, window)
                  .fingerprint,
              base.fingerprint);

    const auto &machines = suites::profilingMachines();
    EXPECT_NE(core::makeStoreKey(benchmark.profile, machines.at(1),
                                 window)
                  .fingerprint,
              base.fingerprint);
}

// The campaign-level key (CharacterizationConfig) and the raw
// simulate() key (SimulationConfig) agree, so bench campaigns and
// direct storedSimulate() calls share entries.
TEST(CampaignStore, CampaignAndRawKeysShareAddresses)
{
    core::CharacterizationConfig campaign;
    campaign.instructions = 2'000;
    campaign.warmup = 500;
    campaign.jobs = 5; // must not affect the address

    const auto &benchmark = suites::spec2017Benchmark("505.mcf_r");
    const auto &machine = suites::skylakeMachine();
    const core::StoreKey a =
        core::makeStoreKey(benchmark.profile, machine, campaign);
    const core::StoreKey b = core::makeStoreKey(
        benchmark.profile, machine, campaign.simulationConfig());
    EXPECT_EQ(a.fingerprint, b.fingerprint);

    campaign.jobs = 0;
    EXPECT_EQ(core::makeStoreKey(benchmark.profile, machine, campaign)
                  .fingerprint,
              a.fingerprint);
}

// Phased results round-trip through their own entry kind, and a pair
// load against a phased entry is rejected rather than misparsed.
TEST(CampaignStore, PhasedRoundTripAndKindMismatch)
{
    const std::string dir = storeDir("phased");
    uarch::SimulationConfig window = tinyWindow();
    window.instructions = 8'000; // room for 4 phases
    const auto &base = suites::spec2017Benchmark("502.gcc_r");
    trace::PhasedWorkload workload =
        trace::derivePhases(base.profile, 4, 0.35);

    core::CampaignStore store(dir);
    uarch::PhasedSimulationResult fresh = core::storedSimulatePhased(
        &store, workload, suites::skylakeMachine(), window);
    core::StoreKey key = core::makeStoreKey(
        workload, suites::skylakeMachine(), window);

    core::CampaignStore reopened(dir);
    uarch::PhasedSimulationResult loaded;
    ASSERT_EQ(reopened.loadPhased(key, loaded),
              core::StoreStatus::Hit);
    ASSERT_EQ(loaded.per_phase.size(), fresh.per_phase.size());
    for (std::size_t k = 0; k < fresh.per_phase.size(); ++k)
        expectBitIdentical(fresh.per_phase[k], loaded.per_phase[k]);
    EXPECT_EQ(loaded.combined_cpi, fresh.combined_cpi);
    EXPECT_EQ(loaded.combined_counters.instructions,
              fresh.combined_counters.instructions);

    // Same file requested as a pair entry: defensive rejection.
    uarch::SimulationResult pair_out;
    EXPECT_EQ(reopened.load(key, pair_out),
              core::StoreStatus::Corrupt);

    // Warm storedSimulatePhased() serves the entry without computing.
    core::CampaignStore warm(dir);
    uarch::PhasedSimulationResult again = core::storedSimulatePhased(
        &warm, workload, suites::skylakeMachine(), window);
    EXPECT_EQ(again.combined_cpi, fresh.combined_cpi);
    EXPECT_EQ(warm.counters().computed, 0u);
    std::filesystem::remove_all(dir);
}

// The acceptance criterion behind `--store`: a second campaign over a
// populated directory executes zero simulations.
TEST(CampaignStore, WarmCampaignRunsZeroSimulations)
{
    const std::string dir = storeDir("warm");
    core::SessionConfig config;
    config.machines = suites::profilingMachines();
    config.characterization.instructions = 2'000;
    config.characterization.warmup = 500;
    config.store_dir = dir;
    std::vector<suites::BenchmarkInfo> benchmarks =
        suites::spec2017RateInt();

    {
        core::AnalysisSession cold(config);
        cold.characterizer().prepare(benchmarks);
        EXPECT_GT(cold.characterizer().simulationsRun(), 0u);
        EXPECT_EQ(cold.store()->counters().computed,
                  cold.characterizer().simulationsRun());
    }

    core::AnalysisSession warm(config);
    warm.characterizer().prepare(benchmarks);
    EXPECT_EQ(warm.characterizer().simulationsRun(), 0u);
    EXPECT_EQ(warm.store()->counters().computed, 0u);
    EXPECT_EQ(warm.store()->counters().misses, 0u);
    EXPECT_NE(warm.summary().find("simulations=0"), std::string::npos);
    std::filesystem::remove_all(dir);
}

// scan() classifies every seeded defect and invalidateStale() removes
// exactly the inconsistent entries.
TEST(CampaignStore, ScanAndInvalidateStale)
{
    const std::string dir = storeDir("scan");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &machine = suites::skylakeMachine();
    const char *names[] = {"500.perlbench_r", "502.gcc_r", "505.mcf_r",
                           "520.omnetpp_r"};

    core::CampaignStore store(dir);
    for (const char *name : names)
        core::storedSimulate(&store,
                             suites::spec2017Benchmark(name).profile,
                             machine, window);

    // Seed one defect of each class; names[3] stays healthy.
    core::StoreKey k0 = core::makeStoreKey(
        suites::spec2017Benchmark(names[0]).profile, machine, window);
    std::filesystem::resize_file(store.entryPath(k0), 12);

    core::StoreKey k1 = core::makeStoreKey(
        suites::spec2017Benchmark(names[1]).profile, machine, window);
    std::string bytes = readFile(store.entryPath(k1));
    bytes[8] = static_cast<char>(bytes[8] ^ 0xff);
    writeFile(store.entryPath(k1), bytes);

    core::StoreKey k2 = core::makeStoreKey(
        suites::spec2017Benchmark(names[2]).profile, machine, window);
    uarch::SimulationConfig salted = window;
    salted.seed_salt = 3;
    core::StoreKey misplaced = core::makeStoreKey(
        suites::spec2017Benchmark(names[2]).profile, machine, salted);
    std::filesystem::rename(store.entryPath(k2),
                            store.entryPath(misplaced));

    std::vector<core::StoreEntryInfo> entries = store.scan();
    ASSERT_EQ(entries.size(), 4u);
    std::size_t healthy = 0, corrupt = 0, stale = 0, mismatched = 0;
    for (const auto &entry : entries) {
        switch (entry.status) {
        case core::StoreStatus::Hit: ++healthy; break;
        case core::StoreStatus::Corrupt: ++corrupt; break;
        case core::StoreStatus::StaleVersion: ++stale; break;
        case core::StoreStatus::FingerprintMismatch:
            ++mismatched;
            break;
        default: break;
        }
    }
    EXPECT_EQ(healthy, 1u);
    EXPECT_EQ(corrupt, 1u);
    EXPECT_EQ(stale, 1u);
    EXPECT_EQ(mismatched, 1u);

    EXPECT_EQ(store.invalidateStale(), 3u);
    EXPECT_EQ(store.entryCount(), 1u);
    for (const auto &entry : store.scan())
        EXPECT_EQ(entry.status, core::StoreStatus::Hit);

    EXPECT_EQ(store.invalidate(), 1u);
    EXPECT_EQ(store.entryCount(), 0u);
    std::filesystem::remove_all(dir);
}

// A process killed mid-save leaves a half-written `.slart.tmp` behind
// (the atomic-rename protocol never publishes it).  Opening the store
// again must sweep the orphan, count it, and leave healthy entries
// alone.
TEST(CampaignStore, OrphanedTempFilesSweptOnOpen)
{
    const std::string dir = storeDir("orphans");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017Benchmark("505.mcf_r");
    const auto &machine = suites::skylakeMachine();

    {
        core::CampaignStore store(dir);
        EXPECT_EQ(store.counters().orphaned_temp, 0u);
        core::storedSimulate(&store, benchmark.profile, machine,
                             window);
    }

    // Seed two interrupted writes next to the healthy entry.
    writeFile(dir + "/deadbeef00000001.slart.tmp", "half-written");
    writeFile(dir + "/deadbeef00000002.slart.tmp.1234", "torn");

    core::CampaignStore reopened(dir);
    EXPECT_EQ(reopened.counters().orphaned_temp, 2u);
    EXPECT_FALSE(std::filesystem::exists(
        dir + "/deadbeef00000001.slart.tmp"));
    EXPECT_FALSE(std::filesystem::exists(
        dir + "/deadbeef00000002.slart.tmp.1234"));

    // The published entry survives and still loads.
    EXPECT_EQ(reopened.entryCount(), 1u);
    core::StoreKey key =
        core::makeStoreKey(benchmark.profile, machine, window);
    uarch::SimulationResult out;
    EXPECT_EQ(reopened.load(key, out), core::StoreStatus::Hit);
    std::filesystem::remove_all(dir);
}

// Swept orphans surface in the session's `rejected=` summary rather
// than disappearing silently.
TEST(CampaignStore, OrphanSweepCountsIntoSessionSummary)
{
    const std::string dir = storeDir("orphan_summary");
    std::filesystem::create_directories(dir);
    writeFile(dir + "/feedface00000001.slart.tmp", "torn write");

    core::SessionConfig config;
    config.machines = {suites::skylakeMachine()};
    config.characterization.instructions = 2'000;
    config.characterization.warmup = 500;
    config.store_dir = dir;
    core::AnalysisSession session(config);
    EXPECT_EQ(session.store()->counters().orphaned_temp, 1u);
    EXPECT_NE(session.summary().find("rejected=1"), std::string::npos)
        << session.summary();
    std::filesystem::remove_all(dir);
}

// Every store-backed session leaves a run manifest in the store
// directory: well-formed JSON carrying the v1 schema keys and the
// session's configuration fingerprint.
TEST(AnalysisSession, WritesRunManifestOnDestruction)
{
    const std::string dir = storeDir("manifest");
    std::string fingerprint;
    {
        core::SessionConfig config;
        config.machines = suites::profilingMachines();
        config.characterization.instructions = 2'000;
        config.characterization.warmup = 500;
        config.store_dir = dir;
        core::AnalysisSession session(config);
        session.characterizer().prepare(suites::spec2017RateInt());
        fingerprint = session.configFingerprint();
        EXPECT_EQ(fingerprint.size(), 16u);
    }

    const std::string path =
        dir + "/" + obs::kManifestFileName;
    ASSERT_TRUE(std::filesystem::exists(path));
    std::string body = readFile(path);
    EXPECT_TRUE(obs::validateJson(body));
    for (const char *key :
         {"\"manifest_version\": 1", "\"engine_version\"",
          "\"config_fingerprint\"", "\"run\"", "\"totals\"",
          "\"rejected\"", "\"metrics\""})
        EXPECT_NE(body.find(key), std::string::npos) << key;
    EXPECT_NE(body.find(fingerprint), std::string::npos);
    EXPECT_NE(body.find("\"orphaned_temp\": 0"), std::string::npos);

    // A warm rerun rewrites the manifest with the same identity block.
    {
        core::SessionConfig config;
        config.machines = suites::profilingMachines();
        config.characterization.instructions = 2'000;
        config.characterization.warmup = 500;
        config.store_dir = dir;
        core::AnalysisSession warm(config);
        warm.characterizer().prepare(suites::spec2017RateInt());
        EXPECT_EQ(warm.configFingerprint(), fingerprint);
    }
    std::string warm_body = readFile(path);
    EXPECT_TRUE(obs::validateJson(warm_body));
    EXPECT_NE(warm_body.find(fingerprint), std::string::npos);
    std::filesystem::remove_all(dir);
}

// A different simulation window or machine set must change the
// manifest's configuration fingerprint.
TEST(AnalysisSession, ConfigFingerprintCoversWindowAndMachines)
{
    core::SessionConfig config;
    config.machines = {suites::skylakeMachine()};
    config.characterization.instructions = 2'000;
    config.characterization.warmup = 500;
    const std::string base =
        core::AnalysisSession(config).configFingerprint();

    core::SessionConfig wider = config;
    wider.characterization.instructions = 4'000;
    EXPECT_NE(core::AnalysisSession(wider).configFingerprint(), base);

    core::SessionConfig more = config;
    more.machines = suites::profilingMachines();
    EXPECT_NE(core::AnalysisSession(more).configFingerprint(), base);

    // jobs is execution policy, not measurement configuration.
    core::SessionConfig jobs = config;
    jobs.characterization.jobs = 7;
    EXPECT_EQ(core::AnalysisSession(jobs).configFingerprint(), base);
}

// A store on an unwritable path degrades soft: analyses still run,
// saves report failure, nothing crashes.
TEST(CampaignStore, UnwritableDirectoryDegradesSoft)
{
    core::CampaignStore store("/proc/speclens_no_such_store");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017Benchmark("505.mcf_r");
    const auto &machine = suites::skylakeMachine();

    uarch::SimulationResult direct =
        uarch::simulate(benchmark.profile, machine, window);
    uarch::SimulationResult through = core::storedSimulate(
        &store, benchmark.profile, machine, window);
    expectBitIdentical(direct, through);
    EXPECT_EQ(store.counters().saves, 0u);
    EXPECT_EQ(store.entryCount(), 0u);
}
