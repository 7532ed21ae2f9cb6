/**
 * @file
 * Per-rule corruption tests.
 *
 * Every rule is exercised both ways: on the shipped data (no findings)
 * and on a context with exactly one field corrupted, where it must
 * fire with exactly its diagnostic code.  The LintContext holds its
 * data by value precisely so these tests can mutate a copy.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>

#include "core/artifact_store.h"
#include "core/perf_trajectory.h"
#include "lint/rules.h"
#include "obs/manifest.h"
#include "trace/phased_workload.h"
#include "uarch/simulation.h"

namespace speclens {
namespace lint {
namespace {

/** Shipped context, copied fresh per test (deep checks off). */
LintContext
cleanContext()
{
    static const LintContext base = shippedContext();
    LintContext context = base;
    context.deep = false;
    return context;
}

/** Diagnostics from running just the rule with @p code. */
std::vector<Diagnostic>
runRule(const std::string &code, const LintContext &context)
{
    std::vector<Diagnostic> out;
    ruleByCode(code)->run(context, out);
    return out;
}

/** Errors only (deep-skip Info notes are not findings). */
std::size_t
errorCount(const std::vector<Diagnostic> &diagnostics)
{
    return countSeverity(diagnostics, Severity::Error);
}

/**
 * The corrupted context must make rule @p code (and only invocations
 * of that rule) report at least one error, every error carrying the
 * rule's own code; the clean context must stay silent.
 */
void
expectFires(const std::string &code, const LintContext &corrupted)
{
    EXPECT_EQ(errorCount(runRule(code, cleanContext())), 0u)
        << code << " reports errors on shipped data";
    std::vector<Diagnostic> found = runRule(code, corrupted);
    EXPECT_GT(errorCount(found), 0u)
        << code << " missed the seeded corruption";
    for (const Diagnostic &d : found)
        EXPECT_EQ(d.code, code) << "stray code from " << code;
}

TEST(Rules, SL001_MixRange)
{
    LintContext context = cleanContext();
    context.cpu2017[0].profile.mix.load = 1.5;
    expectFires("SL001", context);
}

TEST(Rules, SL001_MixOverUnitBudget)
{
    LintContext context = cleanContext();
    // Each fraction in range but the sum exceeds 1.
    context.cpu2006[0].profile.mix.load = 0.6;
    context.cpu2006[0].profile.mix.store = 0.6;
    expectFires("SL001", context);
}

TEST(Rules, SL002_MixSum)
{
    LintContext context = cleanContext();
    context.cpu2017[0].profile.memory.data[1].weight = 0.5;
    expectFires("SL002", context);
}

TEST(Rules, SL002_NonPositiveWeight)
{
    LintContext context = cleanContext();
    context.emerging[0].profile.memory.data[2].weight = -0.1;
    expectFires("SL002", context);
}

TEST(Rules, SL003_CpiComponents)
{
    LintContext context = cleanContext();
    context.cpu2017[0].profile.exec.base_cpi = -0.1;
    expectFires("SL003", context);
}

TEST(Rules, SL003_MlpBelowOne)
{
    LintContext context = cleanContext();
    context.cpu2017[3].profile.exec.mlp = 0.5;
    expectFires("SL003", context);
}

TEST(Rules, SL004_WorkingSetShape)
{
    LintContext context = cleanContext();
    // Big set smaller than the mid set: ordering broken.
    context.cpu2017[0].profile.memory.data[2].bytes = 1024.0;
    expectFires("SL004", context);
}

TEST(Rules, SL005_CodeModel)
{
    LintContext context = cleanContext();
    trace::MemoryModel &m = context.cpu2017[0].profile.memory;
    m.hot_code_bytes = m.code_bytes * 2;
    expectFires("SL005", context);
}

TEST(Rules, SL006_BranchModel)
{
    LintContext context = cleanContext();
    context.cpu2017[0].profile.branch.taken_fraction = 1.2;
    expectFires("SL006", context);
}

TEST(Rules, SL007_CacheMonotonicity)
{
    LintContext context = cleanContext();
    context.machines[0].caches.l2.size_bytes = 16 * 1024;
    expectFires("SL007", context);
}

TEST(Rules, SL007_LatencyInversion)
{
    LintContext context = cleanContext();
    context.machines[2].latencies.memory_cycles = 1.0;
    expectFires("SL007", context);
}

TEST(Rules, SL008_CacheGeometry)
{
    LintContext context = cleanContext();
    context.machines[0].caches.l1d.line_bytes = 48;
    expectFires("SL008", context);
}

TEST(Rules, SL008_CapacityNotMultipleOfWay)
{
    LintContext context = cleanContext();
    context.machines[1].caches.l2.size_bytes = 200 * 1000;
    expectFires("SL008", context);
}

TEST(Rules, SL009_TlbConfig)
{
    LintContext context = cleanContext();
    // Skylake DTLB has 64 entries; 3 ways do not divide them.
    context.machines[0].tlbs.dtlb.associativity = 3;
    expectFires("SL009", context);
}

TEST(Rules, SL009_L2TlbSmallerThanL1)
{
    LintContext context = cleanContext();
    ASSERT_TRUE(context.machines[0].tlbs.l2tlb.has_value());
    context.machines[0].tlbs.l2tlb->entries = 32;
    context.machines[0].tlbs.l2tlb->associativity = 32;
    expectFires("SL009", context);
}

TEST(Rules, SL010_MachineConfig)
{
    LintContext context = cleanContext();
    context.machines[0].frequency_ghz = 9.0;
    expectFires("SL010", context);
}

TEST(Rules, SL011_Transform)
{
    LintContext context = cleanContext();
    context.machines[0].transform.mix_jitter = 0.5;
    expectFires("SL011", context);
}

TEST(Rules, SL012_CrossReference)
{
    LintContext context = cleanContext();
    context.cpu2017[0].partner = "999.nonesuch_r";
    expectFires("SL012", context);
}

TEST(Rules, SL013_InputSets)
{
    LintContext context = cleanContext();
    ASSERT_FALSE(context.input_groups.empty());
    ASSERT_GT(context.input_groups[0].inputs.size(), 1u);
    context.input_groups[0].inputs.pop_back();
    expectFires("SL013", context);
}

TEST(Rules, SL014_ScoreDatabase)
{
    LintContext context = cleanContext();
    // A NaN mix fraction propagates through deriveTraits() into the
    // speedup model.
    context.cpu2017[0].profile.mix.load =
        std::numeric_limits<double>::quiet_NaN();
    expectFires("SL014", context);
}

TEST(Rules, SL015_PaperBounds)
{
    LintContext context = cleanContext();
    context.cpu2017[0].published_cpi = 50.0;
    expectFires("SL015", context);
}

TEST(Rules, SL015_DeepSimulationChecksPassOnShippedData)
{
    LintContext context = cleanContext();
    context.deep = true;
    context.instructions = 15'000;
    context.warmup = 5'000;
    std::vector<Diagnostic> found = runRule("SL015", context);
    EXPECT_EQ(errorCount(found), 0u);
    // With deep checks on, the skip note must be absent.
    for (const Diagnostic &d : found)
        EXPECT_EQ(d.message.find("skipped"), std::string::npos);
}

TEST(Rules, SL015_SkipNoteWithoutDeep)
{
    std::vector<Diagnostic> found =
        runRule("SL015", cleanContext());
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].severity, Severity::Info);
}

TEST(Rules, SL016_SkipNoteWithoutStore)
{
    std::vector<Diagnostic> found =
        runRule("SL016", cleanContext());
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].severity, Severity::Info);
}

TEST(Rules, SL016_StoreIntegrity)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        "speclens_sl016_test";
    std::filesystem::remove_all(dir);

    // A healthy store (one shipped pair) lints clean...
    core::CampaignStore store(dir.string());
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;
    LintContext context = cleanContext();
    core::StoreKey key = core::makeStoreKey(
        context.cpu2017[0].profile, context.machines[0], window);
    store.save(key,
               uarch::simulate(context.cpu2017[0].profile,
                               context.machines[0], window));
    context.store_dir = dir.string();
    EXPECT_EQ(errorCount(runRule("SL016", context)), 0u);

    // ...and a truncated entry is an error finding.
    std::filesystem::resize_file(store.entryPath(key), 12);
    expectFires("SL016", context);
    std::filesystem::remove_all(dir);
}

TEST(Rules, SL016_OrphanedEntryWarns)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        "speclens_sl016_orphan_test";
    std::filesystem::remove_all(dir);

    // A consistent entry whose benchmark no shipped model matches:
    // warning, not error.
    core::CampaignStore store(dir.string());
    LintContext context = cleanContext();
    trace::WorkloadProfile foreign = context.cpu2017[0].profile;
    foreign.name = "999.nonesuch_r";
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;
    core::StoreKey key =
        core::makeStoreKey(foreign, context.machines[0], window);
    store.save(key, uarch::simulate(foreign, context.machines[0],
                                    window));
    context.store_dir = dir.string();

    std::vector<Diagnostic> found = runRule("SL016", context);
    EXPECT_EQ(errorCount(found), 0u);
    EXPECT_EQ(countSeverity(found, Severity::Warning), 1u);
    std::filesystem::remove_all(dir);
}

TEST(Rules, SL017_SkipNoteWithoutDeep)
{
    std::vector<Diagnostic> found =
        runRule("SL017", cleanContext());
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].severity, Severity::Info);
    EXPECT_NE(found[0].message.find("skipped"), std::string::npos);
}

// A suite of identical workloads makes *every* feature column
// degenerate: SL017 must warn per column (never error — a dead metric
// is a calibration smell, not invalid data) and name each column.
TEST(Rules, SL017_IdenticalWorkloadsDegenerateEveryColumn)
{
    LintContext context = cleanContext();
    context.deep = true;
    context.instructions = 2'000;
    context.warmup = 500;
    context.cpu2017.resize(2);
    context.cpu2017[1] = context.cpu2017[0];

    std::vector<Diagnostic> found = runRule("SL017", context);
    EXPECT_EQ(errorCount(found), 0u);
    std::size_t warnings = countSeverity(found, Severity::Warning);
    EXPECT_GT(warnings, 0u);
    for (const Diagnostic &d : found) {
        EXPECT_EQ(d.code, "SL017");
        if (d.severity == Severity::Warning) {
            EXPECT_EQ(d.location.rfind("features/", 0), 0u)
                << d.location;
            EXPECT_FALSE(d.fix_hint.empty());
        }
    }
    // The summary Info line reports "0 of N feature columns vary".
    bool summary_seen = false;
    for (const Diagnostic &d : found)
        if (d.severity == Severity::Info &&
            d.message.rfind("0 of ", 0) == 0)
            summary_seen = true;
    EXPECT_TRUE(summary_seen);
    // Every column warned: warnings == N in "0 of N".
    EXPECT_EQ(warnings, found.size() - 1);
}

// ---------------------------------------------------------------------
// Artifact-lint family (SL018-SL024).

/** RAII temp directory under the system temp root. */
struct TempDir {
    std::filesystem::path path;

    explicit TempDir(const char *name)
        : path(std::filesystem::temp_directory_path() / name)
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
};

void
writeFile(const std::filesystem::path &file, const std::string &text)
{
    std::ofstream os(file);
    os << text;
}

/** @p text with the first occurrence of @p from swapped for @p to. */
std::string
replaced(std::string text, const std::string &from, const std::string &to)
{
    std::size_t pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    if (pos != std::string::npos)
        text.replace(pos, from.size(), to);
    return text;
}

/**
 * A fully consistent trajectory artifact for PR @p pr in schema
 * @p version: v3 drops v2's materialized baseline, and v1 (which no
 * reader accepts any more) predates the seed baseline.
 */
std::string
benchArtifactText(std::uint64_t pr, int version = 2)
{
    const double fused = 2.0, materialized = 4.0;
    const double records_per_second = 12'880'000.0 / fused;
    std::ostringstream os;
    os.precision(17);
    os << "{\n";
    os << "  \"schema\": \"speclens-bench-trajectory-v" << version
       << "\",\n";
    os << "  \"pr\": " << pr << ",\n";
    if (version >= 2) {
        os << "  \"seed_baseline\": {\n";
        os << "    \"records_per_second\": "
           << core::kSeedRecordsPerSecond << ",\n";
        os << "    \"simulations_per_second\": "
           << core::kSeedSimulationsPerSecond << "\n";
        os << "  },\n";
    }
    os << "  \"config\": {\n";
    os << "    \"suite\": \"cpu2017\",\n";
    os << "    \"benchmarks\": 23,\n";
    os << "    \"machines\": 7,\n";
    os << "    \"instructions\": " << core::kTrajectoryInstructions
       << ",\n";
    os << "    \"warmup\": " << core::kTrajectoryWarmup << ",\n";
    os << "    \"seed_salt\": 0,\n";
    os << "    \"jobs\": 1\n";
    os << "  },\n";
    os << "  \"campaign\": {\n";
    os << "    \"simulations\": 161,\n";
    os << "    \"records_per_simulation\": 80000,\n";
    os << "    \"records_total\": 12880000,\n";
    os << "    \"fingerprint\": \"00112233aabbccdd\",\n";
    os << "    \"fused_seconds\": " << fused << ",\n";
    if (version <= 2) {
        os << "    \"materialized_seconds\": " << materialized << ",\n";
        os << "    \"speedup_vs_materialized\": " << materialized / fused
           << ",\n";
        os << "    \"parity_bit_identical\": true,\n";
    }
    if (version >= 2)
        os << "    \"speedup_vs_seed\": "
           << records_per_second / core::kSeedRecordsPerSecond << ",\n";
    os << "    \"simulations_per_second\": " << 161.0 / fused << ",\n";
    os << "    \"records_per_second\": " << records_per_second << "\n";
    os << "  },\n";
    os << "  \"stats\": {\n";
    os << "    \"seconds\": 0.5,\n";
    os << "    \"feature_rows\": 23,\n";
    os << "    \"feature_cols\": 30,\n";
    os << "    \"fingerprint\": \"ffeeddccbbaa9988\"\n";
    os << "  },\n";
    os << "  \"store\": {\n";
    os << "    \"checked\": false\n";
    os << "  }\n";
    os << "}\n";
    return os.str();
}

/** A well-formed version-1 run manifest claiming @p entries entries. */
std::string
manifestText(std::uint64_t entries)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"manifest_version\": 1,\n";
    os << "  \"engine_version\": " << core::kStoreEngineVersion << ",\n";
    os << "  \"config_fingerprint\": \"0123456789abcdef\",\n";
    os << "  \"run\": {\n";
    os << "    \"benchmarks\": 23,\n";
    os << "    \"machines\": 7\n";
    os << "  },\n";
    os << "  \"totals\": {\n";
    os << "    \"entries\": " << entries << ",\n";
    os << "    \"hits\": 0,\n";
    os << "    \"misses\": " << entries << ",\n";
    os << "    \"simulations\": " << entries << ",\n";
    os << "    \"saves\": " << entries << "\n";
    os << "  },\n";
    os << "  \"rejected\": {\n";
    os << "    \"corrupt\": 0,\n";
    os << "    \"stale_version\": 0,\n";
    os << "    \"fingerprint_mismatch\": 0,\n";
    os << "    \"orphaned_temp\": 0\n";
    os << "  },\n";
    os << "  \"metrics\": {\n";
    os << "    \"spans\": 0\n";
    os << "  }\n";
    os << "}\n";
    return os.str();
}

TEST(Rules, SL018_SkipNoteWithoutStore)
{
    std::vector<Diagnostic> found = runRule("SL018", cleanContext());
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].severity, Severity::Info);
}

TEST(Rules, SL018_StoreResultAudit)
{
    TempDir dir("speclens_sl018_test");
    core::CampaignStore store(dir.path.string());
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;

    // A faithfully saved result re-audits clean...
    uarch::SimulationResult result = uarch::simulate(
        context.cpu2017[0].profile, context.machines[0], window);
    store.save(core::makeStoreKey(context.cpu2017[0].profile,
                                  context.machines[0], window),
               result);
    EXPECT_EQ(errorCount(runRule("SL018", context)), 0u);

    // ...and a page-walk/last-level-miss mismatch is a finding.
    window.seed_salt = 7;
    uarch::SimulationResult bad = uarch::simulate(
        context.cpu2017[0].profile, context.machines[0], window);
    bad.counters.page_walks += 1;
    store.save(core::makeStoreKey(context.cpu2017[0].profile,
                                  context.machines[0], window),
               bad);
    expectFires("SL018", context);
}

TEST(Rules, SL019_StoreMetricRange)
{
    TempDir dir("speclens_sl019_test");
    core::CampaignStore store(dir.path.string());
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;

    uarch::SimulationResult result = uarch::simulate(
        context.cpu2017[0].profile, context.machines[0], window);
    store.save(core::makeStoreKey(context.cpu2017[0].profile,
                                  context.machines[0], window),
               result);
    EXPECT_EQ(errorCount(runRule("SL019", context)), 0u);

    // An L3 access that no L2 miss explains breaks demand plumbing.
    window.seed_salt = 7;
    uarch::SimulationResult bad = uarch::simulate(
        context.cpu2017[0].profile, context.machines[0], window);
    bad.counters.l3_accesses += 1;
    store.save(core::makeStoreKey(context.cpu2017[0].profile,
                                  context.machines[0], window),
               bad);
    expectFires("SL019", context);
}

TEST(Rules, SL020_SkipNoteWithoutBenchDir)
{
    std::vector<Diagnostic> found = runRule("SL020", cleanContext());
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].severity, Severity::Info);
}

TEST(Rules, SL020_BenchSchemaVolumeMismatch)
{
    TempDir dir("speclens_sl020_test");
    LintContext context = cleanContext();
    context.bench_dir = dir.path.string();

    writeFile(dir.path / "BENCH_3.json", benchArtifactText(3));
    EXPECT_EQ(errorCount(runRule("SL020", context)), 0u);

    writeFile(dir.path / "BENCH_3.json",
              replaced(benchArtifactText(3),
                       "\"records_total\": 12880000",
                       "\"records_total\": 12880001"));
    expectFires("SL020", context);
}

TEST(Rules, SL020_ParityRegressionIsAnError)
{
    TempDir dir("speclens_sl020_parity_test");
    LintContext context = cleanContext();
    context.bench_dir = dir.path.string();
    writeFile(dir.path / "BENCH_4.json",
              replaced(benchArtifactText(4),
                       "\"parity_bit_identical\": true",
                       "\"parity_bit_identical\": false"));
    expectFires("SL020", context);
}

TEST(Rules, SL020_V3ArtifactLintsClean)
{
    TempDir dir("speclens_sl020_v3_test");
    LintContext context = cleanContext();
    context.bench_dir = dir.path.string();
    // No materialized baseline and no parity flag: v3 has neither.
    writeFile(dir.path / "BENCH_3.json", benchArtifactText(3, 3));
    EXPECT_EQ(errorCount(runRule("SL020", context)), 0u);
}

TEST(Rules, SL020_V1ArtifactIsAnError)
{
    TempDir dir("speclens_sl020_v1_test");
    LintContext context = cleanContext();
    context.bench_dir = dir.path.string();
    writeFile(dir.path / "BENCH_2.json", benchArtifactText(2, 1));
    expectFires("SL020", context);
}

TEST(Rules, SL020_SeedBaselineDrift)
{
    TempDir dir("speclens_sl020_seed_test");
    LintContext context = cleanContext();
    context.bench_dir = dir.path.string();
    // A rewritten baseline silently re-bases every later speedup.
    std::string text = benchArtifactText(5);
    std::size_t baseline = text.find("\"seed_baseline\"");
    std::size_t pos = text.find("\"records_per_second\": ", baseline);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::string("\"records_per_second\": ").size(),
                 "\"records_per_second\": 1");
    writeFile(dir.path / "BENCH_5.json", text);
    expectFires("SL020", context);
}

// The committed BENCH_10.json without its campaign fingerprint: each
// field is read inside its own block, so the stats block's fingerprint
// must not stand in for the missing one.
TEST(Rules, SL020_MissingCampaignFingerprintIsAnError)
{
    std::ifstream in(std::string(SPECLENS_SOURCE_DIR) + "/BENCH_10.json");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    ASSERT_FALSE(text.empty());
    TempDir dir("speclens_sl020_fingerprint_test");
    LintContext context = cleanContext();
    context.bench_dir = dir.path.string();

    writeFile(dir.path / "BENCH_10.json", text);
    EXPECT_EQ(errorCount(runRule("SL020", context)), 0u);

    writeFile(dir.path / "BENCH_10.json",
              replaced(text, "    \"fingerprint\": \"d847d360243018d8\",\n",
                       ""));
    expectFires("SL020", context);
}

TEST(Rules, SL021_SkipNoteWithoutBenchDir)
{
    std::vector<Diagnostic> found = runRule("SL021", cleanContext());
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].severity, Severity::Info);
}

TEST(Rules, SL021_UnpinnedConfigBreaksTheSeries)
{
    TempDir dir("speclens_sl021_test");
    LintContext context = cleanContext();
    context.bench_dir = dir.path.string();

    writeFile(dir.path / "BENCH_3.json", benchArtifactText(3));
    writeFile(dir.path / "BENCH_4.json", benchArtifactText(4));
    EXPECT_EQ(errorCount(runRule("SL021", context)), 0u);

    // A salted point measures a different workload: not comparable.
    writeFile(dir.path / "BENCH_4.json",
              replaced(benchArtifactText(4), "\"seed_salt\": 0",
                       "\"seed_salt\": 1"));
    expectFires("SL021", context);
}

TEST(Rules, SL022_ManifestSchema)
{
    TempDir dir("speclens_sl022_test");
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();

    // No manifest: an Info note, never a finding (API-created stores
    // legitimately lack one).
    std::vector<Diagnostic> found = runRule("SL022", context);
    EXPECT_EQ(errorCount(found), 0u);
    EXPECT_EQ(countSeverity(found, Severity::Info), 1u);

    writeFile(dir.path / obs::kManifestFileName, manifestText(0));
    EXPECT_EQ(errorCount(runRule("SL022", context)), 0u);

    writeFile(dir.path / obs::kManifestFileName,
              replaced(manifestText(0), "\"manifest_version\": 1",
                       "\"manifest_version\": 2"));
    expectFires("SL022", context);
}

TEST(Rules, SL023_ManifestStoreDrift)
{
    TempDir dir("speclens_sl023_test");
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();

    // Consistent: empty store, manifest claiming zero entries.
    writeFile(dir.path / obs::kManifestFileName, manifestText(0));
    EXPECT_EQ(errorCount(runRule("SL023", context)), 0u);

    // A manifest describing five entries over an empty store is stale.
    writeFile(dir.path / obs::kManifestFileName, manifestText(5));
    expectFires("SL023", context);
}

TEST(Rules, SL024_StorePhasedConsistency)
{
    TempDir dir("speclens_sl024_test");
    core::CampaignStore store(dir.path.string());
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;

    trace::PhasedWorkload workload = trace::derivePhases(
        context.cpu2017[0].profile, 3, 0.35);
    uarch::PhasedSimulationResult result = uarch::simulatePhased(
        workload, context.machines[0], window);
    store.savePhased(
        core::makeStoreKey(workload, context.machines[0], window),
        result);
    EXPECT_EQ(errorCount(runRule("SL024", context)), 0u);

    // A combined counter that is not the sum of its phases.
    window.seed_salt = 7;
    uarch::PhasedSimulationResult bad = uarch::simulatePhased(
        workload, context.machines[0], window);
    bad.combined_counters.instructions += 1;
    store.savePhased(
        core::makeStoreKey(workload, context.machines[0], window),
        bad);
    expectFires("SL024", context);
}

TEST(Rules, SL024_MemoryCentricCounterMustSumToo)
{
    TempDir dir("speclens_sl024_dram_test");
    core::CampaignStore store(dir.path.string());
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;

    // A memory-centric counter is checked like every other field.
    trace::PhasedWorkload workload = trace::derivePhases(
        context.cpu2017[0].profile, 3, 0.35);
    uarch::PhasedSimulationResult bad = uarch::simulatePhased(
        workload, context.machines[0], window);
    bad.combined_counters.dram_row_hits += 1;
    store.savePhased(
        core::makeStoreKey(workload, context.machines[0], window),
        bad);
    expectFires("SL024", context);
}

/** The `<16-hex>.slart` basename the store files @p key under. */
std::string
entryBaseName(const core::StoreKey &key)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(key.fingerprint));
    return std::string(hex) + ".slart";
}

TEST(Rules, SL025_SkipNoteWithoutStore)
{
    std::vector<Diagnostic> found = runRule("SL025", cleanContext());
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].severity, Severity::Info);
}

TEST(Rules, SL025_MisfiledEntryIsAnError)
{
    TempDir dir("speclens_sl025_test");
    core::CampaignStore store(dir.path.string());
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;

    core::StoreKey key = core::makeStoreKey(
        context.cpu2017[0].profile, context.machines[0], window);
    store.save(key, uarch::simulate(context.cpu2017[0].profile,
                                    context.machines[0], window));
    EXPECT_EQ(errorCount(runRule("SL025", context)), 0u);

    // File the entry under the next shard over: unreachable by lookup.
    std::size_t home = core::storeShardIndex(key.fingerprint);
    std::size_t wrong = (home + 1) % core::CampaignStore::shardCount();
    std::filesystem::path name = entryBaseName(key);
    std::filesystem::create_directories(dir.path /
                                        core::storeShardDirName(wrong));
    std::filesystem::rename(
        dir.path / core::storeShardDirName(home) / name,
        dir.path / core::storeShardDirName(wrong) / name);
    expectFires("SL025", context);
}

TEST(Rules, SL025_RootLevelEntryIsAnError)
{
    TempDir dir("speclens_sl025_legacy_test");
    core::CampaignStore store(dir.path.string());
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;

    core::StoreKey key = core::makeStoreKey(
        context.cpu2017[0].profile, context.machines[0], window);
    store.save(key, uarch::simulate(context.cpu2017[0].profile,
                                    context.machines[0], window));

    // A pre-shard store kept entries in the root, where no load looks:
    // misfiled like any other, with `campaign invalidate` as the fix.
    std::filesystem::path name = entryBaseName(key);
    std::filesystem::rename(
        dir.path / core::storeShardDirName(
                       core::storeShardIndex(key.fingerprint)) /
            name,
        dir.path / name);
    expectFires("SL025", context);
    bool hint_seen = false;
    for (const Diagnostic &d : runRule("SL025", context))
        if (d.severity == Severity::Error &&
            d.fix_hint.find("campaign invalidate") != std::string::npos)
            hint_seen = true;
    EXPECT_TRUE(hint_seen);

    // ...and the named fix really removes the root-level file.
    EXPECT_EQ(core::CampaignStore(dir.path.string()).invalidate(), 1u);
    EXPECT_FALSE(std::filesystem::exists(dir.path / name));
    EXPECT_EQ(errorCount(runRule("SL025", context)), 0u);
}

} // namespace
} // namespace lint
} // namespace speclens
