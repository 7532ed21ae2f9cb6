/**
 * @file
 * speclens — command-line front end to the SpecLens toolkit.
 *
 * One table, kCommands, drives the CLI: each row names a command, its
 * help lines, the command-specific flags it accepts, its positional
 * arity and its handler.  Parsing, `speclens help` and dispatch are
 * loops over that table.  Every command also accepts the session flags
 * of core/option_parse.h (the simulation window, --jobs, --seed-salt,
 * --store, --metrics); any other flag, and any positional beyond the
 * row's arity, exits 1.
 */

#include <algorithm>
#include <atomic>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis_session.h"
#include "core/balance.h"
#include "core/characterization.h"
#include "core/csv_export.h"
#include "core/input_set_analysis.h"
#include "core/option_parse.h"
#include "core/perf_trajectory.h"
#include "core/phase_analysis.h"
#include "core/query_ops.h"
#include "core/report.h"
#include "core/service_context.h"
#include "core/suite_report.h"
#include "lint/linter.h"
#include "lint/rules.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "serve/client.h"
#include "serve/server.h"
#include "suites/input_sets.h"
#include "suites/machines.h"
#include "suites/spec2017.h"

using namespace speclens;

namespace {

/** The CLI's simulation window when --instructions/--warmup are absent. */
constexpr core::Window kCliWindow{120'000, 30'000};

struct CliOptions
{
    core::SessionFlags session;
    std::vector<std::string> args; //!< Positional arguments.

    // Serve/query options.
    std::string host = "127.0.0.1"; //!< Daemon listen/connect address.
    std::uint16_t port = 0; //!< serve: 0 = ephemeral; query: required.

    // Lint options.
    std::string format = "text";   //!< Report format: text | json.
    std::string severity = "info"; //!< Display filter threshold.
    bool deep = true; //!< Run simulation-backed lint checks.
    std::string bench_dir; //!< BENCH_<pr>.json directory to lint.

    // Bench options.
    std::optional<int> pr; //!< Unset: highest BENCH_<n>.json + 1.
    std::string out_path;  //!< Unset: BENCH_<pr>.json.
};

[[noreturn]] void usage(int code);

/** Session over @p machines in the CLI's default window. */
core::AnalysisSession
makeSession(const CliOptions &opts,
            std::vector<uarch::MachineConfig> machines =
                suites::profilingMachines())
{
    return core::makeSession(opts.session, kCliWindow, std::move(machines));
}

/** Print a query's output, or its error on stderr (exit status 1). */
int
printOutcome(const core::QueryOutcome &outcome)
{
    if (!outcome.ok) {
        std::fprintf(stderr, "%s\n", outcome.error.c_str());
        return 1;
    }
    std::fputs(outcome.output.c_str(), stdout);
    return 0;
}

/**
 * Write @p render's output to file @p path.  False, with a diagnostic,
 * when the file cannot be opened or written, including a write that
 * fails only when close() flushes it.
 */
bool
writeFile(const std::string &path,
          const std::function<void(std::ostream &)> &render)
{
    std::ofstream file(path);
    if (file) {
        render(file);
        file.close();
    }
    if (!file) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        return false;
    }
    return true;
}

/** The benchmarks of suite @p name; usage error when unknown. */
std::vector<suites::BenchmarkInfo>
suiteNamed(const std::string &name)
{
    std::vector<suites::BenchmarkInfo> suite;
    if (!core::resolveSuite(name, suite))
        usage(1);
    return suite;
}

int
cmdList(const CliOptions &opts)
{
    core::TextTable table({"Benchmark", "Category", "Domain",
                           "Language", "Icount (B)", "New in 2017"});
    for (const suites::BenchmarkInfo &b :
         suiteNamed(opts.args.empty() ? "cpu2017" : opts.args[0])) {
        table.addRow({b.name, suites::categoryName(b.category),
                      suites::domainName(b.domain),
                      suites::languageName(b.language),
                      core::TextTable::num(
                          b.profile.dynamic_instructions_billions, 0),
                      b.new_in_2017 ? "yes" : ""});
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
}

int
cmdMachines(const CliOptions &)
{
    core::TextTable table({"Machine", "Short name", "ISA", "GHz", "L1D",
                           "L2", "LLC", "Predictor"});
    for (const uarch::MachineConfig &m : suites::profilingMachines()) {
        table.addRow(
            {m.name, m.short_name, uarch::isaName(m.isa),
             core::TextTable::num(m.frequency_ghz, 2),
             std::to_string(m.caches.l1d.size_bytes / 1024) + "K",
             std::to_string(m.caches.l2.size_bytes / 1024) + "K",
             m.caches.l3 ? std::to_string(m.caches.l3->size_bytes /
                                          (1024 * 1024)) +
                               "M"
                         : "none",
             uarch::predictorKindName(m.predictor)});
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
}

int
cmdCharacterize(const CliOptions &opts)
{
    core::AnalysisSession session = makeSession(opts);
    return printOutcome(
        core::runCharacterizeQuery(session.context(), opts.args));
}

int
cmdMemory(const CliOptions &opts)
{
    core::AnalysisSession session =
        makeSession(opts, suites::memoryCentricMachines());
    return printOutcome(core::runMemoryQuery(session.context(), opts.args));
}

int
cmdSubset(const CliOptions &opts)
{
    std::size_t k = opts.args.size() > 1
                        ? core::numericValue("k", opts.args[1].c_str())
                        : 3;
    core::AnalysisSession session = makeSession(opts);
    return printOutcome(
        core::runSubsetQuery(session.context(), opts.args[0], k));
}

int
cmdInputs(const CliOptions &opts)
{
    if (opts.args[0] != "int" && opts.args[0] != "fp")
        usage(1);
    core::AnalysisSession session = makeSession(opts);
    core::Characterizer &characterizer = session.characterizer();
    auto groups = opts.args[0] == "fp" ? suites::inputSetGroupsFp()
                                       : suites::inputSetGroupsInt();
    core::InputSetAnalysis analysis =
        core::analyzeInputSets(characterizer, groups);
    core::TextTable table({"Benchmark", "Representative input",
                           "Group spread"});
    for (const core::RepresentativeInput &rep :
         analysis.representatives) {
        table.addRow({rep.benchmark,
                      std::to_string(rep.input_index),
                      core::TextTable::num(rep.group_spread)});
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
}

int
cmdCoverage(const CliOptions &opts)
{
    core::AnalysisSession session = makeSession(opts);
    std::vector<suites::BenchmarkInfo> candidates;
    for (const std::string &name : opts.args) {
        const suites::BenchmarkInfo *benchmark =
            session.context().findBenchmark(name);
        if (!benchmark) {
            std::fprintf(stderr, "unknown benchmark: %s\n",
                         name.c_str());
            return 1;
        }
        candidates.push_back(*benchmark);
    }
    core::Characterizer &characterizer = session.characterizer();
    auto verdicts = core::coverageAnalysis(
        characterizer, suites::spec2017(), candidates);
    core::TextTable table({"Workload", "Nearest CPU2017", "Distance",
                           "Covered?"});
    for (const core::CoverageVerdict &v : verdicts)
        table.addRow({v.benchmark, v.nearest,
                      core::TextTable::num(v.nn_distance),
                      v.covered ? "yes" : "NO"});
    std::fputs(table.render().c_str(), stdout);
    return 0;
}

int
cmdSensitivity(const CliOptions &opts)
{
    core::AnalysisSession session =
        makeSession(opts, suites::sensitivityMachines());
    return printOutcome(
        core::runSensitivityQuery(session.context(), opts.args[0]));
}

int
cmdExport(const CliOptions &opts)
{
    std::vector<suites::BenchmarkInfo> list = suiteNamed(opts.args[0]);
    core::AnalysisSession session = makeSession(opts);
    core::Characterizer &characterizer = session.characterizer();
    stats::Matrix features = characterizer.featureMatrix(list);

    if (opts.args.size() > 1) {
        if (!writeFile(opts.args[1], [&](std::ostream &out) {
                core::writeCsv(out, suites::benchmarkNames(list),
                               characterizer.featureNames(), features);
            }))
            return 1;
        std::printf("wrote %zu rows x %zu features to %s\n",
                    features.rows(), features.cols(),
                    opts.args[1].c_str());
    } else {
        core::writeCsv(std::cout, suites::benchmarkNames(list),
                       characterizer.featureNames(), features);
    }
    return 0;
}

int
cmdReport(const CliOptions &opts)
{
    std::vector<suites::BenchmarkInfo> suite;
    core::SuiteReportOptions report;
    if (!core::resolveCategory(opts.args[0], suite,
                               report.validation_category))
        usage(1);
    report.title = "SpecLens report: SPEC CPU2017 " + opts.args[0];

    core::AnalysisSession session = makeSession(opts);
    core::Characterizer &characterizer = session.characterizer();
    if (opts.args.size() > 1) {
        if (!writeFile(opts.args[1], [&](std::ostream &out) {
                core::writeSuiteReport(out, characterizer, suite, report);
            }))
            return 1;
        std::printf("wrote report to %s\n", opts.args[1].c_str());
    } else {
        core::writeSuiteReport(std::cout, characterizer, suite,
                               report);
    }
    return 0;
}

int
cmdSimpoints(const CliOptions &opts)
{
    std::size_t phases =
        opts.args.size() > 1
            ? core::numericValue("phases", opts.args[1].c_str())
            : 8;
    std::size_t clusters =
        opts.args.size() > 2
            ? core::numericValue("clusters", opts.args[2].c_str())
            : 3;
    if (phases < 1 || clusters < 1 || clusters > phases) {
        std::fprintf(stderr,
                     "need phases >= 1 and 1 <= clusters <= phases\n");
        return 1;
    }

    core::AnalysisSession session =
        makeSession(opts, {suites::skylakeMachine()});
    const suites::BenchmarkInfo *benchmark =
        session.context().findBenchmark(opts.args[0]);
    if (!benchmark) {
        std::fprintf(stderr, "unknown benchmark: %s\n",
                     opts.args[0].c_str());
        return 1;
    }
    trace::PhasedWorkload workload =
        trace::derivePhases(benchmark->profile, phases, 0.35);
    core::SimPointConfig config;
    config.clusters = clusters;
    const core::Window window = opts.session.window(kCliWindow);
    config.instructions = window.instructions;
    config.warmup = window.warmup;
    core::SimPointResult result = core::simpointEstimate(
        workload, suites::skylakeMachine(), config, session.store());

    std::printf("%s as %zu phases, %zu representative(s):\n",
                benchmark->name.c_str(), phases,
                result.representatives.size());
    for (std::size_t i = 0; i < result.representatives.size(); ++i) {
        std::printf("  phase %zu carries %.0f%% of the run\n",
                    result.representatives[i] + 1,
                    100.0 * result.weights[i]);
    }
    std::printf("full CPI %.3f vs estimate %.3f (error %.1f%%), "
                "simulating %.0f%% of the run\n",
                result.full_cpi, result.estimated_cpi,
                result.cpi_error_pct,
                100.0 * result.simulated_fraction);
    return 0;
}

/**
 * `campaign run [suite]`: populate the store with a full
 * characterization of the named suite(s) over the seven Table IV
 * machines.  Stdout reports only the deterministic campaign shape;
 * the cold/warm reuse numbers go to stderr with the session summary,
 * so repeat runs stay byte-identical on stdout.
 */
int
cmdCampaignRun(const CliOptions &opts)
{
    std::string which =
        opts.args.size() > 1 ? opts.args[1] : std::string("cpu2017");
    std::vector<std::vector<suites::BenchmarkInfo>> suite_sets;
    for (const char *name : {"cpu2017", "cpu2006", "emerging"})
        if (which == name || which == "all")
            suite_sets.push_back(suiteNamed(name));
    if (suite_sets.empty())
        usage(1);

    core::AnalysisSession session = makeSession(opts);
    std::size_t pairs = 0;
    for (const auto &suite : suite_sets) {
        session.characterizer().prepare(suite);
        pairs += suite.size() * session.characterizer().machines().size();
    }
    std::printf("campaign %s: %zu (benchmark, machine) pairs ready\n",
                which.c_str(), pairs);
    return 0;
}

/** `campaign info`: describe and verify every store entry. */
int
cmdCampaignInfo(const CliOptions &opts)
{
    core::CampaignStore store(opts.session.store_dir);
    std::vector<core::StoreEntryInfo> entries = store.scan();

    core::TextTable table({"Entry", "Benchmark", "Machine", "Window",
                           "Salt", "Phases", "Status"});
    std::size_t healthy = 0;
    for (const core::StoreEntryInfo &info : entries) {
        bool ok = info.status == core::StoreStatus::Hit;
        healthy += ok ? 1 : 0;
        table.addRow(
            {info.filename, info.benchmark, info.machine,
             std::to_string(info.instructions) + "+" +
                 std::to_string(info.warmup),
             std::to_string(info.seed_salt),
             info.phases ? std::to_string(info.phases) : std::string("-"),
             ok ? "ok" : core::storeStatusName(info.status) +
                             " (" + info.detail + ")"});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("%zu entries, %zu healthy, %zu inconsistent\n",
                entries.size(), healthy, entries.size() - healthy);
    std::printf("layout: %zu shards, result-lru capacity %zu\n",
                core::CampaignStore::shardCount(),
                store.lruCapacity());
    return healthy == entries.size() ? 0 : 1;
}

/**
 * `campaign manifest`: read, validate and summarise the run manifest a
 * session left next to the store.  Exit 1 when the manifest is
 * missing, is not well-formed JSON, or lacks a schema-v1 key — the CI
 * metrics smoke stage is built on this being a real check.
 */
int
cmdCampaignManifest(const CliOptions &opts)
{
    std::string path =
        opts.session.store_dir + "/" + obs::kManifestFileName;
    std::ifstream file(path, std::ios::binary);
    if (!file) {
        std::fprintf(stderr,
                     "error: no manifest at %s (run a campaign with "
                     "--store first)\n",
                     path.c_str());
        return 1;
    }
    std::string text((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    obs::JsonValue doc;
    if (!obs::parseJson(text, doc)) {
        std::fprintf(stderr,
                     "error: %s is not well-formed JSON\n",
                     path.c_str());
        return 1;
    }
    std::vector<std::string> defects = obs::manifestSchemaErrors(doc);
    for (const std::string &defect : defects)
        std::fprintf(stderr, "error: manifest %s: %s\n", path.c_str(),
                     defect.c_str());
    if (!defects.empty())
        return 1;
    // The size varies with the timing spans inside: stderr, so stdout
    // stays the same for the same campaign.
    std::printf("manifest %s: well-formed JSON, schema v1 keys present\n",
                path.c_str());
    std::fprintf(stderr, "manifest %s: %zu bytes\n", path.c_str(),
                 text.size());
    return 0;
}

/** `campaign invalidate [stale]`: delete all (or only bad) entries. */
int
cmdCampaignInvalidate(const CliOptions &opts)
{
    bool stale_only = opts.args.size() > 1 && opts.args[1] == "stale";
    if (opts.args.size() > 1 && !stale_only)
        usage(1);
    core::CampaignStore store(opts.session.store_dir);
    std::size_t removed =
        stale_only ? store.invalidateStale() : store.invalidate();
    std::printf("removed %zu %sentr%s from %s\n", removed,
                stale_only ? "inconsistent " : "",
                removed == 1 ? "y" : "ies",
                opts.session.store_dir.c_str());
    return 0;
}

int
cmdCampaign(const CliOptions &opts)
{
    if (opts.session.store_dir.empty()) {
        std::fprintf(stderr,
                     "error: campaign %s requires --store DIR\n",
                     opts.args[0].c_str());
        return 1;
    }
    if (opts.args[0] == "run")
        return cmdCampaignRun(opts);
    if (opts.args[0] == "invalidate")
        return cmdCampaignInvalidate(opts);
    if (opts.args.size() > 1)
        usage(1);
    if (opts.args[0] == "info")
        return cmdCampaignInfo(opts);
    if (opts.args[0] == "manifest")
        return cmdCampaignManifest(opts);
    usage(1);
}

// ----- serve / query ---------------------------------------------------

/** The live server, for the signal handlers (null outside cmdServe). */
std::atomic<serve::Server *> g_server{nullptr};

/** SIGINT/SIGTERM: begin a graceful drain (async-signal-safe). */
void
handleDrainSignal(int)
{
    serve::Server *server = g_server.load(std::memory_order_acquire);
    if (server)
        server->requestDrain();
}

int
cmdServe(const CliOptions &opts)
{
    serve::ServerConfig config;
    config.host = opts.host;
    config.port = opts.port;
    config.service = core::serviceConfig(opts.session, kCliWindow);

    serve::Server server(config);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    g_server.store(&server, std::memory_order_release);
    std::signal(SIGINT, handleDrainSignal);
    std::signal(SIGTERM, handleDrainSignal);

    // Machine-parseable: scripts read the resolved (ephemeral) port
    // from this line.  Flush so a pipe reader sees it immediately.
    std::printf("[speclens-serve] listening host=%s port=%u\n",
                opts.host.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    server.serveForever();
    g_server.store(nullptr, std::memory_order_release);

    serve::ServerStats stats = server.stats();
    std::fprintf(stderr,
                 "[speclens-serve] drained requests=%zu errors=%zu "
                 "dropped=%zu busy=%zu idle_closed=%zu\n",
                 stats.requests, stats.errors, stats.dropped, stats.busy,
                 stats.idle_closed);
    return 0;
}

int
cmdQuery(const CliOptions &opts)
{
    serve::Request request;
    if (!serve::opFromName(opts.args[0], request.op))
        usage(1);
    if (opts.port == 0) {
        std::fprintf(stderr, "error: query requires --port N\n");
        return 1;
    }
    switch (request.op) {
    case serve::Op::Characterize:
    case serve::Op::Memory:
        request.benchmarks.assign(opts.args.begin() + 1,
                                  opts.args.end());
        break;
    case serve::Op::Subset:
        if (opts.args.size() > 1)
            request.category = opts.args[1];
        if (opts.args.size() > 2)
            request.k = core::numericValue("k", opts.args[2].c_str());
        break;
    case serve::Op::Sensitivity:
        if (opts.args.size() > 1)
            request.metric = opts.args[1];
        break;
    case serve::Op::Stats:
    case serve::Op::Shutdown:
        break;
    }

    serve::Client client;
    std::string error;
    if (!client.connect(opts.host, opts.port, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    serve::Response response;
    if (!client.call(request, &response, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    if (!response.ok) {
        std::fprintf(stderr, "%s\n", response.error.c_str());
        return 1;
    }
    std::fputs(response.output.c_str(), stdout);
    return 0;
}

/**
 * The N of every BENCH_<N>.json in the working directory, named as the
 * artifact writer names it (no sign, no leading zero) with N + 1 still
 * an int.  One scan serves --pr auto-detection and the delta table's
 * previous-artifact lookup.
 */
std::set<int>
benchArtifactNumbers()
{
    std::set<int> numbers;
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(".", ec)) {
        const std::string name = entry.path().filename().string();
        std::uint64_t n = 0;
        if (name.size() > 11 && name.rfind("BENCH_", 0) == 0 &&
            core::parseUnsigned(std::string_view(name).substr(
                                    6, name.size() - 11),
                                n) == core::ParseStatus::Ok &&
            n < INT_MAX &&
            name == core::trajectoryArtifactName(static_cast<int>(n)))
            numbers.insert(static_cast<int>(n));
    }
    return numbers;
}

/**
 * Print a previous-vs-current delta table to stderr (never stdout:
 * rates are timing-dependent, and stdout stays byte-deterministic).
 * Every readable artifact (schema v2 or v3) carries the rates and
 * speedup_vs_seed in its campaign block.
 */
void
printTrajectoryDelta(const std::string &prev_path,
                     const core::TrajectoryResult &r)
{
    std::ifstream in(prev_path);
    if (!in)
        return;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Rates live in the campaign block; the seed_baseline block
    // reuses these key names.  A malformed file parses to null, whose
    // fields are all absent.
    obs::JsonValue doc;
    obs::parseJson(text, doc);
    const obs::JsonValue &campaign = doc["campaign"];
    double prev_sims = 0.0, prev_records = 0.0, prev_seed = 0.0;
    if (!campaign["simulations_per_second"].getDouble(prev_sims) ||
        !campaign["records_per_second"].getDouble(prev_records) ||
        !campaign["speedup_vs_seed"].getDouble(prev_seed) ||
        prev_sims <= 0.0 || prev_records <= 0.0) {
        std::fprintf(stderr,
                     "[speclens-bench] no rates in %s; delta skipped\n",
                     prev_path.c_str());
        return;
    }
    std::fprintf(stderr, "[speclens-bench] delta vs %s:\n",
                 prev_path.c_str());
    std::fprintf(stderr,
                 "  sims/s:    %10.3f -> %10.3f  (%+.1f%%)\n",
                 prev_sims, r.simulations_per_second,
                 (r.simulations_per_second / prev_sims - 1.0) * 100.0);
    std::fprintf(stderr,
                 "  records/s: %10.0f -> %10.0f  (%+.1f%%)\n",
                 prev_records, r.records_per_second,
                 (r.records_per_second / prev_records - 1.0) * 100.0);
    std::fprintf(stderr, "  speedup_vs_seed: %.3fx -> %.3fx\n", prev_seed,
                 r.speedup_vs_seed);
}

int
cmdBench(const CliOptions &opts)
{
    if (opts.args[0] != "trajectory")
        usage(1);
    core::TrajectoryConfig config;
    // The pinned window, not the CLI defaults — explicit flags win.
    const core::Window window = opts.session.window(
        {core::kTrajectoryInstructions, core::kTrajectoryWarmup});
    config.instructions = window.instructions;
    config.warmup = window.warmup;
    config.seed_salt = opts.session.seed_salt;
    config.store_dir = opts.session.store_dir;

    const std::set<int> artifacts = benchArtifactNumbers();
    if (opts.pr) {
        config.pr = *opts.pr;
    } else {
        // No --pr: continue the committed trajectory — one past the
        // highest BENCH_<n>.json in the working directory.
        config.pr = artifacts.empty() ? 0 : *artifacts.rbegin() + 1;
        std::fprintf(stderr,
                     "[speclens-bench] --pr not given; auto-detected "
                     "--pr %d\n",
                     config.pr);
    }
    const std::string out_path = opts.out_path.empty()
                                     ? core::trajectoryArtifactName(config.pr)
                                     : opts.out_path;

    core::TrajectoryResult result = core::runTrajectory(config);

    // Deterministic facts only on stdout: a warm-store rerun must be
    // byte-identical to the cold run there.  Timings go to the JSON
    // artifact and stderr.
    std::fputs(core::renderTrajectoryFacts(result).c_str(), stdout);

    std::string json = core::renderTrajectoryJson(result);
    if (!obs::validateJson(json)) {
        std::fprintf(stderr,
                     "error: rendered trajectory JSON is malformed\n");
        return 1;
    }
    if (!writeFile(out_path, [&](std::ostream &out) { out << json; }))
        return 1;
    std::fprintf(stderr,
                 "[speclens-bench] wrote %s: fused=%.3fs stats=%.3fs\n",
                 out_path.c_str(), result.fused_seconds,
                 result.stats_seconds);

    // Delta table against the most recent earlier artifact.
    auto next = artifacts.lower_bound(config.pr);
    if (next != artifacts.begin())
        printTrajectoryDelta(
            core::trajectoryArtifactName(*std::prev(next)), result);

    // Exit code doubles as the contract check: when a store was given,
    // warm reuse must hold.
    bool ok = !result.store_checked ||
              (result.warm_bit_identical &&
               result.warm_simulations_run == 0);
    return ok ? 0 : 1;
}

// ====================================================================
// audit: run the structural invariant prover over a pinned
// mini-campaign, then prove scheduling determinism by replaying the
// campaign across worker counts and seed salts.
// ====================================================================

/** The audit campaign: a pinned benchmark subset on every machine. */
std::vector<suites::BenchmarkInfo>
auditBenchmarks()
{
    // Every 7th CPU2017 entry: six benchmarks spanning INT and FP,
    // small enough that the audited replay matrix (3 job counts x 2
    // salts) stays interactive.
    std::vector<suites::BenchmarkInfo> picked;
    const std::vector<suites::BenchmarkInfo> &all = suites::spec2017();
    for (std::size_t i = 0; i < all.size(); i += 7)
        picked.push_back(all[i]);
    return picked;
}

/**
 * Fingerprint of the full audit campaign run at @p jobs workers.
 * Results are memoised per Characterizer, so each call simulates the
 * whole campaign afresh under its own thread pool.
 */
std::uint64_t
campaignFingerprint(const std::vector<suites::BenchmarkInfo> &benchmarks,
                    const std::vector<uarch::MachineConfig> &machines,
                    const core::CharacterizationConfig &config)
{
    core::Characterizer characterizer(machines, config);
    std::vector<std::size_t> machine_indices;
    for (std::size_t m = 0; m < machines.size(); ++m)
        machine_indices.push_back(m);
    characterizer.prepare(benchmarks, machine_indices, config.jobs);
    stats::Fingerprinter fp;
    fp.tag("speclens-audit-campaign-v1");
    for (const suites::BenchmarkInfo &b : benchmarks)
        for (std::size_t m = 0; m < machines.size(); ++m)
            characterizer.simulation(b, m).hashInto(fp);
    return fp.value();
}

int
cmdAudit(const CliOptions &opts)
{
    // Pinned window unless overridden: large enough to exercise
    // prewarm, warm-up exclusion and sampled mid-run audit points,
    // small enough that 7 replays of the campaign stay fast.
    const core::Window pinned = opts.session.window({60'000, 20'000});
    uarch::SimulationConfig window;
    window.instructions = pinned.instructions;
    window.warmup = pinned.warmup;
    window.seed_salt = opts.session.seed_salt;

    const std::vector<suites::BenchmarkInfo> benchmarks =
        auditBenchmarks();
    const std::vector<uarch::MachineConfig> machines =
        suites::profilingMachines();

    // -- Stage 1: invariant prover, forced on regardless of build. --
    std::uint64_t audits = 0;
    std::size_t violations = 0;
    std::size_t simulations = 0;
    for (const suites::BenchmarkInfo &b : benchmarks) {
        for (const uarch::MachineConfig &machine : machines) {
            verify::AuditTrail trail;
            (void)uarch::simulateAudited(b.profile, machine, window,
                                         trail);
            ++simulations;
            audits += trail.audits;
            for (const verify::Violation &v : trail.violations)
                std::fprintf(stderr, "audit: %s on %s: %s\n",
                             b.name.c_str(), machine.name.c_str(),
                             verify::renderViolation(v).c_str());
            violations += trail.violations.size();
        }
    }
    std::printf("invariants: %zu simulations, %llu audit points, %zu "
                "violations\n",
                simulations, static_cast<unsigned long long>(audits),
                violations);

    // -- Stage 2: determinism across worker counts and seed salts. --
    // The campaign contract says results are bit-identical for any
    // job count; replay the same configuration at 1, 2 and
    // one-per-hardware-thread workers and diff full-result
    // fingerprints.  Two salts prove the salt both perturbs results
    // and stays deterministic itself.
    bool deterministic = true;
    std::vector<std::uint64_t> salt_fingerprints;
    for (std::uint64_t salt_offset : {0ull, 1ull}) {
        core::CharacterizationConfig config;
        config.instructions = window.instructions;
        config.warmup = window.warmup;
        config.seed_salt = opts.session.seed_salt + salt_offset;
        std::uint64_t first = 0;
        bool agree = true;
        for (std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{0}}) {
            config.jobs = jobs;
            std::uint64_t fp =
                campaignFingerprint(benchmarks, machines, config);
            if (jobs == 1)
                first = fp;
            else if (fp != first) {
                agree = false;
                std::fprintf(stderr,
                             "audit: salt %llu: --jobs %zu diverged: "
                             "%s != %s\n",
                             static_cast<unsigned long long>(
                                 config.seed_salt),
                             jobs, obs::hex16(fp).c_str(),
                             obs::hex16(first).c_str());
            }
        }
        std::printf("determinism: salt %llu: jobs {1, 2, auto} %s "
                    "(fingerprint %s)\n",
                    static_cast<unsigned long long>(config.seed_salt),
                    agree ? "agree" : "DIVERGED",
                    obs::hex16(first).c_str());
        deterministic = deterministic && agree;
        salt_fingerprints.push_back(first);
    }
    if (salt_fingerprints[0] == salt_fingerprints[1]) {
        std::fprintf(stderr,
                     "audit: distinct seed salts produced identical "
                     "results; the salt is not reaching the "
                     "generator\n");
        deterministic = false;
    }

    bool ok = violations == 0 && deterministic;
    std::printf("audit: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

int
cmdLint(const CliOptions &opts)
{
    lint::ReportFormat format;
    lint::Severity min_severity;
    try {
        format = lint::reportFormatFromName(opts.format);
        min_severity = lint::severityFromName(opts.severity);
    } catch (const std::invalid_argument &ex) {
        std::fprintf(stderr, "error: %s\n", ex.what());
        return 1;
    }

    lint::LintContext context = lint::shippedContext();
    context.deep = opts.deep;
    const core::Window window = opts.session.window(kCliWindow);
    context.instructions = window.instructions;
    context.warmup = window.warmup;
    context.jobs = opts.session.jobs;
    context.store_dir = opts.session.store_dir;
    context.bench_dir = opts.bench_dir;

    lint::LintReport report = lint::Linter().run(context);
    std::string rendered =
        format == lint::ReportFormat::Json
            ? lint::renderJson(report, min_severity)
            : lint::renderText(report, min_severity);
    std::fputs(rendered.c_str(), stdout);

    // Exit code reflects the unfiltered error count: a severity filter
    // changes what is displayed, never what fails.
    return report.clean() ? 0 : 1;
}

// ----- the command table ---------------------------------------------

/** Positional arity without an upper bound. */
constexpr std::size_t kMany = SIZE_MAX;

/** One CLI command. */
struct Command
{
    const char *name;

    /**
     * Help lines, "synopsis\thelp text" each; the help text starts in
     * column 36, and a line without a tab is synopsis only.
     */
    const char *help;

    /** The command-specific flags it accepts. */
    std::vector<std::string_view> flags;

    std::size_t min_args; //!< Fewest positional arguments.
    std::size_t max_args; //!< Most positional arguments.
    int (*run)(const CliOptions &opts);
};

const Command kCommands[] = {
    {"help", "", {}, 0, 0, [](const CliOptions &) -> int { usage(0); }},
    {"list", "list [cpu2017|cpu2006|emerging]\tlist benchmarks", {}, 0, 1,
     cmdList},
    {"machines", "machines\tlist machine models", {}, 0, 0, cmdMachines},
    {"characterize", "characterize <bench>...\tmetric report", {}, 1, kMany,
     cmdCharacterize},
    {"memory",
     "memory <bench>...\tmemory-centric report\n"
     "\t(prefetch coverage/accuracy/\n"
     "\ttimeliness, way prediction,\n"
     "\tDRAM row-buffer + bandwidth)",
     {}, 1, kMany, cmdMemory},
    {"subset",
     "subset <speed-int|rate-int|speed-fp|rate-fp> [k]\n"
     "\trepresentative subset",
     {}, 1, 2, cmdSubset},
    {"inputs", "inputs <int|fp>\trepresentative inputs", {}, 1, 1,
     cmdInputs},
    {"coverage", "coverage <bench>...\tCPU2017 coverage verdicts", {}, 1,
     kMany, cmdCoverage},
    {"sensitivity", "sensitivity <branch|l1d|dtlb>\tsensitivity classes",
     {}, 1, 1, cmdSensitivity},
    {"export",
     "export <cpu2017|cpu2006|emerging> [file.csv]\n"
     "\tfeature matrix as CSV",
     {}, 1, 2, cmdExport},
    {"report",
     "report <speed-int|rate-int|speed-fp|rate-fp> [file.md]\n"
     "\tfull markdown suite report",
     {}, 1, 2, cmdReport},
    {"simpoints",
     "simpoints <bench> [phases] [clusters]\n"
     "\tphase-reduction estimate",
     {}, 1, 3, cmdSimpoints},
    {"campaign",
     "campaign run [cpu2017|cpu2006|emerging|all]\n"
     "\tpopulate the --store with a\n"
     "\tfull characterization\n"
     "campaign info\tdescribe and verify every\n"
     "\t--store entry\n"
     "campaign invalidate [stale]\tdelete all (or only bad)\n"
     "\t--store entries\n"
     "campaign manifest\tvalidate the run manifest\n"
     "\twritten next to the --store",
     {}, 1, 2, cmdCampaign},
    {"serve",
     "serve [--host A] [--port N]\tlong-running daemon; answers\n"
     "\tqueries over a loopback TCP\n"
     "\tsocket (port 0 = ephemeral,\n"
     "\tprinted on the 'listening'\n"
     "\tline; SIGTERM drains)",
     {"--host", "--port"}, 0, 0, cmdServe},
    {"query",
     "query <characterize|memory|subset|sensitivity|stats|\n"
     "       shutdown>\n"
     "      [args] --port N [--host A]\task a running daemon; output\n"
     "\tis byte-identical to the\n"
     "\tbatch command",
     {"--host", "--port"}, 1, kMany, cmdQuery},
    {"bench",
     "bench trajectory [--pr N] [--out FILE]\n"
     "\tpinned perf campaign; facts\n"
     "\tto stdout, BENCH_<pr>.json\n"
     "\twith timings to FILE; no\n"
     "\t--pr: highest BENCH_* + 1,\n"
     "\tdelta table on stderr",
     {"--pr", "--out"}, 1, 1, cmdBench},
    {"lint",
     "lint [--format text|json] [--severity info|warning|error]\n"
     "     [--no-deep] [--store DIR]\tverify models and tables\n"
     "     [--bench DIR]\t(and store integrity plus\n"
     "\tBENCH/manifest artifacts)",
     {"--format", "--severity", "--no-deep", "--bench"}, 0, 0, cmdLint},
    {"audit",
     "audit\tprove structural invariants\n"
     "\tover a pinned mini-campaign\n"
     "\tand replay it across job\n"
     "\tcounts and seed salts,\n"
     "\tdiffing result fingerprints",
     {}, 0, 0, cmdAudit},
};

/** A command's help lines, rendered. */
std::string
commandHelp(const Command &command)
{
    std::string out;
    std::string_view rest = command.help;
    while (!rest.empty()) {
        std::string_view line = rest.substr(0, rest.find('\n'));
        rest.remove_prefix(std::min(rest.size(), line.size() + 1));
        std::size_t tab = line.find('\t');
        std::string text = "  " + std::string(line.substr(0, tab));
        if (tab != std::string_view::npos) {
            text.resize(std::max<std::size_t>(text.size() + 1, 36), ' ');
            text += line.substr(tab + 1);
        }
        out += text + '\n';
    }
    return out;
}

[[noreturn]] void
usage(int code)
{
    std::string text =
        core::sessionUsage("usage: speclens <command> [args]", 16) +
        "\ncommands:\n";
    for (const Command &command : kCommands)
        text += commandHelp(command);
    std::fputs(text.c_str(), code == 0 ? stdout : stderr);
    std::exit(code);
}

/** Take command flag argv[i] (and its value) into @p opts. */
void
takeCommandFlag(CliOptions &opts, int argc, char **argv, int &i)
{
    const std::string_view flag = argv[i];
    if (flag == "--host") {
        opts.host = core::stringFlagValue("--host", argc, argv, i);
    } else if (flag == "--port") {
        std::uint64_t port = core::numericFlagValue("--port", argc, argv, i);
        if (port > 65535) {
            std::fprintf(stderr, "error: --port must be <= 65535\n");
            std::exit(1);
        }
        opts.port = static_cast<std::uint16_t>(port);
    } else if (flag == "--format") {
        opts.format = core::stringFlagValue("--format", argc, argv, i);
    } else if (flag == "--severity") {
        opts.severity = core::stringFlagValue("--severity", argc, argv, i);
    } else if (flag == "--no-deep") {
        opts.deep = false;
    } else if (flag == "--bench") {
        opts.bench_dir = core::stringFlagValue("--bench", argc, argv, i);
    } else if (flag == "--pr") {
        std::uint64_t pr = core::numericFlagValue("--pr", argc, argv, i);
        if (pr > INT_MAX) {
            std::fprintf(stderr, "error: --pr must be <= %d\n", INT_MAX);
            std::exit(1);
        }
        opts.pr = static_cast<int>(pr);
    } else if (flag == "--out") {
        opts.out_path = core::stringFlagValue("--out", argc, argv, i);
    }
}

/**
 * Parse argv[2, argc) for @p command: session flags, the command's own
 * flags and its positional arguments.  Exits 1 on anything else.
 */
CliOptions
parse(const Command &command, int argc, char **argv)
{
    CliOptions opts;
    opts.session = core::parseSessionFlags(argc, argv, 2, [&](int &i) {
        const std::string_view arg = argv[i];
        if (arg == "--help")
            usage(0);
        if (arg.rfind("--", 0) != 0) {
            opts.args.emplace_back(arg);
            return true;
        }
        if (std::find(command.flags.begin(), command.flags.end(), arg) ==
            command.flags.end())
            return false;
        takeCommandFlag(opts, argc, argv, i);
        return true;
    });
    if (opts.args.size() < command.min_args ||
        opts.args.size() > command.max_args) {
        std::fprintf(stderr, "error: wrong number of arguments to %s\n%s",
                     command.name, commandHelp(command).c_str());
        std::exit(1);
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage(1);
    if (std::strcmp(argv[1], "--help") == 0)
        usage(0);
    const Command *command = std::find_if(
        std::begin(kCommands), std::end(kCommands),
        [&](const Command &c) { return std::strcmp(c.name, argv[1]) == 0; });
    if (command == std::end(kCommands)) {
        std::fprintf(stderr, "unknown command: %s\n", argv[1]);
        usage(1);
    }
    int code = command->run(parse(*command, argc, argv));
    // One flush for everything the handler printed: output lost to a
    // full disk or a closed pipe fails the command.
    if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
        std::fprintf(stderr, "error: cannot write to stdout\n");
        return 1;
    }
    return code;
}
