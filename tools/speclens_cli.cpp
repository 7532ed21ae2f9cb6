/**
 * @file
 * speclens — command-line front end to the SpecLens toolkit.
 *
 * Subcommands:
 *   list [suite]              list known benchmarks (cpu2017, cpu2006,
 *                             emerging; default cpu2017)
 *   machines                  list the Table IV machine models
 *   characterize <bench>...   per-machine metric report for benchmarks
 *   subset <category> [k]     representative subset of a sub-suite
 *   inputs <int|fp>           representative input-set selection
 *   coverage <bench>...       are these workloads covered by CPU2017?
 *   sensitivity <metric>      Table IX-style sensitivity classes
 *                             (branch | l1d | dtlb)
 *   campaign <run|info|invalidate|manifest>
 *                             manage the persistent artifact store
 *   lint                      statically verify every workload model,
 *                             machine config and calibration table
 *   audit                     prove structural invariants over a
 *                             pinned mini-campaign and diff result
 *                             fingerprints across job counts / salts
 *
 * Global options: --instructions N, --warmup N (simulation window),
 * --jobs N (simulation worker threads; default one per hardware
 * thread), --seed-salt N (independent re-runs), --store DIR
 * (persistent artifact store; reused results skip simulation),
 * --metrics FILE + --metrics-format prom|json (metric snapshot written
 * at exit; never touches stdout).  Lint options: --format text|json,
 * --severity info|warning|error (display filter), --no-deep (skip the
 * simulation-backed Table II checks).
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <fstream>
#include <iostream>

#include "core/analysis_session.h"
#include "core/characterization.h"
#include "core/csv_export.h"
#include "core/option_parse.h"
#include "core/perf_trajectory.h"
#include "core/query_ops.h"
#include "core/service_context.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "core/phase_analysis.h"
#include "core/suite_report.h"
#include "core/input_set_analysis.h"
#include "core/balance.h"
#include "core/report.h"
#include "core/sensitivity.h"
#include "core/similarity.h"
#include "core/subsetting.h"
#include "core/validation.h"
#include "lint/linter.h"
#include "lint/rules.h"
#include "serve/client.h"
#include "serve/server.h"
#include "suites/emerging.h"
#include "suites/input_sets.h"
#include "suites/machines.h"
#include "suites/score_database.h"
#include "suites/spec2006.h"
#include "suites/spec2017.h"

using namespace speclens;

namespace {

struct CliOptions
{
    std::string command;
    std::vector<std::string> args;
    std::uint64_t instructions = 120'000;
    std::uint64_t warmup = 30'000;

    // True when the user passed the flag explicitly.  `bench
    // trajectory` pins its own window (150k+40k) and must not inherit
    // the CLI defaults above, but an explicit flag still wins.
    bool instructions_set = false;
    bool warmup_set = false;
    std::size_t jobs = 0; //!< 0 = one worker per hardware thread.
    std::uint64_t seed_salt = 0;
    std::string store_dir; //!< Empty = no persistent artifact store.
    std::string bench_dir; //!< BENCH_<pr>.json directory for lint.

    // Serve/query options.
    std::string host = "127.0.0.1"; //!< Daemon listen/connect address.
    std::uint16_t port = 0; //!< serve: 0 = ephemeral; query: required.

    std::string metrics_path; //!< Empty = no metrics export.
    obs::ExportFormat metrics_format = obs::ExportFormat::Prometheus;

    // Lint options.
    std::string format = "text";   //!< Report format: text | json.
    std::string severity = "info"; //!< Display filter threshold.
    bool deep = true; //!< Run simulation-backed lint checks.
};

[[noreturn]] void
usage(int code)
{
    std::fputs(
        "usage: speclens <command> [args] [--instructions N] "
        "[--warmup N] [--jobs N]\n"
        "                [--seed-salt N] [--store DIR] "
        "[--metrics FILE]\n"
        "                [--metrics-format prom|json]\n"
        "\n"
        "commands:\n"
        "  list [cpu2017|cpu2006|emerging]   list benchmarks\n"
        "  machines                          list machine models\n"
        "  characterize <bench>...           metric report\n"
        "  memory <bench>...                 memory-centric report\n"
        "                                    (prefetch coverage/accuracy/\n"
        "                                    timeliness, way prediction,\n"
        "                                    DRAM row-buffer + bandwidth)\n"
        "  subset <speed-int|rate-int|speed-fp|rate-fp> [k]\n"
        "                                    representative subset\n"
        "  inputs <int|fp>                   representative inputs\n"
        "  coverage <bench>...               CPU2017 coverage verdicts\n"
        "  sensitivity <branch|l1d|dtlb>     sensitivity classes\n"
        "  export <cpu2017|cpu2006|emerging> [file.csv]\n"
        "                                    feature matrix as CSV\n"
        "  report <speed-int|rate-int|speed-fp|rate-fp> [file.md]\n"
        "                                    full markdown suite report\n"
        "  simpoints <bench> [phases] [clusters]\n"
        "                                    phase-reduction estimate\n"
        "  campaign run [cpu2017|cpu2006|emerging|all]\n"
        "                                    populate the --store with a\n"
        "                                    full characterization\n"
        "  campaign info                     describe and verify every\n"
        "                                    --store entry\n"
        "  campaign invalidate [stale]       delete all (or only bad)\n"
        "                                    --store entries\n"
        "  campaign manifest                 validate the run manifest\n"
        "                                    written next to the --store\n"
        "  serve [--host A] [--port N]       long-running daemon; answers\n"
        "                                    queries over a loopback TCP\n"
        "                                    socket (port 0 = ephemeral,\n"
        "                                    printed on the 'listening'\n"
        "                                    line; SIGTERM drains)\n"
        "  query <characterize|memory|subset|sensitivity|stats|\n"
        "         shutdown>\n"
        "        [args] --port N [--host A]  ask a running daemon; output\n"
        "                                    is byte-identical to the\n"
        "                                    batch command\n"
        "  bench trajectory [--pr N] [--out FILE]\n"
        "                                    pinned perf campaign; facts\n"
        "                                    to stdout, BENCH_<pr>.json\n"
        "                                    with timings to FILE; no\n"
        "                                    --pr: highest BENCH_* + 1,\n"
        "                                    delta table on stderr\n"
        "  lint [--format text|json] [--severity info|warning|error]\n"
        "       [--no-deep] [--store DIR]    verify models and tables\n"
        "       [--bench DIR]                (and store integrity plus\n"
        "                                    BENCH/manifest artifacts)\n"
        "  audit                             prove structural invariants\n"
        "                                    over a pinned mini-campaign\n"
        "                                    and replay it across job\n"
        "                                    counts and seed salts,\n"
        "                                    diffing result fingerprints\n",
        code == 0 ? stdout : stderr);
    std::exit(code);
}

/** Numeric value of @p flag at argv[i + 1]; exits on bad input. */
std::uint64_t
numericFlagValue(const char *flag, int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", flag);
        std::exit(1);
    }
    const char *text = argv[++i];
    std::uint64_t value = 0;
    core::ParseStatus status = core::parseUnsigned(text, value);
    if (status != core::ParseStatus::Ok) {
        std::fprintf(stderr,
                     "error: %s expects a non-negative integer, got "
                     "'%s': %s\n",
                     flag, text,
                     core::parseStatusDetail(status).c_str());
        std::exit(1);
    }
    return value;
}

/**
 * Parse positional argument @p text as a strict non-negative integer.
 * Returns false (with a diagnostic naming @p what) on any defect —
 * the atoi it replaces treated "3x" as 3 and "x" as 0.
 */
bool
parsePositional(const char *what, const std::string &text,
                std::size_t &out)
{
    std::uint64_t value = 0;
    core::ParseStatus status = core::parseUnsigned(text, value);
    if (status != core::ParseStatus::Ok) {
        std::fprintf(stderr,
                     "error: %s expects a non-negative integer, got "
                     "'%s': %s\n",
                     what, text.c_str(),
                     core::parseStatusDetail(status).c_str());
        return false;
    }
    out = static_cast<std::size_t>(value);
    return true;
}

/** String value of @p flag at argv[i + 1]; exits on missing value. */
const char *
stringFlagValue(const char *flag, int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", flag);
        std::exit(1);
    }
    return argv[++i];
}

CliOptions
parse(int argc, char **argv)
{
    CliOptions opts;
    if (argc < 2)
        usage(1);
    opts.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--instructions") == 0) {
            opts.instructions =
                numericFlagValue("--instructions", argc, argv, i);
            opts.instructions_set = true;
        } else if (std::strcmp(argv[i], "--warmup") == 0) {
            opts.warmup = numericFlagValue("--warmup", argc, argv, i);
            opts.warmup_set = true;
        }
        else if (std::strcmp(argv[i], "--jobs") == 0)
            opts.jobs = static_cast<std::size_t>(
                numericFlagValue("--jobs", argc, argv, i));
        else if (std::strcmp(argv[i], "--seed-salt") == 0)
            opts.seed_salt =
                numericFlagValue("--seed-salt", argc, argv, i);
        else if (std::strcmp(argv[i], "--store") == 0)
            opts.store_dir = stringFlagValue("--store", argc, argv, i);
        else if (std::strcmp(argv[i], "--bench") == 0)
            opts.bench_dir = stringFlagValue("--bench", argc, argv, i);
        else if (std::strcmp(argv[i], "--host") == 0)
            opts.host = stringFlagValue("--host", argc, argv, i);
        else if (std::strcmp(argv[i], "--port") == 0) {
            std::uint64_t value =
                numericFlagValue("--port", argc, argv, i);
            if (value > 65535) {
                std::fprintf(stderr,
                             "error: --port must be <= 65535\n");
                std::exit(1);
            }
            opts.port = static_cast<std::uint16_t>(value);
        }
        else if (std::strcmp(argv[i], "--metrics") == 0)
            opts.metrics_path =
                stringFlagValue("--metrics", argc, argv, i);
        else if (std::strcmp(argv[i], "--metrics-format") == 0) {
            const char *name =
                stringFlagValue("--metrics-format", argc, argv, i);
            try {
                opts.metrics_format = obs::exportFormatFromName(name);
            } catch (const std::invalid_argument &e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                std::exit(1);
            }
        } else if (std::strcmp(argv[i], "--format") == 0)
            opts.format = stringFlagValue("--format", argc, argv, i);
        else if (std::strcmp(argv[i], "--severity") == 0)
            opts.severity =
                stringFlagValue("--severity", argc, argv, i);
        else if (std::strcmp(argv[i], "--no-deep") == 0)
            opts.deep = false;
        else if (std::strcmp(argv[i], "--help") == 0)
            usage(0);
        else
            opts.args.emplace_back(argv[i]);
    }
    if (!opts.metrics_path.empty())
        obs::exportAtExit(opts.metrics_path, opts.metrics_format);
    return opts;
}

/** Benchmark lookup across every database. */
const suites::BenchmarkInfo *
lookup(const std::string &name)
{
    for (const auto *list :
         {&suites::spec2017(), &suites::spec2006()}) {
        for (const suites::BenchmarkInfo &b : *list)
            if (b.name == name)
                return &b;
    }
    static const std::vector<suites::BenchmarkInfo> emerging =
        suites::emergingBenchmarks();
    for (const suites::BenchmarkInfo &b : emerging)
        if (b.name == name)
            return &b;
    return nullptr;
}

/** Session over an explicit machine set (store attached per --store). */
core::AnalysisSession
makeSession(const CliOptions &opts,
            std::vector<uarch::MachineConfig> machines)
{
    core::SessionConfig config;
    config.machines = std::move(machines);
    config.characterization.instructions = opts.instructions;
    config.characterization.warmup = opts.warmup;
    config.characterization.seed_salt = opts.seed_salt;
    config.characterization.jobs = opts.jobs;
    config.store_dir = opts.store_dir;
    return core::AnalysisSession(std::move(config));
}

/** Session over the seven Table IV machines. */
core::AnalysisSession
makeSession(const CliOptions &opts)
{
    return makeSession(opts, suites::profilingMachines());
}

int
cmdList(const CliOptions &opts)
{
    std::string which = opts.args.empty() ? "cpu2017" : opts.args[0];
    std::vector<suites::BenchmarkInfo> list;
    if (which == "cpu2017")
        list = suites::spec2017();
    else if (which == "cpu2006")
        list = suites::spec2006();
    else if (which == "emerging")
        list = suites::emergingBenchmarks();
    else
        usage(1);

    core::TextTable table({"Benchmark", "Category", "Domain",
                           "Language", "Icount (B)", "New in 2017"});
    for (const suites::BenchmarkInfo &b : list) {
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
cmdMachines()
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
    if (opts.args.empty())
        usage(1);
    core::AnalysisSession session = makeSession(opts);
    core::QueryOutcome outcome =
        core::runCharacterizeQuery(session.context(), opts.args);
    if (!outcome.ok) {
        std::fprintf(stderr, "%s\n", outcome.error.c_str());
        return 1;
    }
    std::fputs(outcome.output.c_str(), stdout);
    return 0;
}

int
cmdMemory(const CliOptions &opts)
{
    if (opts.args.empty())
        usage(1);
    core::AnalysisSession session =
        makeSession(opts, suites::memoryCentricMachines());
    core::QueryOutcome outcome =
        core::runMemoryQuery(session.context(), opts.args);
    if (!outcome.ok) {
        std::fprintf(stderr, "%s\n", outcome.error.c_str());
        return 1;
    }
    std::fputs(outcome.output.c_str(), stdout);
    return 0;
}

int
cmdSubset(const CliOptions &opts)
{
    if (opts.args.empty() || !core::isSubsetCategory(opts.args[0]))
        usage(1);
    std::size_t k = 3;
    if (opts.args.size() > 1 && !parsePositional("k", opts.args[1], k))
        return 1;

    core::AnalysisSession session = makeSession(opts);
    core::QueryOutcome outcome =
        core::runSubsetQuery(session.context(), opts.args[0], k);
    if (!outcome.ok) {
        std::fprintf(stderr, "%s\n", outcome.error.c_str());
        return 1;
    }
    std::fputs(outcome.output.c_str(), stdout);
    return 0;
}

int
cmdInputs(const CliOptions &opts)
{
    if (opts.args.empty())
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
    if (opts.args.empty())
        usage(1);
    std::vector<suites::BenchmarkInfo> candidates;
    for (const std::string &name : opts.args) {
        const suites::BenchmarkInfo *benchmark = lookup(name);
        if (!benchmark) {
            std::fprintf(stderr, "unknown benchmark: %s\n",
                         name.c_str());
            return 1;
        }
        candidates.push_back(*benchmark);
    }
    core::AnalysisSession session = makeSession(opts);
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
    if (opts.args.empty() || !core::isSensitivityMetric(opts.args[0]))
        usage(1);
    core::AnalysisSession session =
        makeSession(opts, suites::sensitivityMachines());
    core::QueryOutcome outcome =
        core::runSensitivityQuery(session.context(), opts.args[0]);
    if (!outcome.ok) {
        std::fprintf(stderr, "%s\n", outcome.error.c_str());
        return 1;
    }
    std::fputs(outcome.output.c_str(), stdout);
    return 0;
}

int
cmdExport(const CliOptions &opts)
{
    if (opts.args.empty())
        usage(1);
    std::vector<suites::BenchmarkInfo> list;
    if (opts.args[0] == "cpu2017")
        list = suites::spec2017();
    else if (opts.args[0] == "cpu2006")
        list = suites::spec2006();
    else if (opts.args[0] == "emerging")
        list = suites::emergingBenchmarks();
    else
        usage(1);

    core::AnalysisSession session = makeSession(opts);
    core::Characterizer &characterizer = session.characterizer();
    stats::Matrix features = characterizer.featureMatrix(list);

    if (opts.args.size() > 1) {
        std::ofstream file(opts.args[1]);
        if (!file) {
            std::fprintf(stderr, "cannot open %s\n",
                         opts.args[1].c_str());
            return 1;
        }
        core::writeCsv(file, suites::benchmarkNames(list),
                       characterizer.featureNames(), features);
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
    if (opts.args.empty())
        usage(1);
    std::vector<suites::BenchmarkInfo> suite;
    core::SuiteReportOptions report;
    const std::string &which = opts.args[0];
    if (which == "speed-int") {
        suite = suites::spec2017SpeedInt();
        report.validation_category = suites::Category::SpeedInt;
    } else if (which == "rate-int") {
        suite = suites::spec2017RateInt();
        report.validation_category = suites::Category::RateInt;
    } else if (which == "speed-fp") {
        suite = suites::spec2017SpeedFp();
        report.validation_category = suites::Category::SpeedFp;
    } else if (which == "rate-fp") {
        suite = suites::spec2017RateFp();
        report.validation_category = suites::Category::RateFp;
    } else {
        usage(1);
    }
    report.title = "SpecLens report: SPEC CPU2017 " + which;

    core::AnalysisSession session = makeSession(opts);
    core::Characterizer &characterizer = session.characterizer();
    if (opts.args.size() > 1) {
        std::ofstream file(opts.args[1]);
        if (!file) {
            std::fprintf(stderr, "cannot open %s\n",
                         opts.args[1].c_str());
            return 1;
        }
        core::writeSuiteReport(file, characterizer, suite, report);
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
    if (opts.args.empty())
        usage(1);
    const suites::BenchmarkInfo *benchmark = lookup(opts.args[0]);
    if (!benchmark) {
        std::fprintf(stderr, "unknown benchmark: %s\n",
                     opts.args[0].c_str());
        return 1;
    }
    std::size_t phases = 8;
    std::size_t clusters = 3;
    if (opts.args.size() > 1 &&
        !parsePositional("phases", opts.args[1], phases))
        return 1;
    if (opts.args.size() > 2 &&
        !parsePositional("clusters", opts.args[2], clusters))
        return 1;
    if (phases < 1 || clusters < 1 || clusters > phases) {
        std::fprintf(stderr,
                     "need phases >= 1 and 1 <= clusters <= phases\n");
        return 1;
    }

    trace::PhasedWorkload workload =
        trace::derivePhases(benchmark->profile, phases, 0.35);
    core::SimPointConfig config;
    config.clusters = clusters;
    config.instructions = opts.instructions;
    config.warmup = opts.warmup;
    core::AnalysisSession session =
        makeSession(opts, {suites::skylakeMachine()});
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
    if (which == "cpu2017" || which == "all")
        suite_sets.push_back(suites::spec2017());
    if (which == "cpu2006" || which == "all")
        suite_sets.push_back(suites::spec2006());
    if (which == "emerging" || which == "all")
        suite_sets.push_back(suites::emergingBenchmarks());
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
    core::CampaignStore store(opts.store_dir);
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
        opts.store_dir + "/" + obs::kManifestFileName;
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
    std::printf("manifest %s: well-formed JSON, schema v1 keys "
                "present (%zu bytes)\n",
                path.c_str(), text.size());
    return 0;
}

/** `campaign invalidate [stale]`: delete all (or only bad) entries. */
int
cmdCampaignInvalidate(const CliOptions &opts)
{
    bool stale_only = opts.args.size() > 1 && opts.args[1] == "stale";
    if (opts.args.size() > 1 && !stale_only)
        usage(1);
    core::CampaignStore store(opts.store_dir);
    std::size_t removed =
        stale_only ? store.invalidateStale() : store.invalidate();
    std::printf("removed %zu %sentr%s from %s\n", removed,
                stale_only ? "inconsistent " : "",
                removed == 1 ? "y" : "ies", opts.store_dir.c_str());
    return 0;
}

int
cmdCampaign(const CliOptions &opts)
{
    if (opts.args.empty())
        usage(1);
    if (opts.store_dir.empty()) {
        std::fprintf(stderr,
                     "error: campaign %s requires --store DIR\n",
                     opts.args[0].c_str());
        return 1;
    }
    if (opts.args[0] == "run")
        return cmdCampaignRun(opts);
    if (opts.args[0] == "info")
        return cmdCampaignInfo(opts);
    if (opts.args[0] == "invalidate")
        return cmdCampaignInvalidate(opts);
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
    config.service.characterization.instructions = opts.instructions;
    config.service.characterization.warmup = opts.warmup;
    config.service.characterization.seed_salt = opts.seed_salt;
    config.service.characterization.jobs = opts.jobs;
    config.service.store_dir = opts.store_dir;

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
                 "dropped=%zu\n",
                 stats.requests, stats.errors, stats.dropped);
    return 0;
}

int
cmdQuery(const CliOptions &opts)
{
    if (opts.args.empty())
        usage(1);
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
        if (opts.args.size() > 2 &&
            !parsePositional("k", opts.args[2], request.k))
            return 1;
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
 * Highest N among BENCH_<N>.json files in @p dir, or -1 when none
 * exist.  Drives both --pr auto-detection (next PR = highest + 1) and
 * the previous-artifact lookup for the delta table.
 */
int
highestBenchPr(const std::filesystem::path &dir)
{
    int highest = -1;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        std::string name = entry.path().filename().string();
        if (name.size() <= 11 || name.rfind("BENCH_", 0) != 0 ||
            name.substr(name.size() - 5) != ".json")
            continue;
        std::string digits = name.substr(6, name.size() - 11);
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos)
            continue;
        highest = std::max(highest, std::atoi(digits.c_str()));
    }
    return highest;
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
cmdBenchTrajectory(const CliOptions &opts)
{
    core::TrajectoryConfig config;
    // The pinned window, not the CLI defaults — explicit flags win.
    config.instructions = opts.instructions_set
                              ? opts.instructions
                              : core::kTrajectoryInstructions;
    config.warmup =
        opts.warmup_set ? opts.warmup : core::kTrajectoryWarmup;
    config.seed_salt = opts.seed_salt;
    config.store_dir = opts.store_dir;

    std::string out_path;
    bool pr_given = false;
    for (std::size_t i = 1; i < opts.args.size(); ++i) {
        const std::string &arg = opts.args[i];
        if (arg == "--pr" || arg == "--out") {
            if (i + 1 >= opts.args.size()) {
                std::fprintf(stderr, "error: %s requires a value\n",
                             arg.c_str());
                return 1;
            }
            if (arg == "--out") {
                out_path = opts.args[++i];
            } else {
                std::size_t pr = 0;
                if (!parsePositional("--pr", opts.args[++i], pr))
                    return 1;
                config.pr = static_cast<int>(pr);
                pr_given = true;
            }
        } else {
            std::fprintf(stderr,
                         "error: bench trajectory: unknown argument "
                         "'%s'\n",
                         arg.c_str());
            return 1;
        }
    }
    if (!pr_given) {
        // No --pr: continue the committed trajectory — one past the
        // highest BENCH_<n>.json in the working directory.
        config.pr = highestBenchPr(".") + 1;
        std::fprintf(stderr,
                     "[speclens-bench] --pr not given; auto-detected "
                     "--pr %d\n",
                     config.pr);
    }
    if (out_path.empty())
        out_path = core::trajectoryArtifactName(config.pr);

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
    std::ofstream file(out_path);
    file << json;
    if (!file) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    file.close();
    std::fprintf(stderr,
                 "[speclens-bench] wrote %s: fused=%.3fs stats=%.3fs\n",
                 out_path.c_str(), result.fused_seconds,
                 result.stats_seconds);

    // Delta table against the most recent earlier artifact.
    for (int prev = config.pr - 1; prev >= 0; --prev) {
        std::string prev_path = core::trajectoryArtifactName(prev);
        if (std::filesystem::exists(prev_path)) {
            printTrajectoryDelta(prev_path, result);
            break;
        }
    }

    // Exit code doubles as the contract check: when a store was given,
    // warm reuse must hold.
    bool ok = !result.store_checked ||
              (result.warm_bit_identical &&
               result.warm_simulations_run == 0);
    return ok ? 0 : 1;
}

int
cmdBench(const CliOptions &opts)
{
    if (opts.args.empty() || opts.args[0] != "trajectory")
        usage(1);
    return cmdBenchTrajectory(opts);
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
    if (!opts.args.empty()) {
        std::fprintf(stderr,
                     "error: audit takes no arguments, got '%s'\n",
                     opts.args[0].c_str());
        return 1;
    }

    // Pinned window unless overridden: large enough to exercise
    // prewarm, warm-up exclusion and sampled mid-run audit points,
    // small enough that 7 replays of the campaign stay fast.
    uarch::SimulationConfig window;
    window.instructions =
        opts.instructions_set ? opts.instructions : 60'000;
    window.warmup = opts.warmup_set ? opts.warmup : 20'000;
    window.seed_salt = opts.seed_salt;

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
        config.seed_salt = opts.seed_salt + salt_offset;
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
    // lint is a verification gate: a stray token is more likely a
    // misspelled flag than an intentional argument, so fail loudly
    // instead of silently linting with default settings.
    if (!opts.args.empty()) {
        std::fprintf(stderr, "error: lint takes no arguments, got '%s'\n",
                     opts.args[0].c_str());
        return 1;
    }

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
    context.instructions = opts.instructions;
    context.warmup = opts.warmup;
    context.jobs = opts.jobs;
    context.store_dir = opts.store_dir;
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

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opts = parse(argc, argv);
    if (opts.command == "list")
        return cmdList(opts);
    if (opts.command == "machines")
        return cmdMachines();
    if (opts.command == "characterize")
        return cmdCharacterize(opts);
    if (opts.command == "memory")
        return cmdMemory(opts);
    if (opts.command == "subset")
        return cmdSubset(opts);
    if (opts.command == "inputs")
        return cmdInputs(opts);
    if (opts.command == "coverage")
        return cmdCoverage(opts);
    if (opts.command == "sensitivity")
        return cmdSensitivity(opts);
    if (opts.command == "export")
        return cmdExport(opts);
    if (opts.command == "report")
        return cmdReport(opts);
    if (opts.command == "simpoints")
        return cmdSimpoints(opts);
    if (opts.command == "campaign")
        return cmdCampaign(opts);
    if (opts.command == "serve")
        return cmdServe(opts);
    if (opts.command == "query")
        return cmdQuery(opts);
    if (opts.command == "bench")
        return cmdBench(opts);
    if (opts.command == "audit")
        return cmdAudit(opts);
    if (opts.command == "lint")
        return cmdLint(opts);
    if (opts.command == "help" || opts.command == "--help")
        usage(0);
    std::fprintf(stderr, "unknown command: %s\n", opts.command.c_str());
    usage(1);
}
