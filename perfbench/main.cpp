/**
 * @file
 * Benchmark program entry point.
 *
 *   speclens_perfbench --workload campaign-cold|serve-warm|serve-cold
 *                      --seed N --seconds S --trace 0|1 --work-dir DIR
 *
 * Prints one JSON record on the last line of stdout (see
 * Report::render) and exits 0 only when every operation and every
 * correctness gate passed.  perfbench/run.py builds this program, adds
 * the host block and reduces the record to the benchmark's result line.
 */

#include <malloc.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "core/option_parse.h"
#include "workloads.h"

namespace perfbench {

void
reportEndToEnd(const std::vector<double> &setup_s,
               const std::vector<double> &round_s,
               const std::vector<std::vector<double>> &round_latencies_s,
               const std::vector<double> &hwm_mb, std::size_t min_rounds,
               Report &report)
{
    double measured = 0.0;
    for (double s : round_s)
        measured += s;
    std::vector<double> latencies_s;
    std::vector<double> round_p99_s;
    bool rounds_qualify = true;
    for (const std::vector<double> &round : round_latencies_s) {
        latencies_s.insert(latencies_s.end(), round.begin(), round.end());
        round_p99_s.push_back(quantile(round, 0.99));
        rounds_qualify = rounds_qualify && round.size() >= kP99Samples;
    }
    double p99_s = rounds_qualify ? median(round_p99_s)
                                  : quantile(latencies_s, 0.99);
    report.metric("setup_s", "s", median(setup_s));
    report.metric("campaign_s", "s", median(round_s));
    report.metric("query_p50_ms", "ms", quantile(latencies_s, 0.50) * 1e3);
    report.metric("query_p99_ms", "ms", p99_s * 1e3);
    report.metric("query_per_s", "req/s",
                  measured > 0
                      ? static_cast<double>(latencies_s.size()) / measured
                      : 0.0);
    report.metric("peak_rss_mb", "MB",
                  hwm_mb.at(std::min(min_rounds, hwm_mb.size()) - 1));

    auto list = [](const std::vector<double> &values) {
        std::string json = "[";
        for (double v : values) {
            if (json.size() > 1)
                json += ", ";
            json += jsonNumber(v);
        }
        return json + "]";
    };
    report.detail("round_s", list(round_s));
    report.detail("hwm_mb", list(hwm_mb));
    report.detail("query_samples", std::to_string(latencies_s.size()));
    report.detail("error_rate",
                  jsonNumber(report.attempted() > 0
                                 ? static_cast<double>(report.failed()) /
                                       static_cast<double>(report.attempted())
                                 : 0.0));
}

} // namespace perfbench

namespace {

int
usage(const std::string &problem)
{
    std::cerr << "speclens_perfbench: " << problem
              << "\nusage: speclens_perfbench --workload "
                 "campaign-cold|serve-warm|serve-cold --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options options;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        std::string value = argv[++i];
        std::uint64_t number = 0;
        bool numeric = speclens::core::parseUnsigned(value, number) ==
                       speclens::core::ParseStatus::Ok;
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--work-dir")
            options.work_dir = value;
        else if (!numeric)
            return usage("bad value for " + flag + ": " + value);
        else if (flag == "--seed")
            options.seed = number;
        else if (flag == "--seconds" && number > 0)
            options.seconds = static_cast<double>(number);
        else if (flag == "--trace" && number <= 1)
            options.trace = number == 1;
        else
            return usage("unknown flag or bad value: " + flag + " " + value);
    }
    if (options.work_dir.empty())
        return usage("--work-dir is required");

    void (*run)(const perfbench::Options &, perfbench::Report &) = nullptr;
    if (options.workload == "campaign-cold")
        run = perfbench::runCampaignCold;
    else if (options.workload == "serve-warm")
        run = perfbench::runServeWarm;
    else if (options.workload == "serve-cold")
        run = perfbench::runServeCold;
    else
        return usage("unknown workload '" + options.workload + "'");

    // One malloc arena for the whole process.  With glibc's default of
    // an arena per contending thread, which arena kept which freed
    // simulation hierarchy decided VmHWM, and identical daemon runs
    // differed by 30% in peak_rss_mb.  With one arena they agree within
    // a few percent; latency and throughput did not move in an A/B
    // against two arenas.
    mallopt(M_ARENA_MAX, 1);

    perfbench::Report report;
    try {
        std::filesystem::create_directories(options.work_dir);
        run(options, report);
    } catch (const std::exception &e) {
        report.check(false, std::string("exception: ") + e.what());
    }
    std::cout << report.render(options) << std::endl;
    return report.failed() == 0 ? 0 : 1;
}
