/**
 * @file
 * Reproduces Table II: min-max ranges of key performance metrics
 * (cache MPKI per level/side and branch misprediction MPKI) per
 * CPU2017 sub-suite, measured on the simulated Skylake.
 */

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/report.h"
#include "stats/descriptive.h"
#include "suites/spec2017.h"

using namespace speclens;

namespace {

std::string
range(core::Characterizer &characterizer,
      const std::vector<suites::BenchmarkInfo> &list, core::Metric metric)
{
    std::vector<double> values;
    values.reserve(list.size());
    for (const suites::BenchmarkInfo &b : list)
        values.push_back(characterizer.metrics(b, 0).get(metric));
    return core::TextTable::num(stats::minValue(values), 1) + " - " +
           core::TextTable::num(stats::maxValue(values), 1);
}

} // namespace

int
main(int argc, char **argv)
{
    core::SessionFlags opts = bench::parseOptions(argc, argv);
    core::AnalysisSession session = bench::makeSession(opts);
    core::Characterizer &characterizer = session.characterizer();

    bench::banner("Table II: metric ranges (min - max) of the CPU2017 "
                  "sub-suites (simulated Skylake)");

    auto rate_int = suites::spec2017RateInt();
    auto speed_int = suites::spec2017SpeedInt();
    auto rate_fp = suites::spec2017RateFp();
    auto speed_fp = suites::spec2017SpeedFp();

    struct MetricRow
    {
        const char *label;
        core::Metric metric;
    };
    const MetricRow rows[] = {
        {"L1D$ MPKI", core::Metric::L1dMpki},
        {"L1I$ MPKI", core::Metric::L1iMpki},
        {"L2D$ MPKI", core::Metric::L2dMpki},
        {"L2I$ MPKI", core::Metric::L2iMpki},
        {"L3$ MPKI", core::Metric::L3Mpki},
        {"Branch misp. PKI", core::Metric::BranchMpki},
    };

    core::TextTable table(
        {"Metric", "Rate INT", "Speed INT", "Rate FP", "Speed FP"});
    for (const MetricRow &row : rows) {
        table.addRow({row.label,
                      range(characterizer, rate_int, row.metric),
                      range(characterizer, speed_int, row.metric),
                      range(characterizer, rate_fp, row.metric),
                      range(characterizer, speed_fp, row.metric)});
    }
    std::fputs(table.render().c_str(), stdout);

    std::printf("\nPaper reference ranges (Skylake hardware):\n"
                "  L1D$ MPKI:  rate INT ~0-56,  speed INT ~0-54.7, "
                "rate FP 2-95.4, speed FP 5.5-98.4\n"
                "  L1I$ MPKI:  ~0-5.1 / ~0-5.2 / ~0-11.3 / 0.1-11.6\n"
                "  L2D$ MPKI:  ~0-20.5 / ~0-20.7 / ~0-7 / 0.2-8.6\n"
                "  L2I$ MPKI:  ~0-0.9 across categories\n"
                "  L3$ MPKI:   ~0-4.5 / ~0-4.6 / ~0-4.3 / ~0-5\n"
                "  Branch MPKI: 0.9-8.3 / 0.5-8.4 / 0-2.5 / 0.01-2.5\n");
    return 0;
}
