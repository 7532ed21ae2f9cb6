/**
 * @file
 * Reproduces Table I: dynamic instruction count, instruction mix and
 * CPI of the 43 SPEC CPU2017 benchmarks on the Skylake i7-6700.
 *
 * Instruction counts come from the workload models (they are the
 * paper's published values); mixes and CPI are *measured* from the
 * simulated Skylake, so this bench doubles as the calibration check
 * that the workload models reproduce their published rows.
 */

#include <cstdio>

#include "bench_common.h"
#include "core/report.h"
#include "suites/spec2017.h"

using namespace speclens;

int
main(int argc, char **argv)
{
    core::SessionFlags opts = bench::parseOptions(argc, argv);
    core::AnalysisSession session = bench::makeSession(opts);
    core::Characterizer &characterizer = session.characterizer();

    bench::banner("Table I: Icount, instruction mix and CPI of the 43 "
                  "SPEC CPU2017 benchmarks (simulated Skylake)");

    const std::size_t skylake = 0;
    core::TextTable table({"Benchmark", "Icount (B)", "Loads (%)",
                           "Stores (%)", "Branches (%)", "CPI (sim)",
                           "CPI (paper)"});

    auto add_category = [&](const std::vector<suites::BenchmarkInfo> &list,
                            const char *header) {
        table.addRow({header, "", "", "", "", "", ""});
        for (const suites::BenchmarkInfo &b : list) {
            const uarch::SimulationResult &sim =
                characterizer.simulation(b, skylake);
            const uarch::PerfCounters &c = sim.counters;
            table.addRow({
                b.name,
                core::TextTable::num(
                    b.profile.dynamic_instructions_billions, 0),
                core::TextTable::num(100.0 * c.loadFraction()),
                core::TextTable::num(100.0 * c.storeFraction()),
                core::TextTable::num(100.0 * c.branchFraction()),
                core::TextTable::num(sim.cpi()),
                core::TextTable::num(b.published_cpi),
            });
        }
    };

    add_category(suites::spec2017SpeedInt(), "-- SPECspeed Integer --");
    add_category(suites::spec2017RateInt(), "-- SPECrate Integer --");
    add_category(suites::spec2017SpeedFp(),
                 "-- SPECspeed Floating-point --");
    add_category(suites::spec2017RateFp(), "-- SPECrate Floating-point --");

    std::fputs(table.render().c_str(), stdout);
    return 0;
}
