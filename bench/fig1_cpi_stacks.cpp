/**
 * @file
 * Reproduces Fig. 1: CPI stacks of the CPU2017 *rate* benchmarks on
 * the simulated Skylake, following the top-down decomposition.
 *
 * Expected shape (paper): mcf_r and omnetpp_r have the highest CPI;
 * leela/mcf/xz spend heavily on front-end (branch) stalls;
 * omnetpp/xalancbmk/mcf/fotonik3d are back-end (cache/memory) bound;
 * blender and imagick are dominated by inter-instruction dependencies
 * ("other").
 */

#include <cstdio>
#include <vector>

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

    bench::banner("Fig. 1: CPI stacks of the CPU2017 rate benchmarks "
                  "(simulated Skylake)");

    std::vector<suites::BenchmarkInfo> rate = suites::spec2017RateInt();
    for (const suites::BenchmarkInfo &b : suites::spec2017RateFp())
        rate.push_back(b);

    std::vector<std::string> labels;
    std::vector<std::vector<double>> stacks;
    for (const suites::BenchmarkInfo &b : rate) {
        const uarch::SimulationResult &sim =
            characterizer.simulation(b, 0);
        labels.push_back(b.name);
        stacks.push_back(sim.cpi_stack.components());
    }

    std::fputs(core::renderStackedBars(labels, stacks,
                                       uarch::CpiStack::componentNames())
                   .c_str(),
               stdout);

    // Highlight the paper's headline observations.
    double max_cpi = 0.0;
    std::string max_name;
    for (std::size_t i = 0; i < rate.size(); ++i) {
        const uarch::SimulationResult &sim =
            characterizer.simulation(rate[i], 0);
        if (sim.cpi() > max_cpi) {
            max_cpi = sim.cpi();
            max_name = rate[i].name;
        }
    }
    std::printf("\nHighest CPI: %s at %.2f (paper: mcf_r / omnetpp_r "
                "highest)\n",
                max_name.c_str(), max_cpi);

    // Bonus: the speed-benchmark stacks the paper omits for space
    // ("most speed benchmarks also have similar performance
    // correlations", Sec. II-B).
    bench::banner("Bonus: CPI stacks of the CPU2017 speed benchmarks "
                  "(paper: not shown due to space)");
    std::vector<suites::BenchmarkInfo> speed =
        suites::spec2017SpeedInt();
    for (const suites::BenchmarkInfo &b : suites::spec2017SpeedFp())
        speed.push_back(b);
    std::vector<std::string> speed_labels;
    std::vector<std::vector<double>> speed_stacks;
    for (const suites::BenchmarkInfo &b : speed) {
        const uarch::SimulationResult &sim =
            characterizer.simulation(b, 0);
        speed_labels.push_back(b.name);
        speed_stacks.push_back(sim.cpi_stack.components());
    }
    std::fputs(core::renderStackedBars(
                   speed_labels, speed_stacks,
                   uarch::CpiStack::componentNames())
                   .c_str(),
               stdout);
    return 0;
}
