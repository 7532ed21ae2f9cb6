/**
 * @file
 * Reproduces Fig. 12: CPU2017 and CPU2006 in the PC space of the
 * power characteristics (core / LLC / DRAM power from the RAPL-model
 * on the three Intel machines).
 *
 * Expected shape (paper): PC1 dominated by DRAM power, PC2 by core
 * power; CPU2017 covers a clearly larger region, driven by newly
 * added benchmarks (exchange2, leela, roms, xz, imagick); CPU2006
 * varies mostly along PC1 while 20+ CPU2017 benchmarks spread in core
 * power.
 */

#include <cstdio>

#include "bench_common.h"
#include "core/balance.h"
#include "core/report.h"
#include "suites/spec2006.h"
#include "suites/spec2017.h"

using namespace speclens;

int
main(int argc, char **argv)
{
    core::SessionFlags opts = bench::parseOptions(argc, argv);
    core::AnalysisSession session = bench::makeSession(opts);
    core::Characterizer &characterizer = session.characterizer();

    bench::banner("Fig. 12: power-characteristic PC space (3 Intel "
                  "machines, core/LLC/DRAM power)");

    const auto &suite17 = suites::spec2017();
    const auto &suite06 = suites::spec2006();

    // Machines 0-2 are Skylake, Broadwell, Ivy Bridge.
    std::vector<std::size_t> rapl_machines = {0, 1, 2};
    core::SimilarityConfig config;
    config.retention = stats::RetentionPolicy::fixedCount(2);
    core::SuiteComparison cmp = core::compareSuites(
        characterizer, suite17, suite06, core::MetricSelection::Power,
        rapl_machines, config);

    std::printf("PC1+PC2 cover %.1f%% of variance (paper: >= 84%%)\n",
                100.0 * cmp.similarity.pca.variance_covered);

    // Which raw metric dominates each PC?
    auto names = characterizer.featureNames(core::MetricSelection::Power,
                                            rapl_machines);
    std::printf("PC1 dominated by %s, PC2 by %s "
                "(paper: PC1 ~ DRAM power, PC2 ~ core power)\n\n",
                names[cmp.similarity.pca.dominantMetric(0)].c_str(),
                names[cmp.similarity.pca.dominantMetric(1)].c_str());

    std::vector<core::ScatterPoint> points;
    for (std::size_t i = 0; i < suite17.size(); ++i)
        points.push_back({cmp.similarity.scores(i, 0),
                          cmp.similarity.scores(i, 1), suite17[i].name,
                          '7'});
    for (std::size_t i = 0; i < suite06.size(); ++i) {
        std::size_t row = suite17.size() + i;
        points.push_back({cmp.similarity.scores(row, 0),
                          cmp.similarity.scores(row, 1),
                          suite06[i].name, '6'});
    }
    std::fputs(core::renderScatter(points, "PC1", "PC2").c_str(),
               stdout);
    std::printf("  glyphs: 7 = CPU2017, 6 = CPU2006\n\n");

    std::printf("Coverage (PC1-PC2 hull): CPU2017 %.2f vs CPU2006 %.2f "
                "(ratio %.2fx; paper: 2017 much higher)\n",
                cmp.pc12.area_a, cmp.pc12.area_b, cmp.pc12.area_ratio);
    std::printf("CPU2017 points outside the CPU2006 power region: "
                "%.0f%%\n",
                100.0 * cmp.pc12.a_outside_b);
    return 0;
}
