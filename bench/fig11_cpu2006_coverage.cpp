/**
 * @file
 * Reproduces Fig. 11 and the Section V-B coverage study: CPU2017 and
 * CPU2006 in a joint PC workload space.
 *
 * Expected shape (paper): in PC1-PC2 CPU2017 only slightly expands
 * coverage but > 25% of its benchmarks fall outside the CPU2006
 * region; in PC3-PC4 CPU2017 covers about twice the area; of the
 * removed CPU2006 benchmarks only 429.mcf, 445.gobmk and 473.astar
 * are not covered by CPU2017.
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

    bench::banner("Fig. 11: CPU2017 vs CPU2006 in the PC workload "
                  "space");

    const auto &suite17 = suites::spec2017();
    const auto &suite06 = suites::spec2006();

    core::SimilarityConfig config;
    config.retention = stats::RetentionPolicy::fixedCount(4);
    core::SuiteComparison cmp = core::compareSuites(
        characterizer, suite17, suite06,
        core::MetricSelection::Canonical, {}, config);

    std::printf("Top-4 PCs cover %.1f%% of variance (paper: ~80%%)\n\n",
                100.0 * cmp.similarity.pca.variance_covered);

    for (const core::PlaneCoverage *plane : {&cmp.pc12, &cmp.pc34}) {
        std::printf("PC%zu-PC%zu plane:\n", plane->pc_x + 1,
                    plane->pc_y + 1);
        std::printf("  CPU2017 hull area: %8.2f\n", plane->area_a);
        std::printf("  CPU2006 hull area: %8.2f\n", plane->area_b);
        std::printf("  area ratio 2017/2006: %.2fx\n",
                    plane->area_ratio);
        std::printf("  CPU2017 benchmarks outside the CPU2006 region: "
                    "%.0f%%\n\n",
                    100.0 * plane->a_outside_b);
    }
    std::printf("Paper: PC1-PC2 slightly expanded, > 25%% of CPU2017 "
                "outside; PC3-PC4 area ~2x.\n");

    // Scatter of the joint space for visual reference.
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
    std::printf("  glyphs: 7 = CPU2017, 6 = CPU2006\n");

    bench::banner("Section V-B: coverage of removed CPU2006 "
                  "benchmarks");
    auto verdicts = core::coverageAnalysis(
        characterizer, suite17, suites::spec2006RemovedBenchmarks());

    core::TextTable table({"Removed benchmark", "Nearest CPU2017",
                           "NN distance", "Covered?"});
    for (const core::CoverageVerdict &v : verdicts) {
        table.addRow({v.benchmark, v.nearest,
                      core::TextTable::num(v.nn_distance),
                      v.covered ? "yes" : "NO"});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\nPaper: only 429.mcf, 445.gobmk and 473.astar are "
                "not covered.\n");
    return 0;
}
