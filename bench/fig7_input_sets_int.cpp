/**
 * @file
 * Reproduces Fig. 7: dendrogram of all CPU2017 INT benchmarks with
 * their individual input sets (multi-input benchmarks appear as
 * "<name>#<k>").
 *
 * Expected shape (paper): input sets of the same benchmark cluster
 * tightly (e.g. the five 502.gcc_r inputs), and most rate/speed pairs
 * sit together — only omnetpp, xalancbmk and x264 show meaningful
 * rate-vs-speed separation; ~10 PCs cover ~94% of variance.
 */

#include <cstdio>

#include "bench_common.h"
#include "core/input_set_analysis.h"
#include "suites/input_sets.h"

using namespace speclens;

int
main(int argc, char **argv)
{
    core::SessionFlags opts = bench::parseOptions(argc, argv);
    core::AnalysisSession session = bench::makeSession(opts);
    core::Characterizer &characterizer = session.characterizer();

    bench::banner("Fig. 7: similarity of CPU2017 INT benchmarks and "
                  "their input sets");

    auto groups = suites::inputSetGroupsInt();
    core::InputSetAnalysis analysis =
        core::analyzeInputSets(characterizer, groups);

    std::printf("Retained %zu PCs covering %.1f%% of variance "
                "(paper: 10 PCs, 94%%)\n\n",
                analysis.similarity.pca.retained,
                100.0 * analysis.similarity.pca.variance_covered);
    std::fputs(analysis.similarity.renderDendrogram().c_str(), stdout);

    std::printf("\nLargest within-benchmark input-set spread: %.2f\n"
                "Median cross-benchmark distance:            %.2f\n"
                "(the paper's finding: input sets of one benchmark are "
                "far closer together\n than different benchmarks)\n",
                analysis.max_within_group_spread,
                analysis.median_cross_benchmark_distance);
    return 0;
}
