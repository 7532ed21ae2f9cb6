/**
 * @file
 * Reproduces Fig. 8: dendrogram of all CPU2017 FP benchmarks with
 * their input sets (bwaves is the only multi-input FP benchmark).
 *
 * Expected shape (paper): bwaves input sets cluster together; the
 * largest rate-vs-speed separations are imagick and bwaves; ~12 PCs
 * cover 94% of variance.
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

    bench::banner("Fig. 8: similarity of CPU2017 FP benchmarks and "
                  "their input sets");

    auto groups = suites::inputSetGroupsFp();
    core::InputSetAnalysis analysis =
        core::analyzeInputSets(characterizer, groups);

    std::printf("Retained %zu PCs covering %.1f%% of variance "
                "(paper: 12 PCs, 94%%)\n\n",
                analysis.similarity.pca.retained,
                100.0 * analysis.similarity.pca.variance_covered);
    std::fputs(analysis.similarity.renderDendrogram().c_str(), stdout);

    std::printf("\nLargest within-benchmark input-set spread: %.2f\n"
                "Median cross-benchmark distance:            %.2f\n",
                analysis.max_within_group_spread,
                analysis.median_cross_benchmark_distance);
    return 0;
}
