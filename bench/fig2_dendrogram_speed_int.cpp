/**
 * @file
 * Reproduces Fig. 2: dendrogram of the SPECspeed INT benchmarks from
 * PCA + hierarchical clustering over the 140-metric feature vectors
 * (20 metrics x 7 machines), with Kaiser-criterion component
 * retention.
 *
 * Expected shape (paper): 605.mcf_s is the most distinct benchmark;
 * cutting at three clusters yields {605.mcf_s, 623.xalancbmk_s,
 * 641.leela_s} as representatives; 7 PCs cover >= 91% of variance.
 */

#include <cstdio>

#include "bench_common.h"
#include "core/similarity.h"
#include "core/subsetting.h"
#include "suites/spec2017.h"

using namespace speclens;

int
main(int argc, char **argv)
{
    core::SessionFlags opts = bench::parseOptions(argc, argv);
    core::AnalysisSession session = bench::makeSession(opts);
    core::Characterizer &characterizer = session.characterizer();

    bench::banner("Fig. 2: SPECspeed INT dendrogram (PCA + hierarchical "
                  "clustering, 7 machines x 20 metrics)");

    auto suite = suites::spec2017SpeedInt();
    core::SimilarityResult sim = core::analyzeSimilarity(
        characterizer.featureMatrix(suite),
        suites::benchmarkNames(suite));

    std::printf("Retained %zu PCs covering %.1f%% of variance "
                "(Kaiser criterion; paper: 7 PCs, >= 91%%)\n\n",
                sim.pca.retained, 100.0 * sim.pca.variance_covered);
    std::fputs(sim.renderDendrogram().c_str(), stdout);

    std::printf("\nMost distinct benchmark: %s (paper: 605.mcf_s)\n",
                sim.labels[sim.mostDistinct()].c_str());

    core::SubsetResult subset = core::selectSubset(
        sim, 3, core::RepresentativeRule::ShortestLinkage, suite);
    std::printf("\n3-cluster cut at linkage distance %.2f:\n",
                subset.cut_height);
    for (std::size_t c = 0; c < subset.clusters.size(); ++c) {
        std::printf("  cluster %zu (rep %s):", c + 1,
                    subset.representatives[c].c_str());
        for (const std::string &name : subset.clusters[c])
            std::printf(" %s", name.c_str());
        std::printf("\n");
    }
    return 0;
}
