/**
 * @file
 * Reproduces Fig. 4: dendrogram of the SPECrate FP benchmarks (and,
 * as a bonus, the SPECrate INT dendrogram the paper omits for space).
 *
 * Expected shape (paper): 507.cactuBSSN_r is the most distinct FP
 * benchmark; the 3-benchmark subsets are {507.cactuBSSN_r,
 * 549.fotonik3d_r, 544.nab_r} for rate FP and {505.mcf_r,
 * 523.xalancbmk_r, 531.deepsjeng_r} for rate INT.
 */

#include <cstdio>

#include "bench_common.h"
#include "core/similarity.h"
#include "core/subsetting.h"
#include "suites/spec2017.h"

using namespace speclens;

namespace {

void
analyze(core::Characterizer &characterizer,
        const std::vector<suites::BenchmarkInfo> &suite,
        const char *title, const char *expectation)
{
    bench::banner(title);
    core::SimilarityResult sim = core::analyzeSimilarity(
        characterizer.featureMatrix(suite),
        suites::benchmarkNames(suite));

    std::printf("Retained %zu PCs covering %.1f%% of variance\n\n",
                sim.pca.retained, 100.0 * sim.pca.variance_covered);
    std::fputs(sim.renderDendrogram().c_str(), stdout);
    std::printf("\nMost distinct benchmark: %s\n",
                sim.labels[sim.mostDistinct()].c_str());

    core::SubsetResult subset = core::selectSubset(
        sim, 3, core::RepresentativeRule::ShortestLinkage, suite);
    std::printf("\n3-cluster cut at linkage distance %.2f (%s):\n",
                subset.cut_height, expectation);
    for (std::size_t c = 0; c < subset.clusters.size(); ++c) {
        std::printf("  cluster %zu (rep %s):", c + 1,
                    subset.representatives[c].c_str());
        for (const std::string &name : subset.clusters[c])
            std::printf(" %s", name.c_str());
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    core::SessionFlags opts = bench::parseOptions(argc, argv);
    core::AnalysisSession session = bench::makeSession(opts);
    core::Characterizer &characterizer = session.characterizer();

    analyze(characterizer, suites::spec2017RateFp(),
            "Fig. 4: SPECrate FP dendrogram",
            "paper subset: 507.cactuBSSN_r, 549.fotonik3d_r, 544.nab_r");
    analyze(characterizer, suites::spec2017RateInt(),
            "Bonus: SPECrate INT dendrogram (paper omits for space)",
            "paper subset: 505.mcf_r, 523.xalancbmk_r, 531.deepsjeng_r");
    return 0;
}
