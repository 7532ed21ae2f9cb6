/**
 * @file
 * Reproduces Fig. 13 and Sections V-D/E/F: CPU2017 together with the
 * EDA (175.vpr, 300.twolf), database (cas-WA, cas-WC) and graph
 * analytics (pr/cc on two graphs) workloads.
 *
 * Expected shape (paper): the EDA benchmarks sit close to mcf
 * (covered); Cassandra is far from everything (instruction cache /
 * I-TLB pressure; NOT covered); PageRank is far out due to extreme
 * D-TLB activity (NOT covered); Connected Components behaves like
 * leela / deepsjeng / xz (covered).
 */

#include <cstdio>

#include "bench_common.h"
#include "core/balance.h"
#include "core/report.h"
#include "core/similarity.h"
#include "suites/emerging.h"
#include "suites/spec2017.h"

using namespace speclens;

int
main(int argc, char **argv)
{
    core::SessionFlags opts = bench::parseOptions(argc, argv);
    core::AnalysisSession session = bench::makeSession(opts);
    core::Characterizer &characterizer = session.characterizer();

    bench::banner("Fig. 13: CPU2017 + EDA + database + graph analytics "
                  "dendrogram");

    std::vector<suites::BenchmarkInfo> joint = suites::spec2017();
    for (const suites::BenchmarkInfo &b : suites::emergingBenchmarks())
        joint.push_back(b);

    core::SimilarityResult sim = core::analyzeSimilarity(
        characterizer.featureMatrix(joint),
        suites::benchmarkNames(joint));
    std::printf("Retained %zu PCs covering %.1f%% of variance\n\n",
                sim.pca.retained, 100.0 * sim.pca.variance_covered);
    std::fputs(sim.renderDendrogram().c_str(), stdout);

    bench::banner("Coverage verdicts (Sections V-D/E/F)");
    auto verdicts = core::coverageAnalysis(characterizer,
                                           suites::spec2017(),
                                           suites::emergingBenchmarks());
    core::TextTable table({"Workload", "Nearest CPU2017 benchmark",
                           "NN distance", "Covered?", "Paper verdict"});
    auto paper_verdict = [](const std::string &name) {
        if (name == "175.vpr" || name == "300.twolf")
            return "covered (near mcf)";
        if (name.rfind("cas-", 0) == 0)
            return "NOT covered (I-cache/I-TLB)";
        if (name.rfind("pr-", 0) == 0)
            return "NOT covered (D-TLB)";
        return "covered (near leela/deepsjeng/xz)";
    };
    for (const core::CoverageVerdict &v : verdicts) {
        table.addRow({v.benchmark, v.nearest,
                      core::TextTable::num(v.nn_distance),
                      v.covered ? "yes" : "NO",
                      paper_verdict(v.benchmark)});
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
}
