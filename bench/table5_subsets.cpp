/**
 * @file
 * Reproduces Table V: the 3-benchmark representative subsets of the
 * four CPU2017 sub-suites, plus the simulation-time reduction factors
 * quoted in Section IV-A (5.6x speed INT, 4.5x rate INT, 4.5x speed
 * FP, 6.3x rate FP).
 */

#include <cstdio>

#include "bench_common.h"
#include "core/report.h"
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

    bench::banner("Table V: representative 3-benchmark subsets of the "
                  "CPU2017 sub-suites");

    struct Row
    {
        const char *category;
        std::vector<suites::BenchmarkInfo> suite;
        const char *paper_subset;
    };
    Row rows[] = {
        {"SPECspeed INT", suites::spec2017SpeedInt(),
         "605.mcf_s, 641.leela_s, 623.xalancbmk_s"},
        {"SPECrate INT", suites::spec2017RateInt(),
         "505.mcf_r, 523.xalancbmk_r, 531.deepsjeng_r"},
        {"SPECspeed FP", suites::spec2017SpeedFp(),
         "607.cactuBSSN_s, 621.wrf_s, 654.roms_s"},
        {"SPECrate FP", suites::spec2017RateFp(),
         "507.cactuBSSN_r, 549.fotonik3d_r, 544.nab_r"},
    };

    core::TextTable table({"Sub-suite", "Identified subset",
                           "Sim-time reduction", "Paper subset"});
    for (const Row &row : rows) {
        core::SimilarityResult sim = core::analyzeSimilarity(
            characterizer.featureMatrix(row.suite),
            suites::benchmarkNames(row.suite));
        core::SubsetResult subset = core::selectSubset(
            sim, 3, core::RepresentativeRule::ShortestLinkage,
            row.suite);

        std::string members;
        for (const std::string &name : subset.representatives) {
            if (!members.empty())
                members += ", ";
            members += name;
        }
        table.addRow({row.category, members,
                      core::TextTable::num(
                          subset.simulation_time_reduction, 1) +
                          "x",
                      row.paper_subset});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\nPaper simulation-time reductions: 5.6x (speed INT), "
                "4.5x (rate INT), 4.5x (speed FP), 6.3x (rate FP)\n");
    return 0;
}
