/**
 * @file
 * Section IV-D as a table (the paper presents this analysis in prose
 * over Figs. 7/8): PC-space and linkage distances between every
 * rate/speed pair.
 *
 * Expected shape (paper): most pairs are very similar; 638.imagick_s
 * has the largest distance to its rate version (>= 30% more cache
 * misses at every level), bwaves differs strongly too, and omnetpp /
 * xalancbmk / x264 are the INT pairs with visible separation.
 */

#include <cstdio>

#include "bench_common.h"
#include "core/rate_speed.h"
#include "core/report.h"

using namespace speclens;

namespace {

void
analyze(core::Characterizer &characterizer, bool fp, const char *title)
{
    bench::banner(title);
    core::RateSpeedAnalysis analysis =
        core::analyzeRateSpeed(characterizer, fp);

    core::TextTable table({"Rate version", "Speed version",
                           "PC distance", "Linkage distance",
                           "vs median"});
    for (const core::RateSpeedPair &pair : analysis.pairs) {
        table.addRow({pair.rate, pair.speed,
                      core::TextTable::num(pair.pc_distance),
                      core::TextTable::num(pair.cophenetic),
                      core::TextTable::num(pair.pc_distance /
                                           analysis.median_distance) +
                          "x"});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("Median pair distance: %.2f\n",
                analysis.median_distance);
}

} // namespace

int
main(int argc, char **argv)
{
    core::SessionFlags opts = bench::parseOptions(argc, argv);
    core::AnalysisSession session = bench::makeSession(opts);
    core::Characterizer &characterizer = session.characterizer();

    analyze(characterizer, false,
            "Rate vs. speed, INT pairs (paper: omnetpp, xalancbmk, "
            "x264 differ; rest similar)");
    analyze(characterizer, true,
            "Rate vs. speed, FP pairs (paper: imagick largest, bwaves "
            "next; nab/wrf/cactuBSSN similar)");
    return 0;
}
