/**
 * @file
 * Reproduces Fig. 5: validation of the INT subsets against the
 * (synthetic stand-in for the) published SPEC score database — the
 * geometric-mean speedup estimated from the 3-benchmark subset versus
 * the full sub-suite, per commercial system.
 *
 * Expected shape (paper): average error <= 1% for speed INT across 4
 * systems and ~7% (max 12.9%) for rate INT.
 */

#include <cstdio>

#include "bench_common.h"
#include "core/report.h"
#include "core/similarity.h"
#include "core/subsetting.h"
#include "core/validation.h"
#include "suites/score_database.h"
#include "suites/spec2017.h"

using namespace speclens;

namespace {

void
validate(core::Characterizer &characterizer,
         const std::vector<suites::BenchmarkInfo> &suite,
         suites::Category category, const char *title)
{
    bench::banner(title);

    core::SimilarityResult sim = core::analyzeSimilarity(
        characterizer.featureMatrix(suite),
        suites::benchmarkNames(suite));
    core::SubsetResult subset = core::selectSubset(
        sim, 3, core::RepresentativeRule::ShortestLinkage, suite);

    suites::ScoreDatabase db;
    core::ValidationResult result =
        core::validateSubset(suite, subset.representatives, category, db);

    core::TextTable table({"System", "Full-suite score", "Subset score",
                           "Error (%)"});
    for (const core::SystemValidation &v : result.per_system) {
        table.addRow({v.system, core::TextTable::num(v.full_score),
                      core::TextTable::num(v.subset_score),
                      core::TextTable::num(v.error_pct, 1)});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("Average error: %.1f%%   Max error: %.1f%%\n",
                result.avg_error_pct, result.max_error_pct);
}

} // namespace

int
main(int argc, char **argv)
{
    core::SessionFlags opts = bench::parseOptions(argc, argv);
    core::AnalysisSession session = bench::makeSession(opts);
    core::Characterizer &characterizer = session.characterizer();

    validate(characterizer, suites::spec2017SpeedInt(),
             suites::Category::SpeedInt,
             "Fig. 5 (top): SPECspeed INT subset validation "
             "(paper: avg error <= 1%)");
    validate(characterizer, suites::spec2017RateInt(),
             suites::Category::RateInt,
             "Fig. 5 (bottom): SPECrate INT subset validation "
             "(paper: avg 7%, max 12.9%)");
    return 0;
}
