/**
 * @file
 * Shared plumbing for the table/figure reproduction benches.
 *
 * Every bench binary regenerates one table or figure of the paper.
 * They share: command-line parsing for the simulation window, an
 * AnalysisSession (memoised Characterizer over the seven Table IV
 * machines, optionally backed by the persistent `--store` artifact
 * cache), and small printing conventions.
 *
 * With `--store DIR`, the first run of any bench populates the
 * directory and every later run of *any* bench or CLI command reusing
 * it performs zero simulations while printing byte-identical stdout —
 * the store summary goes to stderr precisely so that holds.
 */

#ifndef SPECLENS_BENCH_BENCH_COMMON_H
#define SPECLENS_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis_session.h"
#include "core/option_parse.h"
#include "suites/machines.h"

namespace speclens {
namespace bench {

/** The benches' simulation window when --instructions/--warmup are absent. */
constexpr core::Window kBenchWindow{150'000, 40'000};

/**
 * Parse the session flags; --help prints them and exits 0.  Unknown
 * flags and malformed values are hard errors (exit 1), never silently
 * ignored.
 */
inline core::SessionFlags
parseOptions(int argc, char **argv)
{
    return core::parseSessionFlags(argc, argv, 1, [&](int &i) {
        if (std::strcmp(argv[i], "--help") != 0)
            return false;
        std::fputs((core::sessionUsage(std::string("usage: ") + argv[0], 7) +
                    core::sessionFlagHelp(kBenchWindow))
                       .c_str(),
                   stdout);
        std::exit(0);
    });
}

/** Session over @p machines (default: the seven Table IV machines). */
inline core::AnalysisSession
makeSession(const core::SessionFlags &opts,
            std::vector<uarch::MachineConfig> machines =
                suites::profilingMachines())
{
    return core::makeSession(opts, kBenchWindow, std::move(machines));
}

/** Section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

} // namespace bench
} // namespace speclens

#endif // SPECLENS_BENCH_BENCH_COMMON_H
