/**
 * @file
 * The benchmark's three workloads.  Each runs in this process, makes
 * its inputs from Options::seed, measures rounds for Options::seconds
 * with tracing off, checks every output, and records the end-to-end
 * metrics; with Options::trace it instead replays the workload with
 * spans on and records the per-layer metrics.
 */

#ifndef SPECLENS_PERFBENCH_WORKLOADS_H
#define SPECLENS_PERFBENCH_WORKLOADS_H

#include "support.h"

namespace perfbench {

/** Cold single-threaded campaign, CPU2017 x 7 machines, 150k + 40k. */
void runCampaignCold(const Options &options, Report &report);

/** Warm daemon, one closed-loop client, one connection per request. */
void runServeWarm(const Options &options, Report &report);

/** Daemon over a half-populated store, three persistent clients. */
void runServeCold(const Options &options, Report &report);

/** Operations a round needs for its own p99 to have ten samples beyond. */
inline constexpr std::size_t kP99Samples = 1000;

/**
 * End-to-end metrics shared by every workload, from each round's
 * wall-clock (@p round_s) and successful-operation latencies
 * (@p round_latencies_s):
 *  - setup_s: median of @p setup_s;
 *  - campaign_s: median round;
 *  - query_p50_ms: median of all latencies;
 *  - query_p99_ms: when every round has kP99Samples operations, the
 *    median of the rounds' p99s, so a burst of host noise inside one
 *    round does not set the run's value; otherwise the p99 of all;
 *  - query_per_s: operations over the summed round wall-clock;
 *  - peak_rss_mb: @p hwm_mb holds VmHWM after each round; the metric is
 *    its value after round @p min_rounds, when every run has done the
 *    same work, so it does not grow with how many rounds fit in
 *    --seconds.
 */
void reportEndToEnd(const std::vector<double> &setup_s,
                    const std::vector<double> &round_s,
                    const std::vector<std::vector<double>> &round_latencies_s,
                    const std::vector<double> &hwm_mb, std::size_t min_rounds,
                    Report &report);

} // namespace perfbench

#endif // SPECLENS_PERFBENCH_WORKLOADS_H
