/**
 * @file
 * Methodology validation bench: measurement noise versus clustering
 * signal.
 *
 * Re-measures every SPECrate INT benchmark under five independent
 * trace seeds on the Skylake model and reports, per canonical metric,
 * the within-benchmark standard deviation (noise) against the
 * across-benchmark standard deviation (signal).  The paper's
 * clustering methodology is sound only while signal >> noise; this
 * bench quantifies the margin for the simulated substrate.
 */

#include <cstdio>

#include "bench_common.h"
#include "core/report.h"
#include "core/stability.h"
#include "suites/spec2017.h"

using namespace speclens;

int
main(int argc, char **argv)
{
    core::SessionFlags opts = bench::parseOptions(argc, argv);
    const core::Window window = opts.window(bench::kBenchWindow);

    bench::banner("Measurement stability: within-benchmark noise vs "
                  "across-benchmark signal (SPECrate INT, Skylake, "
                  "5 seeds)");

    // The session exists for its store wiring: the (benchmark, trial)
    // re-measurements run through analyzeStability, not the
    // characterizer, but persist to (and replay from) the same store.
    core::AnalysisSession session =
        bench::makeSession(opts, {suites::skylakeMachine()});

    core::StabilityReport report = core::analyzeStability(
        suites::spec2017RateInt(), suites::skylakeMachine(), 5,
        window.instructions, window.warmup, opts.jobs, session.store());

    core::TextTable table({"Metric", "Noise (within)",
                           "Signal (across)", "SNR", "Informative?"});
    for (const core::MetricStability &m : report.metrics) {
        table.addRow({core::metricName(m.metric),
                      core::TextTable::num(m.noise, 3),
                      core::TextTable::num(m.signal, 3),
                      m.informative()
                          ? core::TextTable::num(m.snr(), 1)
                          : std::string("-"),
                      m.informative() ? "yes" : "no"});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\nWorst informative-metric SNR: %.1f "
                "(the clustering premise needs >> 1)\n",
                report.worstSnr());
    return 0;
}
