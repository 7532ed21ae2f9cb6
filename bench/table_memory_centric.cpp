/**
 * @file
 * Memory-centric model family: prefetch coverage/accuracy/timeliness,
 * way-prediction accuracy and DRAM row-buffer behaviour across the
 * suites::memoryCentricMachines() Skylake variants.
 *
 * The per-benchmark tables are rendered through the same
 * core::runMemoryQuery used by `speclens memory` and the serve
 * daemon's `memory` op, so this bench, the batch CLI and the daemon
 * print byte-identical reports for the same window (the CI warm-store
 * stage relies on that).  A second section aggregates the raw prefetch
 * accounting over the whole campaign — the figures the
 * fills == useful + evicted + resident identity holds over.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/query_ops.h"
#include "core/report.h"
#include "suites/spec2017.h"
#include "uarch/simulation.h"

using namespace speclens;

int
main(int argc, char **argv)
{
    core::SessionFlags opts = bench::parseOptions(argc, argv);

    bench::banner("Memory-centric model: prefetchers, way prediction "
                  "and the DRAM row buffer");

    core::AnalysisSession session =
        bench::makeSession(opts, suites::memoryCentricMachines());

    // Streaming vs pointer-chasing split of the ablation bench: the
    // classes the three prefetch engines are supposed to tell apart.
    const std::vector<std::string> benchmarks = {
        "519.lbm_r",    "503.bwaves_r",  "554.roms_r",
        "649.fotonik3d_s", "505.mcf_r",  "520.omnetpp_r",
        "557.xz_r",     "541.leela_r",
    };

    core::QueryOutcome outcome =
        core::runMemoryQuery(session.context(), benchmarks);
    if (!outcome.ok) {
        std::fprintf(stderr, "%s\n", outcome.error.c_str());
        return 1;
    }
    std::fputs(outcome.output.c_str(), stdout);

    bench::banner("Campaign-aggregate prefetch accounting");

    core::Characterizer &characterizer = session.characterizer();
    core::TextTable table({"Machine", "Pf fills", "Useful", "Evicted",
                           "Row hits", "DRAM acc", "BW util"});
    for (std::size_t m = 0; m < characterizer.machines().size(); ++m) {
        uarch::PerfCounters total;
        for (const std::string &name : benchmarks) {
            const auto &b = suites::spec2017Benchmark(name);
            total += characterizer.simulation(b, m).counters;
        }
        table.addRow(
            {characterizer.machines()[m].short_name,
             std::to_string(total.prefetch_fills),
             std::to_string(total.prefetch_useful),
             std::to_string(total.prefetch_evicted_unused),
             std::to_string(total.dram_row_hits),
             std::to_string(total.dram_accesses),
             core::TextTable::num(total.dramBwUtilization(), 3)});
    }
    std::fputs(table.render().c_str(), stdout);

    std::printf(
        "\nEvery fill is either consumed by a demand hit (Useful), "
        "evicted untouched\n(Evicted) or still resident — the "
        "difference of the first three columns.\nThe old accounting "
        "lost that identity whenever its tracking set hit 65536\n"
        "entries; the per-line bits it was replaced with cannot.\n");
    return 0;
}
