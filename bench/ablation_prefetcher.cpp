/**
 * @file
 * Substrate ablation: the L2 prefetcher, in two acts.
 *
 * Act one (the original ablation): the Table IV machine models ship
 * with the prefetcher off because the workload calibration already
 * folds the prefetch benefit into the streaming parameters
 * (profile_presets.cpp): a "streamed" access in the model only misses
 * when it crosses into a new line, which is the miss stream a hardware
 * prefetcher would have left behind.  The first table quantifies what
 * turning the explicit prefetcher on does on top of that: the residual
 * sequential misses shrink a little for the most stream-like benchmark
 * (lbm), while for everything else cache pollution dominates —
 * pointer-chasing codes consistently lose.  On an *uncalibrated*
 * sequential stream the same prefetcher removes >3x of L2 misses (see
 * tests/uarch/prefetcher_test.cpp), so the difference is a property of
 * the calibration, not of the prefetcher.
 *
 * Act two graduates the ablation into a full Table IX-style
 * sensitivity column: every CPU2017 benchmark is ranked by L2D MPKI on
 * each suites::memoryCentricMachines() variant (prefetcher off /
 * next-line / stride / stream, all with DRAM + way prediction), and
 * the rank variation across variants classifies its prefetcher
 * sensitivity exactly as table9_sensitivity classifies branch/L1D/TLB
 * sensitivity across the paper's four machines.
 */

#include <cstdio>

#include "bench_common.h"
#include "core/report.h"
#include "core/sensitivity.h"
#include "suites/spec2017.h"
#include "uarch/simulation.h"

using namespace speclens;

int
main(int argc, char **argv)
{
    core::SessionFlags opts = bench::parseOptions(argc, argv);

    bench::banner("Ablation: L2 stream prefetcher (degree 0 vs 4) on "
                  "the Skylake model");

    {
        uarch::MachineConfig base = suites::skylakeMachine();
        uarch::MachineConfig prefetching = base;
        prefetching.caches.l2_prefetch_degree = 4;
        // Same machine name on purpose: the ISA/compiler jitter stream
        // is seeded from the name, so both variants see the identical
        // transformed workload and the comparison isolates the
        // prefetcher.  Store entries still never collide — the
        // prefetch degree is part of the machine fingerprint.

        core::AnalysisSession session =
            bench::makeSession(opts, {base, prefetching});
        core::Characterizer &characterizer = session.characterizer();

        const char *streaming[] = {"519.lbm_r", "503.bwaves_r",
                                   "554.roms_r", "649.fotonik3d_s"};
        const char *pointer_chasing[] = {"505.mcf_r", "520.omnetpp_r",
                                         "557.xz_r", "541.leela_r"};

        core::TextTable table({"Benchmark", "Class", "L2D MPKI (off)",
                               "L2D MPKI (deg 4)", "Reduction (%)",
                               "CPI (off)", "CPI (deg 4)"});
        auto add = [&](const char *name, const char *cls) {
            const auto &b = suites::spec2017Benchmark(name);
            const auto &off = characterizer.simulation(b, 0);
            const auto &on = characterizer.simulation(b, 1);
            double off_mpki = off.counters.l2dMpki();
            double on_mpki = on.counters.l2dMpki();
            table.addRow(
                {name, cls, core::TextTable::num(off_mpki, 1),
                 core::TextTable::num(on_mpki, 1),
                 core::TextTable::num(
                     off_mpki > 0.0
                         ? 100.0 * (off_mpki - on_mpki) / off_mpki
                         : 0.0,
                     0),
                 core::TextTable::num(off.cpi()),
                 core::TextTable::num(on.cpi())});
        };
        for (const char *name : streaming)
            add(name, "streaming");
        for (const char *name : pointer_chasing)
            add(name, "pointer-chasing");

        std::fputs(table.render().c_str(), stdout);
        std::printf(
            "\nExpected shape: small or positive reductions only for "
            "the stream-like class;\npointer-chasing rows lose to "
            "pollution. This is why the Table IV models keep\nthe "
            "prefetcher off: their calibration already accounts for "
            "it.\n");
    }

    bench::banner("Table IX (d): prefetcher sensitivity "
                  "(memory-centric machine variants)");

    core::AnalysisSession sensitivity_session =
        bench::makeSession(opts, suites::memoryCentricMachines());
    core::SensitivityReport report = core::classifySensitivity(
        sensitivity_session.characterizer(), suites::spec2017(),
        core::Metric::L2dMpki);

    for (core::SensitivityClass cls :
         {core::SensitivityClass::High,
          core::SensitivityClass::Medium}) {
        std::printf("%s:\n ", core::sensitivityClassName(cls).c_str());
        for (const std::string &name : report.names(cls))
            std::printf(" %s", name.c_str());
        std::printf("\n");
    }
    std::printf("(low-sensitivity benchmarks omitted, as in Table "
                "IX)\n\nRank spread here is across prefetcher engines, "
                "not machines: a High entry's\nL2 miss ranking depends "
                "on which engine (if any) is in front of it.\n");
    return 0;
}
