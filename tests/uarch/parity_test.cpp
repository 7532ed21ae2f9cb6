/**
 * @file
 * Streaming-vs-reference parity contract.
 *
 * The fused pipeline streams records through the structure models in
 * SoA batches, collapses same-line/same-page runs, resolves branches
 * per batch and may solve the prewarm state in closed form; the scalar
 * reference (reference_simulator.h) pulls one record at a time,
 * probes every structure on every record and always walks the prewarm.
 * Both must produce bit-identical SimulationResults — every counter
 * equal, every derived double equal by bit pattern — for EVERY shipped
 * workload on EVERY shipped machine.  A single differing bit here
 * means a batching, run-collapsing or analytic-prewarm shortcut
 * changed observable state, not just speed.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reference_simulator.h"
#include "suites/emerging.h"
#include "suites/machines.h"
#include "suites/spec2006.h"
#include "suites/spec2017.h"
#include "uarch/simulation.h"

using namespace speclens;

namespace {

/** Tiny window so the full cross product stays fast. */
uarch::SimulationConfig
tinyWindow()
{
    uarch::SimulationConfig config;
    config.instructions = 2'000;
    config.warmup = 500;
    return config;
}

void
expectParity(const suites::BenchmarkInfo &benchmark,
             const uarch::MachineConfig &machine,
             const uarch::SimulationConfig &config)
{
    uarch::SimulationResult fused =
        uarch::simulate(benchmark.profile, machine, config);
    uarch::SimulationResult scalar =
        reference::simulate(benchmark.profile, machine, config);
    EXPECT_TRUE(uarch::bitIdentical(fused, scalar))
        << benchmark.name << " on " << machine.name;
}

void
expectSuiteParity(const std::vector<suites::BenchmarkInfo> &benchmarks)
{
    uarch::SimulationConfig config = tinyWindow();
    for (const suites::BenchmarkInfo &b : benchmarks)
        for (const uarch::MachineConfig &machine :
             suites::profilingMachines())
            expectParity(b, machine, config);
}

TEST(StreamingParity, Cpu2017AllMachines)
{
    expectSuiteParity(suites::spec2017());
}

TEST(StreamingParity, Cpu2006AllMachines)
{
    expectSuiteParity(suites::spec2006());
}

TEST(StreamingParity, EmergingAllMachines)
{
    expectSuiteParity(suites::emergingBenchmarks());
}

// The tiny window above exercises the batch boundary only a few times;
// one full-size pair per special machine shape (TreePLRU L1s, the
// L3-less machine) catches anything that only shows up once runs span
// many batches.
TEST(StreamingParity, FullWindowSpotChecks)
{
    uarch::SimulationConfig config; // default window, prewarm on
    const std::vector<uarch::MachineConfig> &machines =
        suites::profilingMachines();
    const suites::BenchmarkInfo &mcf =
        suites::spec2017Benchmark("605.mcf_s");
    for (const uarch::MachineConfig &machine : machines)
        expectParity(mcf, machine, config);
}

// The memory-centric machine variants light up every prefetcher
// engine plus the way predictors and the DRAM model; the
// run-collapsing fast paths must stay exact with all of them live.
// Between them the four variants cover each PrefetcherKind (including
// off) on every shipped workload.
TEST(StreamingParity, MemoryCentricAllEnginesAllWorkloads)
{
    uarch::SimulationConfig config = tinyWindow();
    for (const suites::BenchmarkInfo &b : suites::spec2017())
        for (const uarch::MachineConfig &machine :
             suites::memoryCentricMachines())
            expectParity(b, machine, config);
}

// One full-size window per engine so prefetch trains that only form
// over long streams cross many batch boundaries.
TEST(StreamingParity, MemoryCentricFullWindowSpotChecks)
{
    uarch::SimulationConfig config; // default window, prewarm on
    const suites::BenchmarkInfo &lbm =
        suites::spec2017Benchmark("519.lbm_r");
    for (const uarch::MachineConfig &machine :
         suites::memoryCentricMachines())
        expectParity(lbm, machine, config);
}

// Seed salt and disabled prewarm feed different streams through the
// same collapsing logic; parity must not depend on either.
TEST(StreamingParity, SaltedAndUnwarmedWindows)
{
    const suites::BenchmarkInfo &xz = suites::spec2017Benchmark("657.xz_s");
    const uarch::MachineConfig &machine = suites::profilingMachines()[0];

    uarch::SimulationConfig salted = tinyWindow();
    salted.seed_salt = 0xfeed;
    expectParity(xz, machine, salted);

    uarch::SimulationConfig unwarmed = tinyWindow();
    unwarmed.prewarm = false;
    expectParity(xz, machine, unwarmed);
}

} // namespace
