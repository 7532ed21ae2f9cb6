/**
 * @file
 * Unit and statistical tests for the synthetic trace substrate:
 * workload profiles, address streams, branch streams and the trace
 * generator.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "trace/address_stream.h"
#include "trace/branch_stream.h"
#include "trace/trace_generator.h"
#include "trace/workload_profile.h"

namespace speclens {
namespace trace {
namespace {

WorkloadProfile
testProfile()
{
    WorkloadProfile p;
    p.name = "test.workload";
    return p;
}

// ---------------------------------------------------------------------
// WorkloadProfile validation
// ---------------------------------------------------------------------

TEST(WorkloadProfileTest, DefaultProfileIsValid)
{
    EXPECT_NO_THROW(testProfile().validate());
}

TEST(WorkloadProfileTest, RejectsEmptyName)
{
    WorkloadProfile p = testProfile();
    p.name.clear();
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(WorkloadProfileTest, RejectsOverfullMix)
{
    WorkloadProfile p = testProfile();
    p.mix.load = 0.6;
    p.mix.store = 0.5;
    EXPECT_FALSE(p.mix.valid());
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(WorkloadProfileTest, MixRemainder)
{
    InstructionMix mix;
    mix.load = 0.3;
    mix.store = 0.1;
    mix.branch = 0.1;
    mix.fp = 0.2;
    mix.simd = 0.1;
    EXPECT_NEAR(mix.remainder(), 0.2, 1e-12);
}

TEST(WorkloadProfileTest, RejectsBadWorkingSet)
{
    WorkloadProfile p = testProfile();
    p.memory.data[0].bytes = 10.0; // below one line
    EXPECT_THROW(p.validate(), std::invalid_argument);

    p = testProfile();
    p.memory.data[1].stride_bytes = 32.0; // below one line
    EXPECT_THROW(p.validate(), std::invalid_argument);

    p = testProfile();
    p.memory.hot_code_bytes = p.memory.code_bytes * 2;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(WorkloadProfileTest, RejectsBadBranchModel)
{
    WorkloadProfile p = testProfile();
    p.branch.static_branches = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(WorkloadProfileTest, RejectsBadExecModel)
{
    WorkloadProfile p = testProfile();
    p.exec.mlp = 0.5;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(WorkloadProfileTest, SeedDerivedFromName)
{
    WorkloadProfile a = testProfile();
    WorkloadProfile b = testProfile();
    EXPECT_EQ(a.seed(), b.seed());
    b.name = "other";
    EXPECT_NE(a.seed(), b.seed());
}

// ---------------------------------------------------------------------
// DataAddressStream
// ---------------------------------------------------------------------

TEST(DataAddressStreamTest, AddressesStayInsideRegions)
{
    MemoryModel model;
    DataAddressStream stream(model);
    stats::Rng rng(1);
    for (int i = 0; i < 50000; ++i) {
        std::uint64_t addr = stream.next(rng);
        ASSERT_GE(addr, kDataBase);
        // Which region?
        std::size_t region = (addr - kDataBase) / kDataRegionStride;
        ASSERT_LT(region, model.data.size());
        std::uint64_t offset =
            addr - (kDataBase + region * kDataRegionStride);
        EXPECT_LT(static_cast<double>(offset),
                  model.data[region].bytes);
    }
}

TEST(DataAddressStreamTest, WeightsControlRegionFrequency)
{
    MemoryModel model;
    model.data[0] = {64.0 * 1024, 0.5, 0.0, 64};
    model.data[1] = {64.0 * 1024, 0.5, 0.0, 64};
    model.data[2] = {64.0 * 1024, 0.0, 0.0, 64};
    model.data[3] = {64.0 * 1024, 0.0, 0.0, 64};
    DataAddressStream stream(model);
    stats::Rng rng(2);

    std::map<std::size_t, int> counts;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[(stream.next(rng) - kDataBase) / kDataRegionStride];
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.5, 0.02);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.5, 0.02);
    EXPECT_EQ(counts.count(2), 0u);
    EXPECT_EQ(counts.count(3), 0u);
}

TEST(DataAddressStreamTest, SequentialAccessesShareLines)
{
    // A fully sequential set touches far fewer distinct lines per
    // access than a random one.
    MemoryModel seq_model;
    seq_model.data[0] = {1024.0 * 1024, 1.0, 1.0, 64};
    seq_model.data[1].weight = 0.0;
    seq_model.data[2].weight = 0.0;
    seq_model.data[3].weight = 0.0;
    DataAddressStream stream(seq_model);
    stats::Rng rng(3);

    std::uint64_t prev_line = 0;
    int line_changes = 0;
    const int n = 8000;
    for (int i = 0; i < n; ++i) {
        std::uint64_t line = stream.next(rng) / kLineBytes;
        if (i > 0 && line != prev_line)
            ++line_changes;
        prev_line = line;
    }
    // 8-byte steps: one line change every 8 accesses.
    EXPECT_NEAR(line_changes / static_cast<double>(n), 0.125, 0.01);
}

TEST(DataAddressStreamTest, PageStrideTouchesOneLinePerPage)
{
    MemoryModel model;
    model.data[0] = {40.0 * 4096, 1.0, 0.0, 4096};
    model.data[1].weight = 0.0;
    model.data[2].weight = 0.0;
    model.data[3].weight = 0.0;
    DataAddressStream stream(model);
    stats::Rng rng(4);

    std::set<std::uint64_t> lines, pages;
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t addr = stream.next(rng);
        lines.insert(addr / kLineBytes);
        pages.insert(addr / kPageBytes);
    }
    EXPECT_EQ(lines.size(), pages.size());
    EXPECT_EQ(pages.size(), 40u);
}

// ---------------------------------------------------------------------
// CodeAddressStream
// ---------------------------------------------------------------------

TEST(CodeAddressStreamTest, SequentialFetchAdvancesByFour)
{
    MemoryModel model;
    CodeAddressStream stream(model);
    std::uint64_t first = stream.nextPc();
    EXPECT_EQ(stream.nextPc(), first + 4);
    EXPECT_EQ(stream.nextPc(), first + 8);
}

TEST(CodeAddressStreamTest, PcStaysInCodeRegion)
{
    MemoryModel model;
    model.code_bytes = 4096;
    model.hot_code_bytes = 1024;
    CodeAddressStream stream(model);
    stats::Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        if (i % 7 == 0)
            stream.takeBranch(rng);
        std::uint64_t pc = stream.nextPc();
        EXPECT_GE(pc, kCodeBase);
        EXPECT_LT(pc, kCodeBase + 4096);
    }
}

TEST(CodeAddressStreamTest, LocalityConfinesTargets)
{
    MemoryModel model;
    model.code_bytes = 256 * 1024;
    model.hot_code_bytes = 4096;
    model.code_locality = 1.0; // always jump within the hot region
    CodeAddressStream stream(model);
    stats::Rng rng(6);
    for (int i = 0; i < 5000; ++i) {
        stream.takeBranch(rng);
        std::uint64_t pc = stream.nextPc();
        EXPECT_LT(pc, kCodeBase + 4096);
    }
}

// ---------------------------------------------------------------------
// BranchStream
// ---------------------------------------------------------------------

TEST(BranchStreamTest, TakenFractionConverges)
{
    for (double target : {0.4, 0.55, 0.7}) {
        BranchModel model;
        model.taken_fraction = target;
        stats::Rng rng(7);
        BranchStream stream(model, rng);
        int taken = 0;
        const int n = 60000;
        for (int i = 0; i < n; ++i)
            taken += stream.next(rng).taken;
        EXPECT_NEAR(taken / static_cast<double>(n), target, 0.06)
            << "target " << target;
    }
}

TEST(BranchStreamTest, IdsWithinPopulation)
{
    BranchModel model;
    model.static_branches = 100;
    stats::Rng rng(8);
    BranchStream stream(model, rng);
    EXPECT_EQ(stream.staticCount(), 100u);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(stream.next(rng).id, 100u);
}

TEST(BranchStreamTest, DynamicStreamIsSkewed)
{
    BranchModel model;
    model.static_branches = 1024;
    stats::Rng rng(9);
    BranchStream stream(model, rng);
    std::map<std::uint32_t, int> counts;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        ++counts[stream.next(rng).id];
    // The low quarter of ids should dominate the stream (Zipf skew
    // puts sqrt(1/4) = 50% of mass there).
    int low = 0;
    for (const auto &[id, count] : counts)
        if (id < 256)
            low += count;
    EXPECT_GT(low / static_cast<double>(n), 0.40);
}

TEST(BranchStreamTest, PatternedShareTracksModel)
{
    BranchModel model;
    model.static_branches = 2000;
    model.biased_fraction = 0.5;
    model.patterned_fraction = 0.8;
    stats::Rng rng(10);
    BranchStream stream(model, rng);
    // Static share of patterned = hard (0.5) * patterned (0.8),
    // stratified by dynamic weight so the static share is approximate.
    EXPECT_NEAR(stream.patternedShare(), 0.4, 0.12);
}

TEST(BranchStreamTest, HighBiasMeansPredictableStream)
{
    // With every branch strongly biased, a per-branch majority vote
    // predicts almost every outcome.
    BranchModel model;
    model.biased_fraction = 1.0;
    stats::Rng rng(11);
    BranchStream stream(model, rng);

    std::map<std::uint32_t, std::pair<int, int>> votes; // taken, total
    std::vector<BranchStream::Outcome> outcomes;
    for (int i = 0; i < 40000; ++i) {
        auto o = stream.next(rng);
        outcomes.push_back(o);
        ++votes[o.id].second;
        votes[o.id].first += o.taken;
    }
    int correct = 0;
    for (const auto &o : outcomes) {
        const auto &[taken, total] = votes[o.id];
        bool majority = 2 * taken >= total;
        correct += majority == o.taken;
    }
    EXPECT_GT(correct / static_cast<double>(outcomes.size()), 0.97);
}

// ---------------------------------------------------------------------
// TraceGenerator
// ---------------------------------------------------------------------

TEST(TraceGeneratorTest, DeterministicForSameSeed)
{
    WorkloadProfile p = testProfile();
    TraceGenerator g1(p), g2(p);
    for (int i = 0; i < 5000; ++i) {
        Instruction a = g1.next();
        Instruction b = g2.next();
        EXPECT_EQ(a.pc, b.pc);
        EXPECT_EQ(a.op, b.op);
        EXPECT_EQ(a.address, b.address);
        EXPECT_EQ(a.taken, b.taken);
    }
}

TEST(TraceGeneratorTest, SaltChangesTheStream)
{
    WorkloadProfile p = testProfile();
    TraceGenerator g1(p, 0), g2(p, 1);
    int differences = 0;
    for (int i = 0; i < 1000; ++i) {
        if (g1.next().op != g2.next().op)
            ++differences;
    }
    EXPECT_GT(differences, 0);
}

TEST(TraceGeneratorTest, MixConvergesToProfile)
{
    WorkloadProfile p = testProfile();
    p.mix.load = 0.30;
    p.mix.store = 0.10;
    p.mix.branch = 0.15;
    p.mix.fp = 0.20;
    p.mix.simd = 0.05;
    TraceGenerator gen(p);

    std::map<OpClass, int> counts;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[gen.next().op];

    EXPECT_NEAR(counts[OpClass::Load] / static_cast<double>(n), 0.30,
                0.01);
    EXPECT_NEAR(counts[OpClass::Store] / static_cast<double>(n), 0.10,
                0.01);
    EXPECT_NEAR(counts[OpClass::Branch] / static_cast<double>(n), 0.15,
                0.01);
    EXPECT_NEAR(counts[OpClass::FpAlu] / static_cast<double>(n), 0.20,
                0.01);
    EXPECT_NEAR(counts[OpClass::Simd] / static_cast<double>(n), 0.05,
                0.005);
}

TEST(TraceGeneratorTest, MemoryOpsCarryAddresses)
{
    WorkloadProfile p = testProfile();
    TraceGenerator gen(p);
    for (int i = 0; i < 20000; ++i) {
        Instruction inst = gen.next();
        if (inst.isMemory())
            EXPECT_GE(inst.address, kDataBase);
        else
            EXPECT_EQ(inst.address, 0u);
        if (!inst.isBranch()) {
            EXPECT_FALSE(inst.taken);
        }
    }
}

TEST(TraceGeneratorTest, KernelFractionConverges)
{
    WorkloadProfile p = testProfile();
    p.exec.kernel_fraction = 0.25;
    TraceGenerator gen(p);
    int kernel = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        kernel += gen.next().kernel;
    EXPECT_NEAR(kernel / static_cast<double>(n), 0.25, 0.01);
}

TEST(TraceGeneratorTest, FillReturnsMinOfCountAndCapacity)
{
    WorkloadProfile p = testProfile();
    TraceGenerator gen(p);
    RecordBatch batch;
    EXPECT_EQ(gen.fill(batch, 1234), 1234u);
    EXPECT_EQ(batch.size, 1234u);
    EXPECT_EQ(gen.fill(batch, kRecordBatchCapacity + 1),
              kRecordBatchCapacity);
    EXPECT_EQ(batch.size, kRecordBatchCapacity);
    EXPECT_EQ(gen.fill(batch, 0), 0u);
    EXPECT_EQ(batch.size, 0u);
}

TEST(TraceGeneratorTest, InvalidProfileRejectedAtConstruction)
{
    WorkloadProfile p = testProfile();
    p.mix.load = 2.0;
    EXPECT_THROW(TraceGenerator{p}, std::invalid_argument);
}

TEST(InstructionTest, OpClassNames)
{
    EXPECT_EQ(opClassName(OpClass::Load), "load");
    EXPECT_EQ(opClassName(OpClass::Branch), "branch");
    EXPECT_EQ(opClassName(OpClass::Simd), "simd");
}

} // namespace
} // namespace trace
} // namespace speclens
