/**
 * @file
 * Shipped lint rules.
 *
 * Each rule walks one slice of the calibration data (workload models,
 * machine configurations, cross-reference tables) and reports findings
 * under its stable code.  Thresholds encode either hard physical
 * constraints (probabilities, monotone hierarchies) or the published
 * envelopes of the paper's Tables I/II.
 */

#include "rules.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/artifact_store.h"
#include "core/characterization.h"
#include "core/perf_trajectory.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "stats/normalize.h"
#include "suites/emerging.h"
#include "suites/input_sets.h"
#include "suites/machines.h"
#include "suites/spec2006.h"
#include "suites/spec2017.h"
#include "uarch/perf_counters.h"

namespace speclens {
namespace lint {

namespace {

std::string
num(double v)
{
    std::ostringstream out;
    out << v;
    return out.str();
}

bool
inUnit(double v)
{
    return std::isfinite(v) && v >= 0.0 && v <= 1.0;
}

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Shared emit helper bound to one rule's code. */
class RuleBase : public Rule
{
  protected:
    void
    emit(std::vector<Diagnostic> &out, Severity severity,
         std::string location, std::string message,
         std::string fix_hint = "") const
    {
        out.push_back(Diagnostic{code(), severity, std::move(location),
                                 std::move(message),
                                 std::move(fix_hint)});
    }

    void
    error(std::vector<Diagnostic> &out, std::string location,
          std::string message, std::string fix_hint = "") const
    {
        emit(out, Severity::Error, std::move(location),
             std::move(message), std::move(fix_hint));
    }
};

// ====================================================================
// Workload-model rules (SL001-SL006): run over every benchmark of
// every database, including input-set variants where applicable.
// ====================================================================

class MixRangeRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL001"; }
    std::string name() const override { return "mix-range"; }
    std::string
    description() const override
    {
        return "instruction-mix fractions lie in [0,1] and leave a "
               "non-negative integer-ALU remainder";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        for (const suites::BenchmarkInfo *b : context.allBenchmarks()) {
            const trace::InstructionMix &mix = b->profile.mix;
            const struct
            {
                const char *field;
                double value;
            } fields[] = {
                {"mix.load", mix.load},     {"mix.store", mix.store},
                {"mix.branch", mix.branch}, {"mix.fp", mix.fp},
                {"mix.simd", mix.simd},
            };
            for (const auto &f : fields) {
                if (!inUnit(f.value)) {
                    error(out, b->name + "/" + f.field,
                          "mix fraction is " + num(f.value) +
                              ", outside [0, 1]",
                          "Table I percentages divided by 100 must be "
                          "probabilities");
                }
            }
            if (std::isfinite(mix.remainder()) &&
                mix.remainder() < 0.0) {
                error(out, b->name + "/mix",
                      "mix fractions sum to " +
                          num(1.0 - mix.remainder()) +
                          " > 1: no room for integer-ALU ops",
                      "load+store+branch+fp+simd must stay <= 1");
            }
        }
    }
};

class MixSumRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL002"; }
    std::string name() const override { return "mix-sum"; }
    std::string
    description() const override
    {
        return "working-set mixture weights are positive and sum to 1 "
               "within tolerance";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        // The tlb_stress knob deliberately inflates the vast-set
        // weight by up to (1 + stress); vast weights are <= 0.013, so
        // a 2% tolerance accepts every legitimate preset while
        // catching genuinely broken mixtures.
        constexpr double kTolerance = 0.02;
        for (const suites::BenchmarkInfo *b : context.allBenchmarks()) {
            double total = 0.0;
            bool weights_ok = true;
            for (std::size_t i = 0; i < b->profile.memory.data.size();
                 ++i) {
                double w = b->profile.memory.data[i].weight;
                if (!std::isfinite(w) || w <= 0.0) {
                    error(out,
                          b->name + "/memory.data[" +
                              std::to_string(i) + "].weight",
                          "working-set weight is " + num(w),
                          "every mixture component needs a positive "
                          "weight");
                    weights_ok = false;
                }
                total += w;
            }
            if (weights_ok &&
                std::fabs(total - 1.0) > kTolerance) {
                error(out, b->name + "/memory.data",
                      "working-set weights sum to " + num(total) +
                          ", expected 1 within " + num(kTolerance),
                      "renormalise the dataPreset() mixture row");
            }
        }
    }
};

class CpiComponentsRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL003"; }
    std::string name() const override { return "cpi-components"; }
    std::string
    description() const override
    {
        return "CPI components are non-negative, MLP >= 1 and the "
               "instruction count is positive";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        for (const suites::BenchmarkInfo *b : context.allBenchmarks()) {
            const trace::ExecutionModel &e = b->profile.exec;
            if (!std::isfinite(e.base_cpi) || e.base_cpi <= 0.0)
                error(out, b->name + "/exec.base_cpi",
                      "base CPI is " + num(e.base_cpi) +
                          ", must be positive",
                      "every instruction costs at least issue "
                      "bandwidth");
            if (!std::isfinite(e.dependency_cpi) ||
                e.dependency_cpi < 0.0)
                error(out, b->name + "/exec.dependency_cpi",
                      "dependency CPI is " + num(e.dependency_cpi) +
                          ", must be >= 0");
            if (!std::isfinite(e.mlp) || e.mlp < 1.0)
                error(out, b->name + "/exec.mlp",
                      "MLP divisor is " + num(e.mlp) +
                          ", must be >= 1",
                      "1 means fully serialised misses; below 1 would "
                      "amplify penalties");
            if (!inUnit(e.kernel_fraction))
                error(out, b->name + "/exec.kernel_fraction",
                      "kernel fraction is " + num(e.kernel_fraction) +
                          ", outside [0, 1]");
            double icount = b->profile.dynamic_instructions_billions;
            if (!std::isfinite(icount) || icount <= 0.0)
                error(out, b->name + "/dynamic_instructions_billions",
                      "instruction count is " + num(icount) +
                          " billion, must be positive");
        }
    }
};

class WorkingSetShapeRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL004"; }
    std::string name() const override { return "working-set-shape"; }
    std::string
    description() const override
    {
        return "working-set sizes increase hot->vast and strides are "
               "line-granular";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        for (const suites::BenchmarkInfo *b : context.allBenchmarks()) {
            const auto &data = b->profile.memory.data;
            for (std::size_t i = 0; i < data.size(); ++i) {
                std::string loc = b->name + "/memory.data[" +
                                  std::to_string(i) + "]";
                if (!std::isfinite(data[i].bytes) ||
                    data[i].bytes < 64.0)
                    error(out, loc + ".bytes",
                          "footprint is " + num(data[i].bytes) +
                              " bytes, below one cache line");
                if (!std::isfinite(data[i].stride_bytes) ||
                    data[i].stride_bytes < 64.0)
                    error(out, loc + ".stride_bytes",
                          "stride is " + num(data[i].stride_bytes) +
                              " bytes, below one cache line");
                else if (data[i].bytes < data[i].stride_bytes)
                    error(out, loc,
                          "footprint " + num(data[i].bytes) +
                              " is smaller than its stride " +
                              num(data[i].stride_bytes),
                          "a set must contain at least one element");
                if (!inUnit(data[i].sequential))
                    error(out, loc + ".sequential",
                          "sequential fraction is " +
                              num(data[i].sequential) +
                              ", outside [0, 1]");
                if (i > 0 && data[i].bytes <= data[i - 1].bytes)
                    error(out, loc + ".bytes",
                          "set sizes must increase hot -> vast, but " +
                              num(data[i].bytes) + " <= " +
                              num(data[i - 1].bytes),
                          "the mixture is ordered by the cache level "
                          "that captures each set");
            }
        }
    }
};

class CodeModelRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL005"; }
    std::string name() const override { return "code-model"; }
    std::string
    description() const override
    {
        return "hot code fits inside the code footprint and code "
               "locality is a probability";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        for (const suites::BenchmarkInfo *b : context.allBenchmarks()) {
            const trace::MemoryModel &m = b->profile.memory;
            if (!std::isfinite(m.code_bytes) || m.code_bytes < 64.0)
                error(out, b->name + "/memory.code_bytes",
                      "code footprint is " + num(m.code_bytes) +
                          " bytes, below one cache line");
            if (!std::isfinite(m.hot_code_bytes) ||
                m.hot_code_bytes < 64.0)
                error(out, b->name + "/memory.hot_code_bytes",
                      "hot code region is " + num(m.hot_code_bytes) +
                          " bytes, below one cache line");
            else if (m.hot_code_bytes > m.code_bytes)
                error(out, b->name + "/memory.hot_code_bytes",
                      "hot code region (" + num(m.hot_code_bytes) +
                          " bytes) exceeds the code footprint (" +
                          num(m.code_bytes) + " bytes)",
                      "the hot loop nest is a subset of the static "
                      "code");
            if (!inUnit(m.code_locality))
                error(out, b->name + "/memory.code_locality",
                      "code locality is " + num(m.code_locality) +
                          ", outside [0, 1]");
        }
    }
};

class BranchModelRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL006"; }
    std::string name() const override { return "branch-model"; }
    std::string
    description() const override
    {
        return "branch-population fractions are probabilities and the "
               "static population is sane";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        for (const suites::BenchmarkInfo *b : context.allBenchmarks()) {
            const trace::BranchModel &br = b->profile.branch;
            if (br.static_branches == 0 ||
                br.static_branches > (1u << 20))
                error(out, b->name + "/branch.static_branches",
                      "static branch population is " +
                          std::to_string(br.static_branches),
                      "expected between 1 and 2^20 static branches");
            const struct
            {
                const char *field;
                double value;
            } fields[] = {
                {"branch.taken_fraction", br.taken_fraction},
                {"branch.biased_fraction", br.biased_fraction},
                {"branch.patterned_fraction", br.patterned_fraction},
            };
            for (const auto &f : fields)
                if (!inUnit(f.value))
                    error(out, b->name + "/" + f.field,
                          std::string(f.field) + " is " + num(f.value) +
                              ", outside [0, 1]");
        }
    }
};

// ====================================================================
// Machine rules (SL007-SL011): the seven Table IV configurations.
// ====================================================================

class CacheMonotonicityRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL007"; }
    std::string name() const override { return "cache-monotonic"; }
    std::string
    description() const override
    {
        return "cache capacity and visible latency grow with the "
               "hierarchy level";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        for (const uarch::MachineConfig &m : context.machines) {
            const std::string loc = "machine:" + m.short_name;
            const uarch::CacheHierarchyConfig &c = m.caches;
            if (c.l2.size_bytes < c.l1d.size_bytes ||
                c.l2.size_bytes < c.l1i.size_bytes)
                error(out, loc + "/caches.l2",
                      "L2 (" + num(double(c.l2.size_bytes)) +
                          " bytes) is smaller than an L1",
                      "capacity must not shrink with level");
            if (c.l3 && c.l3->size_bytes <= c.l2.size_bytes)
                error(out, loc + "/caches.l3",
                      "L3 (" + num(double(c.l3->size_bytes)) +
                          " bytes) is not larger than L2 (" +
                          num(double(c.l2.size_bytes)) + " bytes)",
                      "drop the level instead of shrinking it");
            const std::uint32_t line = c.l1d.line_bytes;
            for (const uarch::CacheConfig *cache :
                 {&c.l1i, &c.l2, c.l3 ? &*c.l3 : nullptr}) {
                if (cache && cache->line_bytes != line)
                    error(out, loc + "/caches." + cache->name,
                          "line size " +
                              std::to_string(cache->line_bytes) +
                              " differs from L1D's " +
                              std::to_string(line),
                          "mixed line sizes break inclusive fills");
            }

            const uarch::LatencyModel &lat = m.latencies;
            if (!(lat.l2_hit_cycles > 0.0 &&
                  lat.l3_hit_cycles > lat.l2_hit_cycles &&
                  lat.memory_cycles > lat.l3_hit_cycles))
                error(out, loc + "/latencies",
                      "visible latencies must increase with depth: "
                      "L2 " + num(lat.l2_hit_cycles) + ", L3 " +
                          num(lat.l3_hit_cycles) + ", memory " +
                          num(lat.memory_cycles));
            if (lat.mispredict_penalty <= 0.0 ||
                lat.icache_l2_penalty <= 0.0 ||
                lat.l2tlb_hit_cycles <= 0.0 ||
                lat.page_walk_cycles <= lat.l2tlb_hit_cycles)
                error(out, loc + "/latencies",
                      "front-end and TLB penalties must be positive "
                      "and a page walk must cost more than an L2 TLB "
                      "hit");
        }
    }
};

class CacheGeometryRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL008"; }
    std::string name() const override { return "cache-geometry"; }
    std::string
    description() const override
    {
        return "every cache has a power-of-two line size and a "
               "geometry its ways divide evenly";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        for (const uarch::MachineConfig &m : context.machines) {
            const uarch::CacheHierarchyConfig &c = m.caches;
            for (const uarch::CacheConfig *cache :
                 {&c.l1i, &c.l1d, &c.l2, c.l3 ? &*c.l3 : nullptr}) {
                if (!cache)
                    continue;
                checkCache(out, m.short_name, *cache);
            }
        }
    }

  private:
    void
    checkCache(std::vector<Diagnostic> &out,
               const std::string &machine,
               const uarch::CacheConfig &cache) const
    {
        const std::string loc =
            "machine:" + machine + "/caches." + cache.name;
        if (!isPowerOfTwo(cache.line_bytes) || cache.line_bytes < 16 ||
            cache.line_bytes > 256) {
            error(out, loc,
                  "line size " + std::to_string(cache.line_bytes) +
                      " is not a power of two in [16, 256]");
            return;
        }
        if (cache.associativity == 0) {
            error(out, loc, "associativity is zero");
            return;
        }
        std::uint64_t way_bytes =
            std::uint64_t(cache.line_bytes) * cache.associativity;
        if (cache.size_bytes == 0 ||
            cache.size_bytes % way_bytes != 0)
            error(out, loc,
                  "capacity " + std::to_string(cache.size_bytes) +
                      " is not a multiple of line size x ways (" +
                      std::to_string(way_bytes) + ")",
                  "sets() would truncate and silently drop capacity");
        else if (cache.size_bytes / way_bytes == 0)
            error(out, loc, "geometry yields zero sets");
        if (std::uint64_t(cache.associativity) * cache.line_bytes >
            cache.size_bytes)
            error(out, loc,
                  "more ways than lines: associativity " +
                      std::to_string(cache.associativity) +
                      " exceeds capacity / line size");
    }
};

class TlbConfigRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL009"; }
    std::string name() const override { return "tlb-config"; }
    std::string
    description() const override
    {
        return "TLB entries/ways/page sizes are sane and a shared L2 "
               "TLB covers the L1 TLBs";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        for (const uarch::MachineConfig &m : context.machines) {
            const uarch::TlbHierarchyConfig &t = m.tlbs;
            checkTlb(out, m.short_name, t.itlb);
            checkTlb(out, m.short_name, t.dtlb);
            if (!t.l2tlb)
                continue;
            checkTlb(out, m.short_name, *t.l2tlb);
            const std::string loc =
                "machine:" + m.short_name + "/tlbs." + t.l2tlb->name;
            if (t.l2tlb->entries < t.itlb.entries ||
                t.l2tlb->entries < t.dtlb.entries)
                error(out, loc,
                      "second-level TLB (" +
                          std::to_string(t.l2tlb->entries) +
                          " entries) is smaller than a first-level "
                          "TLB",
                      "a victim/second-level TLB must cover what the "
                      "L1 TLBs hold");
            if (t.l2tlb->page_bytes != t.itlb.page_bytes ||
                t.l2tlb->page_bytes != t.dtlb.page_bytes)
                error(out, loc,
                      "page size differs between TLB levels");
        }
    }

  private:
    void
    checkTlb(std::vector<Diagnostic> &out, const std::string &machine,
             const uarch::TlbConfig &tlb) const
    {
        const std::string loc =
            "machine:" + machine + "/tlbs." + tlb.name;
        if (tlb.entries == 0) {
            error(out, loc, "TLB has zero entries");
            return;
        }
        if (tlb.associativity == 0 ||
            tlb.associativity > tlb.entries)
            error(out, loc,
                  "associativity " +
                      std::to_string(tlb.associativity) +
                      " is outside [1, entries=" +
                      std::to_string(tlb.entries) + "]",
                  "use entries for a fully associative TLB");
        else if (tlb.entries % tlb.associativity != 0)
            error(out, loc,
                  "entries " + std::to_string(tlb.entries) +
                      " are not a multiple of associativity " +
                      std::to_string(tlb.associativity));
        if (!isPowerOfTwo(tlb.page_bytes) || tlb.page_bytes < 4096)
            error(out, loc,
                  "page size " + std::to_string(tlb.page_bytes) +
                      " is not a power of two >= 4096");
    }
};

class MachineConfigRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL010"; }
    std::string name() const override { return "machine-config"; }
    std::string
    description() const override
    {
        return "frequency, predictor size and power coefficients are "
               "in plausible hardware ranges";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        std::set<std::string> short_names;
        for (const uarch::MachineConfig &m : context.machines) {
            const std::string loc = "machine:" + m.short_name;
            if (m.short_name.empty() || m.name.empty())
                error(out, loc, "machine has an empty name");
            else if (!short_names.insert(m.short_name).second)
                error(out, loc,
                      "duplicate machine short name '" + m.short_name +
                          "'",
                      "short names key the per-machine feature "
                      "columns");
            if (!std::isfinite(m.frequency_ghz) ||
                m.frequency_ghz < 0.5 || m.frequency_ghz > 6.0)
                error(out, loc + "/frequency_ghz",
                      "clock of " + num(m.frequency_ghz) +
                          " GHz is outside the plausible [0.5, 6] "
                          "range");
            if (m.predictor_size_log2 < 8 ||
                m.predictor_size_log2 > 20)
                error(out, loc + "/predictor_size_log2",
                      "predictor table of 2^" +
                          std::to_string(m.predictor_size_log2) +
                          " entries is outside [2^8, 2^20]");
            const uarch::PowerModelConfig &p = m.power;
            if (p.core_static_watts <= 0.0 ||
                p.energy_per_instruction_nj <= 0.0 ||
                p.llc_static_watts <= 0.0 ||
                p.dram_static_watts <= 0.0 ||
                p.llc_access_energy_nj <= 0.0 ||
                p.dram_access_energy_nj <= 0.0)
                error(out, loc + "/power",
                      "static power and per-event energies must be "
                      "positive");
            if (std::fabs(p.frequency_ghz - m.frequency_ghz) > 1e-9)
                error(out, loc + "/power.frequency_ghz",
                      "power-model clock (" + num(p.frequency_ghz) +
                          " GHz) disagrees with the machine clock (" +
                          num(m.frequency_ghz) + " GHz)",
                      "set power.frequency_ghz = frequency_ghz when "
                      "building the machine");
        }
    }
};

class TransformRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL011"; }
    std::string name() const override { return "transform"; }
    std::string
    description() const override
    {
        return "ISA/compiler transforms stay in range and keep every "
               "CPU2017 mix valid";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        for (const uarch::MachineConfig &m : context.machines) {
            const std::string loc =
                "machine:" + m.short_name + "/transform";
            const uarch::WorkloadTransform &t = m.transform;
            const struct
            {
                const char *field;
                double value;
            } scales[] = {
                {"memory_mix_scale", t.memory_mix_scale},
                {"branch_mix_scale", t.branch_mix_scale},
                {"code_scale", t.code_scale},
            };
            for (const auto &s : scales)
                if (!std::isfinite(s.value) || s.value < 0.5 ||
                    s.value > 2.0)
                    error(out, loc + "." + s.field,
                          std::string(s.field) + " is " +
                              num(s.value) +
                              ", outside the plausible [0.5, 2] "
                              "range",
                          "ISA/compiler effects perturb mixes by tens "
                          "of percent, not orders of magnitude");
            if (!std::isfinite(t.mix_jitter) || t.mix_jitter < 0.0 ||
                t.mix_jitter > 0.1)
                error(out, loc + ".mix_jitter",
                      "mix jitter of " + num(t.mix_jitter) +
                          " is outside [0, 0.1]",
                      "jitter models submitter-to-submitter compiler "
                      "noise of a few percent");

            // The transform must keep every calibrated mix a valid
            // probability mix, or the trace generator downstream
            // samples from garbage.
            for (const suites::BenchmarkInfo &b : context.cpu2017) {
                trace::WorkloadProfile transformed =
                    uarch::transformForMachine(b.profile, m);
                if (!transformed.mix.valid())
                    error(out, b.name + "@" + m.short_name,
                          "machine transform turns the mix invalid "
                          "(sum > 1 or negative fraction)",
                          "shrink the transform scales");
            }
        }
    }
};

// ====================================================================
// Cross-reference rules (SL012-SL014).
// ====================================================================

class CrossReferenceRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL012"; }
    std::string name() const override { return "cross-reference"; }
    std::string
    description() const override
    {
        return "rate/speed partner links resolve symmetrically and "
               "names/ids/category counts match the suite";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        // Name uniqueness across all databases: analyses key caches
        // and feature rows by name.
        std::set<std::string> names;
        for (const suites::BenchmarkInfo *b : context.allBenchmarks())
            if (!names.insert(b->name).second)
                error(out, b->name,
                      "duplicate benchmark name across databases",
                      "names key the measurement cache and feature "
                      "rows");

        std::set<int> ids;
        std::size_t per_category[4] = {0, 0, 0, 0};
        for (const suites::BenchmarkInfo &b : context.cpu2017) {
            if (b.id != 0 && !ids.insert(b.id).second)
                error(out, b.name,
                      "duplicate SPEC id " + std::to_string(b.id));
            switch (b.category) {
              case suites::Category::SpeedInt: ++per_category[0]; break;
              case suites::Category::RateInt: ++per_category[1]; break;
              case suites::Category::SpeedFp: ++per_category[2]; break;
              case suites::Category::RateFp: ++per_category[3]; break;
              default:
                error(out, b.name,
                      "CPU2017 benchmark carries a non-CPU2017 "
                      "category");
            }
            checkPartner(out, context, b);
        }

        // Table I composition: 10 speed INT, 10 rate INT, 10 speed
        // FP, 13 rate FP.
        const struct
        {
            const char *label;
            std::size_t expected;
            std::size_t actual;
        } counts[] = {
            {"speed INT", 10, per_category[0]},
            {"rate INT", 10, per_category[1]},
            {"speed FP", 10, per_category[2]},
            {"rate FP", 13, per_category[3]},
        };
        for (const auto &c : counts)
            if (c.actual != c.expected)
                error(out, "cpu2017",
                      std::string(c.label) + " has " +
                          std::to_string(c.actual) +
                          " benchmarks, Table I lists " +
                          std::to_string(c.expected));
    }

  private:
    void
    checkPartner(std::vector<Diagnostic> &out,
                 const LintContext &context,
                 const suites::BenchmarkInfo &b) const
    {
        if (b.partner.empty())
            return;
        const suites::BenchmarkInfo *partner = nullptr;
        for (const suites::BenchmarkInfo &other : context.cpu2017)
            if (other.name == b.partner)
                partner = &other;
        if (!partner) {
            error(out, b.name + "/partner",
                  "rate/speed partner '" + b.partner +
                      "' does not resolve in the CPU2017 database");
            return;
        }
        if (partner->partner != b.name)
            error(out, b.name + "/partner",
                  "partnership is not symmetric: " + partner->name +
                      " points at '" + partner->partner + "'");
        bool b_speed = suites::isSpeedCategory(b.category);
        bool p_speed = suites::isSpeedCategory(partner->category);
        bool b_fp = suites::isFpCategory(b.category);
        bool p_fp = suites::isFpCategory(partner->category);
        if (b_speed == p_speed || b_fp != p_fp)
            error(out, b.name + "/partner",
                  "rate/speed pair categories disagree (" +
                      suites::categoryName(b.category) + " vs " +
                      suites::categoryName(partner->category) + ")",
                  "a speed benchmark pairs with the rate benchmark "
                  "of the same INT/FP class");
    }
};

class InputSetRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL013"; }
    std::string name() const override { return "input-sets"; }
    std::string
    description() const override
    {
        return "input-set groups resolve to CPU2017 benchmarks with "
               "the declared variant counts and valid models";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        for (const suites::InputSetGroup &group :
             context.input_groups) {
            const std::string &base = group.benchmark.name;
            bool resolves = false;
            for (const suites::BenchmarkInfo &b : context.cpu2017)
                if (b.name == base)
                    resolves = true;
            if (!resolves)
                error(out, base,
                      "input-set group benchmark does not resolve in "
                      "the CPU2017 database");

            int declared = suites::inputSetCount(base);
            if (group.inputs.size() !=
                static_cast<std::size_t>(declared))
                error(out, base + "/inputs",
                      "group carries " +
                          std::to_string(group.inputs.size()) +
                          " variants but inputSetCount() declares " +
                          std::to_string(declared));

            for (std::size_t k = 0; k < group.inputs.size(); ++k) {
                const suites::BenchmarkInfo &v = group.inputs[k];
                std::string expected =
                    group.inputs.size() == 1
                        ? base
                        : base + "#" + std::to_string(k + 1);
                if (v.name != expected)
                    error(out, v.name,
                          "variant name does not follow the '" +
                              base + "#k' convention (expected " +
                              expected + ")");
                try {
                    v.profile.validate();
                } catch (const std::invalid_argument &ex) {
                    error(out, v.name,
                          std::string("variant model is invalid: ") +
                              ex.what());
                }
            }
        }
    }
};

class ScoreDatabaseRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL014"; }
    std::string name() const override { return "score-database"; }
    std::string
    description() const override
    {
        return "every (system, benchmark) speedup and suite score is "
               "finite and positive";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        const suites::Category categories[] = {
            suites::Category::SpeedInt, suites::Category::RateInt,
            suites::Category::SpeedFp, suites::Category::RateFp};
        for (suites::Category category : categories) {
            const auto &systems =
                context.scores.systemsFor(category);
            if (systems.empty()) {
                error(out,
                      "scores/" + suites::categoryName(category),
                      "no commercial systems for the category",
                      "validateSubset() divides by the system count");
                continue;
            }
            for (const suites::CommercialSystem &system : systems) {
                if (!(system.noise_sigma >= 0.0))
                    error(out, "scores/" + system.name,
                          "submission noise sigma is " +
                              num(system.noise_sigma));
                for (const suites::BenchmarkInfo &b :
                     context.cpu2017) {
                    if (b.category != category)
                        continue;
                    double s = context.scores.speedup(system, b);
                    if (!std::isfinite(s) || s <= 0.0)
                        error(out,
                              "scores/" + system.name + "/" + b.name,
                              "speedup is " + num(s) +
                                  ", must be finite and positive",
                              "check the benchmark's traits "
                              "(deriveTraits) for NaNs");
                }
            }
        }
    }
};

// ====================================================================
// Paper-bound rule (SL015).
// ====================================================================

class PaperBoundsRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL015"; }
    std::string name() const override { return "paper-bounds"; }
    std::string
    description() const override
    {
        return "calibrated and simulated metrics stay inside the "
               "Table I/II envelopes";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        for (const suites::BenchmarkInfo &b : context.cpu2017) {
            // Table I CPIs on Skylake span 0.31 (x264) to 1.39
            // (omnetpp); anything outside [0.2, 3] is a typo.
            if (!std::isfinite(b.published_cpi) ||
                b.published_cpi < 0.2 || b.published_cpi > 3.0)
                error(out, b.name + "/published_cpi",
                      "published Skylake CPI of " +
                          num(b.published_cpi) +
                          " is outside the Table I envelope "
                          "[0.2, 3]");
            else {
                double fixed = b.profile.exec.base_cpi +
                               b.profile.exec.dependency_cpi;
                if (fixed > b.published_cpi + 1e-9)
                    error(out, b.name + "/exec",
                          "base + dependency CPI (" + num(fixed) +
                              ") exceeds the published total CPI (" +
                              num(b.published_cpi) + ")",
                          "leave headroom for the simulated stall "
                          "components");
            }
            // Table I mixes: loads up to ~50%, stores up to ~25%,
            // branches up to ~33% (xalancbmk).
            const trace::InstructionMix &mix = b.profile.mix;
            if (mix.load > 0.55 || mix.store > 0.30 ||
                mix.branch > 0.40)
                error(out, b.name + "/mix",
                      "mix exceeds the Table I envelope (load " +
                          num(mix.load) + ", store " +
                          num(mix.store) + ", branch " +
                          num(mix.branch) + ")");
        }

        if (!context.deep) {
            emit(out, Severity::Info, "cpu2017",
                 "simulation-backed Table II checks skipped "
                 "(deep checks disabled)");
            return;
        }
        deepChecks(context, out);
    }

  private:
    void
    deepChecks(const LintContext &context,
               std::vector<Diagnostic> &out) const
    {
        // Measure every CPU2017 benchmark on the simulated Skylake
        // and hold the derived metrics against the Table II envelope,
        // widened for short-window noise.  A benchmark escaping these
        // bounds means its preset drifted out of calibration even
        // though every structural check passes.
        core::CharacterizationConfig config;
        config.instructions = context.instructions;
        config.warmup = context.warmup;
        config.jobs = context.jobs;
        core::Characterizer characterizer(
            {suites::skylakeMachine()}, config);
        characterizer.prepare(context.cpu2017);

        for (const suites::BenchmarkInfo &b : context.cpu2017) {
            const uarch::SimulationResult &sim =
                characterizer.simulation(b, 0);
            core::MetricVector mv = core::extractMetrics(sim);
            const std::string loc = b.name + "@skylake";

            double cpi = sim.cpi();
            if (!std::isfinite(cpi) || cpi <= 0.0) {
                error(out, loc,
                      "simulated CPI is " + num(cpi),
                      "the CPI stack must sum to a positive total");
                continue;
            }
            if (b.published_cpi > 0.0) {
                double ratio = cpi / b.published_cpi;
                if (ratio < 0.25 || ratio > 4.0)
                    error(out, loc,
                          "simulated CPI " + num(cpi) + " is " +
                              num(ratio) +
                              "x the published Table I CPI " +
                              num(b.published_cpi),
                          "recalibrate the preset's locality / CPI "
                          "knobs");
            }

            const struct
            {
                core::Metric metric;
                double bound;
                const char *label;
            } envelope[] = {
                // Table II tops out at 98.4 L1D / 11.6 L1I / 5 L3 /
                // 8.4 branch MPKI; the margins absorb window noise.
                {core::Metric::L1dMpki, 160.0, "L1D MPKI"},
                {core::Metric::L1iMpki, 30.0, "L1I MPKI"},
                {core::Metric::L3Mpki, 15.0, "L3 MPKI"},
                {core::Metric::BranchMpki, 15.0, "branch MPKI"},
            };
            for (const auto &e : envelope) {
                double v = mv.get(e.metric);
                if (!std::isfinite(v) || v < 0.0 || v > e.bound)
                    error(out, loc,
                          std::string(e.label) + " of " + num(v) +
                              " escapes the Table II envelope "
                              "(<= " + num(e.bound) + ")",
                          "CPU2017 shows strong level-by-level "
                          "filtering; check the locality preset");
            }
        }
    }
};

// ====================================================================
// Store-integrity rule (SL016).
// ====================================================================

class StoreIntegrityRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL016"; }
    std::string name() const override { return "store-integrity"; }
    std::string
    description() const override
    {
        return "artifact-store entries are checksum-clean and still "
               "re-derivable from the shipped models";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        if (context.store_dir.empty()) {
            emit(out, Severity::Info, "store",
                 "store integrity skipped (no --store directory "
                 "given)");
            return;
        }

        // Every profile an entry could legitimately describe: the
        // three databases plus the Fig. 7/8 input-set variants.
        std::map<std::string, const trace::WorkloadProfile *> profiles;
        for (const suites::BenchmarkInfo *b : context.allBenchmarks())
            profiles.emplace(b->profile.name, &b->profile);
        for (const suites::InputSetGroup &g : context.input_groups)
            for (const suites::BenchmarkInfo &v : g.inputs)
                profiles.emplace(v.profile.name, &v.profile);

        std::map<std::string, const uarch::MachineConfig *> machines;
        for (const uarch::MachineConfig &m : context.machines)
            machines.emplace(m.name, &m);

        core::CampaignStore store(context.store_dir);
        std::size_t healthy = 0;
        for (const core::StoreEntryInfo &info : store.scan()) {
            const std::string loc = "store/" + info.filename;
            switch (info.status) {
              case core::StoreStatus::Corrupt:
                error(out, loc, "corrupt entry: " + info.detail,
                      "delete it with `speclens campaign invalidate "
                      "stale --store DIR` (it will be recomputed)");
                continue;
              case core::StoreStatus::FingerprintMismatch:
                error(out, loc,
                      "entry does not belong under its file name: " +
                          info.detail,
                      "entries must not be renamed; invalidate stale "
                      "entries and re-run the campaign");
                continue;
              case core::StoreStatus::StaleVersion:
                emit(out, Severity::Warning, loc,
                     "stale entry: " + info.detail,
                     "re-run the campaign to refresh it");
                continue;
              default:
                break;
            }

            // Consistent on disk; now hold it against the shipped
            // models.  Derived workloads (phased ground truths and
            // "@k" phase probes) cannot be re-derived without their
            // derivation parameters, so only their base name is
            // checked.
            std::string base = info.benchmark;
            std::string::size_type at = base.find('@');
            bool derived = info.phases > 0 || at != std::string::npos;
            if (at != std::string::npos)
                base = base.substr(0, at);

            auto machine = machines.find(info.machine);
            auto profile = profiles.find(base);
            if (machine == machines.end() ||
                profile == profiles.end()) {
                emit(out, Severity::Warning, loc,
                     "orphaned entry: " +
                         (machine == machines.end()
                              ? "machine '" + info.machine + "'"
                              : "benchmark '" + base + "'") +
                         " is not a shipped model",
                     "written by an ad-hoc configuration; invalidate "
                     "if unwanted");
                continue;
            }
            if (!derived) {
                uarch::SimulationConfig window;
                window.instructions = info.instructions;
                window.warmup = info.warmup;
                window.seed_salt = info.seed_salt;
                window.apply_machine_transform =
                    info.apply_machine_transform;
                window.prewarm = info.prewarm;
                core::StoreKey expect = core::makeStoreKey(
                    *profile->second, *machine->second, window);
                if (expect.fingerprint != info.fingerprint) {
                    emit(out, Severity::Warning, loc,
                         "stale entry: the shipped model of '" +
                             info.benchmark + "' on '" + info.machine +
                             "' no longer produces this fingerprint",
                         "the model changed since the entry was "
                         "written; invalidate and re-run");
                    continue;
                }
            }
            ++healthy;
        }
        emit(out, Severity::Info, "store",
             std::to_string(healthy) +
                 " healthy entries in " + context.store_dir);
    }
};

// ====================================================================
// Degenerate-feature rule (SL017).
// ====================================================================

class DegenerateFeaturesRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL017"; }
    std::string name() const override { return "degenerate-features"; }
    std::string
    description() const override
    {
        return "every CPU2017 feature column varies across the suite "
               "(zero-variance columns are zeroed by normalization)";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        if (!context.deep) {
            emit(out, Severity::Info, "features",
                 "degenerate-feature check skipped (deep checks "
                 "disabled)");
            return;
        }

        // The same feature matrix the similarity pipeline consumes:
        // CPU2017 on the simulated Skylake.  zscoreWith() maps a
        // zero-variance column to all-zeros — mathematically forced,
        // but a feature that never varies across 20 benchmarks means
        // the underlying counter model is dead, so it must be
        // surfaced, never silent (that silence was a real bug).
        core::CharacterizationConfig config;
        config.instructions = context.instructions;
        config.warmup = context.warmup;
        config.jobs = context.jobs;
        core::Characterizer characterizer({suites::skylakeMachine()},
                                          config);
        stats::Matrix features =
            characterizer.featureMatrix(context.cpu2017);
        std::vector<std::string> names = characterizer.featureNames();

        stats::NormalizeReport report;
        // Label the columns up front so a degenerate one is reported
        // as its machine.metric feature name, never a bare index.
        report.column_labels = names;
        (void)stats::zscore(features, &report);
        for (std::size_t c : report.degenerate_columns) {
            emit(out, Severity::Warning,
                 "features/" + report.describe(c),
                 "feature column " + report.describe(c) +
                     " has zero variance across CPU2017 and is "
                     "zeroed by normalization",
                 "a counter that never varies usually means a dead "
                 "metric model; recalibrate or drop the metric");
        }
        emit(out, Severity::Info, "features",
             std::to_string(features.cols() -
                            report.degenerate_columns.size()) +
                 " of " + std::to_string(features.cols()) +
                 " feature columns vary across CPU2017");
    }
};

// ====================================================================
// Artifact-lint family (SL018-SL024): structural re-audit of on-disk
// artifacts — store entries, BENCH_<pr>.json trajectory files and the
// run manifest.  These rules re-open what past runs persisted and
// hold it against the same invariants the live simulator satisfies,
// so silent corruption (bad serialization, hand edits, drifted
// constants) cannot survive a lint pass.
// ====================================================================

/** Slurp a whole text file; false when unreadable. */
bool
readTextFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

bool
nearRel(double a, double b, double rel)
{
    double scale = std::max(std::abs(a), std::abs(b));
    return std::isfinite(a) && std::isfinite(b) &&
           std::abs(a - b) <= rel * std::max(scale, 1.0);
}

/** Store address reconstructed from a scanned entry's metadata. */
core::StoreKey
keyFromInfo(const core::StoreEntryInfo &info)
{
    core::StoreKey key;
    key.fingerprint = info.fingerprint;
    key.benchmark = info.benchmark;
    key.machine = info.machine;
    key.instructions = info.instructions;
    key.warmup = info.warmup;
    key.seed_salt = info.seed_salt;
    key.apply_machine_transform = info.apply_machine_transform;
    key.prewarm = info.prewarm;
    return key;
}

class StoreResultAuditRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL018"; }
    std::string name() const override { return "store-result-audit"; }
    std::string
    description() const override
    {
        return "deserialized store results satisfy the simulator's "
               "counter accounting identities";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        if (context.store_dir.empty()) {
            emit(out, Severity::Info, "store",
                 "store result audit skipped (no --store directory "
                 "given)");
            return;
        }
        core::CampaignStore store(context.store_dir);
        std::size_t audited = 0;
        for (const core::StoreEntryInfo &info : store.scan()) {
            if (info.status != core::StoreStatus::Hit)
                continue; // SL016 reports defective entries.
            const std::string loc = "store/" + info.filename;
            core::StoreKey key = keyFromInfo(info);
            if (info.phases == 0) {
                uarch::SimulationResult result;
                if (store.load(key, result) != core::StoreStatus::Hit) {
                    error(out, loc,
                          "entry scanned clean but failed to load",
                          "invalidate the entry and re-run the "
                          "campaign");
                    continue;
                }
                auditResult(loc, result, out);
            } else {
                uarch::PhasedSimulationResult result;
                if (store.loadPhased(key, result) !=
                    core::StoreStatus::Hit) {
                    error(out, loc,
                          "phased entry scanned clean but failed to "
                          "load",
                          "invalidate the entry and re-run the "
                          "campaign");
                    continue;
                }
                auditCounters(loc + "/combined",
                              result.combined_counters, out);
                for (std::size_t i = 0; i < result.per_phase.size();
                     ++i)
                    auditResult(loc + "/phase" + std::to_string(i),
                                result.per_phase[i], out);
            }
            ++audited;
        }
        emit(out, Severity::Info, "store",
             std::to_string(audited) + " entries re-audited in " +
                 context.store_dir);
    }

  private:
    void
    auditCounters(const std::string &loc,
                  const uarch::PerfCounters &c,
                  std::vector<Diagnostic> &out) const
    {
        if (c.instructions == 0) {
            error(out, loc, "stored window retired zero instructions",
                  "an empty measurement window cannot produce the "
                  "paper's rates; invalidate and re-run");
            return;
        }
        if (c.loads + c.stores + c.branches + c.fp_ops + c.simd_ops >
            c.instructions)
            error(out, loc,
                  "instruction classes sum past the retired total",
                  "classes are disjoint; the entry bytes are "
                  "inconsistent");
        if (c.taken_branches > c.branches ||
            c.branch_mispredictions > c.branches)
            error(out, loc,
                  "taken/mispredicted branches exceed retired "
                  "branches");
        if (c.kernel_instructions > c.instructions)
            error(out, loc,
                  "kernel instructions exceed retired instructions");
        const struct
        {
            const char *level;
            std::uint64_t accesses;
            std::uint64_t misses;
        } levels[] = {
            {"l1d", c.l1d_accesses, c.l1d_misses},
            {"l1i", c.l1i_accesses, c.l1i_misses},
            {"l2d", c.l2d_accesses, c.l2d_misses},
            {"l2i", c.l2i_accesses, c.l2i_misses},
            {"l3", c.l3_accesses, c.l3_misses},
            {"dtlb", c.dtlb_accesses, c.dtlb_misses},
            {"itlb", c.itlb_accesses, c.itlb_misses},
        };
        for (const auto &l : levels) {
            if (l.misses > l.accesses)
                error(out, loc + "/" + l.level,
                      "misses (" + std::to_string(l.misses) +
                          ") exceed accesses (" +
                          std::to_string(l.accesses) + ")");
        }
        if (c.l2tlb_misses > c.itlb_misses + c.dtlb_misses)
            error(out, loc,
                  "L2 TLB misses exceed the L1 TLB miss stream that "
                  "feeds them");
        if (c.page_walks != c.l2tlb_misses)
            error(out, loc,
                  "page walks (" + std::to_string(c.page_walks) +
                      ") != L2 TLB misses (" +
                      std::to_string(c.l2tlb_misses) + ")",
                  "every last-level TLB miss walks the page table, "
                  "and nothing else does");
    }

    void
    auditResult(const std::string &loc,
                const uarch::SimulationResult &result,
                std::vector<Diagnostic> &out) const
    {
        auditCounters(loc, result.counters, out);
        if (!(std::isfinite(result.cpi()) && result.cpi() > 0.0))
            error(out, loc,
                  "stored CPI is " + num(result.cpi()) +
                      ", not finite-positive");
        for (double component : result.cpi_stack.components())
            if (!(std::isfinite(component) && component >= 0.0)) {
                error(out, loc,
                      "CPI-stack component is " + num(component) +
                          ", not finite and non-negative");
                break;
            }
        const double rails[] = {result.power.core_watts,
                                result.power.llc_watts,
                                result.power.dram_watts};
        for (double watts : rails)
            if (!(std::isfinite(watts) && watts >= 0.0)) {
                error(out, loc,
                      "power rail is " + num(watts) +
                          " W, not finite and non-negative");
                break;
            }
    }
};

class StoreMetricRangeRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL019"; }
    std::string name() const override { return "store-metric-range"; }
    std::string
    description() const override
    {
        return "stored metrics stay inside physical envelopes and "
               "match the describing machine's topology";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        if (context.store_dir.empty()) {
            emit(out, Severity::Info, "store",
                 "store metric-range check skipped (no --store "
                 "directory given)");
            return;
        }
        std::map<std::string, const uarch::MachineConfig *> machines;
        for (const uarch::MachineConfig &m : context.machines)
            machines.emplace(m.name, &m);

        core::CampaignStore store(context.store_dir);
        std::size_t checked = 0;
        for (const core::StoreEntryInfo &info : store.scan()) {
            if (info.status != core::StoreStatus::Hit ||
                info.phases != 0)
                continue;
            const std::string loc = "store/" + info.filename;
            uarch::SimulationResult result;
            if (store.load(keyFromInfo(info), result) !=
                core::StoreStatus::Hit)
                continue; // SL018 reports the load failure.
            const uarch::PerfCounters &c = result.counters;
            if (c.instructions == 0)
                continue; // SL018 reports the empty window.

            double ipc = result.ipc();
            if (!(ipc > 0.0 && ipc <= 8.0))
                error(out, loc,
                      "IPC is " + num(ipc) +
                          ", outside the plausible (0, 8] range");
            if (result.cpi() > 100.0)
                error(out, loc,
                      "CPI is " + num(result.cpi()) +
                          ", beyond any modelled stall mix");
            const struct
            {
                const char *metric;
                double value;
            } mpki[] = {
                {"l1d_mpki", c.l1dMpki()},
                {"l1i_mpki", c.l1iMpki()},
                {"l2d_mpki", c.l2dMpki()},
                {"l2i_mpki", c.l2iMpki()},
                {"l3_mpki", c.l3Mpki()},
                {"branch_mpki", c.branchMpki()},
            };
            for (const auto &m : mpki)
                if (!(m.value >= 0.0 && m.value <= 1000.0))
                    error(out, loc,
                          std::string(m.metric) + " is " +
                              num(m.value) +
                              ", outside [0, 1000] (at most one "
                              "event per instruction)");

            // Demand-miss plumbing: each level's access stream is the
            // previous level's miss stream (prefetch fills bypass the
            // demand counters, so this holds with prefetching too).
            if (c.l2d_accesses != c.l1d_misses ||
                c.l2i_accesses != c.l1i_misses)
                error(out, loc,
                      "L2 demand accesses do not equal the L1 miss "
                      "streams that generate them");
            if (c.l3_accesses != c.l2d_misses + c.l2i_misses)
                error(out, loc,
                      "last-level accesses (" +
                          std::to_string(c.l3_accesses) +
                          ") do not equal the L2 miss total (" +
                          std::to_string(c.l2d_misses +
                                         c.l2i_misses) +
                          ")");

            auto machine = machines.find(info.machine);
            if (machine != machines.end()) {
                const uarch::MachineConfig &m = *machine->second;
                if (!m.caches.l3 && c.l3_accesses != c.l3_misses)
                    error(out, loc,
                          "two-level machine '" + info.machine +
                              "' must mirror every last-level access "
                              "as a miss");
                if (!m.tlbs.l2tlb &&
                    c.l2tlb_misses != c.itlb_misses + c.dtlb_misses)
                    error(out, loc,
                          "machine '" + info.machine +
                              "' has no L2 TLB, so every L1 TLB miss "
                              "must walk");
            }
            ++checked;
        }
        emit(out, Severity::Info, "store",
             std::to_string(checked) +
                 " pair entries range-checked in " +
                 context.store_dir);
    }
};

class MemoryMetricRangeRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL026"; }
    std::string name() const override { return "memory-metric-range"; }
    std::string
    description() const override
    {
        return "stored memory-centric metrics (prefetch, way "
               "prediction, DRAM) stay in range and satisfy the "
               "accounting identities";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        if (context.store_dir.empty()) {
            emit(out, Severity::Info, "store",
                 "memory metric-range check skipped (no --store "
                 "directory given)");
            return;
        }
        // Memory-centric entries are usually produced by the variant
        // suites, not the shipped profiling machines, so resolve names
        // against both.
        std::map<std::string, uarch::MachineConfig> machines;
        for (const uarch::MachineConfig &m : context.machines)
            machines.emplace(m.name, m);
        for (uarch::MachineConfig &m : suites::memoryCentricMachines())
            machines.emplace(m.name, std::move(m));
        for (uarch::MachineConfig &m : suites::sensitivityMachines())
            machines.emplace(m.name, std::move(m));

        core::CampaignStore store(context.store_dir);
        std::size_t checked = 0;
        for (const core::StoreEntryInfo &info : store.scan()) {
            if (info.status != core::StoreStatus::Hit ||
                info.phases != 0)
                continue;
            const std::string loc = "store/" + info.filename;
            uarch::SimulationResult result;
            if (store.load(keyFromInfo(info), result) !=
                core::StoreStatus::Hit)
                continue; // SL018 reports the load failure.
            const uarch::PerfCounters &c = result.counters;

            const struct
            {
                const char *metric;
                double value;
            } ratios[] = {
                {"prefetch_coverage", c.prefetchCoverage()},
                {"prefetch_accuracy", c.prefetchAccuracy()},
                {"prefetch_timeliness", c.prefetchTimeliness()},
                {"way_pred_accuracy", c.wayPredAccuracy()},
                {"row_buffer_hit_rate", c.rowBufferHitRate()},
            };
            for (const auto &r : ratios)
                if (!inUnit(r.value))
                    error(out, loc,
                          std::string(r.metric) + " is " +
                              num(r.value) + ", outside [0, 1]");
            double bw = c.dramBwUtilization();
            if (!(std::isfinite(bw) && bw >= 0.0))
                error(out, loc,
                      "dram_bw_utilization is " + num(bw) +
                          ", not a finite non-negative ratio");

            // The per-slot-bit accounting can never consume or evict
            // more lines than the prefetcher filled; the remainder is
            // still resident in L2.
            if (c.prefetch_useful + c.prefetch_evicted_unused >
                c.prefetch_fills)
                error(out, loc,
                      "prefetch_useful + prefetch_evicted_unused (" +
                          std::to_string(c.prefetch_useful +
                                         c.prefetch_evicted_unused) +
                          ") exceeds prefetch_fills (" +
                          std::to_string(c.prefetch_fills) + ")");
            if (c.dram_row_hits > c.dram_accesses)
                error(out, loc,
                      "dram_row_hits (" +
                          std::to_string(c.dram_row_hits) +
                          ") exceeds dram_accesses (" +
                          std::to_string(c.dram_accesses) + ")");

            auto machine = machines.find(info.machine);
            if (machine != machines.end()) {
                const uarch::MachineConfig &m = machine->second;
                if (m.caches.l2_prefetch_degree == 0 &&
                    (c.prefetch_fills != 0 || c.prefetch_useful != 0 ||
                     c.prefetch_evicted_unused != 0))
                    error(out, loc,
                          "machine '" + info.machine +
                              "' has no prefetcher but the entry "
                              "carries prefetch counters");
                bool way_pred_off =
                    m.caches.l1i.way_prediction ==
                        uarch::WayPredictionKind::None &&
                    m.caches.l1d.way_prediction ==
                        uarch::WayPredictionKind::None &&
                    m.caches.l2.way_prediction ==
                        uarch::WayPredictionKind::None &&
                    (!m.caches.l3 ||
                     m.caches.l3->way_prediction ==
                         uarch::WayPredictionKind::None);
                if (way_pred_off && (c.way_pred_hits != 0 ||
                                     c.way_pred_mispredicts != 0))
                    error(out, loc,
                          "machine '" + info.machine +
                              "' has no way predictor but the entry "
                              "carries way-prediction counters");
                if (!m.caches.dram) {
                    if (c.dram_accesses != 0 || c.dram_row_hits != 0 ||
                        c.dram_busy_cycles != 0 ||
                        c.dram_budget_cycles != 0)
                        error(out, loc,
                              "machine '" + info.machine +
                                  "' has no DRAM model but the entry "
                                  "carries DRAM counters");
                } else if (c.dram_row_hits <= c.dram_accesses) {
                    // The open-page policy's exact cycle identities
                    // (skipped when the hit bound above already
                    // fired, since the miss count would underflow).
                    const uarch::DramConfig &d = *m.caches.dram;
                    std::uint64_t misses =
                        c.dram_accesses - c.dram_row_hits;
                    std::uint64_t busy =
                        c.dram_row_hits * d.burst_cycles +
                        misses * (d.activate_cycles + d.burst_cycles);
                    if (c.dram_busy_cycles != busy)
                        error(out, loc,
                              "dram_busy_cycles (" +
                                  std::to_string(c.dram_busy_cycles) +
                                  ") breaks the open-page identity "
                                  "(expected " + std::to_string(busy) +
                                  ")");
                    std::uint64_t budget =
                        c.dram_accesses * d.cycles_per_burst_budget;
                    if (c.dram_budget_cycles != budget)
                        error(out, loc,
                              "dram_budget_cycles (" +
                                  std::to_string(
                                      c.dram_budget_cycles) +
                                  ") is not accesses * "
                                  "cycles_per_burst_budget (" +
                                  std::to_string(budget) + ")");
                }
            }
            ++checked;
        }
        emit(out, Severity::Info, "store",
             std::to_string(checked) +
                 " entries memory-metric-checked in " +
                 context.store_dir);
    }
};

/** Parsed identity of one BENCH_<pr>.json artifact. */
struct BenchArtifact
{
    std::string filename;
    std::string text;
    bool parsed = false;  //!< text is one well-formed JSON document.
    obs::JsonValue doc;   //!< The parsed document when parsed.
    std::uint64_t pr = 0; //!< From the file name.
    int version = 0;      //!< 2 or 3; 0 when the schema is foreign.
};

/** Collect BENCH_<pr>.json artifacts under @p dir, name-sorted. */
std::vector<BenchArtifact>
collectBenchArtifacts(const std::string &dir)
{
    std::vector<BenchArtifact> artifacts;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() <= 11 || name.compare(0, 6, "BENCH_") != 0 ||
            name.compare(name.size() - 5, 5, ".json") != 0)
            continue;
        const std::string digits = name.substr(6, name.size() - 11);
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") !=
                std::string::npos)
            continue;
        BenchArtifact artifact;
        artifact.filename = name;
        artifact.pr = std::stoull(digits);
        if (readTextFile(entry.path().string(), artifact.text) &&
            obs::parseJson(artifact.text, artifact.doc)) {
            artifact.parsed = true;
            std::string schema;
            artifact.doc["schema"].getString(schema);
            if (schema == "speclens-bench-trajectory-v2")
                artifact.version = 2;
            else if (schema == "speclens-bench-trajectory-v3")
                artifact.version = 3;
        }
        artifacts.push_back(std::move(artifact));
    }
    std::sort(artifacts.begin(), artifacts.end(),
              [](const BenchArtifact &a, const BenchArtifact &b) {
                  return a.pr < b.pr;
              });
    return artifacts;
}

class BenchSchemaRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL020"; }
    std::string name() const override { return "bench-schema"; }
    std::string
    description() const override
    {
        return "each BENCH_<pr>.json trajectory artifact is "
               "well-formed and internally consistent";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        if (context.bench_dir.empty()) {
            emit(out, Severity::Info, "bench",
                 "trajectory-artifact checks skipped (no --bench "
                 "directory given)");
            return;
        }
        std::vector<BenchArtifact> artifacts =
            collectBenchArtifacts(context.bench_dir);
        if (artifacts.empty()) {
            emit(out, Severity::Info, "bench",
                 "no BENCH_<pr>.json artifacts under " +
                     context.bench_dir);
            return;
        }
        for (const BenchArtifact &a : artifacts)
            checkArtifact(a, out);
        emit(out, Severity::Info, "bench",
             std::to_string(artifacts.size()) +
                 " trajectory artifacts checked in " +
                 context.bench_dir);
    }

  private:
    void
    checkArtifact(const BenchArtifact &a,
                  std::vector<Diagnostic> &out) const
    {
        const std::string loc = "bench/" + a.filename;
        if (a.text.empty()) {
            error(out, loc, "artifact is unreadable or empty");
            return;
        }
        if (!a.parsed) {
            error(out, loc, "artifact is not well-formed JSON",
                  "regenerate it with `speclens bench trajectory "
                  "--pr N`");
            return;
        }
        if (a.version == 0) {
            std::string schema;
            a.doc["schema"].getString(schema);
            error(out, loc,
                  "unknown trajectory schema '" + schema + "'",
                  "expected speclens-bench-trajectory-v2 or -v3");
            return;
        }
        std::uint64_t pr = 0;
        if (!a.doc["pr"].getU64(pr) || pr != a.pr)
            error(out, loc,
                  "embedded pr number does not match the file name",
                  "trajectory files must be named BENCH_<pr>.json");

        // Every field is read inside its own block: the seed_baseline
        // and stats blocks reuse campaign key names.
        const obs::JsonValue &campaign = a.doc["campaign"];
        if (!campaign.isObject()) {
            error(out, loc, "missing campaign section");
            return;
        }
        double simulations = 0.0, per_sim = 0.0, total = 0.0;
        if (campaign["simulations"].getDouble(simulations) &&
            campaign["records_per_simulation"].getDouble(per_sim) &&
            campaign["records_total"].getDouble(total)) {
            if (total != simulations * per_sim)
                error(out, loc,
                      "records_total != simulations * "
                      "records_per_simulation");
        } else {
            error(out, loc, "campaign volume fields missing");
        }
        std::string fingerprint;
        if (!campaign["fingerprint"].getString(fingerprint) ||
            !obs::isHex16(fingerprint))
            error(out, loc,
                  "campaign fingerprint is not a 16-hex digest");
        double fused = 0.0;
        if (campaign["fused_seconds"].getDouble(fused) && !(fused > 0.0))
            error(out, loc, "non-positive campaign timings");
        if (a.version == 2)
            checkMaterializedBaseline(loc, fused, campaign, out);
        checkSeedBaseline(a, loc, campaign, out);
    }

    /**
     * Only v2 artifacts carry a materialized-window baseline and its
     * parity verdict.
     */
    void
    checkMaterializedBaseline(const std::string &loc, double fused,
                              const obs::JsonValue &campaign,
                              std::vector<Diagnostic> &out) const
    {
        bool parity = false;
        if (!campaign["parity_bit_identical"].getBool(parity) || !parity)
            error(out, loc,
                  "fused/materialized parity is not bit-identical",
                  "the streaming pipeline diverged from the "
                  "materialized baseline; never commit such a run");
        double materialized = 0.0, speedup = 0.0;
        if (fused > 0.0 &&
            campaign["materialized_seconds"].getDouble(materialized) &&
            campaign["speedup_vs_materialized"].getDouble(speedup)) {
            if (!(materialized > 0.0))
                error(out, loc, "non-positive campaign timings");
            else if (!nearRel(speedup, materialized / fused, 1e-6))
                error(out, loc,
                      "speedup_vs_materialized does not equal "
                      "materialized_seconds / fused_seconds");
        }
    }

    void
    checkSeedBaseline(const BenchArtifact &a, const std::string &loc,
                      const obs::JsonValue &campaign,
                      std::vector<Diagnostic> &out) const
    {
        const obs::JsonValue &baseline = a.doc["seed_baseline"];
        if (!baseline.isObject()) {
            error(out, loc, "artifact lacks a seed_baseline block");
            return;
        }
        double seed_rps = 0.0, seed_sps = 0.0;
        if (!baseline["records_per_second"].getDouble(seed_rps) ||
            !baseline["simulations_per_second"].getDouble(seed_sps) ||
            !nearRel(seed_rps, core::kSeedRecordsPerSecond, 1e-6) ||
            !nearRel(seed_sps, core::kSeedSimulationsPerSecond, 1e-6))
            error(out, loc,
                  "seed_baseline does not match the pinned PR-5 "
                  "constants",
                  "kSeedRecordsPerSecond / kSeedSimulationsPerSecond "
                  "in core/perf_trajectory.h are the trajectory's "
                  "fixed origin");
        double rps = 0.0, vs_seed = 0.0;
        if (campaign["records_per_second"].getDouble(rps) &&
            campaign["speedup_vs_seed"].getDouble(vs_seed) &&
            !nearRel(vs_seed, rps / core::kSeedRecordsPerSecond, 1e-6))
            error(out, loc,
                  "speedup_vs_seed does not equal records_per_second "
                  "/ seed records_per_second");
    }
};

class BenchTrajectoryRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL021"; }
    std::string name() const override { return "bench-trajectory"; }
    std::string
    description() const override
    {
        return "the BENCH_<pr>.json series is mutually comparable: "
               "distinct PRs, one pinned configuration";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        if (context.bench_dir.empty()) {
            emit(out, Severity::Info, "bench",
                 "trajectory-series checks skipped (no --bench "
                 "directory given)");
            return;
        }
        std::vector<BenchArtifact> artifacts =
            collectBenchArtifacts(context.bench_dir);
        if (artifacts.empty()) {
            emit(out, Severity::Info, "bench",
                 "no BENCH_<pr>.json artifacts under " +
                     context.bench_dir);
            return;
        }
        std::set<std::uint64_t> prs;
        for (const BenchArtifact &a : artifacts) {
            const std::string loc = "bench/" + a.filename;
            if (!prs.insert(a.pr).second)
                error(out, loc,
                      "duplicate trajectory point for PR " +
                          std::to_string(a.pr),
                      "each PR contributes exactly one BENCH file");
            if (a.version == 0)
                continue; // SL020 reports the schema defect.
            const obs::JsonValue &config = a.doc["config"];
            double instructions = 0.0, warmup = 0.0, salt = 0.0,
                   jobs = 0.0;
            bool have = config["instructions"].getDouble(instructions) &&
                        config["warmup"].getDouble(warmup) &&
                        config["seed_salt"].getDouble(salt) &&
                        config["jobs"].getDouble(jobs);
            if (!have ||
                instructions !=
                    static_cast<double>(
                        core::kTrajectoryInstructions) ||
                warmup !=
                    static_cast<double>(core::kTrajectoryWarmup) ||
                salt != 0.0 || jobs != 1.0)
                error(out, loc,
                      "measurement configuration is not the pinned "
                      "trajectory window",
                      "points are only comparable when every PR "
                      "measures the same pinned configuration "
                      "(core/perf_trajectory.h)");
        }
        emit(out, Severity::Info, "bench",
             std::to_string(prs.size()) +
                 " trajectory points span PRs " +
                 std::to_string(artifacts.front().pr) + ".." +
                 std::to_string(artifacts.back().pr));
    }
};

class ManifestSchemaRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL022"; }
    std::string name() const override { return "manifest-schema"; }
    std::string
    description() const override
    {
        return "the store's run-manifest.json carries the version-1 "
               "schema with every required block";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        if (context.store_dir.empty()) {
            emit(out, Severity::Info, "manifest",
                 "manifest checks skipped (no --store directory "
                 "given)");
            return;
        }
        const std::string path =
            context.store_dir + "/" + obs::kManifestFileName;
        std::string text;
        if (!readTextFile(path, text)) {
            emit(out, Severity::Info, "manifest",
                 "store has no run manifest (written by campaign "
                 "runs; nothing to check)");
            return;
        }
        const std::string loc = "store/run-manifest.json";
        obs::JsonValue doc;
        if (!obs::parseJson(text, doc)) {
            error(out, loc, "manifest is not well-formed JSON",
                  "delete it and re-run a campaign with --store");
            return;
        }
        for (const std::string &message : obs::manifestSchemaErrors(doc))
            error(out, loc, message);
        // The engine version lives in core, which obs sits below, so
        // this check stays here rather than in manifestSchemaErrors.
        std::uint64_t engine = 0;
        if (doc["engine_version"].getU64(engine) &&
            engine != core::kStoreEngineVersion)
            emit(out, Severity::Warning, loc,
                 "manifest was written by engine version " +
                     std::to_string(engine) + ", current is " +
                     std::to_string(core::kStoreEngineVersion),
                 "re-run the campaign to refresh it");
    }
};

class ManifestStoreRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL023"; }
    std::string name() const override { return "manifest-store"; }
    std::string
    description() const override
    {
        return "the run manifest's totals agree with the store "
               "directory it describes";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        if (context.store_dir.empty()) {
            emit(out, Severity::Info, "manifest",
                 "manifest cross-check skipped (no --store directory "
                 "given)");
            return;
        }
        const std::string path =
            context.store_dir + "/" + obs::kManifestFileName;
        std::string text;
        if (!readTextFile(path, text)) {
            emit(out, Severity::Info, "manifest",
                 "store has no run manifest to cross-check");
            return;
        }
        const std::string loc = "store/run-manifest.json";
        obs::JsonValue doc;
        if (!obs::parseJson(text, doc))
            return; // SL022 reports the syntax defect.
        const obs::JsonValue &totals = doc["totals"];
        std::uint64_t entries = 0, misses = 0, simulations = 0, saves = 0;
        if (!totals["entries"].getU64(entries) ||
            !totals["misses"].getU64(misses) ||
            !totals["simulations"].getU64(simulations) ||
            !totals["saves"].getU64(saves))
            return; // SL022 reports the schema defect.

        core::CampaignStore store(context.store_dir);
        const std::uint64_t on_disk = store.entryCount();
        if (entries != on_disk)
            error(out, loc,
                  "manifest records " + std::to_string(entries) +
                      " entries but the store holds " +
                      std::to_string(on_disk),
                  "the store changed since the manifest was written; "
                  "re-run the campaign with --store to refresh it");
        if (saves > simulations)
            error(out, loc,
                  "manifest records more saves than simulations",
                  "every save is preceded by a computed simulation");
        if (simulations > misses)
            error(out, loc,
                  "manifest records more simulations than store "
                  "misses",
                  "a simulation is only computed after a store miss");
    }
};

class StorePhasedConsistencyRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL024"; }
    std::string name() const override { return "store-phased"; }
    std::string
    description() const override
    {
        return "phased store entries combine exactly: counters sum "
               "field-wise and combined CPI lies within phase CPIs";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        if (context.store_dir.empty()) {
            emit(out, Severity::Info, "store",
                 "phased-consistency check skipped (no --store "
                 "directory given)");
            return;
        }
        core::CampaignStore store(context.store_dir);
        std::size_t checked = 0;
        for (const core::StoreEntryInfo &info : store.scan()) {
            if (info.status != core::StoreStatus::Hit ||
                info.phases == 0)
                continue;
            const std::string loc = "store/" + info.filename;
            uarch::PhasedSimulationResult result;
            if (store.loadPhased(keyFromInfo(info), result) !=
                core::StoreStatus::Hit)
                continue; // SL018 reports the load failure.
            if (result.per_phase.size() != info.phases) {
                error(out, loc,
                      "header claims " + std::to_string(info.phases) +
                          " phases but the payload holds " +
                          std::to_string(result.per_phase.size()));
                continue;
            }
            uarch::PerfCounters sum;
            for (const uarch::SimulationResult &phase :
                 result.per_phase)
                sum += phase.counters;
            for (const uarch::CounterField &f : uarch::kCounterFields) {
                if (result.combined_counters.*(f.field) !=
                    sum.*(f.field)) {
                    error(out, loc,
                          std::string("combined counter '") + f.name +
                              "' is not the sum of its phases",
                          "phased results are combined by exact "
                          "field-wise accumulation");
                    break;
                }
            }
            double lo = result.per_phase.front().cpi();
            double hi = lo;
            for (const uarch::SimulationResult &phase :
                 result.per_phase) {
                lo = std::min(lo, phase.cpi());
                hi = std::max(hi, phase.cpi());
            }
            if (!(result.combined_cpi >= lo * (1.0 - 1e-9) - 1e-9 &&
                  result.combined_cpi <= hi * (1.0 + 1e-9) + 1e-9))
                error(out, loc,
                      "combined CPI " + num(result.combined_cpi) +
                          " lies outside the per-phase range [" +
                          num(lo) + ", " + num(hi) + "]",
                      "the execution-weighted mean cannot leave the "
                      "convex hull of its phases");
            ++checked;
        }
        emit(out, Severity::Info, "store",
             checked == 0
                 ? "no phased entries to check"
                 : std::to_string(checked) +
                       " phased entries combine consistently");
    }
};

class StoreShardLayoutRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL025"; }
    std::string name() const override { return "store-shard-layout"; }
    std::string
    description() const override
    {
        return "every store entry sits in the shard its fingerprint "
               "names";
    }

    void
    run(const LintContext &context,
        std::vector<Diagnostic> &out) const override
    {
        if (context.store_dir.empty()) {
            emit(out, Severity::Info, "store",
                 "shard-layout check skipped (no --store directory "
                 "given)");
            return;
        }
        namespace fs = std::filesystem;
        std::error_code ec;
        std::size_t well_placed = 0, misfiled = 0;
        for (const fs::directory_entry &entry :
             fs::directory_iterator(context.store_dir, ec)) {
            std::string name = entry.path().filename().string();
            if (entry.is_regular_file() && isEntryName(name)) {
                // The pre-shard flat layout: no load looks here.
                ++misfiled;
                error(out, "store/" + name,
                      "entry sits in the store root, outside every "
                      "shard",
                      "loads resolve entries by fingerprint shard, so "
                      "it is unreachable and silently recomputed; "
                      "remove it with `speclens campaign invalidate`");
                continue;
            }
            if (!entry.is_directory() ||
                name.rfind(core::kStoreShardPrefix, 0) != 0)
                continue;
            for (const fs::directory_entry &file :
                 fs::directory_iterator(entry.path(), ec)) {
                std::string filename =
                    file.path().filename().string();
                if (!file.is_regular_file() ||
                    !isEntryName(filename))
                    continue;
                const std::string loc =
                    "store/" + name + "/" + filename;
                std::uint64_t fingerprint = 0;
                if (!parseHex16(filename.substr(0, 16),
                                fingerprint)) {
                    error(out, loc,
                          "entry filename is not a 16-hex "
                          "fingerprint");
                    continue;
                }
                std::string expected = core::storeShardDirName(
                    core::storeShardIndex(fingerprint));
                if (name != expected) {
                    ++misfiled;
                    error(out, loc,
                          "entry is filed in " + name +
                              " but its fingerprint belongs in " +
                              expected,
                          "loads resolve entries by fingerprint "
                          "shard, so a misfiled entry is unreachable "
                          "and silently recomputed; move or delete "
                          "it");
                } else {
                    ++well_placed;
                }
            }
        }
        emit(out, Severity::Info, "store",
             std::to_string(well_placed) +
                 " entries correctly sharded, " +
                 std::to_string(misfiled) + " misfiled");
    }

  private:
    static bool
    isEntryName(const std::string &name)
    {
        return name.size() == 22 &&
               name.compare(16, 6, ".slart") == 0;
    }

    static bool
    parseHex16(const std::string &text, std::uint64_t &value)
    {
        if (text.size() != 16)
            return false;
        value = 0;
        for (char c : text) {
            std::uint64_t digit;
            if (c >= '0' && c <= '9')
                digit = static_cast<std::uint64_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                digit = static_cast<std::uint64_t>(c - 'a') + 10;
            else
                return false;
            value = (value << 4) | digit;
        }
        return true;
    }
};

} // namespace

std::vector<const suites::BenchmarkInfo *>
LintContext::allBenchmarks() const
{
    std::vector<const suites::BenchmarkInfo *> all;
    all.reserve(cpu2017.size() + cpu2006.size() + emerging.size());
    for (const auto *list : {&cpu2017, &cpu2006, &emerging})
        for (const suites::BenchmarkInfo &b : *list)
            all.push_back(&b);
    return all;
}

LintContext
shippedContext()
{
    LintContext context;
    context.cpu2017 = suites::spec2017();
    context.cpu2006 = suites::spec2006();
    context.emerging = suites::emergingBenchmarks();
    context.machines = suites::profilingMachines();
    context.input_groups = suites::inputSetGroupsInt();
    for (suites::InputSetGroup &g : suites::inputSetGroupsFp())
        context.input_groups.push_back(std::move(g));
    return context;
}

std::vector<std::unique_ptr<Rule>>
defaultRules()
{
    std::vector<std::unique_ptr<Rule>> rules;
    rules.push_back(std::make_unique<MixRangeRule>());
    rules.push_back(std::make_unique<MixSumRule>());
    rules.push_back(std::make_unique<CpiComponentsRule>());
    rules.push_back(std::make_unique<WorkingSetShapeRule>());
    rules.push_back(std::make_unique<CodeModelRule>());
    rules.push_back(std::make_unique<BranchModelRule>());
    rules.push_back(std::make_unique<CacheMonotonicityRule>());
    rules.push_back(std::make_unique<CacheGeometryRule>());
    rules.push_back(std::make_unique<TlbConfigRule>());
    rules.push_back(std::make_unique<MachineConfigRule>());
    rules.push_back(std::make_unique<TransformRule>());
    rules.push_back(std::make_unique<CrossReferenceRule>());
    rules.push_back(std::make_unique<InputSetRule>());
    rules.push_back(std::make_unique<ScoreDatabaseRule>());
    rules.push_back(std::make_unique<PaperBoundsRule>());
    rules.push_back(std::make_unique<StoreIntegrityRule>());
    rules.push_back(std::make_unique<DegenerateFeaturesRule>());
    rules.push_back(std::make_unique<StoreResultAuditRule>());
    rules.push_back(std::make_unique<StoreMetricRangeRule>());
    rules.push_back(std::make_unique<BenchSchemaRule>());
    rules.push_back(std::make_unique<BenchTrajectoryRule>());
    rules.push_back(std::make_unique<ManifestSchemaRule>());
    rules.push_back(std::make_unique<ManifestStoreRule>());
    rules.push_back(std::make_unique<StorePhasedConsistencyRule>());
    rules.push_back(std::make_unique<StoreShardLayoutRule>());
    rules.push_back(std::make_unique<MemoryMetricRangeRule>());
    return rules;
}

std::unique_ptr<Rule>
ruleByCode(const std::string &code)
{
    for (std::unique_ptr<Rule> &rule : defaultRules())
        if (rule->code() == code)
            return std::move(rule);
    throw std::invalid_argument("unknown lint rule code: " + code);
}

} // namespace lint
} // namespace speclens
