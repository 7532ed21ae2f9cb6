/**
 * @file
 * Process-lifetime analysis service state: immutable model registry,
 * shared artifact store, shared worker pool, Characterizer pool.
 *
 * The batch CLI rebuilt every workload and machine model, reopened the
 * store and re-derived the campaign fingerprint on each invocation.  A
 * long-running server answering many queries needs the opposite
 * ownership split:
 *
 *  - ServiceContext (this class) is built once per process.  It snap-
 *    shots the shipped benchmark suites and machine sets into an
 *    immutable registry, opens the (sharded) CampaignStore once, owns
 *    one bounded ThreadPool, and pools Characterizers keyed by machine
 *    set so every request against the same machines shares one memo
 *    cache and one in-flight dedup map.
 *
 *    It also memoizes the similarity analysis (PCA + clustering) of
 *    each CPU2017 sub-suite, the k-independent part of a `subset`
 *    query (subsetAnalysis()).
 *
 *  - AnalysisSession (analysis_session.h) is per request: a cheap
 *    borrow of a context plus the machine set the request runs on.
 *    Constructing one allocates nothing but a shared_ptr copy.
 *
 * The context keeps the batch contract on destruction: when a store is
 * attached it prints the `[speclens-store] ...` reuse summary to
 * stderr and writes the run manifest (atomic temp+rename) into the
 * store directory.  The configuration fingerprint is computed exactly
 * as the pre-split AnalysisSession did — over the window and the
 * *primary* (first-pooled) machine set — so warm/cold manifests of a
 * batch run stay comparable across the refactor.
 *
 * Thread safety: the registry is immutable after construction;
 * characterizerFor() and workerPool() are guarded by one mutex, each
 * subsetAnalysis() slot by its own (the returned references stay valid
 * for the context's lifetime); the store and Characterizers are
 * internally thread-safe.
 */

#ifndef SPECLENS_CORE_SERVICE_CONTEXT_H
#define SPECLENS_CORE_SERVICE_CONTEXT_H

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/artifact_store.h"
#include "core/characterization.h"
#include "core/parallel.h"
#include "core/similarity.h"
#include "suites/benchmark_info.h"
#include "uarch/machine.h"

namespace speclens {
namespace core {

/** Everything a ServiceContext is built from. */
struct ServiceConfig
{
    /** Simulation window parameters (including seed_salt and jobs). */
    CharacterizationConfig characterization;

    /**
     * Artifact-store directory; empty disables persistence (no store,
     * no summary, no manifest).
     */
    std::string store_dir;

    /** Total in-memory result-LRU capacity of the store. */
    std::size_t store_lru_capacity = kStoreDefaultLruCapacity;
};

/** Process-lifetime shared analysis state (see file comment). */
class ServiceContext
{
  public:
    explicit ServiceContext(ServiceConfig config);

    ServiceContext(const ServiceContext &) = delete;
    ServiceContext &operator=(const ServiceContext &) = delete;

    /**
     * Prints the reuse summary to stderr and writes the run manifest
     * into the store directory when a store is attached.
     */
    ~ServiceContext();

    const ServiceConfig &config() const { return config_; }

    // ----- Immutable model registry --------------------------------

    /** SPEC CPU2017 benchmarks (snapshot, feature order). */
    const std::vector<suites::BenchmarkInfo> &cpu2017() const
    {
        return cpu2017_;
    }

    /** SPEC CPU2006 benchmarks (snapshot). */
    const std::vector<suites::BenchmarkInfo> &cpu2006() const
    {
        return cpu2006_;
    }

    /** Emerging-workload benchmarks (snapshot). */
    const std::vector<suites::BenchmarkInfo> &emerging() const
    {
        return emerging_;
    }

    /**
     * Registry lookup by benchmark name across all snapshotted suites
     * (CPU2017 first, then CPU2006, then emerging); null when unknown.
     */
    const suites::BenchmarkInfo *findBenchmark(
        const std::string &name) const;

    /** The paper's seven profiling machines (snapshot). */
    const std::vector<uarch::MachineConfig> &profilingMachines() const
    {
        return profiling_machines_;
    }

    /** The sensitivity-analysis machine set (snapshot). */
    const std::vector<uarch::MachineConfig> &sensitivityMachines() const
    {
        return sensitivity_machines_;
    }

    /** The memory-centric machine variants (snapshot). */
    const std::vector<uarch::MachineConfig> &memoryMachines() const
    {
        return memory_machines_;
    }

    // ----- Shared campaign machinery -------------------------------

    /**
     * The pooled Characterizer for @p machines, created (with the
     * store attached and the shared worker pool wired) on first use
     * and keyed by the machine-set fingerprint, so concurrent requests
     * over the same machines share one memo cache and one in-flight
     * dedup map.  The reference stays valid for the context lifetime.
     */
    Characterizer &
    characterizerFor(const std::vector<uarch::MachineConfig> &machines);

    /**
     * The similarity analysis of CPU2017 sub-suite @p category
     * (SpeedInt / RateInt / SpeedFp / RateFp) over the profiling
     * machines, computed on first use and kept for the context's
     * lifetime.  It depends only on the feature matrix, which the
     * window, seed and machine set fix, so it needs no invalidation;
     * the four slots need no eviction.  Concurrent first calls for one
     * category wait on a single computation; one that throws leaves
     * the slot empty for the next caller.
     *
     * @throws std::invalid_argument for a non-CPU2017 category.
     */
    const SimilarityResult &subsetAnalysis(suites::Category category);

    /** The attached store; null when persistence is disabled. */
    CampaignStore *store() const { return store_.get(); }

    /** True when results persist across processes. */
    bool persistent() const { return store_ != nullptr; }

    /**
     * The shared bounded worker pool (config jobs, 0 = one per
     * hardware thread), created on first use.
     */
    ThreadPool &workerPool();

    /**
     * Simulations executed across every pooled Characterizer — the
     * figure a warm-store acceptance check expects to be zero.
     */
    std::size_t simulationsRun() const;

    /**
     * One-line machine-parseable reuse summary, e.g.
     * `[speclens-store] dir=... entries=301 hits=301 simulations=0
     * saves=0 rejected=0`.  `rejected` counts defensively discarded
     * entries (corrupt + stale + fingerprint-mismatched) plus orphaned
     * temp files swept when the store was opened.
     */
    std::string summary() const;

    /**
     * 16-hex fingerprint over everything that determines this
     * context's results: engine version, simulation window and the
     * primary machine set (the first one pooled; the profiling set
     * until a Characterizer exists).  Recorded in the run manifest so
     * warm and cold runs of the same configuration are diffable.
     */
    const std::string &configFingerprint() const;

  private:
    /** Fingerprint of one machine set (Characterizer pool key). */
    static std::uint64_t
    machineSetFingerprint(const std::vector<uarch::MachineConfig> &machines);

    /** Recompute config_fingerprint_ over @p machines. */
    void fingerprintConfig(
        const std::vector<uarch::MachineConfig> &machines);

    ServiceConfig config_;

    // Immutable registry (filled in the constructor, then read-only).
    std::vector<suites::BenchmarkInfo> cpu2017_;
    std::vector<suites::BenchmarkInfo> cpu2006_;
    std::vector<suites::BenchmarkInfo> emerging_;
    std::map<std::string, const suites::BenchmarkInfo *> by_name_;
    std::vector<uarch::MachineConfig> profiling_machines_;
    std::vector<uarch::MachineConfig> sensitivity_machines_;
    std::vector<uarch::MachineConfig> memory_machines_;

    std::shared_ptr<CampaignStore> store_;

    mutable std::mutex mutex_;
    std::unique_ptr<ThreadPool> pool_;
    std::map<std::uint64_t, std::unique_ptr<Characterizer>>
        characterizers_;
    /** subsetAnalysis() memo: one slot per CPU2017 sub-suite. */
    struct AnalysisSlot
    {
        std::mutex mutex;
        std::unique_ptr<const SimilarityResult> result;
    };
    std::array<AnalysisSlot, 4> subset_analyses_;

    /** Machine count of the primary (first-pooled) set, for the manifest. */
    std::size_t primary_machine_count_ = 0;
    std::string config_fingerprint_;
};

} // namespace core
} // namespace speclens

#endif // SPECLENS_CORE_SERVICE_CONTEXT_H
