/**
 * @file
 * Shared pieces of the benchmark program: options, the run report, the
 * in-memory span tracer and its layer table, /proc probes, obs-registry
 * deltas and the serve-window service configuration.
 *
 * Everything here observes SpecLens from outside: spans wrap calls the
 * benchmark program itself makes into the public API of each layer, and
 * counters are read through the public obs registry.
 */

#ifndef SPECLENS_PERFBENCH_SUPPORT_H
#define SPECLENS_PERFBENCH_SUPPORT_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/service_context.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p start to now. */
double secondsSince(Clock::time_point start);

/** Command-line options (see main.cpp for the flags). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch root for artifact stores; created and emptied by the run. */
    std::string work_dir;
};

/**
 * Window and parallelism of the daemon workloads (15k + 5k, jobs 2).
 * The seed salt stays 0: the daemon workloads draw their requests, not
 * their simulated cells, from the seed.  With seed_salt = seed the cost
 * of the slowest sub-suite's subset -- which sets serve-warm's
 * query_p99_ms -- depended on the seed, and seeds fell into two groups
 * about 18% apart.
 */
speclens::core::ServiceConfig serveServiceConfig();

/** Number of set-ups a run times; setup_s is their median. */
inline constexpr int kSetupRepeats = 3;

/** Nearest-rank quantile of @p values (0 when empty). */
double quantile(std::vector<double> values, double q);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** JSON string literal. */
std::string jsonString(const std::string &text);

/** JSON number with all significant digits (non-finite becomes null). */
std::string jsonNumber(double value);

/**
 * What one run measured and checked.  Operations and gate checks both
 * count as attempted; a wrong, refused or failed one counts as failed.
 */
class Report
{
  public:
    void metric(const std::string &name, const std::string &unit,
                double value);

    /** Count @p n operations that succeeded. */
    void succeeded(std::size_t n = 1) { attempted_ += n; }

    /** Count one operation or gate check; record @p what when it failed. */
    bool check(bool pass, const std::string &what);

    /** Extra record field; @p json is a complete JSON value. */
    void detail(const std::string &key, const std::string &json);

    std::size_t attempted() const { return attempted_; }
    std::size_t failed() const { return failed_; }

    /** The run record: one JSON object on one line. */
    std::string render(const Options &options) const;

  private:
    struct Metric
    {
        std::string unit;
        double value = 0.0;
    };

    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::vector<std::string> failures_;
    std::map<std::string, Metric> metrics_;
    std::map<std::string, std::string> details_;
};

/** One recorded span.  parent is an index into the span list, or -1. */
struct SpanRecord
{
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    long parent = -1;
    std::uint64_t request = 0;

    double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

/**
 * In-memory span recorder for the benchmark program's own thread.
 * Disabled, it reads no clock and stores nothing, so one code path
 * serves the timed run and the traced run.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** RAII span; its parent is the innermost open span. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, std::uint64_t request = 0);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        long index_ = -1;
    };

    /** Durations (s) of every span named @p name under a root named
     *  @p root (any root when empty). */
    std::vector<double> durations(const std::string &name,
                                  const std::string &root = "") const;

    /** Sum of durations(). */
    double total(const std::string &name, const std::string &root = "") const;

    /** Request ids of the spans durations() returns, in the same order. */
    std::vector<std::uint64_t> requests(const std::string &name,
                                        const std::string &root = "") const;

  private:
    const std::string &rootName(std::size_t index) const;

    bool enabled_;
    std::vector<SpanRecord> spans_;
    std::vector<long> open_;
};

/**
 * Per-layer self time of a traced window.  A span's layer is its name
 * up to the first '.'; its self time is its duration minus its
 * children's.  Spans of the `bench` layer only group the benchmark
 * program's own sections, so their self time is unattributed: the rows
 * plus unattributed_seconds make up wall_seconds.
 */
struct LayerTable
{
    std::map<std::string, double> self_seconds;
    double wall_seconds = 0.0;
    double unattributed_seconds = 0.0;
    /**
     * Consistency evidence, each ~0 when the table is right: |sum of the
     * rows - sum of the outermost layer spans' durations|, and the most
     * negative self time (a child outside its parent).
     */
    double self_sum_error_seconds = 0.0;
    double min_self_seconds = 0.0;

    static LayerTable build(const std::vector<SpanRecord> &spans,
                            double wall_seconds);

    std::string json() const;
};

/** Every span as a JSON array (name, start/end relative to @p origin). */
std::string spansJson(const std::vector<SpanRecord> &spans,
                      std::uint64_t origin_ns);

/** Resource gauges of this process, read from /proc/self. */
struct ProcSample
{
    double vmsize_mb = 0.0;
    double vmhwm_mb = 0.0;
    double vmrss_mb = 0.0;
    double threads = 0.0;
    double fds = 0.0;

    static ProcSample read();
    std::string json() const;
};

/** Difference of the obs registry between construction and stop(). */
class RegistryDelta
{
  public:
    RegistryDelta();

    /** Take the end snapshot; the reads below compare it with the start. */
    void stop();

    double counter(const std::string &name) const;
    double timingSeconds(const std::string &name) const;

  private:
    speclens::obs::Snapshot start_;
    speclens::obs::Snapshot end_;
};

/** Canonical key of a request (its wire encoding). */
inline std::string
requestKey(const speclens::serve::Request &request)
{
    return speclens::serve::encodeRequest(request);
}

} // namespace perfbench

#endif // SPECLENS_PERFBENCH_SUPPORT_H
