/**
 * @file
 * Traced-run probes shared by the three workloads.
 *
 * The traced run of each workload replays the workload's measured
 * phase with spans on, then runs three probes that call single layers
 * directly, so every per-layer metric is measured on every workload:
 *
 *  - layerProbe(): per (benchmark, machine) pair, TraceGenerator::fill,
 *    PrewarmSolver::apply, uarch::simulate at the default and with the
 *    prewarm walk forced, and computeCpiStack + computePower.
 *  - statsProbe(): feature matrices and the stats stages (z-score, PCA,
 *    distances, Ward clustering) for CPU2017 and its four sub-suites.
 *  - queryProbe(): one client, one request at a time, against a warm
 *    daemon: connect, round trip, codec, and the same query called
 *    directly on the daemon's context.
 */

#ifndef SPECLENS_PERFBENCH_PROBES_H
#define SPECLENS_PERFBENCH_PROBES_H

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/characterization.h"
#include "serve/server.h"
#include "suites/benchmark_info.h"
#include "support.h"
#include "uarch/machine.h"
#include "uarch/simulation.h"

namespace perfbench {

/**
 * An in-process daemon serving on an ephemeral loopback port from its
 * own thread.  Destruction drains it and joins the thread.
 */
class ServerRunner
{
  public:
    explicit ServerRunner(speclens::serve::ServerConfig config);
    ~ServerRunner();

    ServerRunner(const ServerRunner &) = delete;
    ServerRunner &operator=(const ServerRunner &) = delete;

    speclens::serve::Server &server() { return server_; }
    speclens::core::ServiceContext &context() { return *server_.context(); }
    std::uint16_t port() const { return server_.port(); }

  private:
    speclens::serve::Server server_;
    std::thread loop_;
};

/**
 * A daemon at the serve window whose memo already holds every CPU2017
 * cell on the profiling, sensitivity and memory-centric machine sets,
 * so no request it answers simulates.  With @p store_dir the cells are
 * also written to a store there.
 */
std::unique_ptr<ServerRunner>
startWarmServer(const std::string &store_dir = "");

/** One (benchmark, machine) cell. */
struct Pair
{
    const speclens::suites::BenchmarkInfo *benchmark = nullptr;
    const speclens::uarch::MachineConfig *machine = nullptr;
};

/** The cross product @p benchmarks x @p machines. */
std::vector<Pair>
crossProduct(const std::vector<speclens::suites::BenchmarkInfo> &benchmarks,
             const std::vector<speclens::uarch::MachineConfig> &machines);

/** trace.* and uarch.* metrics (root span bench.layer_probe). */
void layerProbe(const std::vector<Pair> &pairs,
                const speclens::uarch::SimulationConfig &window,
                Tracer &tracer, Report &report);

/** core.feature_matrix_s and stats.* metrics (root bench.stats_probe). */
void statsProbe(speclens::core::Characterizer &characterizer,
                Tracer &tracer, Report &report);

/** core.query.* and serve.{connect,overhead,codec} metrics
 *  (root bench.query_probe). */
void queryProbe(ServerRunner &runner, Tracer &tracer, Report &report);

/**
 * Program counters from the obs registry: core.characterize.* and
 * serve.{errors,dropped} over the measured rounds (@p rounds);
 * core.store.* and core.parallel.queue_wait_s over the whole workload,
 * set-ups included (@p run), because set-up is where serve-warm's store
 * and pool work happens.
 */
void reportRegistry(const RegistryDelta &rounds, const RegistryDelta &run,
                    Report &report);

/** serve.{vmsize_mb,threads,fds}: end minus start of a workload section. */
void reportResources(const ProcSample &start, const ProcSample &end,
                     Report &report);

/**
 * The traced window's layer table: one `<layer>.self_s` metric per
 * layer, bench.traced_wall_s and bench.unattributed_s; fails the run if
 * the rows plus bench.unattributed_s do not add up to the wall-clock.
 * The spans go into the record.
 */
void reportLayerTable(const Tracer &tracer, std::uint64_t origin_ns,
                      double wall_seconds, Report &report);

} // namespace perfbench

#endif // SPECLENS_PERFBENCH_PROBES_H
