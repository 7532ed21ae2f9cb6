/**
 * @file
 * Minimal shared-memory parallelism utilities.
 *
 * The measurement campaigns this toolkit runs are embarrassingly
 * parallel: every (benchmark, machine) simulation is independent and
 * independently seeded, so work can be fanned out across threads with
 * no effect on results.  This header provides the two shapes the rest
 * of the code needs:
 *
 *  - parallelFor(): run a loop body over [0, count) on up to N worker
 *    threads, with the calling thread participating.  Exceptions thrown
 *    by the body are captured and the first one is rethrown on the
 *    caller once all workers have drained.
 *
 *  - ThreadPool: a reusable fixed-size pool with submit()/wait()
 *    semantics for callers that issue many irregular task batches and
 *    want to amortise thread start-up.
 *
 * Determinism contract: neither utility imposes any ordering on task
 * execution, so callers must make each task independent (no shared
 * mutable state without synchronisation, no order-dependent RNG use).
 * All campaign code in SpecLens keys results by task identity rather
 * than completion order, which is what makes output bit-identical for
 * any job count.
 */

#ifndef SPECLENS_CORE_PARALLEL_H
#define SPECLENS_CORE_PARALLEL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace speclens {
namespace obs {
class Counter;
class Timing;
} // namespace obs

namespace core {

/**
 * Job count meaning "one per hardware thread": hardware_concurrency(),
 * or 1 when the runtime cannot determine it.
 */
std::size_t defaultJobCount();

/**
 * Resolve a user-facing jobs value: 0 means "auto" (defaultJobCount()),
 * anything else is taken literally.
 */
std::size_t resolveJobCount(std::size_t jobs);

/**
 * Run @p body(i) for every i in [0, @p count) using up to @p jobs
 * threads (0 = auto).  The calling thread participates, so jobs == 1
 * (or count <= 1) degenerates to a plain serial loop with no threads
 * created.  Indices are claimed from a shared atomic counter, so the
 * schedule is dynamic; bodies must therefore be independent of
 * execution order.
 *
 * If any body throws, remaining indices are abandoned (bodies already
 * running finish) and the first captured exception is rethrown on the
 * caller after all workers join.
 */
void parallelFor(std::size_t count, std::size_t jobs,
                 const std::function<void(std::size_t)> &body);

/**
 * Fixed-size reusable worker pool.
 *
 * submit() enqueues a task; wait() blocks until every submitted task
 * has finished and rethrows the first exception any task raised (the
 * others are dropped).  The destructor drains the queue before
 * joining, so letting a pool die is equivalent to wait() minus the
 * rethrow.
 *
 * Each pool records `<prefix>.queue_wait` (time a task waited for a
 * worker) and `<prefix>.pool_tasks`.  A pool whose tasks are not
 * campaign work (the serve daemon's connections) passes its own prefix
 * so they stay out of `core.parallel.*`.
 */
class ThreadPool
{
  public:
    /**
     * @param workers Worker threads; 0 means defaultJobCount().
     * @param metric_prefix Prefix of the pool's obs metric names.
     */
    explicit ThreadPool(
        std::size_t workers = 0,
        const std::string &metric_prefix = "core.parallel");

    /** Drains outstanding tasks, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    std::size_t size() const { return workers_.size(); }

    /** Enqueue @p task for execution on some worker. */
    void submit(std::function<void()> task);

    /**
     * Block until the queue is empty and no task is running, then
     * rethrow the first exception captured since the last wait().
     */
    void wait();

  private:
    /** A submitted task plus when it entered the queue (metrics). */
    struct QueuedTask
    {
        std::function<void()> fn;
        std::uint64_t enqueued_ns = 0;
    };

    void workerLoop();

    obs::Timing &queue_wait_;
    obs::Counter &pool_tasks_;
    std::vector<std::thread> workers_;
    std::deque<QueuedTask> queue_;
    std::mutex mutex_;
    std::condition_variable task_ready_;
    std::condition_variable idle_;
    std::size_t running_ = 0;
    bool stopping_ = false;
    std::exception_ptr first_error_;
};

} // namespace core
} // namespace speclens

#endif // SPECLENS_CORE_PARALLEL_H
