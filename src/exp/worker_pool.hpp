/**
 * @file
 * Fixed-size thread pool for experiment execution.
 *
 * Deliberately minimal: FIFO job queue, `post()` to enqueue, `wait()`
 * to drain.  Each job runs start-to-finish on one worker thread, which
 * is the confinement guarantee the ExperimentRunner builds on: a
 * Network/Kernel pair is touched by one worker at a time.  A network
 * that a job keeps (exp::LiveNetwork) may run on, in a later job, on
 * another worker; the pool orders that hand-over.  Everything a job
 * did happens before `wait()` returns, and a `post()` happens before
 * the job it posts starts, both through the pool's mutex.
 */

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dvsnet::exp
{

/** Most worker threads a pool starts (the `threads` cap). */
inline constexpr std::size_t kMaxThreads = 1024;

/**
 * Resolve a thread-count request: 0 means one per hardware thread.
 * @throws ConfigError for a request past kMaxThreads, before any
 *         thread starts.
 */
std::size_t resolveThreadCount(std::size_t requested);

/** Fixed-size FIFO worker pool. */
class WorkerPool
{
  public:
    /** Spawn `threads` workers (0 = hardware concurrency; see
     *  resolveThreadCount for the cap). */
    explicit WorkerPool(std::size_t threads = 0);

    /** Drains the queue, then joins all workers. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    std::size_t threadCount() const { return workers_.size(); }

    /**
     * Enqueue a job.  Jobs must not throw — wrap the body in a
     * try/catch and record failures out-of-band (the runner does).
     */
    void post(std::function<void()> job);

    /** Block until every job posted so far has finished. */
    void wait();

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable workAvailable_;
    std::condition_variable allDone_;
    std::deque<std::function<void()>> queue_;
    std::size_t posted_ = 0;
    std::size_t completed_ = 0;
    bool stopping_ = false;
    std::vector<std::thread> workers_;  ///< last member: joins first
};

} // namespace dvsnet::exp
