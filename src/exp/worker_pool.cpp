#include "exp/worker_pool.hpp"

#include <algorithm>

#include "common/fatal.hpp"

namespace dvsnet::exp
{

std::size_t
resolveThreadCount(std::size_t requested)
{
    if (requested > kMaxThreads) {
        throw ConfigError(detail::concat("threads ", requested,
                                         " exceed the cap of ", kMaxThreads,
                                         " worker threads"));
    }
    if (requested > 0)
        return requested;
    return std::max(1u, std::thread::hardware_concurrency());
}

WorkerPool::WorkerPool(std::size_t threads)
{
    const std::size_t n = resolveThreadCount(threads);
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workAvailable_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
WorkerPool::post(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(job));
        ++posted_;
    }
    workAvailable_.notify_one();
}

void
WorkerPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return completed_ == posted_; });
}

void
WorkerPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workAvailable_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return;  // stopping_ with nothing left to do
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        job();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++completed_;
        }
        allDone_.notify_all();
    }
}

} // namespace dvsnet::exp
