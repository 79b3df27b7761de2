/**
 * @file
 * Tracing from outside the simulator: spans recorded around the
 * benchmark's own calls into each module's public functions, and the
 * counters those modules expose (Network::observability(), the DVS
 * controllers' stats, the kernel's event count).  Nothing inside src/ is
 * instrumented.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/json.hpp"
#include "core/controller.hpp"
#include "workloads.hpp"

namespace perfbench
{

/** One timed interval; spans of one point share `point`. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    const char *name = "";
    std::size_t point = 0;     ///< point index + 1; 0 = not a point's span
    double start = 0.0;        ///< seconds since the log's epoch
    double end = 0.0;
};

/** Thread-safe in-memory span store, written out when the run ends. */
class SpanLog
{
  public:
    SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    double now() const;
    std::uint64_t newId() { return nextId_.fetch_add(1); }
    void add(const Span &span);

    /** {"spans": [{id, parent, name, point, start_s, end_s}, ...]} */
    dvsnet::Json toJson() const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::atomic<std::uint64_t> nextId_{1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;  ///< guarded by mutex_
};

/** Times a scope; records it as a span when given a log. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, std::uint64_t parent,
               std::size_t point = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return span_.id; }

    /** Seconds since the span opened. */
    double seconds() const;

  private:
    SpanLog *log_;
    Span span_;
    std::chrono::steady_clock::time_point start_;
};

/** Layer counters of one traced point. */
struct LayerSample
{
    bool ok = false;
    std::string error;
    dvsnet::network::RunResults results;

    double pointS = 0.0;
    double constructS = 0.0;
    double runS = 0.0;

    std::uint64_t cycles = 0;
    std::uint64_t routerSteps = 0;
    std::uint64_t routerWakes = 0;
    std::uint64_t routers = 0;
    std::uint64_t events = 0;          ///< kernel events (all components)
    std::uint64_t packetsCreated = 0;  ///< sum of packetsCreatedAt()

    std::uint64_t flitsSent = 0;
    std::uint64_t flitBursts = 0;
    std::uint64_t creditBursts = 0;
    std::uint64_t stepsStarted = 0;
    std::uint64_t stepsRejected = 0;
    dvsnet::core::ControllerStats controllers;
};

/**
 * Run each job with the calls exp::runPoint makes, on an exp::WorkerPool
 * of `threads`, reading the layer counters; with a `log`, every call is
 * spanned too.  `wallSeconds` receives the whole batch's wall time.
 */
std::vector<LayerSample>
runTracedPoints(const std::vector<dvsnet::exp::PointJob> &jobs,
                std::size_t threads, SpanLog *log, std::uint64_t parent,
                double &wallSeconds);

/** The traffic generator of one job driven alone on a bare kernel. */
struct GeneratorSample
{
    bool ok = false;
    std::string error;
    double genS = 0.0;
    std::uint64_t events = 0;
    std::uint64_t packets = 0;
};

std::vector<GeneratorSample>
runGeneratorsAlone(const std::vector<dvsnet::exp::PointJob> &jobs,
                   std::size_t threads, SpanLog &log, std::uint64_t parent);

/**
 * Set-up time of one round, untimed work excluded: Network construction,
 * workload::buildWorkload and attachTraffic summed over setupJobs(), plus
 * SearchDriver construction for the search workload.
 */
double setupSeconds(const Workload &workload);

} // namespace perfbench
