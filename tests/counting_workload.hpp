/**
 * @file
 * Test workload "counting[:variant=N]": uniform random traffic that
 * logs its start() calls, i.e. each packet stream generated, with their
 * rates and seeds in call order, and throws from the first
 * countingFailuresLeft of them.  The variant only changes the spec
 * string.  Shared by the runner's stream-sharing and dispatch-order
 * tests and the search's common-random-numbers test.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <utility>
#include <vector>

#include "common/fatal.hpp"
#include "traffic/pattern_traffic.hpp"
#include "workload/factory.hpp"

namespace dvsnet::testutil
{

inline std::atomic<int> countingFailuresLeft{0};

/** The rate and seed of one start() call. */
struct CountingStart
{
    double rate;
    std::uint64_t seed;

    bool operator==(const CountingStart &) const = default;
};

inline std::ostream &
operator<<(std::ostream &os, const CountingStart &s)
{
    return os << "rate " << s.rate << " seed " << s.seed;
}

/** Every start() call, in call order; written under countingLogMutex. */
inline std::mutex countingLogMutex;
inline std::vector<CountingStart> countingLog;

class CountingTraffic final : public traffic::TrafficGenerator
{
  public:
    CountingTraffic(const topo::KAryNCube &topo, double rate,
                    std::uint64_t seed)
        : rate_(rate), seed_(seed),
          inner_(topo, traffic::Pattern::UniformRandom,
                 rate / topo.numNodes(), seed)
    {
    }

    void
    start(sim::Kernel &kernel, traffic::PacketSink sink) override
    {
        {
            std::lock_guard<std::mutex> lock(countingLogMutex);
            countingLog.push_back({rate_, seed_});
        }
        if (countingFailuresLeft.fetch_sub(1) > 0)
            throw ConfigError("counting workload: scripted failure");
        inner_.start(kernel, std::move(sink));
    }

    const char *name() const override { return "counting"; }

  private:
    double rate_;
    std::uint64_t seed_;
    traffic::PatternTraffic inner_;
};

/** Register "counting" with the workload registry (idempotent). */
inline void
registerCountingWorkload()
{
    workload::workloadRegistry().add(
        "counting", "test: uniform traffic counting generations",
        {"variant"},
        [](const Spec &, const workload::WorkloadContext &ctx) {
            return std::make_unique<CountingTraffic>(
                ctx.topo, ctx.injectionRate, ctx.seed);
        });
}

} // namespace dvsnet::testutil
