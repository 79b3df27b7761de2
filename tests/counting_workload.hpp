/**
 * @file
 * Test workload "counting[:variant=N]": uniform random traffic that
 * counts its start() calls, i.e. how often a packet stream is
 * generated, and throws from the first countingFailuresLeft of them.
 * The variant only changes the spec string.  Shared by the runner's
 * stream-sharing tests and the search's common-random-numbers test.
 *
 * While countingGate is closed, start() waits for it to open.  A test
 * that counts generations closes it while it submits a batch of jobs:
 * the runner frees a stream when the last submitted job reading it
 * finishes, so a job finishing before an equal one is submitted would
 * make that one record the stream again.
 */

#pragma once

#include <atomic>
#include <memory>
#include <utility>

#include "common/fatal.hpp"
#include "traffic/pattern_traffic.hpp"
#include "workload/factory.hpp"

namespace dvsnet::testutil
{

inline std::atomic<int> countingStarts{0};
inline std::atomic<int> countingFailuresLeft{0};
inline std::atomic<bool> countingGate{true};  ///< open

/** Close countingGate until destroyed. */
class CountingGateClosed
{
  public:
    CountingGateClosed() { countingGate = false; }

    ~CountingGateClosed()
    {
        countingGate = true;
        countingGate.notify_all();
    }

    CountingGateClosed(const CountingGateClosed &) = delete;
    CountingGateClosed &operator=(const CountingGateClosed &) = delete;
};

class CountingTraffic final : public traffic::TrafficGenerator
{
  public:
    CountingTraffic(const topo::KAryNCube &topo, double rate,
                    std::uint64_t seed)
        : inner_(topo, traffic::Pattern::UniformRandom,
                 rate / topo.numNodes(), seed)
    {
    }

    void
    start(sim::Kernel &kernel, traffic::PacketSink sink) override
    {
        countingGate.wait(false);
        ++countingStarts;
        if (countingFailuresLeft.fetch_sub(1) > 0)
            throw ConfigError("counting workload: scripted failure");
        inner_.start(kernel, std::move(sink));
    }

    const char *name() const override { return "counting"; }

  private:
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
