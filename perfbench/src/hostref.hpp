/**
 * @file
 * The host-speed reference: a fixed kernel, independent of dvsnet, whose
 * time tracks how fast the host runs at the moment.
 *
 * On a shared host the same round with the same inputs can take 30-70%
 * longer for a minute or two while other tenants load the machine.  The
 * untraced run samples the reference before the first round and after
 * every round, and scales its host times by kNominalSeconds over the
 * median sample, so they read as on a host where the reference takes
 * kNominalSeconds.  The kernel does what the simulator's event queue does
 * (binary-heap hold operations, a table update per event) on as many
 * threads as the rounds use, with a working set that fits in each core's
 * own cache, so it follows the host's clock speed and not the benchmark's
 * memory traffic.  A sample is the mean of the threads' CPU times, so a
 * thread that waits for a core does not count.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{

class HostReference
{
  public:
    /** Seconds the reference is scaled to. */
    static constexpr double kNominalSeconds = 0.25;

    explicit HostReference(std::size_t threads);

    /** Mean CPU seconds per thread of one fixed pass on every thread. */
    double sample();

  private:
    std::vector<std::vector<std::uint32_t>> tables_;
    std::uint64_t checksum_ = 0;
};

} // namespace perfbench
