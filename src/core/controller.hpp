/**
 * @file
 * Per-output-port DVS controller — the architectural realization of
 * Fig. 6's hardware block.  Every `window` router cycles it:
 *
 *   1. reads the channel's link-utilization counter (Eq. 2),
 *   2. reads the credit-derived downstream buffer utilization (Eq. 3),
 *   3. runs the attached DVS policy,
 *   4. issues a one-step level change to the DVS channel.
 *
 * Transitions are slow relative to the window (10 us vs 200 cycles), so
 * the controller skips evaluation results while the channel is mid-
 * transition, matching a controller whose request line is busy.
 */

#pragma once

#include <cstdint>
#include <memory>

#include "common/types.hpp"
#include "core/policy.hpp"
#include "link/dvs_link.hpp"
#include "router/router.hpp"
#include "sim/kernel.hpp"

namespace dvsnet::core
{

/** Counters a controller keeps for reporting. */
struct ControllerStats
{
    std::uint64_t windows = 0;
    std::uint64_t stepsFaster = 0;
    std::uint64_t stepsSlower = 0;
    std::uint64_t holds = 0;
    std::uint64_t skippedBusy = 0;  ///< decisions lost to transitions
};

/** Controls one output port's DVS channel. */
class PortDvsController
{
  public:
    /**
     * @param kernel event kernel for periodic self-scheduling
     * @param channel the DVS channel this controller drives (not owned)
     * @param upstreamRouter router whose output port feeds `channel`
     * @param outPort that output port
     * @param policy decision policy (owned)
     * @param windowCycles history window H in router cycles (Table 1: 200)
     * @param cooldownWindows windows to hold after a transition
     *        completes before issuing another (0 = Algorithm 1 verbatim;
     *        the paper's conclusion suggests matching the DVS interval
     *        to the transition delay ratio — this knob implements that)
     */
    PortDvsController(sim::Kernel &kernel, link::DvsChannel *channel,
                      router::Router *upstreamRouter, PortId outPort,
                      std::unique_ptr<DvsPolicy> policy,
                      Cycle windowCycles, Cycle cooldownWindows = 0);

    /** Begin periodic evaluation (first window ends `window` from now). */
    void start();

    /** Latest window's raw measurements (for probes and figures). */
    double lastLinkUtil() const { return lastLu_; }
    double lastBufferUtil() const { return lastBu_; }

    const ControllerStats &stats() const { return stats_; }

  private:
    void evaluate();

    sim::Kernel &kernel_;
    link::DvsChannel *channel_;
    router::Router *router_;
    PortId outPort_;
    std::unique_ptr<DvsPolicy> policy_;
    Cycle windowCycles_;
    Cycle cooldownWindows_;
    Cycle cooldownLeft_ = 0;
    bool wasStable_ = true;
    double lastLu_ = 0.0;
    double lastBu_ = 0.0;
    ControllerStats stats_;
};

} // namespace dvsnet::core
