/**
 * @file
 * Fundamental type aliases shared across all dvsnet modules.
 *
 * The simulator models two independent clock domains per the paper: a fixed
 * 1 GHz router-core clock and a per-channel variable link clock
 * (125 MHz - 1 GHz).  To schedule both exactly on one timeline, simulated
 * time is kept in integer picoseconds.
 */

#pragma once

#include <cstdint>
#include <limits>

namespace dvsnet
{

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** Router-core clock cycle count. */
using Cycle = std::uint64_t;

/** Sentinel for "no tick" / "never". */
inline constexpr Tick kTickNever = std::numeric_limits<Tick>::max();

/** Ticks per second (time base is 1 ps). */
inline constexpr double kTicksPerSecond = 1e12;

/** Router core clock: 1 GHz -> 1000 ps per cycle (Section 4.2). */
inline constexpr Tick kRouterClockPeriod = 1000;

/** Identifies a node (router + attached terminal) in the network. */
using NodeId = std::int32_t;

/** Identifies a unidirectional inter-router channel. */
using ChannelId = std::int32_t;

/** Port index within a router (directions first, terminal port last). */
using PortId = std::int32_t;

/** Virtual-channel index within a port. */
using VcId = std::int32_t;

/** Sentinel for unassigned ids. */
inline constexpr std::int32_t kInvalidId = -1;

/** Convert seconds to ticks, rounding to nearest. */
constexpr Tick
secondsToTicks(double seconds)
{
    return static_cast<Tick>(seconds * kTicksPerSecond + 0.5);
}

/** Convert ticks to seconds. */
constexpr double
ticksToSeconds(Tick ticks)
{
    return static_cast<double>(ticks) / kTicksPerSecond;
}

/** Convert router cycles to ticks. */
constexpr Tick
cyclesToTicks(Cycle cycles)
{
    return cycles * kRouterClockPeriod;
}

/**
 * Tick of the router clock edge strictly after `t` (edges at multiples
 * of kRouterClockPeriod).  The network's step chain and the stream
 * recorder's stand-in for it both start here, so their events take the
 * same places in the kernel's order.
 */
constexpr Tick
routerEdgeAfter(Tick t)
{
    return t - t % kRouterClockPeriod + kRouterClockPeriod;
}

/**
 * Tick of the first router clock edge at or after `t`: the edge whose
 * step first sees a delivery that arrives at `t`.
 */
constexpr Tick
routerEdgeAtOrAfter(Tick t)
{
    return t % kRouterClockPeriod == 0 ? t : routerEdgeAfter(t);
}

/** Convert ticks to whole router cycles (floor). */
constexpr Cycle
ticksToCycles(Tick ticks)
{
    return ticks / kRouterClockPeriod;
}

} // namespace dvsnet
