/**
 * @file
 * Measurement plane: per-packet latency, delivery integrity, throughput.
 *
 * Latency follows the paper's definition (Section 4.2): "creation of the
 * first flit of the packet to ejection of its last flit at the
 * destination router, including source queuing time and assuming
 * immediate ejection".  Only packets created inside the measurement
 * window contribute to latency; throughput counts all ejections inside
 * the window.  The collector also verifies no flit is lost, duplicated
 * or reordered within its packet.
 */

#pragma once

#include <cstdint>
#include <string>

#include "common/counters.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "router/flit.hpp"

namespace dvsnet::network
{

/** End-of-run summary. */
struct RunResults
{
    Cycle measuredCycles = 0;
    std::uint64_t packetsCreated = 0;     ///< in window
    std::uint64_t packetsDelivered = 0;   ///< created in window & delivered
    std::uint64_t flitsEjected = 0;       ///< in window
    double offeredLoadPktsPerCycle = 0.0;
    double throughputPktsPerCycle = 0.0;
    double throughputFlitsPerCycle = 0.0;
    double avgLatencyCycles = 0.0;
    double maxLatencyCycles = 0.0;
    double avgPowerW = 0.0;
    double normalizedPower = 1.0;  ///< vs all-links-at-max
    double savingsFactor = 1.0;    ///< reference / measured (paper's "X")
    double transitionEnergyJ = 0.0;
    double totalEnergyJ = 0.0;     ///< window energy incl. all charges
    double flitEnergyJ = 0.0;      ///< data-dependent per-flit share
    double avgChannelLevel = 0.0;  ///< mean DVS level at run end

    /** SimAssert totals over the run's registry at collection time, so
     *  an exported artifact carries proof the invariants actually ran. */
    std::uint64_t invariantChecks = 0;
    std::uint64_t invariantFailures = 0;
};

/** Flat JSON object with every RunResults field (artifact schema v1). */
Json toJson(const RunResults &results);

/**
 * Inverse of toJson(RunResults): rebuild a results object from its
 * artifact echo.  The JSON writer's shortest-round-trip double format
 * makes the pair lossless, so a journaled result re-read by the search
 * cache is bit-identical to the original run.  @throws ConfigError on a
 * missing or mis-typed field.
 */
RunResults runResultsFromJson(const Json &j);

/**
 * Mean latency as a table cell with `precision` decimals, or "n/a" when
 * the window delivered no packet: the mean of no samples reads 0, the
 * best latency there is.
 */
std::string latencyCell(const RunResults &results, int precision = 1);

/**
 * Collects packet lifecycle events.  The collector keeps its per-packet
 * state (next expected flit, in-window bit) in the network's
 * PacketTable: it enters each packet there at creation and releases the
 * slot when the tail ejects.
 */
class MetricsCollector
{
  public:
    /** @param packets the table flits index (caller-owned, outlives us) */
    explicit MetricsCollector(router::PacketTable &packets)
        : packets_(packets)
    {}

    /**
     * Record a packet entering its source queue: enter it in the packet
     * table and return its slot.  Ids must strictly increase.
     */
    router::PacketSlot onPacketCreated(const router::PacketDesc &pkt);

    /**
     * Record a flit ejected at its destination at `arrival`.
     * Verifies in-packet ordering; on the tail, releases the packet's
     * slot.  Returns true if this completed a packet created inside
     * the measurement window.
     */
    bool onFlitEjected(const router::Flit &flit, Tick arrival);

    /** Restart the measurement window at `now`. */
    void beginWindow(Tick now);

    /** Packets created since the window began. */
    std::uint64_t packetsCreated() const { return packetsCreated_; }

    /** Window packets fully delivered. */
    std::uint64_t packetsDelivered() const { return packetsDelivered_; }

    /** Flits ejected since the window began. */
    std::uint64_t flitsEjected() const { return flitsEjected_; }

    /** Packets ejected since the window began (any creation time). */
    std::uint64_t packetsEjected() const { return packetsEjected_; }

    /** Latency of window-created, delivered packets (cycles). */
    const RunningStat &latency() const { return latency_; }

    /** Packets currently in flight (created, not fully ejected). */
    std::size_t inFlight() const { return packets_.size(); }

    /** In-flight packets that were created inside the window. */
    std::size_t windowInFlight() const;

    /**
     * Check packet accounting against `inv`: every window-created packet
     * is either delivered or still in the packet table (counters vs. a
     * table scan, redundant paths that must agree).
     */
    void verify(SimAssert &inv) const;

  private:
    router::PacketTable &packets_;
    RunningStat latency_;
    Tick windowStart_ = 0;
    std::uint64_t packetsCreated_ = 0;
    std::uint64_t packetsDelivered_ = 0;
    std::uint64_t packetsEjected_ = 0;
    std::uint64_t flitsEjected_ = 0;
};

} // namespace dvsnet::network
