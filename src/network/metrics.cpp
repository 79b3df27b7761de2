#include "network/metrics.hpp"

#include "common/fatal.hpp"
#include "common/table.hpp"

namespace dvsnet::network
{

router::PacketSlot
MetricsCollector::onPacketCreated(const router::PacketDesc &pkt)
{
    const router::PacketSlot slot = packets_.add(pkt);
    router::Packet &entry = packets_.at(slot);
    entry.inWindow = pkt.created >= windowStart_;
    if (entry.inWindow)
        ++packetsCreated_;
    return slot;
}

bool
MetricsCollector::onFlitEjected(const router::Flit &flit, Tick arrival)
{
    DVSNET_ASSERT(packets_.live(flit.slot),
                  "ejected flit of unknown packet (slot ", flit.slot, ")");
    router::Packet &pkt = packets_.at(flit.slot);
    DVSNET_ASSERT(flit.seq == pkt.nextSeq, "flit reorder in packet ",
                  pkt.id, ": got seq ", flit.seq, " expected ",
                  pkt.nextSeq);
    ++pkt.nextSeq;

    if (arrival >= windowStart_)
        ++flitsEjected_;

    if (!flit.isTail())
        return false;

    DVSNET_ASSERT(pkt.nextSeq == pkt.length, "packet ", pkt.id,
                  " ejected short");
    if (arrival >= windowStart_)
        ++packetsEjected_;
    const bool counted = pkt.inWindow;
    if (counted) {
        ++packetsDelivered_;
        const double latencyCycles =
            static_cast<double>(arrival - pkt.created) /
            static_cast<double>(kRouterClockPeriod);
        latency_.add(latencyCycles);
    }
    packets_.release(flit.slot);
    return counted;
}

std::size_t
MetricsCollector::windowInFlight() const
{
    std::size_t count = 0;
    packets_.forEachLive([&count](const router::Packet &pkt) {
        if (pkt.inWindow)
            ++count;
    });
    return count;
}

void
MetricsCollector::verify(SimAssert &inv) const
{
    const std::size_t pendingInWindow = windowInFlight();
    inv.check(packetsCreated_ == packetsDelivered_ + pendingInWindow,
              "packet accounting mismatch: created=", packetsCreated_,
              " delivered=", packetsDelivered_,
              " in-flight-in-window=", pendingInWindow);
    inv.check(packetsDelivered_ <= packetsCreated_,
              "delivered ", packetsDelivered_, " exceeds created ",
              packetsCreated_);
}

Json
toJson(const RunResults &r)
{
    Json j = Json::object();
    j["measured_cycles"] = Json(static_cast<std::uint64_t>(r.measuredCycles));
    j["packets_created"] = Json(r.packetsCreated);
    j["packets_delivered"] = Json(r.packetsDelivered);
    j["flits_ejected"] = Json(r.flitsEjected);
    j["offered_load_pkts_per_cycle"] = Json(r.offeredLoadPktsPerCycle);
    j["throughput_pkts_per_cycle"] = Json(r.throughputPktsPerCycle);
    j["throughput_flits_per_cycle"] = Json(r.throughputFlitsPerCycle);
    j["avg_latency_cycles"] = Json(r.avgLatencyCycles);
    j["max_latency_cycles"] = Json(r.maxLatencyCycles);
    j["avg_power_w"] = Json(r.avgPowerW);
    j["normalized_power"] = Json(r.normalizedPower);
    j["savings_factor"] = Json(r.savingsFactor);
    j["transition_energy_j"] = Json(r.transitionEnergyJ);
    j["total_energy_j"] = Json(r.totalEnergyJ);
    j["flit_energy_j"] = Json(r.flitEnergyJ);
    j["avg_channel_level"] = Json(r.avgChannelLevel);
    j["invariant_checks"] = Json(r.invariantChecks);
    j["invariant_failures"] = Json(r.invariantFailures);
    return j;
}

RunResults
runResultsFromJson(const Json &j)
{
    if (!j.isObject())
        throw ConfigError("RunResults echo must be a JSON object");
    auto number = [&j](const char *key) {
        return jsonNumber(j, key, "RunResults echo");
    };
    auto count = [&j](const char *key) {
        return jsonCount(j, key, "RunResults echo");
    };

    RunResults r;
    r.measuredCycles = static_cast<Cycle>(count("measured_cycles"));
    r.packetsCreated = count("packets_created");
    r.packetsDelivered = count("packets_delivered");
    r.flitsEjected = count("flits_ejected");
    r.offeredLoadPktsPerCycle = number("offered_load_pkts_per_cycle");
    r.throughputPktsPerCycle = number("throughput_pkts_per_cycle");
    r.throughputFlitsPerCycle = number("throughput_flits_per_cycle");
    r.avgLatencyCycles = number("avg_latency_cycles");
    r.maxLatencyCycles = number("max_latency_cycles");
    r.avgPowerW = number("avg_power_w");
    r.normalizedPower = number("normalized_power");
    r.savingsFactor = number("savings_factor");
    r.transitionEnergyJ = number("transition_energy_j");
    r.totalEnergyJ = number("total_energy_j");
    r.flitEnergyJ = number("flit_energy_j");
    r.avgChannelLevel = number("avg_channel_level");
    r.invariantChecks = count("invariant_checks");
    r.invariantFailures = count("invariant_failures");
    return r;
}

std::string
latencyCell(const RunResults &results, int precision)
{
    if (results.packetsDelivered == 0)
        return "n/a";
    return Table::num(results.avgLatencyCycles, precision);
}

void
MetricsCollector::beginWindow(Tick now)
{
    windowStart_ = now;
    packetsCreated_ = 0;
    packetsDelivered_ = 0;
    packetsEjected_ = 0;
    flitsEjected_ = 0;
    latency_.reset();
    packets_.forEachLive(
        [](router::Packet &pkt) { pkt.inWindow = false; });
}

} // namespace dvsnet::network
