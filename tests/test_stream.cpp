/**
 * @file
 * Packet streams: the compact codec, the recorder's after-step bits, and
 * the lockstep property the pull path exists for — a network fed a
 * recorded stream (exp::runPoint) produces RunResults byte-identical to
 * attaching the live generator (Network::attachTraffic).
 *
 * The scripted test puts packets exactly on router clock edges, on both
 * sides of the step, at the warm-up boundary and mid-window; the
 * randomized test draws workloads, rates, seeds, policies and windows.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/fatal.hpp"
#include "common/rng.hpp"
#include "exp/experiment.hpp"
#include "network/network.hpp"
#include "network/sweep.hpp"
#include "traffic/stream.hpp"
#include "traffic/trace.hpp"
#include "workload/factory.hpp"
#include "workload/trace_binary.hpp"

using dvsnet::ConfigError;
using dvsnet::Cycle;
using dvsnet::cyclesToTicks;
using dvsnet::kRouterClockPeriod;
using dvsnet::kTickNever;
using dvsnet::NodeId;
using dvsnet::Rng;
using dvsnet::Tick;
using dvsnet::network::ExperimentSpec;
using dvsnet::network::Network;
using dvsnet::network::NetworkConfig;
using dvsnet::network::PolicyKind;
using dvsnet::network::RunResults;
using dvsnet::traffic::PacketRequest;
using dvsnet::traffic::PacketSink;
using dvsnet::traffic::PacketStream;
using dvsnet::traffic::StreamPacket;
using dvsnet::traffic::Trace;
using dvsnet::traffic::TraceEntry;
using dvsnet::traffic::TrafficGenerator;

namespace
{

std::vector<StreamPacket>
readAll(const PacketStream &stream)
{
    std::vector<StreamPacket> out;
    const auto cursor = stream.cursor();
    for (StreamPacket p; cursor->next(p);)
        out.push_back(p);
    return out;
}

/** The artifact echo, whose text is compared byte for byte. */
std::string
resultsJson(const RunResults &results)
{
    return dvsnet::network::toJson(results).dump();
}

/** Run `spec` with its generator attached to the network, live. */
RunResults
runLive(const ExperimentSpec &spec, double rate, std::uint64_t seed)
{
    Network net(spec.network);
    dvsnet::workload::WorkloadContext context{net.topology(), rate, seed,
                                              spec.workload};
    const auto generator =
        dvsnet::workload::buildWorkload(spec.workloadSpec, context);
    net.attachTraffic(*generator);
    return net.run(spec.warmup, spec.measure);
}

constexpr Cycle kScriptWarmup = 3000;
constexpr Cycle kScriptMeasure = 4000;

/**
 * Two packets on each scripted router clock edge.  The first comes from
 * an event queued at start(), more than a cycle ahead, so it fires
 * before the network's step at that edge; the second from an event
 * queued half a cycle before the edge, after the step at the edge was
 * queued, so it fires after that step.
 */
class EdgeScriptTraffic final : public TrafficGenerator
{
  public:
    void
    start(dvsnet::sim::Kernel &kernel, PacketSink sink) override
    {
        kernel_ = &kernel;
        sink_ = std::move(sink);
        for (const Cycle edgeCycle :
             {kScriptWarmup, kScriptWarmup + kScriptMeasure / 2}) {
            const Tick edge = cyclesToTicks(edgeCycle);
            kernel.at(edge, [this] { sink_(PacketRequest{0, 5}); });
            kernel.at(edge - kRouterClockPeriod / 2, [this, edge] {
                kernel_->at(edge, [this] { sink_(PacketRequest{1, 6}); });
            });
        }
    }

    const char *name() const override { return "edge-script"; }

  private:
    dvsnet::sim::Kernel *kernel_ = nullptr;
    PacketSink sink_;
};

void
registerEdgeScript()
{
    dvsnet::workload::workloadRegistry().add(
        "edge-script", "test: packets on both sides of two edges' steps", {},
        [](const dvsnet::Spec &, const dvsnet::workload::WorkloadContext &) {
            return std::make_unique<EdgeScriptTraffic>();
        });
}

} // namespace

TEST(PacketStream, CodecRoundTripsEveryField)
{
    Rng rng(99);
    const Tick gaps[] = {0, 1, 999, 1000, 123456789, Tick{1} << 40};
    std::vector<StreamPacket> packets;
    PacketStream stream;
    Tick when = 0;
    for (int k = 0; k < 2000; ++k) {
        when += gaps[rng.uniformInt(std::size(gaps))];
        StreamPacket p;
        p.when = when;
        p.request.src = static_cast<NodeId>(rng.uniformInt(1000));
        p.request.dst = static_cast<NodeId>(rng.uniformInt(1000));
        p.afterStep = rng.bernoulli(0.5);
        switch (rng.uniformInt(5)) {
          case 0:
            p.request.sizeFlits = std::numeric_limits<std::uint16_t>::max();
            break;
          case 1:
            p.request.trafficClass = std::numeric_limits<std::uint8_t>::max();
            break;
          case 2:
            p.request.tag = std::numeric_limits<std::uint64_t>::max();
            break;
          case 3:
            p.request = {p.request.src, p.request.dst,
                         static_cast<std::uint16_t>(rng.uniformInt(9)),
                         static_cast<std::uint8_t>(rng.uniformInt(3)),
                         rng.uniformInt(100000)};
            break;
          default:
            break;  // a plain packet: no extended fields
        }
        packets.push_back(p);
        stream.append(p);
    }
    EXPECT_EQ(stream.size(), packets.size());
    EXPECT_EQ(stream.horizon(), kTickNever);
    EXPECT_EQ(readAll(stream), packets);
}

TEST(PacketStream, PlainPacketsOnASmallMeshTakeFourBytes)
{
    // Tick gap < 4096 (two varint bytes with the flag bits), src and dst
    // < 128 (one byte each), no size/class/tag.
    PacketStream stream;
    for (int k = 1; k <= 100; ++k)
        stream.append({static_cast<Tick>(k) * 1000, {3, 60}, k % 7 == 0});
    EXPECT_EQ(stream.bytes(), 400u);
}

TEST(PacketStream, NetworkRunPastTheHorizonThrows)
{
    PacketStream stream(cyclesToTicks(1000));
    stream.append({cyclesToTicks(10), {0, 3}});
    NetworkConfig cfg;
    cfg.radix = 4;
    cfg.policy = PolicyKind::None;
    Network net(cfg);
    net.attachStream(stream.cursor());
    EXPECT_NO_THROW(net.runUntilCycle(1000));
    EXPECT_EQ(net.metrics().packetsEjected(), 1u);
    EXPECT_THROW(net.runUntilCycle(1001), ConfigError);
}

TEST(StreamLockstep, RecorderMarksPacketsAfterTheEdgeStep)
{
    EdgeScriptTraffic script;
    const auto stream =
        PacketStream::record(script, cyclesToTicks(kScriptWarmup +
                                                   kScriptMeasure));
    const auto packets = readAll(stream);
    ASSERT_EQ(packets.size(), 4u);
    for (std::size_t i = 0; i < packets.size(); ++i) {
        EXPECT_EQ(packets[i].when % kRouterClockPeriod, 0u);
        EXPECT_EQ(packets[i].afterStep, i % 2 == 1) << "packet " << i;
    }
    EXPECT_EQ(packets[0].when, cyclesToTicks(kScriptWarmup));
}

TEST(StreamLockstep, ScriptedEdgePacketsMatchTheLiveRun)
{
    registerEdgeScript();
    for (const PolicyKind policy : {PolicyKind::None, PolicyKind::History}) {
        ExperimentSpec spec;
        spec.network.radix = 4;
        spec.network.policy = policy;
        spec.workloadSpec = "edge-script";
        spec.warmup = kScriptWarmup;
        spec.measure = kScriptMeasure;

        const RunResults live = runLive(spec, 1.0, 1);
        const RunResults streamed = dvsnet::exp::runPoint(spec, 1.0, 1);
        // The warm-up boundary's pair is created before the window.
        EXPECT_EQ(live.packetsCreated, 2u);
        EXPECT_EQ(resultsJson(streamed), resultsJson(live))
            << "policy " << dvsnet::network::policyKindName(policy);
    }
}

TEST(StreamLockstep, RandomizedLiveMatchesRunPoint)
{
    // Traces piled onto clock edges, a random share after the step.
    Rng rng(20031017);
    const std::string csvPath =
        ::testing::TempDir() + "/dvsnet_lockstep_trace.csv";
    const std::string dvstPath =
        ::testing::TempDir() + "/dvsnet_lockstep_trace.dvst";
    {
        Trace trace;
        Tick when = 0;
        bool lastAfterStep = false;
        for (int k = 0; k < 4000; ++k) {
            const Tick prev = when;
            when += rng.uniformInt(3) * (kRouterClockPeriod / 2);
            const NodeId src = static_cast<NodeId>(rng.uniformInt(16));
            const NodeId dst = static_cast<NodeId>(
                (src + 1 + static_cast<NodeId>(rng.uniformInt(15))) % 16);
            // At one tick, every packet after the step follows every
            // packet before it, as in a recording.
            const bool onEdge = when % kRouterClockPeriod == 0;
            const bool afterStep =
                onEdge && ((when == prev && lastAfterStep) ||
                           rng.bernoulli(0.3));
            trace.append(TraceEntry{when, src, dst, 0, 0, afterStep});
            lastAfterStep = afterStep;
        }
        trace.save(csvPath);
        dvsnet::workload::saveBinaryTrace(trace, dvstPath, 16);
    }

    const std::string workloads[] = {
        "two-level:tasks=3", "uniform",          "transpose",
        "tornado",           "trace:path=" + csvPath,
        "trace:path=" + dvstPath,
    };
    const PolicyKind policies[] = {PolicyKind::None, PolicyKind::History,
                                   PolicyKind::DynamicThreshold,
                                   PolicyKind::StaticLevel};
    for (int c = 0; c < 120; ++c) {
        ExperimentSpec spec;
        spec.network.radix = 4;
        spec.network.torus = rng.bernoulli(0.25);
        spec.network.policy = policies[rng.uniformInt(std::size(policies))];
        spec.network.staticLevel = rng.uniformInt(10);
        spec.workloadSpec = workloads[rng.uniformInt(std::size(workloads))];
        spec.workload.sourcesPerTask = 16;
        spec.workload.meanTaskDurationCycles = 3000;
        spec.warmup = static_cast<Cycle>(rng.uniformInt(0, 3000));
        spec.measure = static_cast<Cycle>(rng.uniformInt(200, 3000));
        const double rate = rng.uniform(0.1, 1.2);
        const std::uint64_t seed = rng.uniformInt(1u << 30);

        const RunResults live = runLive(spec, rate, seed);
        const RunResults streamed = dvsnet::exp::runPoint(spec, rate, seed);
        EXPECT_EQ(resultsJson(streamed), resultsJson(live))
            << "case " << c << ": " << spec.workloadSpec << " policy "
            << dvsnet::network::policyKindName(spec.network.policy)
            << " rate " << rate << " seed " << seed << " windows "
            << spec.warmup << "+" << spec.measure;
    }
    std::remove(csvPath.c_str());
    std::remove(dvstPath.c_str());
}
