/**
 * @file
 * Network delivery-notification tests: a generator that opts in via
 * wantsDeliveries() receives exactly one onDelivered() per packet, with
 * the original PacketRequest — size, class, and tag — echoed back and a
 * causally-sane arrival tick.  Open-loop generators (the default) must
 * stay entirely unaffected.
 */

#include <gtest/gtest.h>

#include <vector>

#include "network/network.hpp"
#include "traffic/traffic.hpp"

using dvsnet::cyclesToTicks;
using dvsnet::NodeId;
using dvsnet::Tick;
using dvsnet::network::Network;
using dvsnet::network::NetworkConfig;
using dvsnet::network::PolicyKind;
using dvsnet::traffic::PacketRequest;
using dvsnet::traffic::PacketSink;

namespace
{

/** Injects a fixed list of tagged packets and records the echoes. */
class EchoProbe : public dvsnet::traffic::TrafficGenerator
{
  public:
    explicit EchoProbe(std::vector<PacketRequest> sends)
        : sends_(std::move(sends))
    {
    }

    void
    start(dvsnet::sim::Kernel &kernel, PacketSink sink) override
    {
        kernel_ = &kernel;
        sink_ = std::move(sink);
        for (std::size_t k = 0; k < sends_.size(); ++k) {
            kernel.at(cyclesToTicks(static_cast<dvsnet::Cycle>(
                          10 * (k + 1))),
                      [this, k] {
                          injectTicks_.push_back(kernel_->now());
                          sink_(sends_[k]);
                      });
        }
    }

    bool wantsDeliveries() const override { return true; }

    void
    onDelivered(const PacketRequest &request, Tick arrival) override
    {
        echoes_.push_back({request, arrival});
    }

    const char *name() const override { return "echo-probe"; }

    struct Echo
    {
        PacketRequest request;
        Tick arrival;
    };

    std::vector<PacketRequest> sends_;
    std::vector<Tick> injectTicks_;
    std::vector<Echo> echoes_;
    dvsnet::sim::Kernel *kernel_ = nullptr;
    PacketSink sink_;
};

NetworkConfig
smallMesh()
{
    NetworkConfig cfg;
    cfg.radix = 4;
    cfg.policy = PolicyKind::None;
    return cfg;
}

} // namespace

TEST(DeliveryHook, EchoesRequestsWithTagsExactlyOnce)
{
    // Distinct tags, classes, and explicit sizes; one default-size
    // packet (sizeFlits = 0) to cover the expansion path.
    const std::vector<PacketRequest> sends = {
        {0, 15, 1, 0, 1001},
        {15, 0, 5, 1, 1002},
        {3, 12, 0, 2, 1003},  // network default length
        {7, 8, 2, 0, 1004},
    };
    Network net(smallMesh());
    EchoProbe probe(sends);
    net.attachTraffic(probe);
    net.run(0, 2000);

    ASSERT_EQ(probe.echoes_.size(), sends.size());
    // Each send echoed exactly once, request bit-identical (order may
    // differ: different path lengths).
    for (const auto &sent : sends) {
        std::size_t matches = 0;
        for (const auto &echo : probe.echoes_) {
            if (echo.request == sent)
                ++matches;
        }
        EXPECT_EQ(matches, 1u) << "tag " << sent.tag;
    }
    // Arrival ticks are causally sane: after the earliest injection,
    // within the run.
    for (const auto &echo : probe.echoes_) {
        EXPECT_GT(echo.arrival, probe.injectTicks_.front());
        EXPECT_LE(echo.arrival, cyclesToTicks(2000));
    }
}

TEST(DeliveryHook, ArrivalFollowsInjectionPerPacket)
{
    // One packet at a time: arrival must strictly follow its injection.
    Network net(smallMesh());
    EchoProbe probe({{2, 13, 4, 0, 42}});
    net.attachTraffic(probe);
    net.run(0, 1000);

    ASSERT_EQ(probe.echoes_.size(), 1u);
    ASSERT_EQ(probe.injectTicks_.size(), 1u);
    EXPECT_GT(probe.echoes_[0].arrival, probe.injectTicks_[0]);
    EXPECT_EQ(probe.echoes_[0].request.tag, 42u);
}

TEST(DeliveryHook, OpenLoopGeneratorsGetNoCallbacks)
{
    /** Same probe but with the opt-in disabled. */
    class SilentProbe final : public EchoProbe
    {
      public:
        using EchoProbe::EchoProbe;
        bool wantsDeliveries() const override { return false; }
    };

    Network net(smallMesh());
    SilentProbe probe({{0, 15, 1, 0, 7}, {15, 0, 1, 0, 8}});
    net.attachTraffic(probe);
    net.run(0, 1000);

    EXPECT_EQ(net.metrics().packetsEjected(), 2u);
    EXPECT_TRUE(probe.echoes_.empty());
}

TEST(DeliveryHook, FiresForPacketsInFlightAtTheWindowStart)
{
    // Ten echo-requesting packets injected at cycle 1, then the window
    // starts at cycle 4, while they are still in flight.  Each must
    // still be echoed once: a closed-loop generator waits for it.
    class BurstProbe final : public EchoProbe
    {
      public:
        using EchoProbe::EchoProbe;

        void
        start(dvsnet::sim::Kernel &kernel, PacketSink sink) override
        {
            sink_ = std::move(sink);
            kernel.at(cyclesToTicks(1), [this] {
                for (const auto &request : sends_)
                    sink_(request);
            });
        }
    };

    std::vector<PacketRequest> sends;
    for (NodeId k = 0; k < 10; ++k)
        sends.push_back({k, static_cast<NodeId>(15 - k), 5, 0,
                         static_cast<std::uint64_t>(100 + k)});
    Network net(smallMesh());
    BurstProbe probe(sends);
    net.attachTraffic(probe);
    net.run(4, 2000);

    EXPECT_EQ(net.metrics().flitsEjected(), 50u);
    ASSERT_EQ(probe.echoes_.size(), sends.size());
    for (const auto &sent : sends) {
        std::size_t matches = 0;
        for (const auto &echo : probe.echoes_)
            matches += echo.request == sent ? 1 : 0;
        EXPECT_EQ(matches, 1u) << "tag " << sent.tag;
    }
}
