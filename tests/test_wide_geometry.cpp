/**
 * @file
 * Wide-geometry fast-path tests: routers and allocators whose dense
 * input-VC space exceeds 64 bits must run the same mask-based code as
 * the classic geometries and produce results matching an independent
 * reference model — no assert, no fallback path, no behavior change at
 * the single-word/multi-word boundary.
 *
 * Three layers:
 *  - randomized separable-allocator equivalence against naive reference
 *    implementations, at the classic 5x2 geometry and at geometries
 *    straddling the 64-bit boundary (5x12 = 60, 5x13 = 65, 8x12 = 96
 *    dense input VCs);
 *  - whole-network runs pinned to exact results on wide configs — a 4x4
 *    mesh with 13 VCs/port and a 3x3x3 torus with 12 VCs/port (7 ports
 *    x 12 VCs = 84 dense VCs), the only whole-network runs of a 3-D
 *    torus and of more than 64 dense input VCs;
 *  - geometry-limit validation: configs beyond the router/limits.hpp
 *    capacities must surface as ConfigError naming the bound.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "network/network.hpp"
#include "network/sweep.hpp"
#include "router/allocator.hpp"
#include "router/limits.hpp"
#include "router/router.hpp"
#include "switch_bids.hpp"

using dvsnet::ConfigError;
using dvsnet::PortId;
using dvsnet::Tick;
using dvsnet::VcId;
using dvsnet::network::ExperimentSpec;
using dvsnet::network::PolicyKind;
using dvsnet::network::RunResults;
using dvsnet::router::RouterConfig;
using dvsnet::router::SeparableSwitchAllocator;
using dvsnet::router::SeparableVcAllocator;
using dvsnet::router::VcGrant;
using dvsnet::testutil::SwitchBid;

namespace
{

/** An input VC waiting for one of `vcMask`'s VCs at `outPort`. */
struct VcRequest
{
    std::int32_t requester;
    PortId outPort;
    std::uint32_t vcMask;
};

/**
 * Reference VC allocator: same separable output-side algorithm as
 * SeparableVcAllocator, written with naive per-index loops over the
 * list of waiting requests and its own rotation state — no bitmasks
 * and no waiting sets.  Resources are visited in ascending (port, vc)
 * order; each free resource somebody wants picks the first
 * not-yet-granted requester at or cyclically after its rotation
 * pointer, then advances the pointer past the winner.
 */
class ReferenceVcAllocator
{
  public:
    ReferenceVcAllocator(PortId numPorts, std::int32_t numVcs,
                         std::int32_t numRequesters)
        : numPorts_(numPorts), numVcs_(numVcs),
          numRequesters_(numRequesters),
          next_(static_cast<std::size_t>(numPorts) *
                    static_cast<std::size_t>(numVcs),
                0)
    {}

    std::vector<VcGrant>
    allocate(const std::vector<VcRequest> &requests,
             const std::vector<std::uint32_t> &freeVcMasks)
    {
        std::vector<VcGrant> grants;
        std::vector<bool> granted(
            static_cast<std::size_t>(numRequesters_), false);
        for (PortId port = 0; port < numPorts_; ++port) {
            for (VcId vc = 0; vc < numVcs_; ++vc) {
                if ((freeVcMasks[static_cast<std::size_t>(port)] &
                     (1u << vc)) == 0)
                    continue;
                std::vector<bool> wants(
                    static_cast<std::size_t>(numRequesters_), false);
                bool any = false;
                for (const auto &req : requests) {
                    if (req.outPort == port &&
                        (req.vcMask & (1u << vc)) != 0 &&
                        !granted[static_cast<std::size_t>(
                            req.requester)]) {
                        wants[static_cast<std::size_t>(req.requester)] =
                            true;
                        any = true;
                    }
                }
                if (!any)
                    continue;
                auto &rot = next_[static_cast<std::size_t>(port) *
                                      static_cast<std::size_t>(numVcs_) +
                                  static_cast<std::size_t>(vc)];
                for (std::int32_t i = 0; i < numRequesters_; ++i) {
                    const std::int32_t idx = (rot + i) % numRequesters_;
                    if (wants[static_cast<std::size_t>(idx)]) {
                        grants.push_back({idx, port, vc});
                        granted[static_cast<std::size_t>(idx)] = true;
                        rot = (idx + 1) % numRequesters_;
                        break;
                    }
                }
            }
        }
        return grants;
    }

  private:
    PortId numPorts_;
    std::int32_t numVcs_;
    std::int32_t numRequesters_;
    std::vector<std::int32_t> next_;
};

/** Reference input-first switch allocator, same naive-loop style. */
class ReferenceSwitchAllocator
{
  public:
    ReferenceSwitchAllocator(PortId numPorts, std::int32_t numVcs)
        : numPorts_(numPorts), numVcs_(numVcs),
          inputNext_(static_cast<std::size_t>(numPorts), 0),
          outputNext_(static_cast<std::size_t>(numPorts), 0)
    {}

    std::vector<dvsnet::router::SwitchGrant>
    allocate(const std::vector<SwitchBid> &requests)
    {
        // Stage 1: one VC per requesting input port (round-robin over
        // its requesting VCs); the first request per (port, vc) defines
        // the output port.
        std::vector<std::int32_t> stageOne(
            static_cast<std::size_t>(numPorts_), -1);
        std::vector<PortId> outOf(
            static_cast<std::size_t>(numPorts_) *
                static_cast<std::size_t>(numVcs_),
            dvsnet::kInvalidId);
        std::vector<std::vector<bool>> vcReq(
            static_cast<std::size_t>(numPorts_),
            std::vector<bool>(static_cast<std::size_t>(numVcs_), false));
        for (const auto &req : requests) {
            auto &cell = outOf[static_cast<std::size_t>(req.inPort) *
                                   static_cast<std::size_t>(numVcs_) +
                               static_cast<std::size_t>(req.inVc)];
            if (!vcReq[static_cast<std::size_t>(req.inPort)]
                      [static_cast<std::size_t>(req.inVc)]) {
                vcReq[static_cast<std::size_t>(req.inPort)]
                     [static_cast<std::size_t>(req.inVc)] = true;
                cell = req.outPort;
            }
        }
        for (PortId p = 0; p < numPorts_; ++p) {
            bool anyReq = false;
            for (VcId v = 0; v < numVcs_; ++v)
                anyReq = anyReq ||
                         vcReq[static_cast<std::size_t>(p)]
                              [static_cast<std::size_t>(v)];
            if (!anyReq)
                continue;
            auto &rot = inputNext_[static_cast<std::size_t>(p)];
            for (std::int32_t i = 0; i < numVcs_; ++i) {
                const std::int32_t v = (rot + i) % numVcs_;
                if (vcReq[static_cast<std::size_t>(p)]
                         [static_cast<std::size_t>(v)]) {
                    stageOne[static_cast<std::size_t>(p)] = v;
                    rot = (v + 1) % numVcs_;
                    break;
                }
            }
        }

        // Stage 2: one stage-1 winner per output port.
        std::vector<dvsnet::router::SwitchGrant> grants;
        for (PortId out = 0; out < numPorts_; ++out) {
            std::vector<bool> contend(
                static_cast<std::size_t>(numPorts_), false);
            bool any = false;
            for (PortId p = 0; p < numPorts_; ++p) {
                const std::int32_t v =
                    stageOne[static_cast<std::size_t>(p)];
                if (v >= 0 &&
                    outOf[static_cast<std::size_t>(p) *
                              static_cast<std::size_t>(numVcs_) +
                          static_cast<std::size_t>(v)] == out) {
                    contend[static_cast<std::size_t>(p)] = true;
                    any = true;
                }
            }
            if (!any)
                continue;
            auto &rot = outputNext_[static_cast<std::size_t>(out)];
            for (std::int32_t i = 0; i < numPorts_; ++i) {
                const std::int32_t p = (rot + i) % numPorts_;
                if (contend[static_cast<std::size_t>(p)]) {
                    grants.push_back(
                        {p, stageOne[static_cast<std::size_t>(p)], out});
                    rot = (p + 1) % numPorts_;
                    break;
                }
            }
        }
        return grants;
    }

  private:
    PortId numPorts_;
    std::int32_t numVcs_;
    std::vector<std::int32_t> inputNext_;
    std::vector<std::int32_t> outputNext_;
};

/**
 * Drive SeparableVcAllocator and the reference with the same random
 * sequence for `rounds` invocations.  Each round some idle input VCs
 * start waiting (a random target port and VC mask) and some allocated
 * downstream VCs are released, then both allocate.  The reference gets
 * the list of every request still waiting and the free masks, the
 * device under test only the new requests and releases.  Grants must
 * match exactly (contents and order) every round, so rotation state
 * stays in sync; granted requests leave the list and granted VCs stop
 * being free, on both sides.
 */
void
vcAllocatorMatchesReference(PortId numPorts, std::int32_t numVcs,
                            std::uint32_t seed, std::int32_t rounds = 400)
{
    const std::int32_t requesters = numPorts * numVcs;
    SeparableVcAllocator dut(numPorts, numVcs, requesters);
    ReferenceVcAllocator ref(numPorts, numVcs, requesters);
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::int32_t> portDist(0, numPorts - 1);
    std::uniform_int_distribution<std::uint32_t> maskDist(
        1, (numVcs >= 32 ? ~0u : (1u << numVcs) - 1));

    std::vector<VcRequest> waiting;
    std::vector<bool> isWaiting(static_cast<std::size_t>(requesters));
    std::vector<std::uint32_t> freeMasks(static_cast<std::size_t>(numPorts));
    std::size_t granted = 0;
    for (std::int32_t round = 0; round < rounds; ++round) {
        for (std::int32_t r = 0; r < requesters; ++r) {
            if (isWaiting[static_cast<std::size_t>(r)] ||
                (rng() & 3u) != 0)
                continue;  // ~25% of idle input VCs start waiting
            const VcRequest req{r, portDist(rng), maskDist(rng)};
            dut.request(req.requester, req.outPort, req.vcMask);
            waiting.push_back(req);
            isWaiting[static_cast<std::size_t>(r)] = true;
        }
        for (PortId p = 0; p < numPorts; ++p) {
            // About half of each port's allocated VCs are released.
            auto &free = freeMasks[static_cast<std::size_t>(p)];
            const std::uint32_t freed =
                ~free & static_cast<std::uint32_t>(rng()) & maskDist.max();
            if (freed != 0)
                dut.release(p, freed);
            free |= freed;
        }

        const auto &got = dut.allocate();
        const auto want = ref.allocate(waiting, freeMasks);
        ASSERT_EQ(got.size(), want.size()) << "round=" << round;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].requester, want[i].requester)
                << "round=" << round << " grant=" << i;
            EXPECT_EQ(got[i].outPort, want[i].outPort)
                << "round=" << round << " grant=" << i;
            EXPECT_EQ(got[i].outVc, want[i].outVc)
                << "round=" << round << " grant=" << i;
            isWaiting[static_cast<std::size_t>(want[i].requester)] = false;
            freeMasks[static_cast<std::size_t>(want[i].outPort)] &=
                ~(1u << want[i].outVc);
        }
        for (PortId p = 0; p < numPorts; ++p) {
            ASSERT_EQ(dut.freeVcs(p), freeMasks[static_cast<std::size_t>(p)])
                << "round=" << round << " port=" << p;
        }
        granted += want.size();
        std::erase_if(waiting, [&](const VcRequest &req) {
            return !isWaiting[static_cast<std::size_t>(req.requester)];
        });
    }
    EXPECT_GT(granted, static_cast<std::size_t>(rounds));
}

} // namespace

TEST(WideGeometryVcAllocator, MatchesReferenceClassic5x2)
{
    vcAllocatorMatchesReference(5, 2, 0x9E);  // the paper's router
}

TEST(WideGeometryVcAllocator, MatchesReferenceBelowBoundary5x12)
{
    vcAllocatorMatchesReference(5, 12, 0xA1);  // 60 requesters: 1 word
}

TEST(WideGeometryVcAllocator, MatchesReferenceAboveBoundary5x13)
{
    vcAllocatorMatchesReference(5, 13, 0xB2);  // 65 requesters: 2 words
}

TEST(WideGeometryVcAllocator, MatchesReferenceWide8x12)
{
    vcAllocatorMatchesReference(8, 12, 0xC3);  // 96 requesters
}

TEST(WideGeometrySwitchAllocator, MatchesReferenceAtWideVcCounts)
{
    const PortId numPorts = 8;
    const std::int32_t numVcs = 13;
    SeparableSwitchAllocator dut(numPorts, numVcs);
    ReferenceSwitchAllocator ref(numPorts, numVcs);
    std::mt19937 rng(0xD4);
    std::uniform_int_distribution<PortId> portDist(0, numPorts - 1);
    std::uniform_int_distribution<VcId> vcDist(0, numVcs - 1);

    for (std::int32_t round = 0; round < 600; ++round) {
        std::vector<SwitchBid> requests;
        const std::int32_t n =
            std::uniform_int_distribution<std::int32_t>(0, 20)(rng);
        for (std::int32_t i = 0; i < n; ++i)
            requests.push_back({portDist(rng), vcDist(rng),
                                portDist(rng)});

        // The device under test gets the same list as the per-port VC
        // masks and dense output-port array a router's SA stage fills.
        const auto &got = dvsnet::testutil::allocateBids(
            dut, numPorts, numVcs, requests);
        const auto want = ref.allocate(requests);
        ASSERT_EQ(got.size(), want.size()) << "round=" << round;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].inPort, want[i].inPort) << "round=" << round;
            EXPECT_EQ(got[i].inVc, want[i].inVc) << "round=" << round;
            EXPECT_EQ(got[i].outPort, want[i].outPort)
                << "round=" << round;
        }
    }
}

namespace
{

constexpr double kRelTol = 1e-9;

void
expectNearRel(double actual, double expected, const char *what)
{
    EXPECT_NEAR(actual, expected,
                kRelTol * std::max(1.0, std::abs(expected)))
        << what;
}

} // namespace

TEST(WideGeometryNetwork, Mesh4x4With13VcsPinnedResults)
{
    // 5 ports x 13 VCs = 65 dense input VCs: one past the single-word
    // boundary, so every InputVcSet operation exercises word 1.
    ExperimentSpec spec;
    spec.network.radix = 4;
    spec.network.router.numVcs = 13;
    spec.network.policy = PolicyKind::History;
    spec.workload.avgConcurrentTasks = 6.0;
    spec.workload.sourcesPerTask = 16;
    spec.workload.meanTaskDurationCycles = 1e5;
    spec.workload.seed = 0x51DE;
    spec.warmup = 2000;
    spec.measure = 6000;
    const RunResults r = dvsnet::exp::runPoint(spec, 0.2, 0x51DE);

    // Pins captured from the run itself, as in test_golden_run.cpp.
    EXPECT_EQ(r.packetsCreated, 1488u);
    EXPECT_EQ(r.packetsDelivered, 1477u);
    EXPECT_EQ(r.flitsEjected, 7426u);
    expectNearRel(r.avgLatencyCycles, 60.121337846987174, "avg latency");
    expectNearRel(r.maxLatencyCycles, 201.07499999999999, "max latency");
    expectNearRel(r.avgPowerW, 62.59565841522722, "avg power");
    expectNearRel(r.avgChannelLevel, 1.0, "avg channel level");
    EXPECT_GT(r.invariantChecks, 0u);
    EXPECT_EQ(r.invariantFailures, 0u);
}

TEST(WideGeometryNetwork, Torus3x3x3With12VcsPinnedResults)
{
    // 3-D torus: 7 ports x 12 VCs = 84 dense input VCs, with
    // wraparound channels in all three dimensions.
    ExperimentSpec spec;
    spec.network.radix = 3;
    spec.network.dims = 3;
    spec.network.torus = true;
    spec.network.router.numVcs = 12;
    spec.network.policy = PolicyKind::History;
    spec.workload.avgConcurrentTasks = 6.0;
    spec.workload.sourcesPerTask = 27;
    spec.workload.meanTaskDurationCycles = 1e5;
    spec.workload.seed = 0x7045;
    spec.warmup = 1500;
    spec.measure = 4500;
    const RunResults r = dvsnet::exp::runPoint(spec, 0.15, 0x7045);

    EXPECT_EQ(r.packetsCreated, 662u);
    EXPECT_EQ(r.packetsDelivered, 659u);
    EXPECT_EQ(r.flitsEjected, 3306u);
    expectNearRel(r.avgLatencyCycles, 50.366740515933238, "avg latency");
    expectNearRel(r.maxLatencyCycles, 97.375, "max latency");
    expectNearRel(r.avgPowerW, 211.26034715139187, "avg power");
    expectNearRel(r.avgChannelLevel, 1.0, "avg channel level");
    EXPECT_GT(r.invariantChecks, 0u);
    EXPECT_EQ(r.invariantFailures, 0u);
}

TEST(WideGeometryLimits, ValidateNamesEachBound)
{
    using dvsnet::router::kMaxInputVcs;
    using dvsnet::router::kMaxPorts;
    using dvsnet::router::kMaxVcsPerPort;

    RouterConfig cfg;
    cfg.numPorts = kMaxPorts + 1;
    auto problems = cfg.validate();
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("kMaxPorts"), std::string::npos)
        << problems[0];

    cfg = RouterConfig{};
    cfg.numVcs = kMaxVcsPerPort + 1;
    problems = cfg.validate();
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("kMaxVcsPerPort"), std::string::npos)
        << problems[0];

    cfg = RouterConfig{};
    cfg.numPorts = 22;
    cfg.numVcs = 12;  // 264 > kMaxInputVcs, both factors in bounds
    problems = cfg.validate();
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("kMaxInputVcs"), std::string::npos)
        << problems[0];

    // In-bounds wide geometry: valid, no problems.
    cfg = RouterConfig{};
    cfg.numPorts = 8;
    cfg.numVcs = 32;  // 256 == kMaxInputVcs exactly
    cfg.bufferPerPort = 128;
    EXPECT_TRUE(cfg.validate().empty());
}

TEST(WideGeometryLimits, RouterConstructorThrowsConfigError)
{
    class NeverRouting final : public dvsnet::router::RoutingAlgorithm
    {
        void
        route(dvsnet::NodeId, PortId, VcId, dvsnet::NodeId,
              dvsnet::router::RouteCandidates &out) const override
        {
            out.clear();
        }

        const char *name() const override { return "never"; }
    } routing;

    RouterConfig cfg;
    cfg.numVcs = dvsnet::router::kMaxVcsPerPort + 1;
    const dvsnet::router::PacketTable packets;
    try {
        dvsnet::router::Router bad(0, cfg, routing, packets);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("kMaxVcsPerPort"),
                  std::string::npos)
            << e.what();
    }
}

TEST(WideGeometryLimits, NetworkValidateFoldsRouterBounds)
{
    dvsnet::network::NetworkConfig cfg;
    cfg.router.numVcs = dvsnet::router::kMaxVcsPerPort + 1;
    const auto problems = cfg.validate();
    ASSERT_FALSE(problems.empty());
    bool found = false;
    for (const auto &p : problems)
        found = found || p.find("kMaxVcsPerPort") != std::string::npos;
    EXPECT_TRUE(found);
}
