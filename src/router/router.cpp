#include "router/router.hpp"

#include <algorithm>
#include <bit>

#include "common/fatal.hpp"

namespace dvsnet::router
{

std::vector<std::string>
RouterConfig::validate() const
{
    std::vector<std::string> problems;
    auto complain = [&problems](auto &&...parts) {
        problems.push_back(detail::concat(parts...));
    };

    if (numPorts < 2)
        complain("numPorts must be >= 2 (got ", numPorts, ")");
    else if (numPorts > kMaxPorts) {
        complain("numPorts ", numPorts, " exceeds the kMaxPorts = ",
                 kMaxPorts, " port-mask capacity");
    }
    if (numVcs < 1)
        complain("numVcs must be >= 1 (got ", numVcs, ")");
    else if (numVcs > kMaxVcsPerPort) {
        complain("numVcs ", numVcs, " exceeds the kMaxVcsPerPort = ",
                 kMaxVcsPerPort, " per-port VC-mask capacity");
    }
    if (numPorts >= 2 && numVcs >= 1 &&
        numPorts * numVcs > kMaxInputVcs) {
        complain("numPorts * numVcs = ", numPorts * numVcs,
                 " exceeds the kMaxInputVcs = ", kMaxInputVcs,
                 " dense input-VC capacity");
    }
    if (numVcs >= 1 && bufferPerPort < static_cast<std::size_t>(numVcs)) {
        complain("bufferPerPort (", bufferPerPort,
                 ") leaves no buffer slot per VC (numVcs = ", numVcs,
                 ")");
    }
    if (pipelineLatency < 3) {
        complain("pipelineLatency must cover the 3 allocation stages "
                 "(got ", pipelineLatency, ")");
    }
    return problems;
}

namespace
{

/** Validate `config`, throwing a ConfigError listing every problem. */
const RouterConfig &
validatedRouter(const RouterConfig &config)
{
    const auto problems = config.validate();
    if (!problems.empty())
        throw ConfigError(joinProblems("invalid router config", problems));
    return config;
}

} // namespace

Router::Router(NodeId id, const RouterConfig &config,
               const RoutingAlgorithm &routing, const PacketTable &packets)
    : id_(id),
      // config_ is declared before the allocators, so validation throws
      // here before their (assert-guarded) construction sees a geometry
      // beyond the mask capacities.
      config_(validatedRouter(config)),
      routing_(routing),
      packets_(packets),
      vcAlloc_(config.numPorts, config.numVcs,
               config.numPorts * config.numVcs),
      swAlloc_(config.numPorts, config.numVcs)
{
    extraDelayTicks_ = cyclesToTicks(config.pipelineLatency - 2);
    portVcMask_ = (std::uint64_t{1} << config.numVcs) - 1;
    const auto denseVcs = static_cast<std::size_t>(config.numPorts) *
                          static_cast<std::size_t>(config.numVcs);
    saReqMasks_.assign(static_cast<std::size_t>(config.numPorts), 0);
    saOutPorts_.assign(denseVcs, kInvalidId);
    vcState_.assign(denseVcs, VcState::Idle);
    vcOutPort_.assign(denseVcs, kInvalidId);
    vcOutVc_.assign(denseVcs, kInvalidId);
    credits_.assign(denseVcs, 0);
    vcPort_.reserve(denseVcs);
    for (PortId p = 0; p < config.numPorts; ++p) {
        vcPort_.insert(vcPort_.end(),
                       static_cast<std::size_t>(config.numVcs), p);
    }

    inputs_.reserve(static_cast<std::size_t>(config.numPorts));
    outputs_.resize(static_cast<std::size_t>(config.numPorts));
    for (PortId p = 0; p < config.numPorts; ++p)
        inputs_.emplace_back(config_);

    // Per-inbox hooks keep the pending-port masks current and chain to
    // the network-level wake (if installed) on every delivery.
    for (PortId p = 0; p < config.numPorts; ++p) {
        inputs_[static_cast<std::size_t>(p)].flitInbox.setWakeHook(
            [this, p] {
                pendingFlitPorts_.set(p);
                if (wake_)
                    wake_();
            });
        outputs_[static_cast<std::size_t>(p)].creditInbox.setWakeHook(
            [this, p] {
                pendingCreditPorts_.set(p);
                if (wake_)
                    wake_();
            });
    }
}

void
Router::connectOutput(PortId port, FlitChannel *link,
                      std::size_t downstreamVcCapacity)
{
    DVSNET_ASSERT(port >= 0 && port < config_.numPorts, "port out of range");
    auto &out = outputs_[static_cast<std::size_t>(port)];
    out.link = link;
    out.credited = true;
    for (VcId v = 0; v < config_.numVcs; ++v) {
        credits_[static_cast<std::size_t>(vcIndex(port, v))] =
            static_cast<std::uint32_t>(downstreamVcCapacity);
    }
    vcAlloc_.release(port, static_cast<std::uint32_t>(portVcMask_));
    out.downstreamCapacity =
        downstreamVcCapacity * static_cast<std::size_t>(config_.numVcs);
    out.occupancy.start(0.0, 0.0);
    out.occupancyNow = 0.0;
}

void
Router::connectEjection(FlitChannel *sink)
{
    const PortId port = config_.numPorts - 1;
    auto &out = outputs_[static_cast<std::size_t>(port)];
    out.link = sink;
    out.credited = false;
    vcAlloc_.release(port, static_cast<std::uint32_t>(portVcMask_));
}

void
Router::connectCreditReturn(PortId port, CreditChannel *path)
{
    DVSNET_ASSERT(port >= 0 && port < config_.numPorts, "port out of range");
    inputs_[static_cast<std::size_t>(port)].creditReturn = path;
}

Inbox<Flit> &
Router::flitInbox(PortId port)
{
    return inputs_.at(static_cast<std::size_t>(port)).flitInbox;
}

Inbox<VcId> &
Router::creditInbox(PortId port)
{
    return outputs_.at(static_cast<std::size_t>(port)).creditInbox;
}

Tick
Router::step(Tick now)
{
    drainCredits(now);
    drainFlitsAndBid(now);
    if (saReqPorts_.any())
        // Reverse stage order: each allocation stage sees state produced
        // by the earlier pipeline stage one cycle ago.
        applySwitchGrants(now);
    if (bufferedFlits_ != 0) {
        if (vcAlloc_.anyReady())
            vcAllocate();
        if (routingVcs_.any())
            routeCompute();
    }
    return nextStep(now);
}

Tick
Router::nextStep(Tick now) const
{
    if (bufferedFlits_ != 0)
        return routerEdgeAfter(now);
    // The pending masks mirror inbox emptiness, and a drain leaves only
    // items that arrive after `now`.
    Tick first = kTickNever;
    pendingFlitPorts_.forEachSetBit([&](std::int32_t p) {
        const auto &inbox = inputs_[static_cast<std::size_t>(p)].flitInbox;
        first = std::min(first, inbox.nextArrival());
    });
    pendingCreditPorts_.forEachSetBit([&](std::int32_t p) {
        const auto &inbox = outputs_[static_cast<std::size_t>(p)].creditInbox;
        first = std::min(first, inbox.nextArrival());
    });
    return first == kTickNever ? kTickNever : routerEdgeAtOrAfter(first);
}

void
Router::drainCredits(Tick now)
{
    if (pendingCreditPorts_.none())
        return;
    const double nowCycles =
        static_cast<double>(now) / static_cast<double>(kRouterClockPeriod);
    const PortSet ports = pendingCreditPorts_;
    ports.forEachSetBit([&](std::int32_t p) {
        auto &out = outputs_[static_cast<std::size_t>(p)];
        // Batched drain: pop every due credit, then settle the
        // occupancy average once.  Repeated updates at one timestamp
        // contribute zero area, so a single update with the final
        // occupancy is bit-identical to per-credit updates.
        std::size_t popped = 0;
        while (out.creditInbox.ready(now)) {
            const VcId vc = out.creditInbox.pop(now);
            DVSNET_ASSERT(vc >= 0 && vc < config_.numVcs,
                          "credit VC out of range");
            ++credits_[static_cast<std::size_t>(vcIndex(p, vc))];
            ++popped;
        }
        if (popped != 0) {
            out.occupancyNow -= static_cast<double>(popped);
            DVSNET_ASSERT(out.occupancyNow >= -0.5,
                          "credit accounting underflow");
            out.occupancy.update(nowCycles, out.occupancyNow);
        }
        // Keep the bit while future-dated credits remain in flight.
        if (out.creditInbox.empty())
            pendingCreditPorts_.reset(p);
    });
}

void
Router::drainFlitsAndBid(Tick now)
{
    // One fused pass per port: drain its inbox, then collect its SA
    // bids.  A port's bids depend only on its own VC buffers (drained
    // first), output-port credit state (settled in drainCredits) and
    // channel acceptance — none of which a later port's drain mutates —
    // so the bids equal what a drain-everything-then-scan pass would
    // produce, in the same ascending (port, vc) order.
    saReqPorts_.clear();
    const PortSet ports = pendingFlitPorts_ | activeVcPorts_;
    if (ports.none())
        return;
    const Tick earliest = now + extraDelayTicks_;
    // canAccept is const and queried with the same `earliest` for every
    // bid this cycle, and nothing in this pass mutates channel state —
    // so one probe per output port answers for all VCs targeting it.
    std::uint64_t accProbed = 0;
    std::uint64_t accYes = 0;
    ports.forEachSetBit([&](std::int32_t p) {
        auto &in = inputs_[static_cast<std::size_t>(p)];
        if (pendingFlitPorts_.test(p)) {
            while (in.flitInbox.ready(now)) {
                Flit flit = in.flitInbox.pop(now);
                DVSNET_ASSERT(flit.vc < config_.numVcs,
                              "flit VC out of range");
                flit.arrived = now;
                const std::int32_t idx = vcIndex(p, flit.vc);
                auto &vc = in.buffer.vc(flit.vc);
                if (flit.isHead()) {
                    // A head either finds the VC idle or queues behind a
                    // previous packet still draining through the same VC.
                    if (vcState_[static_cast<std::size_t>(idx)] ==
                        VcState::Idle) {
                        DVSNET_ASSERT(vc.empty(), "idle VC with residue");
                        vcState_[static_cast<std::size_t>(idx)] =
                            VcState::Routing;
                        routingVcs_.set(idx);
                    }
                } else {
                    DVSNET_ASSERT(
                        vcState_[static_cast<std::size_t>(idx)] !=
                                VcState::Idle ||
                            !vc.empty(),
                        "body flit into idle empty VC");
                }
                vc.enqueue(flit);
                ++bufferedFlits_;
                ++stats_.flitsArrived;
            }
            // Keep the bit while future-dated flits remain in flight.
            if (in.flitInbox.empty())
                pendingFlitPorts_.reset(p);
        }

        // SA bids from this port's Active VCs, ascending VC order.
        std::uint32_t act = static_cast<std::uint32_t>(
            activeVcs_.extract(p * config_.numVcs, config_.numVcs));
        std::uint32_t bids = 0;
        while (act != 0) {
            const VcId v = std::countr_zero(act);
            act &= act - 1;
            const auto idx =
                static_cast<std::size_t>(vcIndex(p, v));
            if (in.buffer.vc(v).empty())
                continue;  // Active but waiting for body flits
            const PortId outPort = vcOutPort_[idx];
            const auto &out = outputs_[static_cast<std::size_t>(outPort)];
            DVSNET_ASSERT(out.link != nullptr, "unconnected output port");
            if (out.credited &&
                credits_[static_cast<std::size_t>(
                    vcIndex(outPort, vcOutVc_[idx]))] == 0)
                continue;
            const std::uint64_t outBit = std::uint64_t{1} << outPort;
            if ((accProbed & outBit) == 0) {
                accProbed |= outBit;
                if (out.link->canAccept(earliest))
                    accYes |= outBit;
            }
            if ((accYes & outBit) == 0)
                continue;
            bids |= 1u << v;
            saOutPorts_[idx] = outPort;
        }
        if (bids != 0) {
            saReqMasks_[static_cast<std::size_t>(p)] = bids;
            saReqPorts_.set(p);
        }
    });
}

void
Router::applySwitchGrants(Tick now)
{
    const auto &grants =
        swAlloc_.allocate(saReqMasks_, saOutPorts_, saReqPorts_);
    const double nowCycles =
        static_cast<double>(now) / static_cast<double>(kRouterClockPeriod);

    for (const auto &g : grants) {
        auto &in = inputs_[static_cast<std::size_t>(g.inPort)];
        auto &vc = in.buffer.vc(g.inVc);
        auto &out = outputs_[static_cast<std::size_t>(g.outPort)];
        const std::int32_t idx = vcIndex(g.inPort, g.inVc);

        Flit flit = vc.dequeue();
        --bufferedFlits_;
        const VcId outVc = vcOutVc_[static_cast<std::size_t>(idx)];
        const auto outIdx =
            static_cast<std::size_t>(vcIndex(g.outPort, outVc));

        // Input-buffer age (Eq. 4): time the flit spent buffered here.
        in.ageSumCycles += static_cast<double>(now - flit.arrived) /
                           static_cast<double>(kRouterClockPeriod);
        ++in.departed;

        // Consume one downstream credit; track downstream occupancy (BU).
        if (out.credited) {
            DVSNET_ASSERT(credits_[outIdx] > 0,
                          "switch grant without credit");
            --credits_[outIdx];
            out.occupancyNow += 1.0;
            out.occupancy.update(nowCycles, out.occupancyNow);
        }

        // Return a credit upstream for the freed buffer slot.  Terminal
        // input ports have no credit path (the injection process observes
        // buffer occupancy directly).
        if (in.creditReturn != nullptr)
            in.creditReturn->sendCredit(g.inVc, now);

        // Hand the flit to the channel, re-tagged with its downstream VC.
        flit.vc = static_cast<std::uint8_t>(outVc);
        out.link->send(flit, now + extraDelayTicks_);
        ++stats_.flitsForwarded;
        ++stats_.switchGrants;

        if (flit.isTail()) {
            vcAlloc_.release(g.outPort, 1u << outVc);
            releaseVc(idx);
            activeVcs_.reset(idx);
            if (activeVcs_.extract(g.inPort * config_.numVcs,
                                   config_.numVcs) == 0)
                activeVcPorts_.reset(g.inPort);
            // Another packet may already be queued behind the tail.
            if (!vc.empty()) {
                DVSNET_ASSERT(vc.front().isHead(),
                              "non-head behind a departed tail");
                vcState_[static_cast<std::size_t>(idx)] =
                    VcState::Routing;
                routingVcs_.set(idx);
            }
        }
    }
}

void
Router::vcAllocate()
{
    // The allocator keeps both sides of the match: routeCompute files
    // each VC it moves to VcAlloc and a grant withdraws it, and a
    // downstream VC is released when the port connects or a tail
    // leaves on it and taken by its grant.  Unconnected ports have no
    // free VC.
    for (const auto &g : vcAlloc_.allocate()) {
        const auto idx = static_cast<std::size_t>(g.requester);
        DVSNET_ASSERT(vcState_[idx] == VcState::VcAlloc, "stale VC grant");
        vcOutVc_[idx] = g.outVc;
        vcState_[idx] = VcState::Active;
        activeVcs_.set(g.requester);
        activeVcPorts_.set(vcPort_[idx]);
        ++stats_.vcGrants;
    }
}

void
Router::routeCompute()
{
    const InputVcSet routing = routingVcs_;
    // Every Routing VC advances to VcAlloc this cycle.
    routingVcs_.clear();
    RouteCandidates candidates;
    routing.forEachSetBit([&](std::int32_t idx) {
        const auto dense = static_cast<std::size_t>(idx);
        const PortId p = vcPort_[dense];
        const VcId v = idx - p * config_.numVcs;
        auto &in = inputs_[static_cast<std::size_t>(p)];
        auto &vc = in.buffer.vc(v);
        DVSNET_ASSERT(!vc.empty() && vc.front().isHead(),
                      "routing state without a head flit");
        // The head flit's packet names the destination; body flits
        // follow the route chosen here, so this is the one table read
        // per packet per router.
        const NodeId dst = packets_.at(vc.front().slot).dst;

        routing_.route(id_, p, v, dst, candidates);
        DVSNET_ASSERT(!candidates.empty(), "no route candidates");

        // Adaptive output selection: among candidate ports, prefer
        // the one with the most free downstream credits (summed over
        // the VCs its mask allows); merge masks of candidates that
        // share the winning port.  A lone candidate (every DOR route)
        // wins without scoring.
        PortId bestPort = candidates[0].outPort;
        std::uint32_t mask = candidates[0].vcMask;
        if (candidates.size() > 1) {
            std::size_t bestScore = 0;
            bestPort = kInvalidId;
            for (const auto &cand : candidates) {
                std::size_t score = 0;
                const auto base = static_cast<std::size_t>(
                    vcIndex(cand.outPort, 0));
                for (std::uint32_t m = cand.vcMask; m != 0; m &= m - 1) {
                    score += credits_[base + static_cast<std::size_t>(
                                                 std::countr_zero(m))];
                }
                if (bestPort == kInvalidId || score > bestScore) {
                    bestPort = cand.outPort;
                    bestScore = score;
                }
            }
            mask = 0;
            for (const auto &cand : candidates) {
                if (cand.outPort == bestPort)
                    mask |= cand.vcMask;
            }
        }

        vcOutPort_[dense] = bestPort;
        vcState_[dense] = VcState::VcAlloc;
        vcAlloc_.request(idx, bestPort, mask);
        ++stats_.headsRouted;
    });
}

std::size_t
Router::terminalFreeSlots(VcId vc) const
{
    const auto &in = inputs_.back();
    return in.buffer.vc(vc).freeSlots();
}

std::size_t
Router::bufferOccupancy(PortId port) const
{
    return inputs_.at(static_cast<std::size_t>(port))
        .buffer.totalOccupancy();
}

double
Router::takeBufferUtilWindow(PortId port, Tick now)
{
    auto &out = outputs_.at(static_cast<std::size_t>(port));
    DVSNET_ASSERT(out.downstreamCapacity > 0, "port has no downstream");
    const double nowCycles =
        static_cast<double>(now) / static_cast<double>(kRouterClockPeriod);
    const double avgOccupancy = out.occupancy.average(nowCycles);
    out.occupancy.resetWindow(nowCycles);
    return std::clamp(
        avgOccupancy / static_cast<double>(out.downstreamCapacity), 0.0,
        1.0);
}

double
Router::bufferUtilNow(PortId port) const
{
    const auto &out = outputs_.at(static_cast<std::size_t>(port));
    DVSNET_ASSERT(out.downstreamCapacity > 0, "port has no downstream");
    return std::clamp(
        out.occupancyNow / static_cast<double>(out.downstreamCapacity),
        0.0, 1.0);
}

std::pair<double, std::uint64_t>
Router::takeBufferAgeWindow(PortId port)
{
    auto &in = inputs_.at(static_cast<std::size_t>(port));
    const auto result = std::make_pair(in.ageSumCycles, in.departed);
    in.ageSumCycles = 0.0;
    in.departed = 0;
    return result;
}

std::size_t
Router::creditCount(PortId port, VcId vc) const
{
    DVSNET_ASSERT(port >= 0 && port < config_.numPorts &&
                      vc >= 0 && vc < config_.numVcs,
                  "credit query out of range");
    return credits_[static_cast<std::size_t>(vcIndex(port, vc))];
}

} // namespace dvsnet::router
