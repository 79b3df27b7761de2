#include "network/network.hpp"

#include <algorithm>
#include <limits>

#include "common/fatal.hpp"

namespace dvsnet::network
{

namespace
{

/** Validate `config`, throwing a ConfigError listing every problem. */
const NetworkConfig &
validated(const NetworkConfig &config)
{
    const auto problems = config.validate();
    if (!problems.empty())
        throw ConfigError(joinProblems("invalid network config", problems));
    return config;
}

} // namespace

const char *
policyKindName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::None: return "none";
      case PolicyKind::History: return "history";
      case PolicyKind::LinkUtilOnly: return "link-util-only";
      case PolicyKind::StaticLevel: return "static-level";
      case PolicyKind::DynamicThreshold: return "dynamic-threshold";
    }
    DVSNET_PANIC("unknown policy kind");
}

const char *
routingKindName(RoutingKind kind)
{
    switch (kind) {
      case RoutingKind::Dor: return "dor";
      case RoutingKind::MinimalAdaptive: return "minimal-adaptive";
    }
    DVSNET_PANIC("unknown routing kind");
}

Json
toJson(const NetworkConfig &config)
{
    // The search's evaluation key hashes this echo, so a field left out
    // here lets two different simulations share one cached result.
    static_assert(sizeof(NetworkConfig) == 208,
                  "NetworkConfig changed: echo every field it has here");
    static_assert(sizeof(router::RouterConfig) == 24,
                  "RouterConfig changed: echo every field it has here");
    static_assert(sizeof(link::DvsLinkParams) == 40,
                  "DvsLinkParams changed: echo every field it has here");
    static_assert(sizeof(core::HistoryDvsParams) == 56,
                  "HistoryDvsParams changed: echo every field it has here");

    Json j = Json::object();
    j["radix"] = Json(static_cast<std::int64_t>(config.radix));
    j["dims"] = Json(static_cast<std::int64_t>(config.dims));
    j["torus"] = Json(config.torus);
    // router.numPorts is not an input: Network derives it from the
    // topology.
    Json router = Json::object();
    router["num_vcs"] = Json(static_cast<std::int64_t>(config.router.numVcs));
    router["buffer_per_port"] =
        Json(static_cast<std::uint64_t>(config.router.bufferPerPort));
    router["pipeline_latency"] =
        Json(static_cast<std::int64_t>(config.router.pipelineLatency));
    j["router"] = std::move(router);
    Json link = Json::object();
    link["voltage_transition_ticks"] =
        Json(static_cast<std::uint64_t>(config.link.voltageTransitionLatency));
    link["freq_transition_link_cycles"] =
        Json(static_cast<std::uint64_t>(config.link.freqTransitionLinkCycles));
    link["initial_level"] =
        Json(static_cast<std::uint64_t>(config.link.initialLevel));
    link["links_per_channel"] =
        Json(static_cast<std::uint64_t>(config.link.linksPerChannel));
    link["propagation_delay_ticks"] =
        Json(static_cast<std::uint64_t>(config.link.propagationDelay));
    j["link"] = std::move(link);
    j["policy"] = Json(policyKindName(config.policy));
    const core::HistoryDvsParams &p = config.policyParams;
    Json params = Json::object();
    params["weight"] = Json(p.weight);
    params["weight_on_history"] = Json(p.weightOnHistory);
    params["b_congested"] = Json(p.bCongested);
    params["tl_low"] = Json(p.tlLow);
    params["tl_high"] = Json(p.tlHigh);
    params["th_low"] = Json(p.thLow);
    params["th_high"] = Json(p.thHigh);
    j["policy_params"] = std::move(params);
    j["policy_window"] = Json(static_cast<std::uint64_t>(config.policyWindow));
    j["policy_cooldown"] =
        Json(static_cast<std::uint64_t>(config.policyCooldown));
    j["static_level"] = Json(static_cast<std::uint64_t>(config.staticLevel));
    j["routing"] = Json(routingKindName(config.routing));
    j["packet_length"] =
        Json(static_cast<std::int64_t>(config.packetLength));
    j["link_power"] = Json(config.linkPowerSpec);
    return j;
}

std::vector<std::string>
NetworkConfig::validate() const
{
    std::vector<std::string> problems;
    auto complain = [&problems](auto &&...parts) {
        problems.push_back(detail::concat(parts...));
    };

    if (radix < 2)
        complain("radix must be >= 2 (got ", radix, ")");
    if (dims < 1)
        complain("dims must be >= 1 (got ", dims, ")");
    if (radix >= 2 && dims >= 1) {
        // radix^dims, stopped at the first factor past the cap so the
        // product never overflows.
        std::int64_t nodes = 1;
        for (std::int32_t d = 0; d < dims && nodes <= topo::kMaxNodes; ++d)
            nodes *= radix;
        if (nodes > topo::kMaxNodes) {
            complain("radix^dims = ", radix, "^", dims,
                     " exceeds the topo::kMaxNodes = ", topo::kMaxNodes,
                     " node cap");
        }
    }
    // Router geometry (numVcs bounds, buffer split, pipeline depth,
    // mask capacities): fold in RouterConfig::validate() with the port
    // count the topology derives (2 per dimension + terminal).  A
    // nonsense dims falls back to 1 so the VC/buffer/pipeline checks
    // still run alongside the dims complaint above.
    router::RouterConfig derived = router;
    derived.numPorts = 2 * std::max<std::int32_t>(dims, 1) + 1;
    for (const auto &problem : derived.validate())
        problems.push_back("router: " + problem);
    if (packetLength < 1)
        complain("packetLength must be >= 1 flit");
    if (link.linksPerChannel < 1)
        complain("link.linksPerChannel must be >= 1");
    if (link.initialLevel >= link::kNumDvsLevels) {
        complain("link.initialLevel ", link.initialLevel,
                 " is outside the ", link::kNumDvsLevels,
                 "-level table");
    }
    if (policy != PolicyKind::None && policyWindow < 1)
        complain("policyWindow must be >= 1 cycle");
    for (const auto &problem : power::validateLinkPowerSpec(linkPowerSpec))
        problems.push_back(problem);
    if (policy == PolicyKind::StaticLevel &&
        staticLevel >= link::kNumDvsLevels) {
        complain("staticLevel ", staticLevel, " is outside the ",
                 link::kNumDvsLevels, "-level table");
    }
    return problems;
}

Network::Network(const NetworkConfig &config)
    : config_(validated(config)),
      topo_(config.radix, config.dims, config.torus),
      levels_(link::DvsLevelTable::standard10())
{
    config_.router.numPorts = topo_.numPorts();
    build();
}

void
Network::build()
{
    // Routing.
    switch (config_.routing) {
      case RoutingKind::Dor:
        routing_ = std::make_unique<router::DorRouting>(
            topo_, config_.router.numVcs);
        break;
      case RoutingKind::MinimalAdaptive:
        routing_ = std::make_unique<router::MinimalAdaptiveRouting>(
            topo_, config_.router.numVcs);
        break;
    }

    // Energy ledger: reference = every channel pinned at the fastest
    // level (the paper's non-DVS network).  The reference is always the
    // table law regardless of the selected backend, so normalized power
    // stays comparable across backends (DESIGN.md "Link power
    // backends").
    const double channelRefW =
        levels_.level(levels_.fastest()).powerW *
        static_cast<double>(config_.link.linksPerChannel);
    ledger_ = std::make_unique<power::EnergyLedger>(
        topo_.channels().size(), channelRefW);

    // One shared link-power backend drives every channel; the spec was
    // validated with the config, so build() cannot reject it here.
    linkPowerModel_ = power::buildLinkPowerModel(
        config_.linkPowerSpec,
        power::LinkPowerContext{levels_.coeffA(), levels_.coeffB(),
                                config_.link.linksPerChannel});

    // Routers + terminals.
    const auto perVcCapacity =
        config_.router.bufferPerPort /
        static_cast<std::size_t>(config_.router.numVcs);
    routers_.reserve(static_cast<std::size_t>(topo_.numNodes()));
    sinks_.reserve(static_cast<std::size_t>(topo_.numNodes()));
    sources_.resize(static_cast<std::size_t>(topo_.numNodes()));
    for (NodeId n = 0; n < topo_.numNodes(); ++n) {
        routers_.push_back(std::make_unique<router::Router>(
            n, config_.router, *routing_, packets_));
        sinks_.push_back(std::make_unique<EjectionSink>(*this));
        // The terminal output port drains into the node ("immediate
        // ejection"), so it needs no credits.
        routers_.back()->connectEjection(sinks_.back().get());
    }

    // DVS channels.
    channels_.reserve(topo_.channels().size());
    for (const auto &ch : topo_.channels()) {
        auto channel = std::make_unique<link::DvsChannel>(
            kernel_, static_cast<std::size_t>(ch.id), levels_,
            config_.link, ledger_.get(), power::TransitionEnergyModel{},
            linkPowerModel_.get(), &packets_);
        channel->attachObservability(&registry_);
        channel->connectFlitSink(
            &routers_[static_cast<std::size_t>(ch.dst)]->flitInbox(
                ch.dstPort));
        routers_[static_cast<std::size_t>(ch.src)]->connectOutput(
            ch.srcPort, channel.get(), perVcCapacity);
        channels_.push_back(std::move(channel));
    }

    // Credit paths: credits for channel C ride the reverse channel and
    // land at C.src's output-port credit inbox.
    for (const auto &ch : topo_.channels()) {
        const ChannelId rev = topo_.reverseChannel(ch.id);
        channels_[static_cast<std::size_t>(rev)]->connectCreditSink(
            &routers_[static_cast<std::size_t>(ch.src)]->creditInbox(
                ch.srcPort));
        routers_[static_cast<std::size_t>(ch.dst)]->connectCreditReturn(
            ch.dstPort, channels_[static_cast<std::size_t>(rev)].get());
    }

    // Activity gating: a push into an empty inbox of a router (link
    // flit, credit return, or terminal injection) wakes it into the
    // step set at its next due edge.
    ctrCycles_ = &registry_.counter("network.cycles");
    ctrRouterSteps_ = &registry_.counter("network.router_steps");
    ctrRouterWakes_ = &registry_.counter("network.router_wakes");
    steppingRouters_.resize(topo_.numNodes());
    joiningRouters_.resize(topo_.numNodes());
    queuedSources_.resize(topo_.numNodes());
    wakeAt_.assign(static_cast<std::size_t>(topo_.numNodes()), kTickNever);
    for (NodeId n = 0; n < topo_.numNodes(); ++n) {
        // The router owns the per-inbox hooks (they feed its pending
        // masks) and chains the network-level wake through this one.
        routers_[static_cast<std::size_t>(n)]->setWakeHook(
            [this, n] { wakeRouter(n); });
    }

    // DVS controllers, one per channel (Fig. 6: at each output port).
    controllers_.resize(channels_.size());
    if (config_.policy != PolicyKind::None) {
        for (const auto &ch : topo_.channels()) {
            auto controller = std::make_unique<core::PortDvsController>(
                kernel_, channels_[static_cast<std::size_t>(ch.id)].get(),
                routers_[static_cast<std::size_t>(ch.src)].get(),
                ch.srcPort, makePolicy(), config_.policyWindow,
                config_.policyCooldown);
            controller->start();
            controllers_[static_cast<std::size_t>(ch.id)] =
                std::move(controller);
        }
    }
}

std::unique_ptr<core::DvsPolicy>
Network::makePolicy() const
{
    switch (config_.policy) {
      case PolicyKind::History:
        return std::make_unique<core::HistoryDvsPolicy>(
            config_.policyParams);
      case PolicyKind::LinkUtilOnly: {
        // Algorithm 1 with its litmus off: no BU reaches +inf, so the
        // light-load bank applies at every load.
        core::HistoryDvsParams params = config_.policyParams;
        params.bCongested = std::numeric_limits<double>::infinity();
        return std::make_unique<core::HistoryDvsPolicy>(params);
      }
      case PolicyKind::StaticLevel:
        return std::make_unique<core::StaticLevelPolicy>(
            config_.staticLevel);
      case PolicyKind::DynamicThreshold: {
        core::DynamicThresholdParams params;
        params.base = config_.policyParams;
        return std::make_unique<core::DynamicThresholdPolicy>(params);
      }
      case PolicyKind::None:
        break;
    }
    DVSNET_PANIC("no policy to create");
}

void
Network::attachTraffic(traffic::TrafficGenerator &generator)
{
    if (auto stream = generator.openStream()) {
        attachStream(std::move(stream));
        return;
    }
    if (generator.wantsDeliveries()) {
        setDeliveryHook([&generator](const traffic::PacketRequest &req,
                                     Tick arrival) {
            generator.onDelivered(req, arrival);
        });
    }
    generator.start(kernel_,
                    [this](const traffic::PacketRequest &request) {
                        injectPacket(request);
                    });
}

void
Network::attachStream(std::unique_ptr<traffic::PacketCursor> stream)
{
    DVSNET_ASSERT(stream && !stream_, "one packet stream per network");
    stream_ = std::move(stream);
    streamHasNext_ = stream_->next(streamNext_);
}

void
Network::pullStream(bool withAfterStep)
{
    const Tick now = kernel_.now();
    DVSNET_ASSERT(now <= stream_->horizon(), "packet stream ran out at tick ",
                  stream_->horizon(), "; the network is at ", now);
    while (streamHasNext_ &&
           (streamNext_.when < now ||
            (streamNext_.when == now &&
             (withAfterStep || !streamNext_.afterStep)))) {
        createPacket(streamNext_.request, streamNext_.when);
        streamHasNext_ = stream_->next(streamNext_);
    }
}

void
Network::setDeliveryHook(DeliveryFn hook)
{
    deliveryHook_ = std::move(hook);
    if (!deliveryHook_)
        packets_.forEachLive([](router::Packet &pkt) { pkt.echo = false; });
}

void
Network::injectPacket(const traffic::PacketRequest &request)
{
    createPacket(request, kernel_.now());
}

void
Network::createPacket(const traffic::PacketRequest &request, Tick created)
{
    const NodeId src = request.src;
    const NodeId dst = request.dst;
    DVSNET_ASSERT(src >= 0 && src < topo_.numNodes(), "bad source");
    DVSNET_ASSERT(dst >= 0 && dst < topo_.numNodes(), "bad destination");
    DVSNET_ASSERT(src != dst, "self-addressed packet");

    router::PacketDesc desc;
    desc.id = nextPacketId_++;
    desc.src = src;
    desc.dst = dst;
    desc.length =
        request.sizeFlits != 0 ? request.sizeFlits : config_.packetLength;
    desc.created = created;

    const router::PacketSlot slot = metrics_.onPacketCreated(desc);
    if (deliveryHook_) {
        router::Packet &pkt = packets_.at(slot);
        pkt.echo = true;
        pkt.tag = request.tag;
        pkt.requestedFlits = request.sizeFlits;
        pkt.trafficClass = request.trafficClass;
    }

    auto &state = sources_[static_cast<std::size_t>(src)];
    state.queue.push_back(slot);
    ++state.created;
    queuedSources_.set(src);
}

std::size_t
Network::NodeSet::count() const
{
    std::size_t n = 0;
    for (const std::uint64_t w : words_)
        n += static_cast<std::size_t>(std::popcount(w));
    return n;
}

void
Network::NodeSet::take(NodeSet &other)
{
    for (std::size_t w = 0; w < words_.size(); ++w) {
        words_[w] |= other.words_[w];
        other.words_[w] = 0;
    }
}

void
Network::wakeRouter(NodeId node)
{
    // A router in the step set reports its own next edge when it steps.
    if (steppingRouters_.test(node) || joiningRouters_.test(node))
        return;
    scheduleStep(node,
                 routers_[static_cast<std::size_t>(node)]->nextStep(
                     kernel_.now()));
}

void
Network::scheduleStep(NodeId node, Tick edge)
{
    // The next stepQuantum merges joiningRouters_ after its injection
    // scan, so an edge up to the next one is served by joining now.
    if (edge <= routerEdgeAfter(kernel_.now())) {
        joinStepSet(node);
        return;
    }
    Tick &armed = wakeAt_[static_cast<std::size_t>(node)];
    if (edge >= armed)
        return;
    armed = edge;
    // Scheduled before stepQuantum(edge) is (that happens at the edge
    // before), so it runs first at the edge.  A wake superseded by an
    // earlier one, or by a join, finds wakeAt_ moved on and does
    // nothing.
    kernel_.at(edge, [this, node] {
        if (wakeAt_[static_cast<std::size_t>(node)] == kernel_.now())
            joinStepSet(node);
    });
}

void
Network::joinStepSet(NodeId node)
{
    wakeAt_[static_cast<std::size_t>(node)] = kTickNever;
    joiningRouters_.set(node);
    ++*ctrRouterWakes_;
}

void
Network::startStepping()
{
    if (stepping_)
        return;
    stepping_ = true;
    kernel_.at(routerEdgeAfter(kernel_.now()), [this] { stepQuantum(); });
}

void
Network::stepQuantum()
{
    // One router-clock edge: the injection scan, then one pass over the
    // routers due.  Kernel events (policy windows, link transitions,
    // timed router wakes, traffic processes) interleave between edges
    // in (tick, seq) order.
    // A packet stream stands in for a generator's events up to here.
    const Tick now = kernel_.now();
    ++*ctrCycles_;
    if (stream_)
        pullStream(false);

    // Injection scan: only sources with queued packets, in ascending
    // node order (the full 0..N-1 scan this replaces, restricted to
    // non-empty queues).  An injection into a sleeping terminal router
    // is due now, so it joins the step set below.
    queuedSources_.forEach([this](NodeId n) {
        injectFromQueue(n);
        if (sources_[static_cast<std::size_t>(n)].queue.empty())
            queuedSources_.reset(n);
    });

    // Router cores: step the routers due at this edge in ascending id
    // order — the original full scan restricted to routers with work,
    // so metric accumulation order is unchanged.  A router not due
    // would drain nothing and allocate nothing, so skipping it cannot
    // perturb simulated results.  A delivery into a router not in the
    // set arrives strictly after `now`; wakeRouter steps it at the
    // first edge at or after that arrival.
    steppingRouters_.take(joiningRouters_);
    *ctrRouterSteps_ += steppingRouters_.count();
    steppingRouters_.forEach([this, now](NodeId n) {
        const Tick next = routers_[static_cast<std::size_t>(n)]->step(now);
        if (next == now + kRouterClockPeriod)
            return;
        steppingRouters_.reset(n);
        if (next != kTickNever)
            scheduleStep(n, next);
    });

    kernel_.at(now + kRouterClockPeriod, [this] { stepQuantum(); });
}

void
Network::injectFromQueue(NodeId node)
{
    auto &state = sources_[static_cast<std::size_t>(node)];
    if (state.queue.empty())
        return;

    auto &r = *routers_[static_cast<std::size_t>(node)];
    const router::PacketSlot slot = state.queue.front();

    if (state.nextSeq == 0) {
        // Choose the terminal VC with the most space for the new packet.
        VcId best = kInvalidId;
        std::size_t bestFree = 0;
        for (VcId v = 0; v < config_.router.numVcs; ++v) {
            const std::size_t free = r.terminalFreeSlots(v);
            if (free > bestFree) {
                bestFree = free;
                best = v;
            }
        }
        if (best == kInvalidId)
            return;  // terminal buffers full; retry next cycle
        state.vc = best;
    } else if (r.terminalFreeSlots(state.vc) == 0) {
        return;  // mid-packet backpressure
    }

    const router::Flit flit =
        packets_.makeFlit(slot, state.nextSeq, state.vc);
    r.flitInbox(topo_.terminalPort()).push(kernel_.now(), flit);

    if (flit.isTail()) {
        state.queue.pop_front();
        state.nextSeq = 0;
    } else {
        ++state.nextSeq;
    }
}

void
Network::onFlitEjected(const router::Flit &flit, Tick arrival)
{
    // The metrics release the tail's slot, so copy its echo first.
    // Packets injected before the hook was installed are not marked for
    // echo; they complete silently.  Every marked packet is echoed,
    // whether or not it counts in the measurement window: a closed-loop
    // generator waits for the packets in flight at the window start too.
    traffic::PacketRequest request;
    bool echo = false;
    if (flit.isTail() && deliveryHook_) {
        const router::Packet &pkt = packets_.at(flit.slot);
        echo = pkt.echo;
        request = traffic::PacketRequest{pkt.src, pkt.dst,
                                         pkt.requestedFlits,
                                         pkt.trafficClass, pkt.tag};
    }
    metrics_.onFlitEjected(flit, arrival);
    if (echo)
        deliveryHook_(request, arrival);
}

void
Network::runUntilCycle(Cycle cycle)
{
    const Tick until = cyclesToTicks(cycle);
    if (stream_ && until > stream_->horizon()) {
        throw ConfigError(detail::concat(
            "packet stream covers ticks up to ", stream_->horizon(),
            ", not the requested run to cycle ", cycle));
    }
    startStepping();
    kernel_.run(until);
    // A live generator has created every packet up to `until` by now,
    // after-step ones included.
    if (stream_)
        pullStream(true);
}

void
Network::beginMeasurement()
{
    metrics_.beginWindow(kernel_.now());
    ledger_->beginWindow(kernel_.now());
    measureStartCycle_ = currentCycle();
}

RunResults
Network::run(Cycle warmup, Cycle measure)
{
    const Cycle start = currentCycle();
    runUntilCycle(start + warmup);
    beginMeasurement();
    runUntilCycle(start + warmup + measure);
    return collect();
}

RunResults
Network::collect() const
{
    // End-of-run invariant sweep: flow control, packet accounting and
    // ledger agreement are all cheap relative to the run itself, so
    // every collected result is a verified one.
    const std::uint64_t checksBefore = registry_.totalInvariantChecks();
    const std::uint64_t failuresBefore = registry_.totalInvariantFailures();
    verifyFlowControlInvariants();
    metrics_.verify(registry_.invariant("metrics.packet_accounting"));
    ledger_->verify(registry_.invariant("power.ledger_agreement"),
                    kernel_.now());

    RunResults res;
    const Tick now = kernel_.now();
    res.measuredCycles = ticksToCycles(now) - measureStartCycle_;
    DVSNET_ASSERT(res.measuredCycles > 0, "empty measurement window");
    const auto cycles = static_cast<double>(res.measuredCycles);

    res.packetsCreated = metrics_.packetsCreated();
    res.packetsDelivered = metrics_.packetsDelivered();
    res.flitsEjected = metrics_.flitsEjected();
    res.offeredLoadPktsPerCycle =
        static_cast<double>(res.packetsCreated) / cycles;
    res.throughputPktsPerCycle =
        static_cast<double>(metrics_.packetsEjected()) / cycles;
    res.throughputFlitsPerCycle =
        static_cast<double>(res.flitsEjected) / cycles;
    res.avgLatencyCycles = metrics_.latency().mean();
    res.maxLatencyCycles = metrics_.latency().max();
    res.avgPowerW = ledger_->averagePower(now);
    res.normalizedPower = ledger_->normalizedPower(now);
    res.savingsFactor = ledger_->savingsFactor(now);
    res.transitionEnergyJ = ledger_->totalTransitionEnergy();
    res.totalEnergyJ = ledger_->totalEnergy(now);
    res.flitEnergyJ = ledger_->totalFlitEnergy();
    res.avgChannelLevel = averageChannelLevel();
    // The run's checks plus this sweep's: an earlier collect()'s sweep
    // is left out, so a run collected mid-way and again later reports
    // what a run collected once at the end reports.
    const std::uint64_t checks = registry_.totalInvariantChecks();
    const std::uint64_t failures = registry_.totalInvariantFailures();
    res.invariantChecks = checks - sweptChecks_;
    res.invariantFailures = failures - sweptFailures_;
    sweptChecks_ += checks - checksBefore;
    sweptFailures_ += failures - failuresBefore;
    return res;
}

router::Router &
Network::router(NodeId node)
{
    return *routers_.at(static_cast<std::size_t>(node));
}

link::DvsChannel &
Network::channel(ChannelId id)
{
    return *channels_.at(static_cast<std::size_t>(id));
}

core::PortDvsController *
Network::controller(ChannelId id)
{
    return controllers_.at(static_cast<std::size_t>(id)).get();
}

std::uint64_t
Network::packetsCreatedAt(NodeId node) const
{
    return sources_.at(static_cast<std::size_t>(node)).created;
}

std::size_t
Network::sourceQueueDepth(NodeId node) const
{
    return sources_.at(static_cast<std::size_t>(node)).queue.size();
}

void
Network::verifyFlowControlInvariants() const
{
    SimAssert &inv = registry_.invariant("network.credit_conservation");

    const auto perVcCapacity =
        config_.router.bufferPerPort /
        static_cast<std::size_t>(config_.router.numVcs);
    const auto portCapacity =
        perVcCapacity * static_cast<std::size_t>(config_.router.numVcs);

    for (const auto &ch : topo_.channels()) {
        auto &up = *routers_[static_cast<std::size_t>(ch.src)];
        auto &down = *routers_[static_cast<std::size_t>(ch.dst)];

        std::size_t credits = 0;
        for (VcId v = 0; v < config_.router.numVcs; ++v)
            credits += up.creditCount(ch.srcPort, v);
        const std::size_t buffered = down.bufferOccupancy(ch.dstPort);
        const std::size_t flitsInFlight =
            down.flitInbox(ch.dstPort).size();
        const std::size_t creditsInFlight =
            up.creditInbox(ch.srcPort).size();

        const std::size_t total =
            credits + buffered + flitsInFlight + creditsInFlight;
        inv.check(total == portCapacity,
                  "credit conservation violated on channel ", ch.id,
                  ": credits=", credits, " buffered=", buffered,
                  " flits-in-flight=", flitsInFlight,
                  " credits-in-flight=", creditsInFlight,
                  " capacity=", portCapacity);
    }
}

double
Network::averageChannelLevel() const
{
    double sum = 0.0;
    for (const auto &ch : channels_)
        sum += static_cast<double>(ch->level());
    return sum / static_cast<double>(channels_.size());
}

} // namespace dvsnet::network
