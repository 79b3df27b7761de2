#include "workload/cmp_workload.hpp"

#include <algorithm>

#include "common/fatal.hpp"

namespace dvsnet::workload
{

std::vector<std::string>
CmpParams::validate() const
{
    std::vector<std::string> problems;
    auto complain = [&problems](auto &&...parts) {
        problems.push_back(detail::concat(parts...));
    };
    if (window < 1)
        complain("cmp.window must be >= 1 (got ", window, ")");
    if (requestFlits < 1)
        complain("cmp.requestFlits must be >= 1 (got ", requestFlits, ")");
    if (homeLatencyCycles < 1) {
        complain("cmp.homeLatencyCycles must be >= 1 (got ",
                 homeLatencyCycles, ")");
    }
    if (hotNodes < 0)
        complain("cmp.hotNodes must be >= 0 (got ", hotNodes, ")");
    if (!(pHot >= 0.0 && pHot <= 1.0))
        complain("cmp.pHot must be in [0, 1] (got ", pHot, ")");
    if (hotNodes == 0 && pHot > 0.0)
        complain("cmp.pHot > 0 requires a nonzero hot set (hotNodes)");
    if (!(packetRate > 0.0))
        complain("cmp.packetRate must be positive (got ", packetRate, ")");
    return problems;
}

CmpWorkload::CmpWorkload(const topo::KAryNCube &topo,
                         const CmpParams &params)
    : topo_(topo), params_(params), rng_(params.seed)
{
    auto problems = params.validate();
    if (topo.numNodes() < 2) {
        problems.push_back(
            "cmp workload needs at least 2 nodes (no self-traffic)");
    }
    if (params.hotNodes >= topo.numNodes()) {
        problems.push_back(detail::concat(
            "cmp.hotNodes (", params.hotNodes,
            ") must be smaller than the node count (", topo.numNodes(),
            ")"));
    }
    if (!problems.empty())
        throw ConfigError(joinProblems("invalid CMP workload", problems));

    cores_.resize(static_cast<std::size_t>(topo_.numNodes()));
    // Each completed transaction puts two packets on the network, so a
    // target of `packetRate` packets/cycle needs rate/2 transactions
    // per cycle across all cores.
    perCoreTxnRate_ =
        params_.packetRate /
        (2.0 * static_cast<double>(topo_.numNodes()));
}

NodeId
CmpWorkload::homeFor(NodeId src)
{
    NodeId dst;
    if (params_.hotNodes > 0 && rng_.bernoulli(params_.pHot)) {
        // Hot set = nodes [0, hotNodes); directory/shared-data hotspot.
        dst = static_cast<NodeId>(
            rng_.uniformInt(static_cast<std::uint64_t>(params_.hotNodes)));
        if (dst == src) {
            // Deterministic re-aim keeps the draw count fixed.
            dst = static_cast<NodeId>((dst + 1) % params_.hotNodes);
            if (dst == src)  // hot set of size 1 containing src
                dst = static_cast<NodeId>((src + 1) % topo_.numNodes());
        }
        return dst;
    }
    dst = static_cast<NodeId>(rng_.uniformInt(
        static_cast<std::uint64_t>(topo_.numNodes() - 1)));
    if (dst >= src)
        ++dst;
    return dst;
}

void
CmpWorkload::start(sim::Kernel &kernel, traffic::PacketSink sink)
{
    kernel_ = &kernel;
    sink_ = std::move(sink);
    for (NodeId n = 0; n < topo_.numNodes(); ++n)
        scheduleDemand(n);
}

void
CmpWorkload::scheduleDemand(NodeId node)
{
    const double gapCycles = rng_.exponential(1.0 / perCoreTxnRate_);
    const Tick gap = std::max<Tick>(
        static_cast<Tick>(gapCycles *
                          static_cast<double>(kRouterClockPeriod) + 0.5),
        1);
    kernel_->after(gap, [this, node] {
        auto &core = cores_[static_cast<std::size_t>(node)];
        if (core.outstanding < params_.window) {
            issueTransaction(node);
        } else {
            ++core.backlog;
            ++stats_.demandQueued;
        }
        scheduleDemand(node);
    });
}

void
CmpWorkload::issueTransaction(NodeId node)
{
    auto &core = cores_[static_cast<std::size_t>(node)];
    const std::uint64_t tag = nextTag_++;
    const NodeId home = homeFor(node);
    transactions_.emplace(tag, Transaction{node, kernel_->now()});
    ++core.outstanding;
    ++stats_.transactionsIssued;
    sink_(traffic::PacketRequest{node, home, params_.requestFlits,
                                 CmpParams::kRequestClass, tag});
}

void
CmpWorkload::onDelivered(const traffic::PacketRequest &request,
                         Tick arrival)
{
    if (request.trafficClass == CmpParams::kRequestClass) {
        // Request reached its home node: serve it, then send the data
        // reply back.  The tag identifies the transaction; src/dst are
        // recoverable from the request itself, so the deferred event
        // only needs [this, tag] (InlineFn-sized capture).
        ++stats_.requestsDelivered;
        const std::uint64_t tag = request.tag;
        auto it = transactions_.find(tag);
        DVSNET_ASSERT(it != transactions_.end(),
                      "request delivered for unknown transaction");
        const NodeId home = request.dst;
        DVSNET_ASSERT(home >= 0 && home < topo_.numNodes(), "bad home");
        kernel_->after(cyclesToTicks(params_.homeLatencyCycles),
                       [this, tag] {
                           const auto t = transactions_.find(tag);
                           DVSNET_ASSERT(t != transactions_.end(),
                                         "reply for dead transaction");
                           const NodeId core = t->second.core;
                           ++stats_.repliesInjected;
                           sink_(traffic::PacketRequest{
                               t->second.home, core, params_.replyFlits,
                               CmpParams::kReplyClass, tag});
                       });
        it->second.home = home;
        return;
    }

    // Reply delivered back at the requesting core: transaction done.
    DVSNET_ASSERT(request.trafficClass == CmpParams::kReplyClass,
                  "unknown traffic class delivered");
    auto it = transactions_.find(request.tag);
    DVSNET_ASSERT(it != transactions_.end(),
                  "reply delivered for unknown transaction");
    const Transaction txn = it->second;
    transactions_.erase(it);

    auto &core = cores_[static_cast<std::size_t>(txn.core)];
    DVSNET_ASSERT(core.outstanding > 0, "window underflow");
    --core.outstanding;
    ++stats_.transactionsCompleted;
    roundTrip_.add(static_cast<double>(arrival - txn.issued) /
                   static_cast<double>(kRouterClockPeriod));

    // A freed window slot lets queued demand proceed immediately.
    if (core.backlog > 0) {
        --core.backlog;
        issueTransaction(txn.core);
    }
}

} // namespace dvsnet::workload
