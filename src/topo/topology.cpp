#include "topo/topology.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/fatal.hpp"

namespace dvsnet::topo
{

KAryNCube::KAryNCube(std::int32_t radix, std::int32_t dims, bool torus)
    : radix_(radix), dims_(dims), torus_(torus)
{
    DVSNET_ASSERT(radix >= 2, "radix must be >= 2");
    DVSNET_ASSERT(dims >= 1, "dims must be >= 1");

    numNodes_ = 1;
    for (std::int32_t d = 0; d < dims; ++d) {
        DVSNET_ASSERT(numNodes_ <= kMaxNodes / radix, "topology too large");
        numNodes_ *= radix;
    }

    // Every node's coordinates, dimension 0 fastest, so coordinate() is
    // a load.  Node n + 1's coordinates are node n's plus one, carried
    // like an odometer.
    const auto stride = static_cast<std::size_t>(dims);
    coords_.assign(static_cast<std::size_t>(numNodes_) * stride, 0);
    for (std::size_t at = stride; at < coords_.size(); at += stride) {
        std::copy_n(coords_.begin() + static_cast<std::ptrdiff_t>(at - stride),
                    stride, coords_.begin() + static_cast<std::ptrdiff_t>(at));
        for (std::size_t d = at; ++coords_[d] == radix; ++d)
            coords_[d] = 0;
    }

    channelTable_.assign(
        static_cast<std::size_t>(numNodes_) * numDirPorts(), kInvalidId);

    for (NodeId node = 0; node < numNodes_; ++node) {
        for (PortId port = 0; port < numDirPorts(); ++port) {
            const NodeId nb = neighbor(node, port);
            if (nb == kInvalidId)
                continue;
            Channel ch;
            ch.id = static_cast<ChannelId>(channels_.size());
            ch.src = node;
            ch.srcPort = port;
            ch.dst = nb;
            ch.dstPort = oppositePort(port);
            channelTable_[static_cast<std::size_t>(node) * numDirPorts() +
                          port] = ch.id;
            channels_.push_back(ch);
        }
    }
}

std::int32_t
KAryNCube::wrap(std::int32_t c) const
{
    if (c < 0)
        return c + radix_;
    if (c >= radix_)
        return c - radix_;
    return c;
}

NodeId
KAryNCube::nodeId(const Coordinates &coords) const
{
    DVSNET_ASSERT(static_cast<std::int32_t>(coords.size()) == dims_,
                  "coordinate dimensionality mismatch");
    NodeId id = 0;
    for (std::int32_t d = dims_ - 1; d >= 0; --d) {
        DVSNET_ASSERT(coords[d] >= 0 && coords[d] < radix_,
                      "coordinate out of range");
        id = id * radix_ + coords[d];
    }
    return id;
}

Coordinates
KAryNCube::coordinates(NodeId node) const
{
    DVSNET_ASSERT(node >= 0 && node < numNodes_, "node out of range");
    const auto first = coords_.begin() + static_cast<std::ptrdiff_t>(node) *
                                             static_cast<std::ptrdiff_t>(dims_);
    return Coordinates(first, first + dims_);
}

bool
KAryNCube::hasNeighbor(NodeId node, PortId port) const
{
    return neighbor(node, port) != kInvalidId;
}

NodeId
KAryNCube::neighbor(NodeId node, PortId port) const
{
    DVSNET_ASSERT(node >= 0 && node < numNodes_, "node out of range");
    DVSNET_ASSERT(port >= 0 && port < numDirPorts(), "not a direction port");
    const std::int32_t dim = portDim(port);
    const std::int32_t c = coordinate(node, dim);
    std::int32_t next = c + (portIsPlus(port) ? 1 : -1);
    if (next < 0 || next >= radix_) {
        if (!torus_)
            return kInvalidId;
        next = wrap(next);
    }
    // Row-major ids: a step in `dim` moves the id by radix^dim.
    NodeId stride = 1;
    for (std::int32_t d = 0; d < dim; ++d)
        stride *= radix_;
    return node + (next - c) * stride;
}

ChannelId
KAryNCube::channelAt(NodeId node, PortId port) const
{
    DVSNET_ASSERT(node >= 0 && node < numNodes_, "node out of range");
    DVSNET_ASSERT(port >= 0 && port < numDirPorts(), "not a direction port");
    return channelTable_[static_cast<std::size_t>(node) * numDirPorts() +
                         port];
}

ChannelId
KAryNCube::reverseChannel(ChannelId id) const
{
    DVSNET_ASSERT(id >= 0 &&
                  id < static_cast<ChannelId>(channels_.size()),
                  "channel out of range");
    const Channel &ch = channels_[static_cast<std::size_t>(id)];
    // The output port at ch.dst pointing back toward ch.src has the same
    // index as the input port the forward flit arrived on.
    const ChannelId rev = channelAt(ch.dst, ch.dstPort);
    DVSNET_ASSERT(rev != kInvalidId, "reverse channel missing");
    return rev;
}

std::int32_t
KAryNCube::hopDistance(NodeId a, NodeId b) const
{
    DVSNET_ASSERT(a >= 0 && a < numNodes_ && b >= 0 && b < numNodes_,
                  "node out of range");
    std::int32_t dist = 0;
    for (std::int32_t d = 0; d < dims_; ++d) {
        const std::int32_t ca = coordinate(a, d);
        const std::int32_t cb = coordinate(b, d);
        std::int32_t delta = std::abs(ca - cb);
        if (torus_)
            delta = std::min(delta, radix_ - delta);
        dist += delta;
    }
    return dist;
}

std::vector<NodeId>
KAryNCube::nodesWithin(NodeId center, std::int32_t radius) const
{
    std::vector<NodeId> result;
    for (NodeId n = 0; n < numNodes_; ++n) {
        if (n != center && hopDistance(center, n) <= radius)
            result.push_back(n);
    }
    return result;
}

std::string
KAryNCube::name() const
{
    std::ostringstream oss;
    oss << radix_ << "-ary " << dims_ << "-" << (torus_ ? "torus" : "mesh");
    return oss.str();
}

} // namespace dvsnet::topo
