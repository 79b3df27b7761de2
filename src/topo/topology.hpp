/**
 * @file
 * k-ary n-cube topology (mesh and torus), per Section 4.1: "The simulator
 * supports k-ary n-cube network topologies".
 *
 * Port convention at every router:
 *   - direction ports 0 .. 2n-1, port 2d+0 faces the minus side of
 *     dimension d, port 2d+1 the plus side;
 *   - one terminal port (index 2n) carries injection/ejection traffic.
 * A flit leaving node u on its plus-d output port arrives at neighbor v on
 * v's minus-d input port (and vice versa).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace dvsnet::topo
{

/** Coordinates of a node, one entry per dimension, each in [0, k). */
using Coordinates = std::vector<std::int32_t>;

/**
 * Most nodes a topology may have (k^n).  NetworkConfig::validate()
 * rejects larger networks with a ConfigError; past it a network's
 * per-node state (routers, channels, the coordinate table) no longer
 * fits a host's memory.
 */
inline constexpr std::int32_t kMaxNodes = 1 << 16;

/** A unidirectional inter-router channel. */
struct Channel
{
    ChannelId id = kInvalidId;
    NodeId src = kInvalidId;       ///< upstream router
    PortId srcPort = kInvalidId;   ///< output port at src
    NodeId dst = kInvalidId;       ///< downstream router
    PortId dstPort = kInvalidId;   ///< input port at dst
};

/** k-ary n-cube: k nodes per dimension, n dimensions, optional wraparound. */
class KAryNCube
{
  public:
    /**
     * Build a k-ary n-cube.
     *
     * @param radix nodes per dimension (k >= 2)
     * @param dims number of dimensions (n >= 1)
     * @param torus wraparound channels if true, mesh otherwise
     */
    KAryNCube(std::int32_t radix, std::int32_t dims, bool torus);

    std::int32_t radix() const { return radix_; }
    std::int32_t dims() const { return dims_; }
    bool isTorus() const { return torus_; }

    /** Total router/terminal count (k^n). */
    std::int32_t numNodes() const { return numNodes_; }

    /** Direction ports per router (2n). */
    PortId numDirPorts() const { return 2 * dims_; }

    /** Index of the terminal (injection/ejection) port. */
    PortId terminalPort() const { return 2 * dims_; }

    /** Total ports per router including the terminal port. */
    PortId numPorts() const { return 2 * dims_ + 1; }

    /** Direction port for moving along `dim` toward plus/minus. */
    static PortId dirPort(std::int32_t dim, bool plus)
    {
        return 2 * dim + (plus ? 1 : 0);
    }

    /** Dimension a direction port belongs to. */
    static std::int32_t portDim(PortId port) { return port / 2; }

    /** True if the port faces the plus side of its dimension. */
    static bool portIsPlus(PortId port) { return (port & 1) != 0; }

    /**
     * Input port at the downstream router for a flit leaving on `out`:
     * leaving plus-d arrives on the neighbor's minus-d port.
     */
    static PortId oppositePort(PortId out) { return out ^ 1; }

    /** Node id for coordinates (row-major, dimension 0 fastest). */
    NodeId nodeId(const Coordinates &coords) const;

    /** Coordinates for a node id. */
    Coordinates coordinates(NodeId node) const;

    /** Coordinate of `node` in dimension `dim` (a table load). */
    std::int32_t
    coordinate(NodeId node, std::int32_t dim) const
    {
        return coords_[static_cast<std::size_t>(node) *
                           static_cast<std::size_t>(dims_) +
                       static_cast<std::size_t>(dim)];
    }

    /** True if `node` has a neighbor through direction port `port`. */
    bool hasNeighbor(NodeId node, PortId port) const;

    /** Neighbor through `port`; kInvalidId if none (mesh edge). */
    NodeId neighbor(NodeId node, PortId port) const;

    /** All unidirectional channels, indexed by ChannelId. */
    const std::vector<Channel> &channels() const { return channels_; }

    /** Channel leaving `node` on output `port`; kInvalidId if none. */
    ChannelId channelAt(NodeId node, PortId port) const;

    /** The channel in the opposite direction (same node pair). */
    ChannelId reverseChannel(ChannelId id) const;

    /** Minimal hop count between two nodes. */
    std::int32_t hopDistance(NodeId a, NodeId b) const;

    /**
     * Nodes within `radius` hops of `center` (excluding the center).
     * Used by the sphere-of-locality destination model.
     */
    std::vector<NodeId> nodesWithin(NodeId center,
                                    std::int32_t radius) const;

    /** Human-readable name, e.g. "8-ary 2-mesh". */
    std::string name() const;

  private:
    std::int32_t wrap(std::int32_t c) const;

    std::int32_t radix_;
    std::int32_t dims_;
    bool torus_;
    std::int32_t numNodes_;
    std::vector<std::int32_t> coords_;    ///< [node * dims + dim]
    std::vector<Channel> channels_;
    std::vector<ChannelId> channelTable_;  ///< [node * numDirPorts + port]
};

} // namespace dvsnet::topo
