#include "traffic/pattern.hpp"

#include "common/fatal.hpp"

namespace dvsnet::traffic
{

namespace
{

bool
isPowerOfTwo(std::int64_t n)
{
    return n > 0 && (n & (n - 1)) == 0;
}

std::int32_t
log2Exact(std::int64_t n)
{
    DVSNET_ASSERT(isPowerOfTwo(n), "node count must be a power of two");
    std::int32_t bits = 0;
    while ((std::int64_t{1} << bits) < n)
        ++bits;
    return bits;
}

} // namespace

const char *
patternName(Pattern p)
{
    switch (p) {
      case Pattern::UniformRandom: return "uniform";
      case Pattern::Transpose:     return "transpose";
      case Pattern::BitComplement: return "bit-complement";
      case Pattern::BitReverse:    return "bit-reverse";
      case Pattern::Shuffle:       return "shuffle";
      case Pattern::Tornado:       return "tornado";
      case Pattern::Neighbor:      return "neighbor";
    }
    DVSNET_PANIC("unhandled pattern");
}

NodeId
patternDestination(Pattern p, NodeId src, const topo::KAryNCube &topo,
                   Rng &rng)
{
    const std::int32_t n = topo.numNodes();
    switch (p) {
      case Pattern::UniformRandom: {
        // Uniform over all nodes except the source.
        NodeId dst = static_cast<NodeId>(
            rng.uniformInt(static_cast<std::uint64_t>(n - 1)));
        if (dst >= src)
            ++dst;
        return dst;
      }
      case Pattern::Transpose: {
        DVSNET_ASSERT(topo.dims() == 2, "transpose needs a 2-D topology");
        auto coords = topo.coordinates(src);
        std::swap(coords[0], coords[1]);
        return topo.nodeId(coords);
      }
      case Pattern::BitComplement: {
        const std::int32_t bits = log2Exact(n);
        return (~src) & ((1 << bits) - 1);
      }
      case Pattern::BitReverse: {
        const std::int32_t bits = log2Exact(n);
        NodeId dst = 0;
        for (std::int32_t b = 0; b < bits; ++b) {
            if (src & (1 << b))
                dst |= 1 << (bits - 1 - b);
        }
        return dst;
      }
      case Pattern::Shuffle: {
        const std::int32_t bits = log2Exact(n);
        const NodeId hi = (src >> (bits - 1)) & 1;
        return ((src << 1) | hi) & ((1 << bits) - 1);
      }
      case Pattern::Tornado: {
        auto coords = topo.coordinates(src);
        for (auto &c : coords)
            c = (c + (topo.radix() / 2)) % topo.radix();
        NodeId dst = topo.nodeId(coords);
        // On a mesh the half-way offset can land on the source when the
        // radix is even and small; nudge deterministically.
        if (dst == src)
            dst = (dst + 1) % n;
        return dst;
      }
      case Pattern::Neighbor: {
        auto coords = topo.coordinates(src);
        coords[0] = (coords[0] + 1) % topo.radix();
        return topo.nodeId(coords);
      }
    }
    DVSNET_PANIC("unhandled pattern");
}

} // namespace dvsnet::traffic
