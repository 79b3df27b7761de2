/**
 * @file
 * Destination patterns for synthetic traffic: uniform random plus the
 * classic permutations used to stress routing (transpose, bit-complement,
 * bit-reverse, shuffle, tornado, neighbor).  The paper notes these
 * "commonly used" workloads lack temporal variance — they serve here as
 * baselines and routing stressors alongside the two-level model.
 */

#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "topo/topology.hpp"

namespace dvsnet::traffic
{

/** Supported destination patterns. */
enum class Pattern
{
    UniformRandom,
    Transpose,      ///< (x, y) -> (y, x); 2-D square topologies
    BitComplement,  ///< node -> ~node over log2(N) bits
    BitReverse,     ///< node -> reversed bits
    Shuffle,        ///< node -> rotate-left(node) by 1 bit
    Tornado,        ///< half-way around each dimension
    Neighbor,       ///< +1 in dimension 0
};

/** Every pattern, in declaration order. */
inline constexpr Pattern kAllPatterns[] = {
    Pattern::UniformRandom, Pattern::Transpose, Pattern::BitComplement,
    Pattern::BitReverse,    Pattern::Shuffle,   Pattern::Tornado,
    Pattern::Neighbor,
};

/** The pattern's name: the one its workload is registered under
 *  ("uniform", "transpose", "bit-complement", ...). */
const char *patternName(Pattern p);

/**
 * Destination for `src` under pattern `p`.
 *
 * Permutations requiring power-of-two node counts (bit-complement,
 * bit-reverse, shuffle) are checked; transpose requires a square 2-D
 * topology.  Uniform draws from `rng` excluding `src`.
 */
NodeId patternDestination(Pattern p, NodeId src,
                          const topo::KAryNCube &topo, Rng &rng);

} // namespace dvsnet::traffic
