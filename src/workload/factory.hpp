/**
 * @file
 * Workload registry: every traffic generator the simulator knows is
 * constructible from a textual spec `<name>[:key=val,...]`, e.g.
 *
 *     two-level
 *     uniform
 *     cmp:window=8,hot_nodes=4,p_hot=0.3
 *     trace:path=warmup.dvst
 *
 * A `trace` spec replays a recorded packet stream (traffic/trace.hpp):
 * a `.dvst` file straight from disk, block by block, or a CSV file
 * loaded into a stream first; either way every packet is checked
 * against the topology's node count as it is read.
 *
 * The spec travels through ExperimentSpec and the bench `--workload`
 * flag, so every experiment entry point drives any workload without
 * bespoke wiring.  The grammar, the value rules and the registry's
 * rejection messages are common/spec.hpp's: unknown names and unknown
 * keys are rejected up front, not at run time.
 *
 * Builders receive a WorkloadContext carrying what the experiment
 * already knows — topology, target injection rate, per-point seed, and
 * the two-level parameter block — so specs only name what differs from
 * the experiment defaults.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/spec.hpp"
#include "topo/topology.hpp"
#include "traffic/task_model.hpp"
#include "traffic/traffic.hpp"

namespace dvsnet::workload
{

/** Experiment-level inputs available to every workload builder. */
struct WorkloadContext
{
    const topo::KAryNCube &topo;

    /** Target network-wide injection rate, packets/cycle. */
    double injectionRate = 1.0;

    /** Per-point seed (exp::pointSeed stream). */
    std::uint64_t seed = 12345;

    /** Parameter block used by the "two-level" builder; carried here so
     *  spec-file tuning of the paper's model keeps working. */
    traffic::TwoLevelParams twoLevel;
};

using WorkloadRegistry =
    Registry<std::unique_ptr<traffic::TrafficGenerator>, WorkloadContext>;

/** The process-wide workload registry, pre-populated with the
 *  built-ins; tests register their own generators beside them. */
WorkloadRegistry &workloadRegistry();

/**
 * Parse + validate a raw spec string; empty = valid.  Also checks, with
 * TwoLevelParams::validate(), the two-level block an experiment carries
 * as the spec leaves it: a `two-level` spec's keys are applied to
 * `twoLevel` first.  The block is checked whatever the spec names,
 * since the experiment carries it for every workload.
 */
std::vector<std::string>
validateWorkloadSpec(const std::string &text,
                     const traffic::TwoLevelParams &twoLevel = {});

/** Parse, validate and build in one step.  @throws ConfigError */
std::unique_ptr<traffic::TrafficGenerator>
buildWorkload(const std::string &text, const WorkloadContext &context);

} // namespace dvsnet::workload
