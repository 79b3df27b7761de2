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
 * The spec travels through ExperimentSpec and the bench `--workload`
 * flag, so every experiment entry point drives any workload without
 * bespoke wiring.  Unknown names and unknown keys are rejected up front
 * (ConfigError listing what *is* registered), not at run time.
 *
 * Builders receive a WorkloadContext carrying what the experiment
 * already knows — topology, target injection rate, per-point seed, and
 * the two-level parameter block — so specs only name what differs from
 * the experiment defaults.
 */

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "topo/topology.hpp"
#include "traffic/task_model.hpp"
#include "traffic/traffic.hpp"

namespace dvsnet::workload
{

/** Parsed `<name>[:key=val,...]` workload specification. */
struct WorkloadSpec
{
    std::string name;
    std::vector<std::pair<std::string, std::string>> params;

    /**
     * Parse a spec string.  Grammar: name, optionally followed by ':'
     * and a comma-separated key=value list.  @throws ConfigError on a
     * syntactically malformed spec (empty name, missing '=', empty key).
     */
    static WorkloadSpec parse(const std::string &text);

    /** Canonical `<name>[:key=val,...]` rendering. */
    std::string toString() const;

    /** Value for `key`, or nullptr when absent. */
    const std::string *find(const std::string &key) const;
};

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

/** Registry of named workload builders. */
class WorkloadFactory
{
  public:
    using Builder = std::function<std::unique_ptr<traffic::TrafficGenerator>(
        const WorkloadSpec &, const WorkloadContext &)>;

    /** The process-wide registry, pre-populated with the built-ins. */
    static WorkloadFactory &instance();

    /**
     * Register a workload.  `keys` is the exhaustive list of spec keys
     * the builder accepts; anything else is rejected by validate().
     * Re-registering a name replaces the entry (tests use this).
     */
    void add(const std::string &name, const std::string &description,
             std::vector<std::string> keys, Builder builder);

    bool known(const std::string &name) const;

    /** Registered names, sorted. */
    std::vector<std::string> names() const;

    /** One-line description for a registered name ("" if unknown). */
    std::string description(const std::string &name) const;

    /** Accepted keys for a registered name (empty if unknown). */
    std::vector<std::string> keys(const std::string &name) const;

    /**
     * Problems with `spec`: unknown workload name (listing the
     * registered ones) or unknown keys (listing the valid ones).
     * Value errors surface later, from build().
     */
    std::vector<std::string> validate(const WorkloadSpec &spec) const;

    /** Construct the generator.  @throws ConfigError on an invalid
     *  spec or bad parameter values. */
    std::unique_ptr<traffic::TrafficGenerator>
    build(const WorkloadSpec &spec, const WorkloadContext &context) const;

  private:
    struct Entry
    {
        std::string name;
        std::string description;
        std::vector<std::string> keys;
        Builder builder;
    };

    const Entry *lookup(const std::string &name) const;

    std::vector<Entry> entries_;
};

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
