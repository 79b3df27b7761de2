/**
 * @file
 * Shared helpers for the figure/table bench binaries: canonical paper
 * configuration, fidelity knobs (cycle counts via key=value args or
 * DVSNET_* environment variables), uniform output headers, and the
 * machine-readable run artifact (`--json <path>`).
 *
 * Every bench binary emits, besides its human-readable tables, an
 * optional self-describing JSON artifact: schema id, binary/figure
 * identity, git describe, config echo, seed/threads/fidelity, wall
 * clock, and one entry per printed table / executed sweep / executed
 * point (schema `dvsnet-bench-v1`; see EXPERIMENTS.md).  `--quick`
 * drops fidelity to smoke level so CI can validate every artifact in
 * seconds.
 */

#pragma once

#include <functional>
#include <string>
#include <vector>

#include <memory>

#include "common/spec.hpp"
#include "common/table.hpp"
#include "core/monitor.hpp"
#include "exp/runner.hpp"
#include "network/sweep.hpp"
#include "traffic/traffic.hpp"

namespace dvsnet::bench
{

/** A bench's defaults for parseOptions's counts: its windows at full
 *  fidelity and under `--quick`, and its points per sweep. */
struct Defaults
{
    /** Warm-up for DVS experiments: the level descent/ascent transient
     *  spans ~110k cycles (9 steps x ~11 us), so power/latency windows
     *  must start after it. */
    Cycle warmup = 120000, measure = 150000;
    Cycle quickWarmup = 4000, quickMeasure = 6000;
    std::uint64_t sweepPoints = 8;  ///< `--quick` makes it 2
};

/** Figs. 3-5, 8, 9 and trace replay run with DVS off: no level
 *  transient to wait out. */
inline constexpr Defaults kDvsOffDefaults{.warmup = 20000,
                                          .quickWarmup = 1000};

/** Fidelity/override knobs shared by every bench. */
struct BenchOptions
{
    Cycle warmup = 0;
    Cycle measure = 0;
    std::uint64_t seed = 12345;
    bool csv = false;               ///< emit CSV instead of boxed tables
    std::int64_t sweepPoints = 8;  ///< points per injection sweep

    /** Worker threads for experiment execution (0 = all hardware
     *  threads).  Results are seed-deterministic, so the thread count
     *  changes wall-clock only, never the numbers. */
    std::size_t threads = 0;

    /** Smoke-test fidelity (`--quick`): tiny warm-up/measure windows,
     *  2-point sweeps and a scaled-down workload.  Explicit keys and
     *  DVSNET_* environment variables still override. */
    bool quick = false;

    /** Write the machine-readable run artifact here (`--json <path>`;
     *  empty = no artifact). */
    std::string jsonPath;

    /** Workload selector (`--workload <name>[:key=val,...]` against the
     *  workload::workloadRegistry()); empty keeps each bench's
     *  default.  paperSpec() applies it, so every bench accepts it. */
    std::string workload;

    /** Link power backend (`--link-power <name>[:key=val,...]` against
     *  power::linkPowerRegistry()); empty keeps the default
     *  table backend.  paperSpec() applies it, so every bench accepts
     *  it; the spec is echoed in the artifact's `link_power` object. */
    std::string linkPower;

    /** The command line (Spec::fromArgs): its name, argv[0]'s
     *  basename, is echoed into the artifact; the keys a bench reads
     *  itself come from here. */
    Spec raw;
};

/**
 * Parse `key=value` / `--key value` args + environment into options.
 * Every bench accepts `--threads N` and `--seed S` this way.
 * `warmup=`, `cycles=` and `points=` (or DVSNET_*) override the
 * bench's `defaults`.  @throws ConfigError on a malformed command line,
 * a refused value (fewer than 2 or more than network::kMaxSweepPoints
 * points, or more than exp::kMaxThreads threads, among them) or an
 * invalid `--workload`/`--link-power` spec.
 */
BenchOptions parseOptions(int argc, char **argv,
                          const Defaults &defaults = {});

/**
 * Throw a ConfigError naming the first key in `opts` that the binary
 * does not read, with the accepted ones: the keys parseOptions and
 * paperSpec read, which every simulating bench accepts, plus `extra`,
 * the keys the binary reads itself (defaultRates's `rate_lo` and
 * `rate_hi` among them).  A misspelled or removed key would otherwise
 * be a silent no-op.  Every bench that runs a network calls this right
 * after parseOptions; the ones that do not (Figs. 7-9, Table 1) list
 * the keys they read themselves.
 */
void rejectUnknownKeys(const BenchOptions &opts,
                       const std::vector<std::string> &extra = {});

/** `spec`'s workload generator at `rate` on `topo`, for a bench that
 *  records it instead of running a network (Figs. 8-9).  @throws
 *  ConfigError naming `workload` for a closed-loop one */
std::unique_ptr<traffic::TrafficGenerator>
openLoopWorkload(const BenchOptions &opts,
                 const network::ExperimentSpec &spec,
                 const topo::KAryNCube &topo, double rate);

/** ExperimentRunner options matching `opts` (thread count). */
exp::RunnerOptions runnerOptions(const BenchOptions &opts);

/** `runner.collect()`; fatal on a failed point (a bench has no way to
 *  recover from an invalid spec). */
std::vector<exp::PointResult> collectAll(exp::ExperimentRunner &runner);

/**
 * Run several sweeps over the same rate grid on one worker pool —
 * sweep `s` of the result is `specs[s]` swept over `rates`, seeded from
 * its own `workload.seed`.  Fatal on any failed point (a bench has no
 * way to recover from an invalid spec).
 */
std::vector<std::vector<network::SweepPoint>>
runSweeps(const BenchOptions &opts,
          const std::vector<network::ExperimentSpec> &specs,
          const std::vector<double> &rates);

/**
 * Run one point per spec (`specs[i]` at `rates[i]`, seeded from its
 * own `workload.seed` — equivalent to exp::runPoint on each, but
 * parallel).  Fatal on failure.
 */
std::vector<network::RunResults>
runPoints(const BenchOptions &opts,
          const std::vector<network::ExperimentSpec> &specs,
          const std::vector<double> &rates);

/**
 * runPoints, each on a network the runner's own point builder
 * (exp::LiveNetwork) makes first and hands to `observe` before its first
 * cycle; each result keeps it in PointResult::live.  Records nothing in
 * the artifact.
 */
std::vector<exp::PointResult>
runObservedPoints(const BenchOptions &opts,
                  const std::vector<network::ExperimentSpec> &specs,
                  const std::vector<double> &rates,
                  const std::function<void(network::Network &)> &observe =
                      {});

/**
 * The paper's Section 4.2 experimental setup: 8x8 mesh, 2 VCs, 128
 * flits/port, 13-stage pipeline, 5-flit packets, 10-level DVS links
 * (10 us voltage / 100-cycle frequency transitions), history-based policy
 * with Table 1 parameters, and the two-level workload (100 tasks, 1 ms
 * mean duration, 128 ON/OFF sources per task).
 */
network::ExperimentSpec paperSpec(const BenchOptions &opts);

/**
 * Set `spec`'s DVS policy by the name network::policyKindName() prints:
 * "none", "history", "link-util-only", "static-level" or
 * "dynamic-threshold".  @throws ConfigError listing those names on any
 * other
 */
void setPolicy(network::ExperimentSpec &spec, const std::string &name);

/**
 * Print the bench banner: figure id, description, fidelity.  Also
 * begins the run artifact (config echo, identity, fidelity); results
 * recorded afterwards by printTable/runSweeps/runPoints land in it.
 */
void printHeader(const std::string &figure, const std::string &what,
                 const BenchOptions &opts);

/** Print a table in the selected format (and record it, see below). */
void printTable(const Table &table, const BenchOptions &opts);

/**
 * Append one structured entry to the run artifact.  printTable records
 * every printed table automatically; the sweep/point helpers record
 * their per-point results — call this directly only for bespoke data.
 */
void recordResult(Json entry);

/**
 * Write the artifact started by printHeader to `opts.jsonPath`
 * (no-op without `--json`).  Every bench main calls this last.
 * Fatal if the file cannot be written.
 */
void finishReport(const BenchOptions &opts);

/**
 * Rate key `key` (default `def`), in packets/cycle on the paper's 8x8
 * mesh, the network every bench runs.  @throws ConfigError, naming
 * the key and the range, unless a finite number in
 * [network::kMinInjectionRate, network::maxInjectionRate]: one packet
 * per node per cycle at most.
 */
double rateOption(const BenchOptions &opts, const std::string &key,
                  double def);

/**
 * Default injection-rate grid used by the latency/power sweeps: the
 * sweep's points from `rate_lo` to `rate_hi` (defaults `lo`, `hi`),
 * each a rateOption.  @throws ConfigError unless rate_lo < rate_hi.
 */
std::vector<double> defaultRates(const BenchOptions &opts, double lo = 0.2,
                                 double hi = 2.4);

/**
 * The Fig. 10/11 experiment: matched no-DVS and history-DVS sweeps over
 * `rates`, printed as one table, followed by the paper-style summary
 * (zero-load/pre-saturation latency penalty, throughput loss, power
 * savings).  `taskCount` selects the 100- vs 50-task variant.
 */
void runDvsComparison(const BenchOptions &opts, double taskCount,
                      const std::vector<double> &rates);

/**
 * Figs. 3-5: the paper network with DVS off at each of `rates`, every
 * link probed over H = 50-cycle windows, and the one link the figures
 * track ("a link within the 8x8 mesh"): hot at the second-highest load,
 * and at the highest showing the congestion signature, a *lower* LU
 * with a nearly full downstream buffer; else the most-loaded congested
 * link.
 */
class TrackedLink
{
  public:
    /** Run the loads (at least two); fatal on a failed point. */
    TrackedLink(const BenchOptions &opts, const std::vector<double> &rates);

    /** The tracked channel. */
    const topo::Channel &channel() const;

    /** Its probe at `rates[load]`. */
    const core::TrafficProbe &probe(std::size_t load) const;

  private:
    std::vector<exp::PointResult> points_;  ///< the probed networks
    /** Per load, every channel's probe, by channel id. */
    std::vector<std::vector<std::unique_ptr<core::TrafficProbe>>> probes_;
    ChannelId tracked_ = 0;
};

} // namespace dvsnet::bench
