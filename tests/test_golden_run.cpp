/**
 * @file
 * Golden-master regression test: fixed-seed runs pinned to exact
 * RunResults values — a 4x4-mesh history-DVS run (plus a matched no-DVS
 * reference point, a toggle-backend variant and an adaptive
 * near-saturation point), and the paper's own 8x8 configuration.
 *
 * The simulator is seed-deterministic by design — same spec + seed must
 * reproduce bit-identical packet counts and (up to shortest-double
 * round-trip) identical derived metrics on any thread count.  Any
 * behavioral change to routing, flow control, the DVS protocol, the
 * power ledger or the workload model shows up here as a diff against
 * the pinned numbers; intentional changes must update the pins (and say
 * so in the commit).
 *
 * The pinned values were captured from the run itself (see the spec
 * below); tolerances are 1e-9 relative, far tighter than any
 * legitimate nondeterminism and far looser than double round-trip.
 */

#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "network/network.hpp"
#include "network/sweep.hpp"
#include "traffic/task_model.hpp"

using dvsnet::network::ExperimentSpec;
using dvsnet::network::Network;
using dvsnet::network::PolicyKind;
using dvsnet::network::RunResults;

namespace
{

constexpr std::uint64_t kGoldenSeed = 424242;

/** The golden configuration: small enough to run in ~a second. */
ExperimentSpec
goldenSpec(PolicyKind policy)
{
    ExperimentSpec spec;
    spec.network.radix = 4;  // 4x4 mesh
    spec.network.policy = policy;
    spec.workload.avgConcurrentTasks = 6.0;
    spec.workload.sourcesPerTask = 16;
    spec.workload.meanTaskDurationCycles = 1e5;
    spec.workload.seed = kGoldenSeed;
    spec.warmup = 8000;
    spec.measure = 12000;
    return spec;
}

constexpr double kInjectionRate = 0.2;
constexpr double kRelTol = 1e-9;

/**
 * Near-saturation congestion golden: minimal-adaptive routing plus the
 * dynamic-threshold policy, driven hard enough (rate 0.5 -> offered
 * ~0.82 pkts/cycle on a 4x4 mesh) that source queues back up, adaptive
 * route choices contend, and credit backpressure stays engaged through
 * the whole measurement window.  This freezes the congestion path —
 * the part of the hot loop most sensitive to event-order changes —
 * before/after serialization-batching rewrites.
 */
ExperimentSpec
adaptiveSaturationSpec()
{
    ExperimentSpec spec = goldenSpec(PolicyKind::DynamicThreshold);
    spec.network.routing = dvsnet::network::RoutingKind::MinimalAdaptive;
    return spec;
}

constexpr double kSaturationRate = 0.5;

void
expectNearRel(double actual, double expected, const char *what)
{
    EXPECT_NEAR(actual, expected,
                kRelTol * std::max(1.0, std::abs(expected)))
        << what;
}

/** Run `spec` at the golden seed and hand the result to the caller's
 *  pinned assertions. */
template <typename AssertFn>
void
runPinned(const ExperimentSpec &spec, double rate, AssertFn &&verify)
{
    verify(dvsnet::exp::runPoint(spec, rate, kGoldenSeed));
}

/**
 * The paper's own configuration (Sections 4.2-4.3) over a short window:
 * the default 8x8 mesh under history DVS, driven by 100 two-level tasks
 * of 128 Pareto ON/OFF sources each.  These pins
 * predate the ON/OFF generator's skip rule (an emission that cannot
 * fire is drawn but never queued), so they also show the rule leaves
 * results unchanged at the scale where such emissions were a quarter of
 * all kernel events.  Its boundary ties are too rare here to pin; the
 * lockstep suite in test_onoff.cpp covers them.
 */
ExperimentSpec
paperSpec8x8()
{
    ExperimentSpec spec;
    spec.network.radix = 8;
    spec.network.policy = PolicyKind::History;
    spec.workload.avgConcurrentTasks = 100.0;
    spec.workload.sourcesPerTask = 128;
    spec.workload.meanTaskDurationCycles = 1e6;
    spec.workload.seed = kGoldenSeed;
    spec.warmup = 8000;
    spec.measure = 12000;
    return spec;
}

} // namespace

TEST(GoldenRun, HistoryDvs4x4MeshPinnedResults)
{
    runPinned(
        goldenSpec(PolicyKind::History), kInjectionRate,
        [](const RunResults &r) {
            // Exact integer pins: any change in packet behavior trips
            // these.
            EXPECT_EQ(r.measuredCycles, 12000u);
            EXPECT_EQ(r.packetsCreated, 3851u);
            EXPECT_EQ(r.packetsDelivered, 3839u);
            EXPECT_EQ(r.flitsEjected, 19279u);

            // Derived metrics, pinned to 1e-9 relative.
            expectNearRel(r.offeredLoadPktsPerCycle, 0.32091666666666668,
                          "offered load");
            expectNearRel(r.throughputPktsPerCycle, 0.32133333333333336,
                          "throughput pkts");
            expectNearRel(r.throughputFlitsPerCycle, 1.6065833333333333,
                          "throughput flits");
            expectNearRel(r.avgLatencyCycles, 83.753739255014395,
                          "avg latency");
            expectNearRel(r.maxLatencyCycles, 582.985, "max latency");
            expectNearRel(r.normalizedPower, 0.62777218491412523,
                          "normalized power");
            expectNearRel(r.savingsFactor, 1.592934545414421,
                          "savings factor");
            expectNearRel(r.avgChannelLevel, 1.7916666666666667,
                          "avg channel level");

            // The invariants must actually have run, and cleanly.
            EXPECT_GT(r.invariantChecks, 0u);
            EXPECT_EQ(r.invariantFailures, 0u);
        });
}

TEST(GoldenRun, HistoryDvs4x4MeshToggleBackendPinnedResults)
{
    // Same operating point as HistoryDvs4x4MeshPinnedResults but with
    // the data-dependent toggle link-power backend.  The packet-level
    // pins must match the table-backend run exactly — the backend only
    // changes energy accounting, never traffic — while the power pins
    // capture the payload-hash-driven per-flit charges.
    ExperimentSpec spec = goldenSpec(PolicyKind::History);
    spec.network.linkPowerSpec = "toggle";
    runPinned(spec, kInjectionRate, [](const RunResults &r) {
        EXPECT_EQ(r.measuredCycles, 12000u);
        EXPECT_EQ(r.packetsCreated, 3851u);
        EXPECT_EQ(r.packetsDelivered, 3839u);
        EXPECT_EQ(r.flitsEjected, 19279u);
        expectNearRel(r.avgLatencyCycles, 83.753739255014395,
                      "avg latency");

        expectNearRel(r.avgPowerW, 31.296137848464241, "avg power");
        expectNearRel(r.normalizedPower, 0.4075017949018781,
                      "normalized power");
        expectNearRel(r.transitionEnergyJ, 2.9762115693893932e-05,
                      "transition energy");
        expectNearRel(r.flitEnergyJ, 2.371328696388553e-05,
                      "flit energy");
        expectNearRel(r.totalEnergyJ, 0.00037555365418157093,
                      "total energy");

        EXPECT_GT(r.invariantChecks, 0u);
        EXPECT_EQ(r.invariantFailures, 0u);
    });
}

TEST(GoldenRun, NoDvs4x4MeshPinnedReferencePoint)
{
    runPinned(
        goldenSpec(PolicyKind::None), kInjectionRate,
        [](const RunResults &r) {
            EXPECT_EQ(r.measuredCycles, 12000u);
            EXPECT_EQ(r.packetsCreated, 3851u);
            EXPECT_EQ(r.packetsDelivered, 3840u);
            EXPECT_EQ(r.flitsEjected, 19273u);
            expectNearRel(r.avgLatencyCycles, 52.249997656249931,
                          "avg latency");
            // No DVS: links pinned at the fastest level, no savings.
            expectNearRel(r.normalizedPower, 1.0, "normalized power");
            expectNearRel(r.avgChannelLevel, 0.0, "avg channel level");
            EXPECT_EQ(r.transitionEnergyJ, 0.0);
            EXPECT_GT(r.invariantChecks, 0u);
            EXPECT_EQ(r.invariantFailures, 0u);
        });
}

TEST(GoldenRun, AdaptiveDynamicThresholdNearSaturationPinnedResults)
{
    runPinned(
        adaptiveSaturationSpec(), kSaturationRate,
        [](const RunResults &r) {
            // Exact integer pins.  packetsDelivered << packetsCreated
            // is the point: the run is past the latency knee, so the
            // congestion machinery (credit stalls, adaptive misroutes,
            // source-queue backlog) is actually exercised.
            EXPECT_EQ(r.measuredCycles, 12000u);
            EXPECT_EQ(r.packetsCreated, 9829u);
            EXPECT_EQ(r.packetsDelivered, 7037u);
            EXPECT_EQ(r.flitsEjected, 39104u);

            expectNearRel(r.offeredLoadPktsPerCycle, 0.81908333333333339,
                          "offered load");
            expectNearRel(r.throughputPktsPerCycle, 0.65166666666666662,
                          "throughput pkts");
            expectNearRel(r.throughputFlitsPerCycle, 3.2586666666666666,
                          "throughput flits");
            expectNearRel(r.avgLatencyCycles, 888.49777859883375,
                          "avg latency");
            expectNearRel(r.maxLatencyCycles, 10378.069, "max latency");
            expectNearRel(r.avgPowerW, 49.060504591617971, "avg power");
            expectNearRel(r.normalizedPower, 0.63880865353669225,
                          "normalized power");
            expectNearRel(r.savingsFactor, 1.5654139850229212,
                          "savings factor");
            expectNearRel(r.transitionEnergyJ, 3.0324467491091963e-05,
                          "transition energy");
            expectNearRel(r.avgChannelLevel, 1.7083333333333333,
                          "avg channel level");

            EXPECT_GT(r.invariantChecks, 0u);
            EXPECT_EQ(r.invariantFailures, 0u);
        });
}

TEST(GoldenRun, PaperTwoLevelHistoryDvs8x8MeshPinnedResults)
{
    const RunResults r =
        dvsnet::exp::runPoint(paperSpec8x8(), 1.0, kGoldenSeed);
    EXPECT_EQ(r.measuredCycles, 12000u);
    EXPECT_EQ(r.packetsCreated, 15286u);
    EXPECT_EQ(r.packetsDelivered, 15215u);
    EXPECT_EQ(r.flitsEjected, 76476u);

    expectNearRel(r.offeredLoadPktsPerCycle, 1.2738333333333334,
                  "offered load");
    expectNearRel(r.throughputPktsPerCycle, 1.2743333333333333,
                  "throughput pkts");
    expectNearRel(r.throughputFlitsPerCycle, 6.3730000000000002,
                  "throughput flits");
    expectNearRel(r.avgLatencyCycles, 80.294957016102543, "avg latency");
    expectNearRel(r.maxLatencyCycles, 530.02999999999997, "max latency");
    expectNearRel(r.avgPowerW, 217.94786786303231, "avg power");
    expectNearRel(r.normalizedPower, 0.60811347059997845,
                  "normalized power");
    expectNearRel(r.savingsFactor, 1.6444299433350447, "savings factor");
    expectNearRel(r.transitionEnergyJ, 0.00013401615766245559,
                  "transition energy");
    expectNearRel(r.totalEnergyJ, 0.0026153744143563883, "total energy");
    expectNearRel(r.avgChannelLevel, 1.9464285714285714,
                  "avg channel level");

    EXPECT_EQ(r.invariantChecks, 1785u);
    EXPECT_EQ(r.invariantFailures, 0u);
}

TEST(GoldenRun, NamedInvariantsAllExercised)
{
    // Run the same golden network directly so the registry is visible:
    // each of the simulator's named invariants must have been checked.
    const ExperimentSpec spec = goldenSpec(PolicyKind::History);
    Network net(spec.network);
    dvsnet::traffic::TwoLevelParams wl = spec.workload;
    wl.networkInjectionRate = kInjectionRate;
    dvsnet::traffic::TwoLevelWorkload workload(net.topology(), wl);
    net.attachTraffic(workload);
    net.run(spec.warmup, spec.measure);

    for (const char *name :
         {"network.credit_conservation", "metrics.packet_accounting",
          "power.ledger_agreement", "dvs.transition_sequencing"}) {
        const dvsnet::SimAssert *inv =
            net.observability().findInvariant(name);
        ASSERT_NE(inv, nullptr) << name;
        EXPECT_GT(inv->checks(), 0u) << name;
        EXPECT_EQ(inv->failures(), 0u) << name;
    }
}
