#include "traffic/task_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/fatal.hpp"

namespace dvsnet::traffic
{

std::vector<std::string>
TwoLevelParams::validate() const
{
    std::vector<std::string> problems;
    auto complain = [&problems](auto &&...parts) {
        problems.push_back(detail::concat(parts...));
    };
    // Every comparison is written so that NaN fails it.
    const bool tasksOk = avgConcurrentTasks >= 1 &&
                         avgConcurrentTasks <= kMaxConcurrentTasks;
    if (!tasksOk) {
        complain("avgConcurrentTasks (key 'tasks') must be in [1, ",
                 kMaxConcurrentTasks, "] (got ", avgConcurrentTasks, ")");
    }
    if (!(meanTaskDurationCycles > 0 &&
          meanTaskDurationCycles <= kMaxTaskDurationCycles)) {
        complain("meanTaskDurationCycles (bench key 'task_duration') must "
                 "be in (0, ", kMaxTaskDurationCycles, "] cycles (got ",
                 meanTaskDurationCycles, ")");
    } else if (tasksOk && meanTaskDurationCycles < avgConcurrentTasks) {
        complain("mean session gap meanTaskDurationCycles / "
                 "avgConcurrentTasks must be >= 1 cycle (got ",
                 meanTaskDurationCycles, " / ", avgConcurrentTasks, ")");
    }
    if (!(networkInjectionRate > 0 && std::isfinite(networkInjectionRate))) {
        complain("networkInjectionRate must be positive and finite (got ",
                 networkInjectionRate, ")");
    }
    if (!(durationSpread >= 0 && durationSpread < 1)) {
        complain("durationSpread must be in [0, 1) (got ", durationSpread,
                 ")");
    }
    if (!(rateSpread >= 0 && rateSpread < 1))
        complain("rateSpread must be in [0, 1) (got ", rateSpread, ")");
    if (sourcesPerTask < 1 || sourcesPerTask > kMaxSourcesPerTask) {
        complain("sourcesPerTask (bench key 'sources') must be in [1, ",
                 kMaxSourcesPerTask, "] (got ", sourcesPerTask, ")");
    }
    if (!(onOff.meanOnCycles > 0 && std::isfinite(onOff.meanOnCycles)) ||
        !(onOff.meanOffCycles > 0 && std::isfinite(onOff.meanOffCycles))) {
        complain("onOff mean ON/OFF periods must be positive and finite "
                 "(got ", onOff.meanOnCycles, " / ", onOff.meanOffCycles,
                 ")");
    }
    if (!(onOff.onShape > 1 && std::isfinite(onOff.onShape)) ||
        !(onOff.offShape > 1 && std::isfinite(onOff.offShape))) {
        complain("onOff Pareto shapes must be finite and > 1 (got ",
                 onOff.onShape, " / ", onOff.offShape, ")");
    }
    if (localityRadius < 1) {
        complain("localityRadius (key 'locality_radius') must be >= 1 hop "
                 "(got ", localityRadius, ")");
    }
    if (!(pLocal >= 0 && pLocal <= 1))
        complain("pLocal (key 'p_local') must be in [0, 1] (got ", pLocal,
                 ")");
    return problems;
}

TwoLevelWorkload::TwoLevelWorkload(const topo::KAryNCube &topo,
                                   const TwoLevelParams &params)
    : topo_(topo), params_(params), rng_(params.seed)
{
    const auto problems = params.validate();
    if (!problems.empty()) {
        throw ConfigError(
            joinProblems("invalid two-level workload", problems));
    }

    spheres_.resize(static_cast<std::size_t>(topo.numNodes()));
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        spheres_[static_cast<std::size_t>(n)] =
            topo.nodesWithin(n, params.localityRadius);
        DVSNET_ASSERT(!spheres_[static_cast<std::size_t>(n)].empty(),
                      "locality sphere is empty");
    }
}

NodeId
TwoLevelWorkload::localityDestination(NodeId src, Rng &rng) const
{
    if (rng.bernoulli(params_.pLocal)) {
        const auto &sphere = spheres_[static_cast<std::size_t>(src)];
        return sphere[rng.uniformInt(
            static_cast<std::uint64_t>(sphere.size()))];
    }
    NodeId dst = static_cast<NodeId>(rng.uniformInt(
        static_cast<std::uint64_t>(topo_.numNodes() - 1)));
    if (dst >= src)
        ++dst;
    return dst;
}

void
TwoLevelWorkload::start(sim::Kernel &kernel, PacketSink sink)
{
    kernel_ = &kernel;
    sink_ = std::move(sink);

    // Initial population at (approximate) steady state.
    const auto initial = static_cast<std::int64_t>(
        params_.avgConcurrentTasks + 0.5);
    for (std::int64_t i = 0; i < initial; ++i)
        spawnTask(/*initialPopulation=*/true);

    scheduleNextArrival();
}

void
TwoLevelWorkload::scheduleNextArrival()
{
    // Poisson session arrivals with rate concurrency / mean-duration
    // (Little's law keeps the average population at the target).
    const double meanGapCycles =
        params_.meanTaskDurationCycles / params_.avgConcurrentTasks;
    const double gapCycles = rng_.exponential(meanGapCycles);
    const Tick gap = std::max<Tick>(
        static_cast<Tick>(gapCycles *
                          static_cast<double>(kRouterClockPeriod) + 0.5),
        1);
    kernel_->after(gap, [this] {
        spawnTask(/*initialPopulation=*/false);
        scheduleNextArrival();
    });
}

void
TwoLevelWorkload::spawnTask(bool initialPopulation)
{
    auto task = std::make_unique<Task>();
    task->src = static_cast<NodeId>(
        rng_.uniformInt(static_cast<std::uint64_t>(topo_.numNodes())));
    task->dst = localityDestination(task->src, rng_);

    // Heterogeneous interleaved workloads: uniform duration and rate.
    double durationCycles = params_.meanTaskDurationCycles *
        rng_.uniform(1.0 - params_.durationSpread,
                     1.0 + params_.durationSpread);
    if (initialPopulation) {
        // Residual lifetime for the warm-start population.
        durationCycles *= rng_.uniform();
        durationCycles = std::max(durationCycles, 1.0);
    }

    const double meanTaskRate =
        params_.networkInjectionRate / params_.avgConcurrentTasks;
    const double taskRate = meanTaskRate *
        rng_.uniform(1.0 - params_.rateSpread, 1.0 + params_.rateSpread);

    Task *raw = task.get();
    task->bank = std::make_unique<OnOffSourceBank>(
        *kernel_, params_.sourcesPerTask, taskRate, params_.onOff,
        rng_.fork(), [this, raw] {
            ++stats_.packetsGenerated;
            if (params_.perPacketDestination) {
                sink_(PacketRequest{
                    raw->src, localityDestination(raw->src, rng_)});
            } else {
                sink_(PacketRequest{raw->src, raw->dst});
            }
        });
    task->bank->start();

    ++activeTasks_;
    ++stats_.tasksSpawned;

    const Tick lifetime = std::max<Tick>(
        static_cast<Tick>(durationCycles *
                          static_cast<double>(kRouterClockPeriod) + 0.5),
        1);
    kernel_->after(lifetime, [this, raw] {
        raw->bank->stop();
        --activeTasks_;
        ++stats_.tasksCompleted;
    });

    tasks_.push_back(std::move(task));
}

} // namespace dvsnet::traffic
