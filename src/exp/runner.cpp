#include "exp/runner.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/fatal.hpp"
#include "common/rng.hpp"
#include "network/network.hpp"
#include "workload/factory.hpp"

namespace dvsnet::exp
{

Json
toJson(const PointResult &result)
{
    Json j = Json::object();
    j["injection_rate"] = Json(result.injectionRate);
    // Full-range uint64 (splitmix64 stream); decimal string, not number.
    j["seed"] = Json(std::to_string(result.seed));
    if (!result.label.empty())
        j["label"] = Json(result.label);
    j["ok"] = Json(result.ok);
    j["wall_seconds"] = Json(result.wallSeconds);
    if (result.ok)
        j["results"] = network::toJson(result.results);
    else
        j["error"] = Json(result.error);
    return j;
}

std::uint64_t
pointSeed(std::uint64_t baseSeed, std::uint64_t index)
{
    // Golden-ratio stream spacing, finalized by one splitmix64 step.
    std::uint64_t state = baseSeed + 0x9e3779b97f4a7c15ull * (index + 1);
    return splitmix64(state);
}

std::uint64_t
pointSeed(std::uint64_t baseSeed, const std::string &key)
{
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64-bit
    for (const unsigned char c : key) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return pointSeed(baseSeed, h);
}

namespace
{

void
validatePoint(const network::ExperimentSpec &spec, double injectionRate)
{
    auto problems = spec.validate();
    if (auto rate = network::injectionRateProblem(spec.network, injectionRate);
        !rate.empty())
        problems.push_back(std::move(rate));
    if (!problems.empty())
        throw ConfigError(joinProblems("invalid experiment", problems));
}

/** Last cycle the job's packet stream covers (PointJob::horizon). */
Cycle
streamHorizon(const PointJob &job)
{
    return job.horizon != 0 ? job.horizon : job.spec.warmup + job.spec.measure;
}

/**
 * The job's packets, recorded with the generator alone through its
 * stream horizon; null for a closed-loop workload, which must run live.
 * `started` receives the stream once its generator has started, while it
 * records (PacketStream::recordFrom).  The generator is gone before the
 * caller builds its own network.
 */
std::shared_ptr<const traffic::PacketStream>
recordPointStream(
    const PointJob &job,
    const std::function<void(std::shared_ptr<const traffic::PacketStream>)>
        &started = {})
{
    const auto &cfg = job.spec.network;
    const topo::KAryNCube topo(cfg.radix, cfg.dims, cfg.torus);
    const auto generator = workload::buildWorkload(
        job.spec.workloadSpec,
        workload::WorkloadContext{topo, job.injectionRate, job.seed,
                                  job.spec.workload});
    if (generator->wantsDeliveries())
        return nullptr;
    auto stream = std::make_shared<traffic::PacketStream>(
        cyclesToTicks(streamHorizon(job)));
    stream->recordFrom(*generator, [&] {
        if (started)
            started(stream);
    });
    return stream;
}

/**
 * The packets a job offers over its run: rate x (warm-up + measurement),
 * its dispatch priority.  A NaN (an invalid rate, which fails at once)
 * reads 0 so that the order stays strict weak.
 */
double
offeredWork(const PointJob &job)
{
    const double work =
        job.injectionRate *
        static_cast<double>(job.spec.warmup + job.spec.measure);
    return std::isnan(work) ? 0.0 : work;
}

/**
 * Everything a job's traffic generator reads: the workload spec string
 * and parameter block, the topology, the rate (exact bits), the seed
 * and the stream horizon.  Jobs with equal keys create identical
 * packets.
 */
std::string
streamKey(const PointJob &job)
{
    const network::ExperimentSpec &spec = job.spec;
    const traffic::TwoLevelParams &w = spec.workload;
    static_assert(sizeof(traffic::TwoLevelParams) == 112,
                  "TwoLevelParams changed: key every field it has here");
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

    std::ostringstream key;
    key << spec.workloadSpec << '\n'
        << spec.network.radix << ' ' << spec.network.dims << ' '
        << spec.network.torus << ' ' << bits(job.injectionRate) << ' '
        << job.seed << ' ' << streamHorizon(job);
    for (const double v :
         {w.avgConcurrentTasks, w.meanTaskDurationCycles, w.durationSpread,
          w.networkInjectionRate, w.rateSpread, w.onOff.onShape,
          w.onOff.offShape, w.onOff.meanOnCycles, w.onOff.meanOffCycles,
          w.pLocal})
        key << ' ' << bits(v);
    key << ' ' << w.sourcesPerTask << ' ' << w.localityRadius << ' '
        << w.perPacketDestination << ' ' << w.seed;
    return key.str();
}

} // namespace

LiveNetwork::LiveNetwork(const PointJob &job,
                         std::shared_ptr<const traffic::PacketStream> stream)
    : spec_(job.spec), injectionRate_(job.injectionRate), seed_(job.seed),
      stream_(std::move(stream)), network_(job.spec.network)
{
    spec_.measure = 0;
    if (stream_ != nullptr) {
        network_.attachStream(stream_->cursor());
        return;
    }
    generator_ = workload::buildWorkload(
        spec_.workloadSpec,
        workload::WorkloadContext{network_.topology(), injectionRate_,
                                  seed_, spec_.workload});
    network_.attachTraffic(*generator_);
}

bool
LiveNetwork::continues(const PointJob &job) const
{
    if (job.spec.measure <= spec_.measure ||
        job.injectionRate != injectionRate_ || job.seed != seed_)
        return false;
    network::ExperimentSpec sofar = job.spec;
    sofar.measure = spec_.measure;
    return network::toJson(sofar).dump() == network::toJson(spec_).dump();
}

network::RunResults
LiveNetwork::runOn(const PointJob &job)
{
    if (!continues(job)) {
        throw ConfigError(detail::concat(
            "job does not continue the kept network's run (measured ",
            spec_.measure, " cycles; the job measures ", job.spec.measure,
            ", and must be the same point)"));
    }
    if (spec_.measure == 0) {
        network_.runUntilCycle(spec_.warmup);
        network_.beginMeasurement();
    }
    network_.runUntilCycle(spec_.warmup + job.spec.measure);
    spec_.measure = job.spec.measure;
    return network_.collect();
}

network::RunResults
runPoint(const network::ExperimentSpec &spec, double injectionRate,
         std::uint64_t seed)
{
    validatePoint(spec, injectionRate);
    PointJob job;
    job.spec = spec;
    job.injectionRate = injectionRate;
    job.seed = seed;
    LiveNetwork run(job, recordPointStream(job));
    return run.runOn(job);
}

ExperimentRunner::ExperimentRunner(RunnerOptions options)
    : options_(std::move(options)), pool_(options_.threads)
{
}

ExperimentRunner::~ExperimentRunner() = default;

std::size_t
ExperimentRunner::submit(PointJob job)
{
    std::string key = streamKey(job);
    std::lock_guard<std::mutex> lock(mutex_);
    ++streams_[key].consumers;
    pending_.push_back({std::move(job), std::move(key)});
    return pending_.size() - 1;
}

std::size_t
ExperimentRunner::submitSweep(const network::ExperimentSpec &spec,
                              const std::vector<double> &rates)
{
    if (rates.empty())
        throw ConfigError("invalid experiment: empty rate grid");
    std::size_t first = 0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        PointJob job;
        job.spec = spec;
        job.injectionRate = rates[i];
        job.seed = pointSeed(spec.workload.seed, i);
        const std::size_t index = submit(std::move(job));
        if (i == 0)
            first = index;
    }
    return first;
}

std::shared_ptr<const traffic::PacketStream>
ExperimentRunner::acquireStream(const std::string &key, const PointJob &job)
{
    std::unique_lock<std::mutex> lock(mutex_);
    SharedStream &slot = streams_.at(key);
    streamReady_.wait(lock, [&slot] { return slot.ready || !slot.producing; });
    if (slot.ready)
        return slot.stream;

    // First here, or the last attempt failed before its generator
    // started: record it, and share it as soon as it has started.
    slot.producing = true;
    lock.unlock();
    const auto share = [&](std::shared_ptr<const traffic::PacketStream> s) {
        std::lock_guard<std::mutex> guard(mutex_);
        slot.stream = std::move(s);
        slot.ready = true;
        slot.producing = false;
        streamReady_.notify_all();
    };
    std::shared_ptr<const traffic::PacketStream> stream;
    try {
        stream = recordPointStream(job, share);
    } catch (...) {
        // Once shared, the stream carries the error to its readers.
        lock.lock();
        if (!slot.ready) {
            slot.producing = false;
            streamReady_.notify_all();
        }
        throw;
    }
    if (stream == nullptr)
        share(nullptr);  // closed loop: every job runs live
    return stream;
}

void
ExperimentRunner::execute(std::size_t index, const PointJob &job,
                          const std::string &key)
{
    PointResult result;
    result.injectionRate = job.injectionRate;
    result.seed = job.seed;
    result.label = job.label;

    const auto start = std::chrono::steady_clock::now();
    try {
        // Validated first, so every job fails with runPoint's message.
        validatePoint(job.spec, job.injectionRate);
        std::shared_ptr<LiveNetwork> run = job.resume;
        if (run == nullptr)
            run = std::make_shared<LiveNetwork>(job, acquireStream(key, job));
        result.results = run->runOn(job);
        if (job.keep)
            result.live = std::move(run);
        result.ok = true;
    } catch (const std::exception &e) {
        result.error = e.what();
    } catch (...) {
        result.error = "unknown error";
    }
    result.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto slot = streams_.find(key);
        if (--slot->second.consumers == 0 && job.horizon == 0)
            streams_.erase(slot);
        results_[index] = std::move(result);
    }
}

std::vector<PointResult>
ExperimentRunner::collect()
{
    std::vector<Pending> batch;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        batch.swap(pending_);
        results_.resize(batch.size());
    }
    // Largest offered work first, ties in submission order (file
    // comment, "Dispatch order").
    std::vector<std::size_t> order(batch.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return offeredWork(batch[a].job) >
                                offeredWork(batch[b].job);
                     });
    for (const std::size_t index : order) {
        pool_.post([this, index, job = std::move(batch[index].job),
                    key = std::move(batch[index].key)] {
            execute(index, job, key);
        });
    }
    pool_.wait();

    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<PointResult> out = std::move(results_);
    results_.clear();
    return out;
}

} // namespace dvsnet::exp
