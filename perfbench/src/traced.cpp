#include "traced.hpp"

#include <exception>
#include <memory>
#include <optional>
#include <string>

#include "exp/worker_pool.hpp"
#include "network/network.hpp"
#include "search/driver.hpp"
#include "workload/factory.hpp"

namespace perfbench
{

using namespace dvsnet;

double
SpanLog::now() const
{
    return secondsSince(epoch_);
}

void
SpanLog::add(const Span &span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

Json
SpanLog::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Json spans = Json::array();
    for (const auto &s : spans_) {
        Json j = Json::object();
        j["id"] = Json(s.id);
        j["parent"] = Json(s.parent);
        j["name"] = Json(s.name);
        j["point"] = Json(static_cast<std::uint64_t>(s.point));
        j["start_s"] = Json(s.start);
        j["end_s"] = Json(s.end);
        spans.push(std::move(j));
    }
    Json root = Json::object();
    root["spans"] = std::move(spans);
    return root;
}

ScopedSpan::ScopedSpan(SpanLog *log, const char *name, std::uint64_t parent,
                       std::size_t point)
    : log_(log), start_(std::chrono::steady_clock::now())
{
    if (log_) {
        span_.id = log_->newId();
        span_.parent = parent;
        span_.name = name;
        span_.point = point;
        span_.start = log_->now();
    }
}

ScopedSpan::~ScopedSpan()
{
    if (log_) {
        span_.end = log_->now();
        log_->add(span_);
    }
}

double
ScopedSpan::seconds() const
{
    return secondsSince(start_);
}

namespace
{

/** Run `body(i)` for every index on a pool; exceptions land in `error`. */
template <typename Sample, typename Body>
std::vector<Sample>
onPool(std::size_t count, std::size_t threads, Body body)
{
    std::vector<Sample> samples(count);
    exp::WorkerPool pool(threads);
    for (std::size_t i = 0; i < count; ++i) {
        pool.post([&samples, &body, i] {
            try {
                body(i, samples[i]);
                samples[i].ok = true;
            } catch (const std::exception &e) {
                samples[i].error = e.what();
            } catch (...) {
                samples[i].error = "unknown error";
            }
        });
    }
    pool.wait();
    return samples;
}

void
tracePoint(const exp::PointJob &job, SpanLog *log, std::uint64_t parent,
           std::size_t index, LayerSample &out)
{
    const std::size_t point = index + 1;
    ScopedSpan pointSpan(log, "point", parent, point);

    // The same calls, in the same order, as exp::runPoint.
    std::optional<network::Network> net;
    {
        ScopedSpan s(log, "network.construct", pointSpan.id(), point);
        net.emplace(job.spec.network);
        out.constructS = s.seconds();
    }
    workload::WorkloadContext context{net->topology(), job.injectionRate,
                                      job.seed, job.spec.workload};
    std::unique_ptr<traffic::TrafficGenerator> generator;
    {
        ScopedSpan s(log, "workload.build", pointSpan.id(), point);
        generator = workload::buildWorkload(job.spec.workloadSpec, context);
    }
    {
        ScopedSpan s(log, "network.attach", pointSpan.id(), point);
        net->attachTraffic(*generator);
    }
    {
        ScopedSpan s(log, "network.run", pointSpan.id(), point);
        out.results = net->run(job.spec.warmup, job.spec.measure);
        out.runS = s.seconds();
    }

    const CounterRegistry &reg = net->observability();
    out.cycles = reg.counterValue("network.cycles");
    out.routerSteps = reg.counterValue("network.router_steps");
    out.routerWakes = reg.counterValue("network.router_wakes");
    out.flitsSent = reg.counterValue("link.flits_sent");
    out.flitBursts = reg.counterValue("link.flit_bursts");
    out.creditBursts = reg.counterValue("link.credit_bursts");
    out.stepsStarted = reg.counterValue("dvs.steps_started");
    out.stepsRejected = reg.counterValue("dvs.steps_rejected");
    out.events = net->kernel().executedEvents();
    out.routers = static_cast<std::uint64_t>(net->topology().numNodes());
    for (NodeId n = 0; n < net->topology().numNodes(); ++n)
        out.packetsCreated += net->packetsCreatedAt(n);
    for (std::size_t c = 0; c < net->numChannels(); ++c) {
        const auto *ctl = net->controller(static_cast<ChannelId>(c));
        if (!ctl)
            continue;
        const auto &st = ctl->stats();
        out.controllers.windows += st.windows;
        out.controllers.stepsFaster += st.stepsFaster;
        out.controllers.stepsSlower += st.stepsSlower;
        out.controllers.holds += st.holds;
        out.controllers.skippedBusy += st.skippedBusy;
    }
    generator.reset();  // runPoint's destruction order: generator first
    net.reset();
    out.pointS = pointSpan.seconds();
}

} // namespace

std::vector<LayerSample>
runTracedPoints(const std::vector<exp::PointJob> &jobs, std::size_t threads,
                SpanLog *log, std::uint64_t parent, double &wallSeconds)
{
    ScopedSpan batch(log, "traced.points", parent);
    auto samples = onPool<LayerSample>(
        jobs.size(), threads,
        [&](std::size_t i, LayerSample &out) {
            tracePoint(jobs[i], log, batch.id(), i, out);
        });
    wallSeconds = batch.seconds();
    return samples;
}

std::vector<GeneratorSample>
runGeneratorsAlone(const std::vector<exp::PointJob> &jobs,
                   std::size_t threads, SpanLog &log, std::uint64_t parent)
{
    ScopedSpan batch(&log, "workload.alone", parent);
    return onPool<GeneratorSample>(
        jobs.size(), threads, [&](std::size_t i, GeneratorSample &out) {
            const auto &job = jobs[i];
            const auto &cfg = job.spec.network;
            const topo::KAryNCube topo(cfg.radix, cfg.dims, cfg.torus);
            sim::Kernel kernel;
            workload::WorkloadContext context{topo, job.injectionRate,
                                              job.seed, job.spec.workload};
            const auto generator =
                workload::buildWorkload(job.spec.workloadSpec, context);

            ScopedSpan s(&log, "workload.generate", batch.id(), i + 1);
            std::uint64_t packets = 0;
            generator->start(kernel, [&packets](const traffic::PacketRequest &) {
                ++packets;
            });
            kernel.run(cyclesToTicks(job.spec.warmup + job.spec.measure));
            out.genS = s.seconds();
            out.events = kernel.executedEvents();
            out.packets = packets;
        });
}

double
setupSeconds(const Workload &w)
{
    double total = 0.0;
    for (const auto &job : setupJobs(w)) {
        const auto start = std::chrono::steady_clock::now();
        network::Network net(job.spec.network);
        workload::WorkloadContext context{net.topology(), job.injectionRate,
                                          job.seed, job.spec.workload};
        const auto generator =
            workload::buildWorkload(job.spec.workloadSpec, context);
        net.attachTraffic(*generator);
        total += secondsSince(start);
    }
    if (w.search) {
        const auto start = std::chrono::steady_clock::now();
        const search::SearchDriver driver(*w.search);
        total += secondsSince(start);
    }
    return total;
}

} // namespace perfbench
