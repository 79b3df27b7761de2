/**
 * @file
 * Packet streams: the compact codec, the recorder's after-step bits, and
 * the lockstep property the pull path exists for — a network fed a
 * recorded stream (exp::runPoint) produces RunResults byte-identical to
 * attaching the live generator (Network::attachTraffic).
 *
 * The scripted test puts packets exactly on router clock edges, on both
 * sides of the step, at the warm-up boundary and mid-window; the
 * randomized test draws workloads, rates, seeds, policies and windows.
 *
 * StreamReaders reads streams on other threads while they record: every
 * reader must see exactly what PacketStream::record() holds, a reader
 * blocked at the published end must wake when the recording ends, and a
 * failed recording must fail every reader (and every runner job that
 * shares it) with the recorder's error.  A watchdog turns a reader that
 * never wakes into a failure within seconds.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fatal.hpp"
#include "common/rng.hpp"
#include "exp/experiment.hpp"
#include "exp/runner.hpp"
#include "network/network.hpp"
#include "network/sweep.hpp"
#include "traffic/stream.hpp"
#include "traffic/trace.hpp"
#include "workload/factory.hpp"

using dvsnet::ConfigError;
using dvsnet::Cycle;
using dvsnet::cyclesToTicks;
using dvsnet::kRouterClockPeriod;
using dvsnet::kTickNever;
using dvsnet::NodeId;
using dvsnet::Rng;
using dvsnet::Tick;
using dvsnet::network::ExperimentSpec;
using dvsnet::network::Network;
using dvsnet::network::NetworkConfig;
using dvsnet::network::PolicyKind;
using dvsnet::network::RunResults;
using dvsnet::traffic::PacketCursor;
using dvsnet::traffic::PacketRequest;
using dvsnet::traffic::PacketSink;
using dvsnet::traffic::PacketStream;
using dvsnet::traffic::StreamPacket;
using dvsnet::traffic::TrafficGenerator;

namespace
{

std::vector<StreamPacket>
readAll(const PacketStream &stream)
{
    std::vector<StreamPacket> out;
    const auto cursor = stream.cursor();
    for (StreamPacket p; cursor->next(p);)
        out.push_back(p);
    return out;
}

/** The artifact echo, whose text is compared byte for byte. */
std::string
resultsJson(const RunResults &results)
{
    return dvsnet::network::toJson(results).dump();
}

/** Run `spec` with its generator attached to the network, live. */
RunResults
runLive(const ExperimentSpec &spec, double rate, std::uint64_t seed)
{
    Network net(spec.network);
    dvsnet::workload::WorkloadContext context{net.topology(), rate, seed,
                                              spec.workload};
    const auto generator =
        dvsnet::workload::buildWorkload(spec.workloadSpec, context);
    net.attachTraffic(*generator);
    return net.run(spec.warmup, spec.measure);
}

constexpr Cycle kScriptWarmup = 3000;
constexpr Cycle kScriptMeasure = 4000;

/**
 * Two packets on each scripted router clock edge.  The first comes from
 * an event queued at start(), more than a cycle ahead, so it fires
 * before the network's step at that edge; the second from an event
 * queued half a cycle before the edge, after the step at the edge was
 * queued, so it fires after that step.
 */
class EdgeScriptTraffic final : public TrafficGenerator
{
  public:
    void
    start(dvsnet::sim::Kernel &kernel, PacketSink sink) override
    {
        kernel_ = &kernel;
        sink_ = std::move(sink);
        for (const Cycle edgeCycle :
             {kScriptWarmup, kScriptWarmup + kScriptMeasure / 2}) {
            const Tick edge = cyclesToTicks(edgeCycle);
            kernel.at(edge, [this] { sink_(PacketRequest{0, 5}); });
            kernel.at(edge - kRouterClockPeriod / 2, [this, edge] {
                kernel_->at(edge, [this] { sink_(PacketRequest{1, 6}); });
            });
        }
    }

    const char *name() const override { return "edge-script"; }

  private:
    dvsnet::sim::Kernel *kernel_ = nullptr;
    PacketSink sink_;
};

void
registerEdgeScript()
{
    dvsnet::workload::workloadRegistry().add(
        "edge-script", "test: packets on both sides of two edges' steps", {},
        [](const dvsnet::Spec &, const dvsnet::workload::WorkloadContext &) {
            return std::make_unique<EdgeScriptTraffic>();
        });
}

} // namespace

TEST(PacketStream, CodecRoundTripsEveryField)
{
    Rng rng(99);
    const Tick gaps[] = {0, 1, 999, 1000, 123456789, Tick{1} << 40};
    std::vector<StreamPacket> packets;
    PacketStream stream;
    Tick when = 0;
    for (int k = 0; k < 2000; ++k) {
        when += gaps[rng.uniformInt(std::size(gaps))];
        StreamPacket p;
        p.when = when;
        p.request.src = static_cast<NodeId>(rng.uniformInt(1000));
        p.request.dst = static_cast<NodeId>(rng.uniformInt(1000));
        p.afterStep = rng.bernoulli(0.5);
        switch (rng.uniformInt(5)) {
          case 0:
            p.request.sizeFlits = std::numeric_limits<std::uint16_t>::max();
            break;
          case 1:
            p.request.trafficClass = std::numeric_limits<std::uint8_t>::max();
            break;
          case 2:
            p.request.tag = std::numeric_limits<std::uint64_t>::max();
            break;
          case 3:
            p.request = {p.request.src, p.request.dst,
                         static_cast<std::uint16_t>(rng.uniformInt(9)),
                         static_cast<std::uint8_t>(rng.uniformInt(3)),
                         rng.uniformInt(100000)};
            break;
          default:
            break;  // a plain packet: no extended fields
        }
        packets.push_back(p);
        stream.append(p);
    }
    stream.finish();
    EXPECT_EQ(stream.size(), packets.size());
    EXPECT_EQ(stream.horizon(), kTickNever);
    EXPECT_EQ(readAll(stream), packets);
}

TEST(PacketStream, PlainPacketsOnASmallMeshTakeFourBytes)
{
    // Tick gap < 4096 (two varint bytes with the flag bits), src and dst
    // < 128 (one byte each), no size/class/tag.
    PacketStream stream;
    for (int k = 1; k <= 100; ++k)
        stream.append({static_cast<Tick>(k) * 1000, {3, 60}, k % 7 == 0});
    EXPECT_EQ(stream.bytes(), 400u);
}

TEST(PacketStream, NetworkRunPastTheHorizonThrows)
{
    PacketStream stream(cyclesToTicks(1000));
    stream.append({cyclesToTicks(10), {0, 3}});
    stream.finish();
    NetworkConfig cfg;
    cfg.radix = 4;
    cfg.policy = PolicyKind::None;
    Network net(cfg);
    net.attachStream(stream.cursor());
    EXPECT_NO_THROW(net.runUntilCycle(1000));
    EXPECT_EQ(net.metrics().packetsEjected(), 1u);
    EXPECT_THROW(net.runUntilCycle(1001), ConfigError);
}

TEST(StreamLockstep, RecorderMarksPacketsAfterTheEdgeStep)
{
    EdgeScriptTraffic script;
    const auto stream =
        PacketStream::record(script, cyclesToTicks(kScriptWarmup +
                                                   kScriptMeasure));
    const auto packets = readAll(*stream);
    ASSERT_EQ(packets.size(), 4u);
    for (std::size_t i = 0; i < packets.size(); ++i) {
        EXPECT_EQ(packets[i].when % kRouterClockPeriod, 0u);
        EXPECT_EQ(packets[i].afterStep, i % 2 == 1) << "packet " << i;
    }
    EXPECT_EQ(packets[0].when, cyclesToTicks(kScriptWarmup));
}

TEST(StreamLockstep, ScriptedEdgePacketsMatchTheLiveRun)
{
    registerEdgeScript();
    for (const PolicyKind policy : {PolicyKind::None, PolicyKind::History}) {
        ExperimentSpec spec;
        spec.network.radix = 4;
        spec.network.policy = policy;
        spec.workloadSpec = "edge-script";
        spec.warmup = kScriptWarmup;
        spec.measure = kScriptMeasure;

        const RunResults live = runLive(spec, 1.0, 1);
        const RunResults streamed = dvsnet::exp::runPoint(spec, 1.0, 1);
        // The warm-up boundary's pair is created before the window.
        EXPECT_EQ(live.packetsCreated, 2u);
        EXPECT_EQ(resultsJson(streamed), resultsJson(live))
            << "policy " << dvsnet::network::policyKindName(policy);
    }
}

TEST(StreamLockstep, RandomizedLiveMatchesRunPoint)
{
    // Traces piled onto clock edges, a random share after the step.
    Rng rng(20031017);
    const std::string csvPath =
        ::testing::TempDir() + "/dvsnet_lockstep_trace.csv";
    const std::string dvstPath =
        ::testing::TempDir() + "/dvsnet_lockstep_trace.dvst";
    {
        PacketStream trace;
        Tick when = 0;
        bool lastAfterStep = false;
        for (int k = 0; k < 4000; ++k) {
            const Tick prev = when;
            when += rng.uniformInt(3) * (kRouterClockPeriod / 2);
            const NodeId src = static_cast<NodeId>(rng.uniformInt(16));
            const NodeId dst = static_cast<NodeId>(
                (src + 1 + static_cast<NodeId>(rng.uniformInt(15))) % 16);
            // At one tick, every packet after the step follows every
            // packet before it, as in a recording.
            const bool onEdge = when % kRouterClockPeriod == 0;
            const bool afterStep =
                onEdge && ((when == prev && lastAfterStep) ||
                           rng.bernoulli(0.3));
            trace.append({when, {src, dst}, afterStep});
            lastAfterStep = afterStep;
        }
        trace.finish();
        dvsnet::traffic::saveAnyTrace(trace, csvPath);
        trace.save(dvstPath, 16);
    }

    const std::string workloads[] = {
        "two-level:tasks=3", "uniform",          "transpose",
        "tornado",           "trace:path=" + csvPath,
        "trace:path=" + dvstPath,
    };
    const PolicyKind policies[] = {PolicyKind::None, PolicyKind::History,
                                   PolicyKind::DynamicThreshold,
                                   PolicyKind::StaticLevel};
    for (int c = 0; c < 120; ++c) {
        ExperimentSpec spec;
        spec.network.radix = 4;
        spec.network.torus = rng.bernoulli(0.25);
        spec.network.policy = policies[rng.uniformInt(std::size(policies))];
        spec.network.staticLevel = rng.uniformInt(10);
        spec.workloadSpec = workloads[rng.uniformInt(std::size(workloads))];
        spec.workload.sourcesPerTask = 16;
        spec.workload.meanTaskDurationCycles = 3000;
        spec.warmup = static_cast<Cycle>(rng.uniformInt(0, 3000));
        spec.measure = static_cast<Cycle>(rng.uniformInt(200, 3000));
        const double rate = rng.uniform(0.1, 1.2);
        const std::uint64_t seed = rng.uniformInt(1u << 30);

        const RunResults live = runLive(spec, rate, seed);
        const RunResults streamed = dvsnet::exp::runPoint(spec, rate, seed);
        EXPECT_EQ(resultsJson(streamed), resultsJson(live))
            << "case " << c << ": " << spec.workloadSpec << " policy "
            << dvsnet::network::policyKindName(spec.network.policy)
            << " rate " << rate << " seed " << seed << " windows "
            << spec.warmup << "+" << spec.measure;
    }
    std::remove(csvPath.c_str());
    std::remove(dvstPath.c_str());
}

namespace
{

/**
 * Aborts the test binary unless destroyed within `limit`, so a reader
 * that never wakes fails in seconds rather than at ctest's timeout.
 */
class Watchdog
{
  public:
    explicit Watchdog(std::chrono::seconds limit = std::chrono::seconds(30))
        : thread_([this, limit] {
              std::unique_lock<std::mutex> lock(mutex_);
              if (!stop_.wait_for(lock, limit, [this] { return done_; })) {
                  std::fprintf(stderr, "watchdog: test still running after "
                                       "%lld s\n",
                               static_cast<long long>(limit.count()));
                  std::abort();
              }
          })
    {
    }

    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        stop_.notify_all();
        thread_.join();
    }

  private:
    std::mutex mutex_;
    std::condition_variable stop_;
    bool done_ = false;
    std::thread thread_;  ///< last member: starts after the state it reads
};

/** Random pauses: a short sleep now and then, a yield more often. */
class Jitter
{
  public:
    explicit Jitter(std::uint64_t seed) : rng_(seed) {}

    void
    operator()()
    {
        if (rng_.bernoulli(0.002)) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(rng_.uniformInt(1, 300)));
        } else if (rng_.bernoulli(0.02)) {
            std::this_thread::yield();
        }
    }

  private:
    Rng rng_;
};

/** A cursor that pauses at random before each packet it reads. */
class JitteredCursor final : public PacketCursor
{
  public:
    JitteredCursor(std::unique_ptr<PacketCursor> inner, Jitter &jitter)
        : inner_(std::move(inner)), jitter_(jitter)
    {
    }

    bool
    next(StreamPacket &out) override
    {
        jitter_();
        return inner_->next(out);
    }

    Tick horizon() const override { return inner_->horizon(); }

  private:
    std::unique_ptr<PacketCursor> inner_;
    Jitter &jitter_;
};

/** `inner`, pausing at random before each packet it hands on. */
class JitteredTraffic final : public TrafficGenerator
{
  public:
    JitteredTraffic(TrafficGenerator &inner, std::uint64_t seed)
        : inner_(inner), jitter_(seed)
    {
    }

    void
    start(dvsnet::sim::Kernel &kernel, PacketSink sink) override
    {
        sink_ = std::move(sink);
        inner_.start(kernel, [this](const PacketRequest &request) {
            jitter_();
            sink_(request);
        });
    }

    std::unique_ptr<PacketCursor>
    openStream() override
    {
        auto inner = inner_.openStream();
        if (inner == nullptr)
            return nullptr;
        return std::make_unique<JitteredCursor>(std::move(inner), jitter_);
    }

    const char *name() const override { return "jittered"; }

  private:
    TrafficGenerator &inner_;
    Jitter jitter_;
    PacketSink sink_;
};

/** What one reader thread got: its packets, or the error it threw. */
struct ReadOutcome
{
    std::vector<StreamPacket> packets;
    std::string error;
};

/** Read `cursor` to its end, pausing at random between packets. */
ReadOutcome
readJittered(PacketCursor &cursor, std::uint64_t seed)
{
    ReadOutcome outcome;
    Jitter jitter(seed);
    try {
        for (StreamPacket p; cursor.next(p);) {
            outcome.packets.push_back(p);
            jitter();
        }
    } catch (const ConfigError &e) {
        outcome.error = e.what();
    }
    return outcome;
}

/**
 * A random trace on a 16-node network, src != dst, extended fields,
 * then `extra` packets; finished.
 */
std::unique_ptr<PacketStream>
randomTrace(std::uint64_t seed, int entries,
            const std::vector<StreamPacket> &extra = {})
{
    Rng rng(seed);
    auto trace = std::make_unique<PacketStream>();
    Tick when = 0;
    for (int k = 0; k < entries; ++k) {
        when += rng.uniformInt(3) * (kRouterClockPeriod / 2);
        const auto src = static_cast<NodeId>(rng.uniformInt(16));
        const auto dst =
            static_cast<NodeId>((src + 1 + rng.uniformInt(15)) % 16);
        trace->append({when,
                       {src, dst, static_cast<std::uint16_t>(rng.uniformInt(9)),
                        static_cast<std::uint8_t>(rng.uniformInt(3))}});
    }
    for (const StreamPacket &p : extra)
        trace->append(p);
    trace->finish();
    return trace;
}

/**
 * A generator that emits `packets` packets, one per cycle, then calls
 * `beforeFailing` and throws a ConfigError from its next event.
 */
class FailingTraffic final : public TrafficGenerator
{
  public:
    FailingTraffic(std::size_t packets, std::function<void()> beforeFailing)
        : packets_(packets), beforeFailing_(std::move(beforeFailing))
    {
    }

    void
    start(dvsnet::sim::Kernel &kernel, PacketSink sink) override
    {
        sink_ = std::move(sink);
        for (std::size_t k = 1; k <= packets_; ++k) {
            kernel.at(cyclesToTicks(k),
                      [this] { sink_(PacketRequest{0, 1}); });
        }
        kernel.at(cyclesToTicks(packets_ + 1), [this] {
            beforeFailing_();
            throw ConfigError("failing traffic: scripted failure");
        });
    }

    const char *name() const override { return "failing"; }

  private:
    std::size_t packets_;
    std::function<void()> beforeFailing_;
    PacketSink sink_;
};

} // namespace

TEST(StreamReaders, ReadersWhileRecordingSeeExactlyTheRecording)
{
    Watchdog watchdog;
    const std::string dvstPath =
        ::testing::TempDir() + "/dvsnet_stream_readers.dvst";
    randomTrace(5, 30000)->save(dvstPath, 16);

    struct Case
    {
        std::string workload;
        double rate;
    };
    // Each spans several blocks, so readers cross block boundaries too.
    const Case cases[] = {
        {"two-level:tasks=3", 6.0},
        {"uniform", 6.0},
        {"trace:path=" + dvstPath, 1.0},
    };
    const dvsnet::topo::KAryNCube topo(4, 2, false);
    dvsnet::traffic::TwoLevelParams twoLevel;
    twoLevel.sourcesPerTask = 16;
    twoLevel.meanTaskDurationCycles = 3000;
    const Tick horizon = cyclesToTicks(12000);
    constexpr std::size_t kReaders = 3;

    for (std::size_t c = 0; c < std::size(cases); ++c) {
        const dvsnet::workload::WorkloadContext context{
            topo, cases[c].rate, 77 + c, twoLevel};
        const auto reference =
            dvsnet::workload::buildWorkload(cases[c].workload, context);
        const auto expected =
            readAll(*PacketStream::record(*reference, horizon));

        const auto generator =
            dvsnet::workload::buildWorkload(cases[c].workload, context);
        JitteredTraffic jittered(*generator, 1000 + c);
        PacketStream stream(horizon);
        // Opened before the first publication: each starts blocked.
        std::vector<std::unique_ptr<PacketCursor>> cursors;
        for (std::size_t r = 0; r < kReaders; ++r)
            cursors.push_back(stream.cursor());
        std::vector<ReadOutcome> outcomes(kReaders);
        std::vector<std::thread> readers;
        for (std::size_t r = 0; r < kReaders; ++r) {
            readers.emplace_back([&, r] {
                outcomes[r] = readJittered(*cursors[r], 100 * c + r);
            });
        }
        // A failed recording fails the readers too, so they end either way.
        EXPECT_NO_THROW(stream.recordFrom(jittered)) << cases[c].workload;
        for (auto &reader : readers)
            reader.join();

        EXPECT_GT(stream.bytes(), 2 * PacketStream::kBlockBytes)
            << cases[c].workload;
        EXPECT_EQ(stream.size(), expected.size()) << cases[c].workload;
        for (std::size_t r = 0; r < kReaders; ++r) {
            EXPECT_EQ(outcomes[r].error, "") << cases[c].workload;
            EXPECT_TRUE(outcomes[r].packets == expected)
                << cases[c].workload << ", reader " << r << ": "
                << outcomes[r].packets.size() << " of " << expected.size()
                << " packets";
        }
        // And a cursor opened after the end reads the same.
        EXPECT_TRUE(readAll(stream) == expected) << cases[c].workload;
    }
    std::remove(dvstPath.c_str());
}

TEST(StreamReaders, ReaderBlockedAtTheFrontierSeesTheStreamFinish)
{
    Watchdog watchdog;
    constexpr std::size_t kPublished = PacketStream::kPublishEvery;
    constexpr std::size_t kTotal = kPublished + 10;
    PacketStream stream;
    const auto cursor = stream.cursor();
    std::atomic<std::size_t> read{0};
    std::thread reader([&] {
        for (StreamPacket p; cursor->next(p);)
            read.fetch_add(1);
    });

    for (std::size_t k = 0; k < kTotal; ++k)
        stream.append({static_cast<Tick>(k) * 1000, {1, 2}});
    // The first kPublishEvery are published; the reader then waits for
    // the rest, which only finish() publishes.
    while (read.load() < kPublished)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(read.load(), kPublished);
    stream.finish();
    reader.join();
    EXPECT_EQ(read.load(), kTotal);
}

TEST(StreamReaders, ReaderBlockedAtTheFrontierThrowsTheRecordersError)
{
    Watchdog watchdog;
    constexpr std::size_t kPackets = PacketStream::kPublishEvery + 10;
    PacketStream stream(cyclesToTicks(2 * kPackets));
    const auto cursor = stream.cursor();
    std::atomic<std::size_t> read{0};
    std::string error;
    std::thread reader([&] {
        try {
            for (StreamPacket p; cursor->next(p);)
                read.fetch_add(1);
        } catch (const ConfigError &e) {
            error = e.what();
        }
    });

    // The recorder fails once the reader waits past the first
    // publication.
    FailingTraffic failing(kPackets, [&read] {
        while (read.load() < PacketStream::kPublishEvery)
            std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    EXPECT_THROW(stream.recordFrom(failing), ConfigError);
    reader.join();
    EXPECT_EQ(error, "failing traffic: scripted failure");
    // It read every packet appended before the failure, and so does a
    // cursor opened afterwards before it throws the same error.
    EXPECT_EQ(read.load(), kPackets);
    std::size_t late = 0;
    try {
        const auto after = stream.cursor();
        for (StreamPacket p; after->next(p);)
            ++late;
        ADD_FAILURE() << "a cursor on a failed stream ended cleanly";
    } catch (const ConfigError &e) {
        EXPECT_STREQ(e.what(), "failing traffic: scripted failure");
    }
    EXPECT_EQ(late, kPackets);
}

TEST(StreamReaders, RecordingThatFailsAfterPublicationFailsEveryJob)
{
    Watchdog watchdog;
    // Entry 3000 is addressed to its own source; thousands of packets
    // are published before the recorder reaches it.
    const std::string path =
        ::testing::TempDir() + "/dvsnet_fails_after_publication.dvst";
    randomTrace(9, 3000, {{cyclesToTicks(3001), {5, 5}}})->save(path, 16);
    const std::string message = "entry 3000: src and dst are both 5";

    ExperimentSpec spec;
    spec.network.radix = 4;
    spec.workloadSpec = "trace:path=" + path;
    spec.warmup = 1000;
    spec.measure = 3000;
    const PolicyKind policies[] = {PolicyKind::None, PolicyKind::History,
                                   PolicyKind::DynamicThreshold,
                                   PolicyKind::LinkUtilOnly};
    for (const PolicyKind policy : policies) {
        spec.network.policy = policy;
        try {
            dvsnet::exp::runPoint(spec, 1.0, 3);
            ADD_FAILURE() << "runPoint accepted entry 3000";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
                << e.what();
        }
    }

    for (const std::size_t threads : {1u, 4u}) {
        dvsnet::exp::RunnerOptions options;
        options.threads = threads;
        dvsnet::exp::ExperimentRunner runner(options);
        for (const PolicyKind policy : policies) {
            dvsnet::exp::PointJob job;
            job.spec = spec;
            job.spec.network.policy = policy;
            job.injectionRate = 1.0;
            job.seed = 3;
            runner.submit(job);
        }
        const auto results = runner.collect();
        ASSERT_EQ(results.size(), std::size(policies));
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_FALSE(results[i].ok) << "job " << i << ", " << threads
                                        << " threads";
            EXPECT_NE(results[i].error.find(message), std::string::npos)
                << "job " << i << ", " << threads << " threads: '"
                << results[i].error << "'";
        }
    }
    std::remove(path.c_str());
}
