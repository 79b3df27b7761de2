#include "traffic/stream.hpp"

#include "common/fatal.hpp"
#include "common/varint.hpp"
#include "sim/clock.hpp"
#include "sim/kernel.hpp"

namespace dvsnet::traffic
{

namespace
{

constexpr std::uint64_t kAfterStepBit = 1;
constexpr std::uint64_t kExtendedBit = 2;
constexpr int kFlagBits = 2;

/** Decodes a PacketStream's bytes from the front. */
class StreamCursor final : public PacketCursor
{
  public:
    StreamCursor(const unsigned char *begin, const unsigned char *end,
                 Tick horizon)
        : pos_(begin), end_(end), horizon_(horizon)
    {
    }

    bool
    next(StreamPacket &out) override
    {
        if (pos_ == end_)
            return false;
        const std::uint64_t head = get();
        tick_ += head >> kFlagBits;
        out.when = tick_;
        out.afterStep = (head & kAfterStepBit) != 0;
        PacketRequest &r = out.request;
        r.src = static_cast<NodeId>(get());
        r.dst = static_cast<NodeId>(get());
        if ((head & kExtendedBit) != 0) {
            r.sizeFlits = static_cast<std::uint16_t>(get());
            r.trafficClass = static_cast<std::uint8_t>(get());
            r.tag = get();
        } else {
            r.sizeFlits = 0;
            r.trafficClass = 0;
            r.tag = 0;
        }
        return true;
    }

    Tick horizon() const override { return horizon_; }

  private:
    /** One varint; the bytes were written by append(), so well formed. */
    std::uint64_t
    get()
    {
        std::uint64_t v = 0;
        getVarint([this] { return static_cast<int>(*pos_++); }, v);
        return v;
    }

    const unsigned char *pos_;
    const unsigned char *end_;
    Tick tick_ = 0;
    Tick horizon_;
};

/**
 * Stand-in for the network's step chain (Network::startStepping and
 * stepQuantum): one event per router clock edge, the first at the edge
 * after `now`, each scheduling the next.  Scheduled the same way, its
 * events take the same places in the kernel's (tick, seq) order relative
 * to the generator's as the network's steps do in a live run.
 */
class EdgeStub
{
  public:
    explicit EdgeStub(sim::Kernel &kernel) : kernel_(kernel) {}

    void
    start()
    {
        kernel_.at(sim::routerClock().edgeAfter(kernel_.now()),
                   [this] { step(); });
    }

    /** Tick of the latest step; kTickNever before the first. */
    Tick lastStep() const { return last_; }

  private:
    void
    step()
    {
        last_ = kernel_.now();
        kernel_.at(last_ + kRouterClockPeriod, [this] { step(); });
    }

    sim::Kernel &kernel_;
    Tick last_ = kTickNever;
};

} // namespace

PacketStream
PacketStream::record(TrafficGenerator &generator, Tick horizon)
{
    DVSNET_ASSERT(!generator.wantsDeliveries(),
                  "closed-loop traffic depends on the network: run it live");
    PacketStream stream(horizon);
    if (auto cursor = generator.openStream()) {
        for (StreamPacket p; cursor->next(p) && p.when <= horizon;)
            stream.append(p);
    } else {
        sim::Kernel kernel;
        EdgeStub edges(kernel);
        generator.start(kernel, [&](const PacketRequest &request) {
            const Tick now = kernel.now();
            stream.append({now, request, edges.lastStep() == now});
        });
        // As in a live run: attachTraffic starts the generator, then the
        // first runUntilCycle starts the step chain.
        edges.start();
        kernel.run(horizon);
    }
    stream.bytes_.shrink_to_fit();
    return stream;
}

void
PacketStream::append(const StreamPacket &packet)
{
    DVSNET_ASSERT(packet.when >= last_, "stream ticks must be non-decreasing");
    const Tick delta = packet.when - last_;
    DVSNET_ASSERT(delta >> (64 - kFlagBits) == 0, "tick gap too large");
    const PacketRequest &r = packet.request;
    const bool extended =
        r.sizeFlits != 0 || r.trafficClass != 0 || r.tag != 0;

    unsigned char buf[6 * kMaxVarintBytes];
    std::size_t n = putVarint(buf, delta << kFlagBits |
                                       (extended ? kExtendedBit : 0) |
                                       (packet.afterStep ? kAfterStepBit : 0));
    n += putVarint(buf + n, static_cast<std::uint64_t>(r.src));
    n += putVarint(buf + n, static_cast<std::uint64_t>(r.dst));
    if (extended) {
        n += putVarint(buf + n, r.sizeFlits);
        n += putVarint(buf + n, r.trafficClass);
        n += putVarint(buf + n, r.tag);
    }
    bytes_.insert(bytes_.end(), buf, buf + n);
    last_ = packet.when;
    ++size_;
}

std::unique_ptr<PacketCursor>
PacketStream::cursor() const
{
    return std::make_unique<StreamCursor>(
        bytes_.data(), bytes_.data() + bytes_.size(), horizon_);
}

} // namespace dvsnet::traffic
