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

/** Most bytes one packet takes: six varints. */
constexpr std::size_t kMaxRecordBytes = 6 * kMaxVarintBytes;

/** The frontier word: published packets << kStateBits | state. */
constexpr int kStateBits = 2;
constexpr std::uint64_t kStateMask = (1u << kStateBits) - 1;

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

/**
 * Storage: records are written front to back, and a record starts a
 * new block when fewer than kMaxRecordBytes are left in the current
 * one.  Writer and readers apply that one rule (fits()), so they agree
 * on where each block's records end.
 */
struct PacketStream::Block
{
    /** Whether a record may start at `pos`, in this block. */
    bool
    fits(const unsigned char *pos) const
    {
        return static_cast<std::size_t>(bytes + kBlockBytes - pos) >=
               kMaxRecordBytes;
    }

    unsigned char bytes[kBlockBytes];
    /** Set before the first record in the next block is published. */
    std::unique_ptr<Block> next;
};

/** Decodes a PacketStream's records from the front. */
class PacketStream::Cursor final : public PacketCursor
{
  public:
    explicit Cursor(const PacketStream &stream)
        : stream_(stream), block_(stream.head_.get()), pos_(block_->bytes)
    {
    }

    bool
    next(StreamPacket &out) override
    {
        if (read_ == published_) {
            published_ = stream_.await(read_);
            if (read_ == published_)
                return false;
        }
        if (!block_->fits(pos_)) {
            block_ = block_->next.get();
            pos_ = block_->bytes;
        }
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
        ++read_;
        return true;
    }

    Tick horizon() const override { return stream_.horizon_; }

  private:
    /** One varint; the bytes were written by append(), so well formed. */
    std::uint64_t
    get()
    {
        std::uint64_t v = 0;
        getVarint([this] { return static_cast<int>(*pos_++); }, v);
        return v;
    }

    const PacketStream &stream_;
    const Block *block_;
    const unsigned char *pos_;
    std::size_t read_ = 0;       ///< packets decoded
    std::size_t published_ = 0;  ///< packets known to be readable
    Tick tick_ = 0;
};

PacketStream::PacketStream(Tick horizon)
    : head_(std::make_unique_for_overwrite<Block>()), tail_(head_.get()),
      pos_(tail_->bytes), horizon_(horizon)
{
}

PacketStream::~PacketStream()
{
    // Free the chain front to back: ~Block would recurse down it.
    for (auto block = std::move(head_); block;)
        block = std::move(block->next);
}

std::unique_ptr<const PacketStream>
PacketStream::record(TrafficGenerator &generator, Tick horizon)
{
    auto stream = std::make_unique<PacketStream>(horizon);
    stream->recordFrom(generator);
    return stream;
}

void
PacketStream::recordFrom(TrafficGenerator &generator,
                         const std::function<void()> &started)
{
    DVSNET_ASSERT(!generator.wantsDeliveries(),
                  "closed-loop traffic depends on the network: run it live");
    DVSNET_ASSERT(size_ == 0, "recording into a non-empty stream");
    try {
        if (auto cursor = generator.openStream()) {
            if (started)
                started();
            for (StreamPacket p; cursor->next(p) && p.when <= horizon_;)
                append(p);
        } else {
            sim::Kernel kernel;
            EdgeStub edges(kernel);
            generator.start(kernel, [&](const PacketRequest &request) {
                const Tick now = kernel.now();
                append({now, request, edges.lastStep() == now});
            });
            // As in a live run: attachTraffic starts the generator, then
            // the first runUntilCycle starts the step chain.
            edges.start();
            if (started)
                started();
            kernel.run(horizon_);
        }
    } catch (...) {
        error_ = std::current_exception();
        publish(kFailed);
        throw;
    }
    finish();
}

void
PacketStream::append(const StreamPacket &packet)
{
    DVSNET_ASSERT(recording(), "append to an ended stream");
    DVSNET_ASSERT(packet.when >= last_, "stream ticks must be non-decreasing");
    const Tick delta = packet.when - last_;
    DVSNET_ASSERT(delta >> (64 - kFlagBits) == 0, "tick gap too large");
    const PacketRequest &r = packet.request;
    const bool extended =
        r.sizeFlits != 0 || r.trafficClass != 0 || r.tag != 0;

    if (!tail_->fits(pos_)) {
        tail_->next = std::make_unique_for_overwrite<Block>();
        tail_ = tail_->next.get();
        pos_ = tail_->bytes;
    }
    unsigned char *p = pos_;
    p += putVarint(p, delta << kFlagBits | (extended ? kExtendedBit : 0) |
                          (packet.afterStep ? kAfterStepBit : 0));
    p += putVarint(p, static_cast<std::uint64_t>(r.src));
    p += putVarint(p, static_cast<std::uint64_t>(r.dst));
    if (extended) {
        p += putVarint(p, r.sizeFlits);
        p += putVarint(p, r.trafficClass);
        p += putVarint(p, r.tag);
    }
    bytes_ += static_cast<std::size_t>(p - pos_);
    pos_ = p;
    last_ = packet.when;
    if (++size_ % kPublishEvery == 0)
        publish(kRecording);
}

void
PacketStream::finish()
{
    DVSNET_ASSERT(recording(), "stream already ended");
    publish(kFinished);
}

bool
PacketStream::recording() const
{
    // Only the recorder stores the word, so it reads its own last store.
    return (frontier_.load(std::memory_order_relaxed) & kStateMask) ==
           kRecording;
}

void
PacketStream::publish(State state)
{
    frontier_.store(static_cast<std::uint64_t>(size_) << kStateBits | state,
                    std::memory_order_release);
    frontier_.notify_all();
}

std::size_t
PacketStream::await(std::size_t read) const
{
    std::uint64_t word = frontier_.load(std::memory_order_acquire);
    while (word >> kStateBits == read && (word & kStateMask) == kRecording) {
        frontier_.wait(word, std::memory_order_acquire);
        word = frontier_.load(std::memory_order_acquire);
    }
    if (word >> kStateBits == read && (word & kStateMask) == kFailed)
        std::rethrow_exception(error_);
    return static_cast<std::size_t>(word >> kStateBits);
}

std::unique_ptr<PacketCursor>
PacketStream::cursor() const
{
    return std::make_unique<Cursor>(*this);
}

} // namespace dvsnet::traffic
