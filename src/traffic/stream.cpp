#include "traffic/stream.hpp"

#include <cstring>
#include <limits>

#include "common/fatal.hpp"
#include "sim/kernel.hpp"

namespace dvsnet::traffic
{

namespace
{

constexpr std::uint64_t kAfterStepBit = 1;
constexpr std::uint64_t kExtendedBit = 2;
constexpr int kFlagBits = 2;

/** Most bytes one LEB128 varint of 64 bits takes. */
constexpr std::size_t kMaxVarintBytes = 10;

/** Most bytes one packet takes: six varints. */
constexpr std::size_t kMaxRecordBytes = 6 * kMaxVarintBytes;

/** The frontier word: published packets << kStateBits | state. */
constexpr int kStateBits = 2;
constexpr std::uint64_t kStateMask = (1u << kStateBits) - 1;

/** `.dvst` header: magic "DVST", version, flags, node and packet count. */
constexpr std::uint32_t kDvstMagic = 0x54535644u;
constexpr std::size_t kHeaderBytes = 4 + 2 + 2 + 4 + 8;

/**
 * Storage rule shared by the recorder, the in-memory cursor and the file
 * cursor: a record starts a new block when fewer than kMaxRecordBytes
 * are left in the current one, so all three agree on where each block's
 * records end.
 */
bool
recordFits(const unsigned char *block, const unsigned char *pos)
{
    return static_cast<std::size_t>(block + PacketStream::kBlockBytes -
                                    pos) >= kMaxRecordBytes;
}

/** Write `v` as LEB128 at `out`, seven bits a byte, low bits first. */
std::size_t
putVarint(unsigned char *out, std::uint64_t v)
{
    std::size_t n = 0;
    do {
        unsigned char byte = v & 0x7f;
        v >>= 7;
        if (v != 0)
            byte |= 0x80;
        out[n++] = byte;
    } while (v != 0);
    return n;
}

/**
 * Read one LEB128 varint at `pos` into `v`.  Unchecked, it trusts bytes
 * append() wrote.  Checked, it reads nothing at or past `end` and
 * returns why the bytes are not one minimal 64-bit varint (nullptr:
 * they are).
 */
template <bool Checked>
const char *
getVarint(const unsigned char *&pos, const unsigned char *end,
          std::uint64_t &v)
{
    v = 0;
    for (int shift = 0;; shift += 7) {
        if constexpr (Checked) {
            if (pos == end)
                return "record runs past the end of the file";
        }
        const std::uint64_t byte = *pos++;
        if constexpr (Checked) {
            if (shift == 63 && byte > 1)
                return "varint overflows 64 bits";
        }
        v |= (byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            if constexpr (Checked) {
                if (byte == 0 && shift != 0)
                    return "overlong varint";
            }
            return nullptr;
        }
    }
}

/**
 * Decode the record at `pos`, advancing past it (see getVarint()): its
 * head varint (`tick delta << kFlagBits | flags`) and every field of
 * `r` but the tick and the after-step bit.
 */
template <bool Checked>
const char *
getRecord(const unsigned char *&pos, const unsigned char *end,
          std::uint64_t &head, RawPacket &r)
{
    const char *why = getVarint<Checked>(pos, end, head);
    if (why == nullptr)
        why = getVarint<Checked>(pos, end, r.src);
    if (why == nullptr)
        why = getVarint<Checked>(pos, end, r.dst);
    r.sizeFlits = 0;
    r.trafficClass = 0;
    r.tag = 0;
    if (why == nullptr && (head & kExtendedBit) != 0) {
        why = getVarint<Checked>(pos, end, r.sizeFlits);
        if (why == nullptr)
            why = getVarint<Checked>(pos, end, r.trafficClass);
        if (why == nullptr)
            why = getVarint<Checked>(pos, end, r.tag);
    }
    return why;
}

void
putLittleEndian(unsigned char *out, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint64_t
getLittleEndian(const unsigned char *in, int bytes)
{
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    return v;
}

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
        kernel_.at(routerEdgeAfter(kernel_.now()), [this] { step(); });
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

/** Records are written front to back under recordFits(). */
struct PacketStream::Block
{
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
        if (!recordFits(block_->bytes, pos_)) {
            block_ = block_->next.get();
            pos_ = block_->bytes;
        }
        // Decode through a local: pos_ is reachable through the bytes'
        // char type, so advancing it in place would store it per byte.
        const unsigned char *pos = pos_;
        std::uint64_t head = 0;
        RawPacket r;
        getRecord<false>(pos, nullptr, head, r);
        pos_ = pos;
        tick_ += head >> kFlagBits;
        out.when = tick_;
        out.afterStep = (head & kAfterStepBit) != 0;
        out.request = r.request();
        ++read_;
        return true;
    }

    Tick horizon() const override { return stream_.horizon_; }

  private:
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

    if (!recordFits(tail_->bytes, pos_)) {
        // Zero the unused tail, which save() writes: same stream, same
        // file bytes.
        std::memset(pos_, 0, static_cast<std::size_t>(
                                 tail_->bytes + kBlockBytes - pos_));
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

void
PacketStream::save(const std::string &path, std::uint32_t numNodes) const
{
    DVSNET_ASSERT((frontier_.load(std::memory_order_acquire) & kStateMask) ==
                      kFinished,
                  "only a finished stream is saved");
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        throw ConfigError("cannot open binary trace '" + path +
                          "' for writing");
    }
    unsigned char header[kHeaderBytes];
    putLittleEndian(header, kDvstMagic, 4);
    putLittleEndian(header + 4, DvstCursor::kVersion, 2);
    putLittleEndian(header + 6, 0, 2);  // flags
    putLittleEndian(header + 8, numNodes, 4);
    putLittleEndian(header + 12, size_, 8);
    out.write(reinterpret_cast<const char *>(header), kHeaderBytes);
    for (const Block *b = head_.get(); b != nullptr; b = b->next.get()) {
        const auto used = b == tail_ ? pos_ - b->bytes
                                     : static_cast<std::ptrdiff_t>(kBlockBytes);
        out.write(reinterpret_cast<const char *>(b->bytes), used);
    }
    out.close();
    if (!out)
        throw ConfigError("failed writing binary trace '" + path + "'");
}

std::string
packetProblem(const RawPacket &raw, Tick previous, std::uint64_t nodeLimit)
{
    if (!raw.when)
        return "tick overflows 64 bits";
    if (*raw.when < previous) {
        return detail::concat("decreasing tick ", *raw.when, " (previous ",
                              previous, ")");
    }
    // A record's head varint holds the gap shifted past its flag bits.
    if ((*raw.when - previous) >> (64 - kFlagBits) != 0) {
        return detail::concat("tick ", *raw.when, " is 2^62 or more after ",
                              previous, ", a gap no record holds");
    }
    constexpr auto kMaxId =
        static_cast<std::uint64_t>(std::numeric_limits<NodeId>::max());
    for (const auto &[what, id] :
         {std::pair{"src", raw.src}, {"dst", raw.dst}}) {
        if (id > kMaxId)
            return detail::concat(what, " id ", id, " overflows NodeId");
        if (nodeLimit != 0 && id >= nodeLimit) {
            return detail::concat(what, " id ", id, " out of range [0, ",
                                  nodeLimit, ")");
        }
    }
    if (raw.src == raw.dst)
        return detail::concat("src and dst are both ", raw.src);
    if (raw.sizeFlits > std::numeric_limits<std::uint16_t>::max())
        return "size overflows 16 bits";
    if (raw.trafficClass > std::numeric_limits<std::uint8_t>::max())
        return "class overflows 8 bits";
    return "";
}

DvstCursor::DvstCursor(const std::string &path, NodeId numNodes)
    : file_(path, std::ios::binary),
      block_(std::make_unique_for_overwrite<unsigned char[]>(
          PacketStream::kBlockBytes))
{
    if (!file_)
        throw ConfigError("cannot open binary trace '" + path + "'");
    unsigned char header[kHeaderBytes];
    file_.read(reinterpret_cast<char *>(header), kHeaderBytes);
    if (file_.gcount() != static_cast<std::streamsize>(kHeaderBytes))
        throw ConfigError("binary trace: truncated header");
    if (getLittleEndian(header, 4) != kDvstMagic)
        throw ConfigError("binary trace: bad magic (not a DVST trace file)");
    const std::uint64_t version = getLittleEndian(header + 4, 2);
    if (version != kVersion) {
        throw ConfigError(detail::concat("binary trace: unsupported version ",
                                         version, " (this build reads version ",
                                         kVersion, " only)"));
    }
    if (getLittleEndian(header + 6, 2) != 0)
        throw ConfigError("binary trace: nonzero reserved flags");
    headerNodes_ = static_cast<std::uint32_t>(getLittleEndian(header + 8, 4));
    declared_ = getLittleEndian(header + 12, 8);
    // Ids must lie below the smaller of the two counts given.
    nodeLimit_ = headerNodes_;
    const auto network = static_cast<std::uint64_t>(numNodes);
    if (numNodes > 0 && (nodeLimit_ == 0 || network < nodeLimit_))
        nodeLimit_ = network;
    refill();
}

void
DvstCursor::refill()
{
    file_.read(reinterpret_cast<char *>(block_.get()),
               static_cast<std::streamsize>(PacketStream::kBlockBytes));
    pos_ = block_.get();
    end_ = pos_ + file_.gcount();
}

bool
DvstCursor::next(StreamPacket &out)
{
    if (read_ == declared_) {
        if (pos_ != end_ || file_.peek() != std::char_traits<char>::eof()) {
            throw ConfigError(detail::concat(
                "binary trace: data past the declared ", declared_,
                " packets"));
        }
        return false;
    }
    if (!recordFits(block_.get(), pos_))
        refill();
    if (pos_ == end_) {
        throw ConfigError(detail::concat("binary trace: ended after ", read_,
                                         " of ", declared_,
                                         " declared packets"));
    }
    std::uint64_t head = 0;
    RawPacket raw;
    std::string problem;
    const unsigned char *pos = pos_;
    const char *why = getRecord<true>(pos, end_, head, raw);
    pos_ = pos;
    if (why != nullptr) {
        problem = why;
    } else {
        const std::uint64_t delta = head >> kFlagBits;
        if (delta <= std::numeric_limits<Tick>::max() - tick_)
            raw.when = tick_ + delta;
        raw.afterStep = (head & kAfterStepBit) != 0;
        problem = packetProblem(raw, tick_, nodeLimit_);
    }
    if (!problem.empty()) {
        throw ConfigError(detail::concat("binary trace: entry ", read_, ": ",
                                         problem));
    }
    out = raw.packet();
    tick_ = out.when;
    ++read_;
    return true;
}

} // namespace dvsnet::traffic
