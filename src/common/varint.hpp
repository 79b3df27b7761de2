/**
 * @file
 * LEB128 varints: the integer codec shared by the `.dvst` trace format
 * (workload/trace_binary.hpp) and the in-memory packet stream
 * (traffic/stream.hpp).  Seven value bits per byte, low bits first, the
 * high bit set on every byte but the last.
 */

#pragma once

#include <cstddef>
#include <cstdint>

namespace dvsnet
{

/** Most bytes one encoded 64-bit value takes. */
inline constexpr std::size_t kMaxVarintBytes = 10;

/** Write `v` as LEB128 at `out`; returns the bytes written (<= 10). */
inline std::size_t
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

/** Outcome of getVarint(). */
enum class VarintStatus
{
    Ok,
    End,        ///< the input ended before the value's first byte
    Truncated,  ///< the input ended inside the value
    Overflow,   ///< the value does not fit in 64 bits
};

/**
 * Read one LEB128 value from the bytes `next()` yields: an int in
 * [0, 255], or a negative int at the end of the input.
 */
template <typename NextByte>
VarintStatus
getVarint(NextByte &&next, std::uint64_t &out)
{
    out = 0;
    for (int shift = 0;; shift += 7) {
        const int c = next();
        if (c < 0)
            return shift == 0 ? VarintStatus::End : VarintStatus::Truncated;
        const auto byte = static_cast<std::uint64_t>(c);
        if (shift >= 63 && (byte >> 1) != 0)
            return VarintStatus::Overflow;
        out |= (byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return VarintStatus::Ok;
    }
}

} // namespace dvsnet
