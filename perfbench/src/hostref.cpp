#include "hostref.hpp"

#include <ctime>
#include <functional>
#include <queue>
#include <thread>

namespace perfbench
{

namespace
{

constexpr unsigned kTableBits = 18;  // 1 MiB of uint32 per thread
constexpr std::size_t kHeapSize = 20000;
constexpr std::size_t kOpsPerPass = 2500000;

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/** One pass: hold-model heap operations plus a table update per event. */
std::uint64_t
pass(std::vector<std::uint32_t> &table, std::uint64_t seed)
{
    std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
    auto next = [&x]() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    for (std::size_t i = 0; i < kHeapSize; ++i)
        heap.push(next() & 0xFFFFF);
    const std::uint64_t mask = table.size() - 1;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kOpsPerPass; ++i) {
        const std::uint64_t t = heap.top();
        heap.pop();
        const std::uint64_t r = next();
        heap.push(t + (r & 1023));
        auto &slot = table[(r >> 20) & mask];
        slot += static_cast<std::uint32_t>(t);
        acc += slot;
    }
    return acc;
}

} // namespace

HostReference::HostReference(std::size_t threads)
    : tables_(threads, std::vector<std::uint32_t>(std::size_t{1} << kTableBits))
{
}

double
HostReference::sample()
{
    std::vector<std::uint64_t> sums(tables_.size());
    std::vector<double> seconds(tables_.size());
    {
        std::vector<std::jthread> workers;
        for (std::size_t t = 0; t < tables_.size(); ++t)
            workers.emplace_back([this, &sums, &seconds, t] {
                const double start = threadCpuSeconds();
                sums[t] = pass(tables_[t], t + 1);
                seconds[t] = threadCpuSeconds() - start;
            });
    }
    // Keeps the passes from being optimised away.
    for (const auto s : sums)
        checksum_ += s;
    double total = 0.0;
    for (const double s : seconds)
        total += s;
    return total / static_cast<double>(seconds.size());
}

} // namespace perfbench
