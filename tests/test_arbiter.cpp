/**
 * @file
 * Round-robin arbiter tests: grant validity and rotation fairness, each
 * run through both mask overloads, the pointer's wrap at n = 1, 2 and
 * 64, and lockstep agreement of the one-word and multi-word overloads
 * at every width up to 64.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <random>
#include <vector>

#include "common/bitmask.hpp"
#include "router/arbiter.hpp"

using dvsnet::BitMask;
using dvsnet::router::RoundRobinArbiter;

namespace
{

/** Two words, so the multi-word overload runs its word loop. */
using WideMask = BitMask<128>;

/** An arbiter driven through one of its two mask overloads. */
class Driven
{
  public:
    Driven(std::int32_t n, bool wide) : arb_(n), wide_(wide) {}

    /** Arbitrate among the requesters in `bits`. */
    int
    grant(std::initializer_list<int> bits)
    {
        if (wide_) {
            WideMask m;
            for (int b : bits)
                m.set(b);
            return arb_.arbitrateMask(m);
        }
        std::uint64_t m = 0;
        for (int b : bits)
            m |= std::uint64_t{1} << b;
        return arb_.arbitrateMask(m);
    }

  private:
    RoundRobinArbiter arb_;
    bool wide_;
};

/** Run `body(wide)` once per overload, naming the overload on failure. */
template <typename Body>
void
onBothOverloads(Body &&body)
{
    for (const bool wide : {false, true}) {
        SCOPED_TRACE(wide ? "BitMask<128> overload" : "one-word overload");
        body(wide);
    }
}

} // namespace

TEST(RoundRobinArbiter, NoRequestsNoGrant)
{
    onBothOverloads([](bool wide) {
        Driven arb(4, wide);
        EXPECT_EQ(arb.grant({}), -1);
    });
}

TEST(RoundRobinArbiter, SingleRequestWins)
{
    onBothOverloads([](bool wide) {
        Driven arb(4, wide);
        EXPECT_EQ(arb.grant({2}), 2);
    });
}

TEST(RoundRobinArbiter, GrantIsAlwaysARequester)
{
    onBothOverloads([](bool wide) {
        Driven arb(5, wide);
        for (int round = 0; round < 20; ++round) {
            const int a = round % 5;
            const int b = (round * 3) % 5;
            const int g = arb.grant({a, b});
            EXPECT_TRUE(g == a || g == b) << "round " << round;
        }
    });
}

TEST(RoundRobinArbiter, RotatesAmongContenders)
{
    onBothOverloads([](bool wide) {
        Driven arb(3, wide);
        std::vector<int> grants;
        for (int i = 0; i < 6; ++i)
            grants.push_back(arb.grant({0, 1, 2}));
        // Fair rotation: each requester wins exactly twice in six rounds.
        for (int who = 0; who < 3; ++who)
            EXPECT_EQ(std::count(grants.begin(), grants.end(), who), 2);
        // And never the same winner twice in a row.
        for (std::size_t i = 1; i < grants.size(); ++i)
            EXPECT_NE(grants[i], grants[i - 1]);
    });
}

TEST(RoundRobinArbiter, SkipsNonRequesters)
{
    onBothOverloads([](bool wide) {
        Driven arb(4, wide);
        EXPECT_EQ(arb.grant({0}), 0);
        // Pointer now at 1; 1 and 2 silent, 3 requesting.
        EXPECT_EQ(arb.grant({3}), 3);
        // Pointer wraps to 0.
        EXPECT_EQ(arb.grant({0, 3}), 0);
    });
}

TEST(RoundRobinArbiter, LongTermFairnessUnderFullLoad)
{
    onBothOverloads([](bool wide) {
        Driven arb(8, wide);
        std::vector<int> wins(8, 0);
        for (int i = 0; i < 800; ++i)
            ++wins[static_cast<std::size_t>(
                arb.grant({0, 1, 2, 3, 4, 5, 6, 7}))];
        for (int w : wins)
            EXPECT_EQ(w, 100);
    });
}

TEST(RoundRobinArbiter, PointerWrapsToZeroPastTheLastInput)
{
    // The pointer moves past the winner, back to 0 past input n - 1:
    // under full load the grants run 0, 1, ..., n - 1, 0, 1, ...; and
    // once input n - 1 has won, input 0 wins over it.
    for (const std::int32_t n : {1, 2, 64}) {
        const std::uint64_t all =
            n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
        const std::uint64_t last = std::uint64_t{1} << (n - 1);
        WideMask allWide, lastWide, lastAndFirstWide;
        for (std::int32_t i = 0; i < n; ++i)
            allWide.set(i);
        lastWide.set(n - 1);
        lastAndFirstWide.set(n - 1);
        lastAndFirstWide.set(0);

        RoundRobinArbiter word(n);
        RoundRobinArbiter wide(n);
        for (std::int32_t round = 0; round < 3 * n; ++round) {
            EXPECT_EQ(word.arbitrateMask(all), round % n)
                << "n=" << n << " round=" << round;
            EXPECT_EQ(wide.arbitrateMask(allWide), round % n)
                << "n=" << n << " round=" << round;
        }
        EXPECT_EQ(word.arbitrateMask(last), n - 1) << "n=" << n;
        EXPECT_EQ(word.arbitrateMask(last | 1u), 0) << "n=" << n;
        EXPECT_EQ(wide.arbitrateMask(lastWide), n - 1) << "n=" << n;
        EXPECT_EQ(wide.arbitrateMask(lastAndFirstWide), 0) << "n=" << n;
    }
}

TEST(RoundRobinArbiter, OverloadsAgreeUpTo64Inputs)
{
    // A one-word and a multi-word arbiter fed the same random request
    // sets must grant the same index every round.  Each moves its
    // pointer to just past the winner, so equal grants every round
    // also mean equal rotation.
    std::mt19937_64 rng(0x5EED);
    for (std::int32_t n = 1; n <= 64; ++n) {
        RoundRobinArbiter word(n);
        RoundRobinArbiter wide(n);
        const std::uint64_t valid =
            n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
        for (int round = 0; round < 200; ++round) {
            // Every third round is sparse, so the scan both wraps and
            // finds a requester past the pointer.
            std::uint64_t reqs = rng() & valid;
            if (round % 3 == 0)
                reqs &= rng() & rng();
            WideMask m;
            for (std::int32_t i = 0; i < n; ++i) {
                if ((reqs >> i) & 1u)
                    m.set(i);
            }
            ASSERT_EQ(word.arbitrateMask(reqs), wide.arbitrateMask(m))
                << "n=" << n << " round=" << round;
        }
    }
}
