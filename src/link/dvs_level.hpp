/**
 * @file
 * DVS operating-point tables (Section 2 / Section 4.2).
 *
 * The paper's multi-level DVS link supports ten discrete frequency levels
 * with corresponding voltage levels; each serial link scales from
 * 125 MHz / 0.9 V / 23.6 mW up to 1 GHz / 2.5 V / 200 mW.  Following
 * Algorithm 1's indexing, level 0 is the *fastest* operating point and
 * `CurLevel + 1` is one step slower.
 *
 * Power model: the published endpoints imply a max/min power ratio of
 * ~8.5x over an 8x frequency and ~2.8x voltage range — far below the
 * ~62x a pure alpha*V^2*f law would give, because real link power includes
 * voltage-dependent but frequency-independent clocking/bias components.
 * We therefore fit P(V, f) = a * V^2 * f + b to the two published
 * endpoints and evaluate intermediate levels (and transitional operating
 * points) with that law.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace dvsnet::link
{

/** One DVS operating point of a single serial link. */
struct DvsLevel
{
    double frequencyHz = 0.0;  ///< link clock frequency
    double voltage = 0.0;      ///< supply voltage (V)
    double powerW = 0.0;       ///< per-link power at this point (W)
    Tick period = 0;           ///< link clock period in ticks
};

/** Immutable table of operating points, fastest first. */
class DvsLevelTable
{
  public:
    /**
     * The paper's table: 10 levels, frequency linear from 1 GHz down to
     * 125 MHz, voltage linear from 2.5 V down to 0.9 V, power from the
     * fitted a*V^2*f + b law hitting 200 mW and 23.6 mW at the ends.
     */
    static DvsLevelTable standard10();

    /**
     * Build a custom table.  Frequencies must be strictly decreasing and
     * voltages non-increasing; power is computed from the law fitted to
     * the first and last entries' (V, f, P) unless explicit powers are
     * given.
     */
    static DvsLevelTable fromPoints(std::vector<DvsLevel> levels);

    /** Number of levels. */
    std::size_t size() const { return levels_.size(); }

    /** Level i (0 = fastest). */
    const DvsLevel &level(std::size_t i) const { return levels_.at(i); }

    /** Index of the fastest level. */
    std::size_t fastest() const { return 0; }

    /** Index of the slowest level. */
    std::size_t slowest() const { return levels_.size() - 1; }

    /**
     * Per-link power at an arbitrary operating point (V, f) using the
     * fitted law; used for transitional states where voltage and
     * frequency belong to different levels.
     */
    double powerAt(double voltage, double frequencyHz) const;

    /** Fitted dynamic coefficient a in P = a*V^2*f + b (W per V^2*Hz). */
    double coeffA() const { return coeffA_; }

    /** Fitted static coefficient b (W). */
    double coeffB() const { return coeffB_; }

  private:
    DvsLevelTable() = default;
    void fitCoefficients();

    std::vector<DvsLevel> levels_;
    double coeffA_ = 0.0;
    double coeffB_ = 0.0;
};

/** Paper constants (Section 4.2). */
inline constexpr double kMaxLinkFrequencyHz = 1e9;
inline constexpr double kMinLinkFrequencyHz = 125e6;
inline constexpr double kMaxLinkVoltage = 2.5;
inline constexpr double kMinLinkVoltage = 0.9;
inline constexpr std::size_t kNumDvsLevels = 10;

/**
 * Published endpoint powers, read back from the default table so the
 * fitted law is the single source of truth: maxLinkPowerW() is
 * standard10()'s fastest level, minLinkPowerW() its slowest.
 */
double maxLinkPowerW();
double minLinkPowerW();

/** Serial links per channel (8 links x 4 Gb/s = 32 Gb/s channel). */
inline constexpr std::size_t kLinksPerChannel = 8;

} // namespace dvsnet::link
