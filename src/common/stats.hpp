/**
 * @file
 * Statistics primitives used for both the simulator's measurement plane
 * (latency/throughput/power metrics) and the paper's traffic
 * characterization figures (utilization histograms, Figs. 3-5).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fatal.hpp"

namespace dvsnet
{

/** Streaming mean / variance / min / max (Welford's algorithm). */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Reset to empty. */
    void reset();

    /** Number of samples. */
    std::uint64_t count() const { return count_; }

    /** Sample mean (0 if empty). */
    double mean() const { return count_ == 0 ? 0.0 : mean_; }

    /** Population variance (0 if fewer than 2 samples). */
    double variance() const;

    /** Standard deviation. */
    double stddev() const;

    /** Smallest sample (0 if empty). */
    double min() const { return count_ == 0 ? 0.0 : min_; }

    /** Largest sample (0 if empty). */
    double max() const { return count_ == 0 ? 0.0 : max_; }

    /** Sum of all samples. */
    double sum() const { return mean_ * static_cast<double>(count_); }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-range histogram with uniform bins over [lo, hi].
 *
 * Samples outside the range are clamped into the edge bins so totals are
 * conserved; used for the utilization profiles of Figs. 3-5.
 */
class Histogram
{
  public:
    /** Create with the given number of bins over [lo, hi]. */
    Histogram(double lo, double hi, std::size_t bins);

    /** Add one sample. */
    void add(double x);

    /** Reset counts. */
    void reset();

    /** Number of bins. */
    std::size_t bins() const { return counts_.size(); }

    /** Count in bin i. */
    std::uint64_t binCount(std::size_t i) const { return counts_.at(i); }

    /** Fraction of samples in bin i (0 if empty). */
    double binFraction(std::size_t i) const;

    /** Center value of bin i. */
    double binCenter(std::size_t i) const;

    /** Lower edge of bin i. */
    double binLow(std::size_t i) const;

    /** Total sample count. */
    std::uint64_t total() const { return total_; }

    /** Mean of the added samples (exact, not binned). */
    double mean() const { return stat_.mean(); }

    /** Render an ASCII bar chart, one line per bin. */
    std::string render(std::size_t width = 50) const;

  private:
    double lo_;
    double hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    RunningStat stat_;
};

/**
 * Exponential weighted average exactly as the paper's Eq. 5:
 *
 *   Par_predict = (weight * Par_current + Par_past) / (weight + 1)
 *
 * with Par_past being the previous prediction.  With weight = 3 the
 * division is a shift and the numerator a shift-and-add, matching the
 * hardware of Section 3.3.
 */
class Ewma
{
  public:
    /** Construct with the paper's weight (default W = 3, Table 1). */
    explicit Ewma(double weight = 3.0, double initial = 0.0);

    /** Fold in the current window's measurement; returns the prediction. */
    double update(double current);

    /** Latest prediction without updating. */
    double value() const { return past_; }

    /** Reset the history to a given value. */
    void reset(double initial = 0.0);

    /** The weight W. */
    double weight() const { return weight_; }

  private:
    double weight_;
    double past_;
};

/**
 * Time-weighted average of a piecewise-constant signal, e.g. buffer
 * occupancy over a history window (Eq. 3) or link power over a run.
 */
class TimeWeightedAverage
{
  public:
    /** Begin integrating at the given time with the given value. */
    void start(double time, double value);

    /** Record a change of the signal value at the given time. */
    void update(double time, double value);

    /** Integral of the signal from start through `time`. */
    double integral(double time) const;

    /** Average value from start through `time`. */
    double average(double time) const;

    /** Restart the window at `time`, keeping the current value. */
    void resetWindow(double time);

    /** Current signal value. */
    double value() const { return value_; }

  private:
    double windowStart_ = 0.0;
    double lastTime_ = 0.0;
    double value_ = 0.0;
    double area_ = 0.0;
};

} // namespace dvsnet
