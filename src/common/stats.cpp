#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace dvsnet
{

void
RunningStat::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void
RunningStat::reset()
{
    *this = RunningStat{};
}

double
RunningStat::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    DVSNET_ASSERT(hi > lo && bins > 0, "invalid histogram range");
}

void
Histogram::add(double x)
{
    const double frac = (x - lo_) / (hi_ - lo_);
    auto bin = static_cast<std::int64_t>(frac *
        static_cast<double>(counts_.size()));
    bin = std::clamp<std::int64_t>(bin, 0,
        static_cast<std::int64_t>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(bin)];
    ++total_;
    stat_.add(x);
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
    stat_.reset();
}

double
Histogram::binFraction(std::size_t i) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(counts_.at(i)) /
           static_cast<double>(total_);
}

double
Histogram::binCenter(std::size_t i) const
{
    const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
    return lo_ + (static_cast<double>(i) + 0.5) * w;
}

double
Histogram::binLow(std::size_t i) const
{
    const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
    return lo_ + static_cast<double>(i) * w;
}

std::string
Histogram::render(std::size_t width) const
{
    std::uint64_t peak = 0;
    for (auto c : counts_)
        peak = std::max(peak, c);

    std::ostringstream oss;
    char line[160];
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const auto bar = peak == 0 ? std::size_t{0}
            : static_cast<std::size_t>(static_cast<double>(counts_[i]) /
              static_cast<double>(peak) * static_cast<double>(width) + 0.5);
        std::snprintf(line, sizeof(line), "  %6.3f-%6.3f |%-*s| %5.1f%%",
                      binLow(i),
                      i + 1 == counts_.size() ? hi_ : binLow(i + 1),
                      static_cast<int>(width),
                      std::string(bar, '#').c_str(),
                      binFraction(i) * 100.0);
        oss << line << "\n";
    }
    return oss.str();
}

Ewma::Ewma(double weight, double initial)
    : weight_(weight), past_(initial)
{
    DVSNET_ASSERT(weight > 0, "EWMA weight must be positive");
}

double
Ewma::update(double current)
{
    past_ = (weight_ * current + past_) / (weight_ + 1.0);
    return past_;
}

void
Ewma::reset(double initial)
{
    past_ = initial;
}

void
TimeWeightedAverage::start(double time, double value)
{
    windowStart_ = time;
    lastTime_ = time;
    value_ = value;
    area_ = 0.0;
}

void
TimeWeightedAverage::update(double time, double value)
{
    DVSNET_ASSERT(time >= lastTime_, "time must be monotonic");
    area_ += value_ * (time - lastTime_);
    lastTime_ = time;
    value_ = value;
}

double
TimeWeightedAverage::integral(double time) const
{
    DVSNET_ASSERT(time >= lastTime_, "time must be monotonic");
    return area_ + value_ * (time - lastTime_);
}

double
TimeWeightedAverage::average(double time) const
{
    const double span = time - windowStart_;
    if (span <= 0.0)
        return value_;
    return integral(time) / span;
}

void
TimeWeightedAverage::resetWindow(double time)
{
    area_ += value_ * (time - lastTime_);  // close out, then discard
    area_ = 0.0;
    windowStart_ = time;
    lastTime_ = time;
}

} // namespace dvsnet
