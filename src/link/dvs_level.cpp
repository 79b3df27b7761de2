#include "link/dvs_level.hpp"

#include <cmath>

#include "common/fatal.hpp"

namespace dvsnet::link
{

namespace
{

// Published per-link endpoint powers (Section 4.2): 200 mW at
// 1 GHz / 2.5 V, 23.6 mW at 125 MHz / 0.9 V.  These two literals anchor
// the P(V, f) fit; everything else reads them back through the table.
constexpr double kStandardMaxLinkPowerW = 0.200;
constexpr double kStandardMinLinkPowerW = 0.0236;

const DvsLevelTable &
cachedStandard10()
{
    static const DvsLevelTable table = DvsLevelTable::standard10();
    return table;
}

} // namespace

double
maxLinkPowerW()
{
    const DvsLevelTable &table = cachedStandard10();
    return table.level(table.fastest()).powerW;
}

double
minLinkPowerW()
{
    const DvsLevelTable &table = cachedStandard10();
    return table.level(table.slowest()).powerW;
}

DvsLevelTable
DvsLevelTable::standard10()
{
    // Geometric frequency ladder: 1 GHz .. 125 MHz in 9 equal *ratio*
    // steps of 8^(1/9) ~ 1.26.  The paper gives only the endpoints; a
    // geometric ladder is the spacing consistent with its own policy:
    // Algorithm 1's hysteresis band TL_high/TL_low = 0.4/0.3 = 1.33
    // exceeds the per-step ratio, so a steady load has a stable level at
    // every rung (an arithmetic ladder's bottom step, 222 -> 125 MHz =
    // 1.78x, would oscillate by construction).  Voltage remains linear
    // in frequency between the published endpoints.
    std::vector<DvsLevel> levels(kNumDvsLevels);
    const double ratio = std::pow(
        kMinLinkFrequencyHz / kMaxLinkFrequencyHz,
        1.0 / static_cast<double>(kNumDvsLevels - 1));
    double f = kMaxLinkFrequencyHz;
    for (auto &lvl : levels) {
        lvl.frequencyHz = f;
        lvl.voltage = kMinLinkVoltage +
            (f - kMinLinkFrequencyHz) /
            (kMaxLinkFrequencyHz - kMinLinkFrequencyHz) *
            (kMaxLinkVoltage - kMinLinkVoltage);
        f *= ratio;
    }
    levels.front().powerW = kStandardMaxLinkPowerW;
    levels.back().frequencyHz = kMinLinkFrequencyHz;  // exact endpoint
    levels.back().voltage = kMinLinkVoltage;
    levels.back().powerW = kStandardMinLinkPowerW;
    return fromPoints(std::move(levels));
}

DvsLevelTable
DvsLevelTable::fromPoints(std::vector<DvsLevel> levels)
{
    DVSNET_ASSERT(levels.size() >= 2, "need at least two levels");
    for (std::size_t i = 1; i < levels.size(); ++i) {
        DVSNET_ASSERT(levels[i].frequencyHz < levels[i - 1].frequencyHz,
                      "frequencies must be strictly decreasing");
        DVSNET_ASSERT(levels[i].voltage <= levels[i - 1].voltage,
                      "voltages must be non-increasing");
    }

    DvsLevelTable table;
    table.levels_ = std::move(levels);
    table.fitCoefficients();
    for (auto &lvl : table.levels_) {
        if (lvl.powerW <= 0.0)
            lvl.powerW = table.powerAt(lvl.voltage, lvl.frequencyHz);
        lvl.period = static_cast<Tick>(kTicksPerSecond / lvl.frequencyHz +
                                       0.5);
        DVSNET_ASSERT(lvl.period > 0, "level frequency too high");
    }
    return table;
}

void
DvsLevelTable::fitCoefficients()
{
    const DvsLevel &hi = levels_.front();
    const DvsLevel &lo = levels_.back();
    DVSNET_ASSERT(hi.powerW > 0 && lo.powerW > 0,
                  "endpoint powers required for the fit");
    const double xHi = hi.voltage * hi.voltage * hi.frequencyHz;
    const double xLo = lo.voltage * lo.voltage * lo.frequencyHz;
    DVSNET_ASSERT(xHi > xLo, "degenerate fit");
    coeffA_ = (hi.powerW - lo.powerW) / (xHi - xLo);
    coeffB_ = lo.powerW - coeffA_ * xLo;
    DVSNET_ASSERT(coeffA_ > 0 && coeffB_ >= 0,
                  "fit produced non-physical coefficients");
}

double
DvsLevelTable::powerAt(double voltage, double frequencyHz) const
{
    return coeffA_ * voltage * voltage * frequencyHz + coeffB_;
}

} // namespace dvsnet::link
