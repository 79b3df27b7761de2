#include "core/dynamic_threshold.hpp"

#include <algorithm>

#include "common/fatal.hpp"

namespace dvsnet::core
{

DynamicThresholdPolicy::DynamicThresholdPolicy(
    const DynamicThresholdParams &params)
    : params_(params), setting_(params.initialSetting)
{
    DVSNET_ASSERT(params.adaptPeriod > 0, "adapt period must be positive");
    DVSNET_ASSERT(params.initialSetting >= 0 && params.initialSetting < 6,
                  "initial setting must be a Table 2 index");
    DVSNET_ASSERT(params.buRelax < params.buTighten,
                  "relax bound must sit below tighten bound");

    HistoryDvsParams p = params_.base;
    const auto bank = HistoryDvsParams::thresholdSetting(setting_);
    p.tlLow = bank.tlLow;
    p.tlHigh = bank.tlHigh;
    inner_ = std::make_unique<HistoryDvsPolicy>(p);
}

DvsAction
DynamicThresholdPolicy::decide(const PolicyInput &input)
{
    buWindow_.add(input.bufferUtil);

    if (++windowsSinceAdapt_ >= params_.adaptPeriod) {
        const double avgBu = buWindow_.mean();
        int next = setting_;
        if (avgBu < params_.buRelax)
            next = std::min(setting_ + 1, 5);   // toward VI: more savings
        else if (avgBu > params_.buTighten)
            next = std::max(setting_ - 1, 0);   // toward I: more headroom
        if (next != setting_) {
            setting_ = next;
            ++settingChanges_;
            const auto bank =
                HistoryDvsParams::thresholdSetting(setting_);
            // Slide the light-load bank in place; EWMA history is kept.
            inner_->setLightBank(bank.tlLow, bank.tlHigh);
        }
        buWindow_.reset();
        windowsSinceAdapt_ = 0;
    }

    return inner_->decide(input);
}

} // namespace dvsnet::core
