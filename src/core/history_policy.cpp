#include "core/history_policy.hpp"

#include "common/fatal.hpp"

namespace dvsnet::core
{

HistoryDvsParams
HistoryDvsParams::thresholdSetting(int setting)
{
    // Table 2: TL_low/TL_high pairs I..VI; the congested bank and litmus
    // keep their Table 1 values.
    static const double lows[] = {0.20, 0.25, 0.30, 0.35, 0.40, 0.50};
    static const double highs[] = {0.30, 0.35, 0.40, 0.45, 0.50, 0.60};
    DVSNET_ASSERT(setting >= 0 && setting < 6,
                  "threshold setting must be in [0, 6)");
    HistoryDvsParams p;
    p.tlLow = lows[setting];
    p.tlHigh = highs[setting];
    return p;
}

namespace
{

/**
 * Effective Ewma weight: our Ewma computes (w*current + past)/(w+1), so
 * the history-emphasizing reading of Eq. 5 maps to w = 1/W.
 */
double
effectiveWeight(const HistoryDvsParams &params)
{
    return params.weightOnHistory ? 1.0 / params.weight : params.weight;
}

} // namespace

HistoryDvsPolicy::HistoryDvsPolicy(const HistoryDvsParams &params)
    : params_(params),
      luEwma_(effectiveWeight(params)),
      buEwma_(effectiveWeight(params))
{
    DVSNET_ASSERT(params.tlLow < params.tlHigh,
                  "TL_low must be below TL_high");
    DVSNET_ASSERT(params.thLow < params.thHigh,
                  "TH_low must be below TH_high");
}

DvsAction
HistoryDvsPolicy::decide(const PolicyInput &input)
{
    // Eq. 5 for both measures.
    const double lu = luEwma_.update(input.linkUtil);
    const double bu = buEwma_.update(input.bufferUtil);

    // Congestion litmus selects the threshold bank.
    const bool congested = bu >= params_.bCongested;
    const double tLow = congested ? params_.thLow : params_.tlLow;
    const double tHigh = congested ? params_.thHigh : params_.tlHigh;

    // Algorithm 1: LU below T_low -> next lower level (slower); above
    // T_high -> next higher level (faster); otherwise do nothing.
    if (lu < tLow)
        return DvsAction::Slower;
    if (lu > tHigh)
        return DvsAction::Faster;
    return DvsAction::Hold;
}

void
HistoryDvsPolicy::setLightBank(double tlLow, double tlHigh)
{
    DVSNET_ASSERT(tlLow < tlHigh, "TL_low must be below TL_high");
    params_.tlLow = tlLow;
    params_.tlHigh = tlHigh;
}

} // namespace dvsnet::core
