/**
 * @file
 * The paper's history-based DVS policy (Section 3.2, Algorithm 1).
 *
 * Each window, the policy folds the measured link utilization and input
 * buffer utilization into exponential weighted averages (Eq. 5, W = 3 so
 * the hardware is a shift-and-add).  The predicted buffer utilization is
 * the congestion litmus: below B_congested the light-load threshold bank
 * (TL_low, TL_high) applies; above it the congested bank (TH_low,
 * TH_high), whose higher values scale more aggressively because "link
 * delay can be hidden" when flits would stall downstream anyway.
 * Predicted link utilization below T_low steps the link slower, above
 * T_high steps it faster, otherwise it holds.
 */

#pragma once

#include "common/stats.hpp"
#include "core/policy.hpp"

namespace dvsnet::core
{

/** Table 1 defaults (the paper's tuned configuration). */
struct HistoryDvsParams
{
    double weight = 3.0;       ///< W: EWMA weight

    /**
     * Which side Eq. 5's weight W emphasizes.  As printed, the equation
     * weights the *current* window (alpha = W/(W+1) = 0.75), which
     * barely filters anything; the paper's description ("filters out
     * short-term traffic fluctuations") and its reported stability are
     * only consistent with W emphasizing *history*:
     *
     *     Par_predict = (Par_current + W * Par_past) / (W + 1)
     *
     * Both readings are the same W=3 shift-and-add circuit.  The
     * history reading is the default (it reproduces the paper's
     * power/latency trade-off; the literal reading thrashes levels on
     * bursty traffic — see EXPERIMENTS.md); set false for the literal
     * printed form.
     */
    bool weightOnHistory = true;
    double bCongested = 0.5;   ///< BU litmus threshold
    double tlLow = 0.3;        ///< TL_low: light-load slow-down threshold
    double tlHigh = 0.4;       ///< TL_high: light-load speed-up threshold
    double thLow = 0.6;        ///< TH_low: congested slow-down threshold
    double thHigh = 0.7;       ///< TH_high: congested speed-up threshold

    /** Table 2 threshold settings I..VI (index 0..5) for the trade-off
     *  study; only TL_low/TL_high differ. */
    static HistoryDvsParams thresholdSetting(int setting);
};

/** Algorithm 1. */
class HistoryDvsPolicy final : public DvsPolicy
{
  public:
    explicit HistoryDvsPolicy(const HistoryDvsParams &params = {});

    DvsAction decide(const PolicyInput &input) override;

    /** Latest predicted link utilization (LU_predicted). */
    double predictedLinkUtil() const { return luEwma_.value(); }

    /** Latest predicted buffer utilization (BU_predicted). */
    double predictedBufferUtil() const { return buEwma_.value(); }

    const HistoryDvsParams &params() const { return params_; }

    /**
     * Re-point the light-load threshold bank (TL_low, TL_high) without
     * disturbing the EWMA history — used by the dynamic-threshold
     * extension to slide along Table 2's settings at runtime.
     */
    void setLightBank(double tlLow, double tlHigh);

  private:
    HistoryDvsParams params_;
    Ewma luEwma_;
    Ewma buEwma_;
};

} // namespace dvsnet::core
