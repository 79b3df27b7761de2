/**
 * @file
 * Dynamic threshold adaptation — the extension the paper sketches in
 * Section 4.4.2: "This points to the possibility of dynamically
 * adjusting threshold settings to trade off power savings and
 * latency/throughput performance."
 *
 * The policy wraps Algorithm 1 and slides along Table 2's setting ladder
 * (I..VI): when the downstream pressure stays low it adopts a more
 * aggressive setting (more savings); when pressure builds it retreats to
 * a gentler one (more headroom).  Pressure is judged from the same BU
 * prediction the litmus uses, so no new hardware measure is needed.
 */

#pragma once

#include <memory>

#include "common/stats.hpp"
#include "core/history_policy.hpp"
#include "core/policy.hpp"

namespace dvsnet::core
{

/** Tuning for the threshold adaptation loop. */
struct DynamicThresholdParams
{
    /** Base parameters (litmus/congested bank are kept). */
    HistoryDvsParams base;

    /** Windows between setting re-evaluations. */
    std::uint32_t adaptPeriod = 16;

    /** Slide toward VI (aggressive) when avg BU is below this. */
    double buRelax = 0.05;

    /** Slide toward I (gentle) when avg BU is above this. */
    double buTighten = 0.20;

    /** Initial Table 2 setting index (0 = I ... 5 = VI). */
    int initialSetting = 2;  // III == Table 1 defaults
};

/** Algorithm 1 with a self-adjusting TL threshold bank. */
class DynamicThresholdPolicy final : public DvsPolicy
{
  public:
    explicit DynamicThresholdPolicy(
        const DynamicThresholdParams &params = {});

    DvsAction decide(const PolicyInput &input) override;

    /** Current Table 2 setting index (0..5). */
    int setting() const { return setting_; }

    /** Times the setting moved (for diagnostics). */
    std::uint64_t settingChanges() const { return settingChanges_; }

  private:
    DynamicThresholdParams params_;
    int setting_;
    std::unique_ptr<HistoryDvsPolicy> inner_;
    RunningStat buWindow_;
    std::uint32_t windowsSinceAdapt_ = 0;
    std::uint64_t settingChanges_ = 0;
};

} // namespace dvsnet::core
