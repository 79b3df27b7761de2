/**
 * @file
 * DVS policy interface and the static-level baseline policy.
 *
 * A policy is evaluated once per history window for each output port.  It
 * sees the window's measured link utilization (Eq. 2) and downstream
 * input-buffer utilization (Eq. 3) and prescribes a single-step level
 * change: "whether to increase link voltage and frequency to next higher
 * level, decrease link voltage and frequency to next lower level, or do
 * nothing" (Section 3.2).
 */

#pragma once

#include <cstddef>
#include <memory>

namespace dvsnet::core
{

/** Window measurements fed to a policy. */
struct PolicyInput
{
    double linkUtil = 0.0;     ///< LU_current, [0, 1]
    double bufferUtil = 0.0;   ///< BU_current, [0, 1]
    std::size_t level = 0;     ///< current channel level (0 = fastest)
};

/** Prescribed action for the coming window. */
enum class DvsAction
{
    Faster,  ///< step to the next higher frequency/voltage level
    Slower,  ///< step to the next lower frequency/voltage level
    Hold,    ///< stay
};

/** Per-port voltage-scaling policy. */
class DvsPolicy
{
  public:
    virtual ~DvsPolicy() = default;

    /** Evaluate one history window. */
    virtual DvsAction decide(const PolicyInput &input) = 0;
};

/** Baseline: drives every link toward one fixed level and stays there. */
class StaticLevelPolicy final : public DvsPolicy
{
  public:
    explicit StaticLevelPolicy(std::size_t targetLevel)
        : target_(targetLevel)
    {}

    DvsAction decide(const PolicyInput &input) override
    {
        if (input.level < target_)
            return DvsAction::Slower;
        if (input.level > target_)
            return DvsAction::Faster;
        return DvsAction::Hold;
    }

  private:
    std::size_t target_;
};

} // namespace dvsnet::core
