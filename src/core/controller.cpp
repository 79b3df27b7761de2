#include "core/controller.hpp"

#include "common/fatal.hpp"

namespace dvsnet::core
{

PortDvsController::PortDvsController(sim::Kernel &kernel,
                                     link::DvsChannel *channel,
                                     router::Router *upstreamRouter,
                                     PortId outPort,
                                     std::unique_ptr<DvsPolicy> policy,
                                     Cycle windowCycles,
                                     Cycle cooldownWindows)
    : kernel_(kernel),
      channel_(channel),
      router_(upstreamRouter),
      outPort_(outPort),
      policy_(std::move(policy)),
      windowCycles_(windowCycles),
      cooldownWindows_(cooldownWindows)
{
    DVSNET_ASSERT(channel_ != nullptr && router_ != nullptr,
                  "controller needs a channel and a router");
    DVSNET_ASSERT(policy_ != nullptr, "controller needs a policy");
    DVSNET_ASSERT(windowCycles > 0, "history window must be positive");
}

void
PortDvsController::start()
{
    kernel_.after(cyclesToTicks(windowCycles_), [this] { evaluate(); });
}

void
PortDvsController::evaluate()
{
    const Tick now = kernel_.now();
    ++stats_.windows;

    // Window measurements: the Fig. 6 counters.
    lastLu_ = channel_->takeUtilizationWindow(now);
    lastBu_ = router_->takeBufferUtilWindow(outPort_, now);

    PolicyInput input;
    input.linkUtil = lastLu_;
    input.bufferUtil = lastBu_;
    input.level = channel_->level();

    const DvsAction action = policy_->decide(input);

    // Post-transition cooldown (0 by default = Algorithm 1 verbatim):
    // when a transition completes, hold for `cooldownWindows_` windows
    // before stepping again, damping transition thrash on noisy loads.
    const bool stable = channel_->stable();
    if (stable && !wasStable_)
        cooldownLeft_ = cooldownWindows_;
    else if (stable && cooldownLeft_ > 0)
        --cooldownLeft_;
    wasStable_ = stable;
    const bool mayStep = stable && cooldownLeft_ == 0;

    switch (action) {
      case DvsAction::Hold:
        ++stats_.holds;
        break;
      case DvsAction::Faster:
        if (mayStep && channel_->requestStep(/*faster=*/true, now)) {
            ++stats_.stepsFaster;
        } else {
            ++stats_.skippedBusy;
        }
        break;
      case DvsAction::Slower:
        if (mayStep && channel_->requestStep(/*faster=*/false, now)) {
            ++stats_.stepsSlower;
        } else {
            ++stats_.skippedBusy;
        }
        break;
    }

    kernel_.after(cyclesToTicks(windowCycles_), [this] { evaluate(); });
}

} // namespace dvsnet::core
