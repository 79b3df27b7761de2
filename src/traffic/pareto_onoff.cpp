#include "traffic/pareto_onoff.hpp"

#include <algorithm>

#include "common/fatal.hpp"

namespace dvsnet::traffic
{

OnOffSourceBank::OnOffSourceBank(sim::Kernel &kernel,
                                 std::int32_t numSources,
                                 double aggregateRate,
                                 const OnOffParams &params, Rng rng,
                                 EmitFn emit)
    : kernel_(kernel),
      numSources_(numSources),
      params_(params),
      rng_(rng),
      emit_(std::move(emit)),
      onUntil_(static_cast<std::size_t>(numSources), 0)
{
    DVSNET_ASSERT(numSources > 0, "need at least one source");
    DVSNET_ASSERT(aggregateRate > 0, "aggregate rate must be positive");
    DVSNET_ASSERT(params.onShape > 1.0 && params.offShape > 1.0,
                  "Pareto shapes must exceed 1 for finite means");

    onRate_ = aggregateRate /
              (static_cast<double>(numSources) * params.dutyCycle());
    onLocation_ = Rng::paretoLocationForMean(params.meanOnCycles,
                                             params.onShape);
    offLocation_ = Rng::paretoLocationForMean(params.meanOffCycles,
                                              params.offShape);
}

Tick
OnOffSourceBank::cyclesToGap(double cycles) const
{
    const double ticks = cycles * static_cast<double>(kRouterClockPeriod);
    return std::max<Tick>(static_cast<Tick>(ticks + 0.5), 1);
}

void
OnOffSourceBank::start()
{
    for (std::int32_t s = 0; s < numSources_; ++s) {
        // Approximate stationarity: each source starts ON with
        // probability equal to the duty cycle.
        toggle(s, rng_.bernoulli(params_.dutyCycle()));
    }
}

void
OnOffSourceBank::toggle(std::int32_t source, bool nowOn)
{
    if (stopped_)
        return;
    const auto idx = static_cast<std::size_t>(source);

    if (nowOn) {
        const double lenCycles = rng_.pareto(onLocation_, params_.onShape);
        const Tick len = cyclesToGap(lenCycles);
        onUntil_[idx] = kernel_.now() + len;

        // First emission of this ON period.  It is queued before the
        // toggle-off, so one landing exactly on onUntil still fires; a
        // later one would find the source OFF and is never queued.
        const Tick gap = cyclesToGap(rng_.exponential(1.0 / onRate_));
        if (gap <= len)
            kernel_.after(gap, [this, source] { emitLoop(source); });
        kernel_.after(len, [this, source] { toggle(source, false); });
    } else {
        const double lenCycles =
            rng_.pareto(offLocation_, params_.offShape);
        kernel_.after(cyclesToGap(lenCycles),
                      [this, source] { toggle(source, true); });
    }
}

void
OnOffSourceBank::emitLoop(std::int32_t source)
{
    if (stopped_)
        return;
    const auto idx = static_cast<std::size_t>(source);
    DVSNET_ASSERT(kernel_.now() <= onUntil_[idx],
                  "emission queued past its ON period: source=", source,
                  " now=", kernel_.now(), " onUntil=", onUntil_[idx]);

    emit_();
    ++emitted_;
    // Queued after the toggle-off, which fires first on a tie: only an
    // emission strictly inside the ON period is queued.
    const Tick next =
        kernel_.now() + cyclesToGap(rng_.exponential(1.0 / onRate_));
    if (next < onUntil_[idx])
        kernel_.at(next, [this, source] { emitLoop(source); });
}

} // namespace dvsnet::traffic
