#include "sim/kernel.hpp"

#include "common/fatal.hpp"

namespace dvsnet::sim
{

void
Kernel::at(Tick when, EventFn fn)
{
    DVSNET_ASSERT(when >= now_, "scheduling into the past: when=", when,
                  " now=", now_);
    queue_.schedule(when, std::move(fn));
}

void
Kernel::after(Tick delay, EventFn fn)
{
    queue_.schedule(now_ + delay, std::move(fn));
}

Tick
Kernel::run(Tick until)
{
    // A stop() requested before run() is entered is honored, not
    // discarded: the flag is checked (and consumed) at the loop top, so
    // a pre-run stop returns immediately at the current time with the
    // queue untouched.  The next run() proceeds normally.
    while (!stopRequested_ && !queue_.empty()) {
        const Tick next = queue_.nextTick();
        if (next > until) {
            now_ = until;
            return now_;
        }
        now_ = next;
        queue_.executeNext();
    }
    if (stopRequested_) {
        stopRequested_ = false;
        return now_;  // stopped: do not advance to the horizon
    }
    if (until != kTickNever && now_ < until)
        now_ = until;
    return now_;
}

} // namespace dvsnet::sim
