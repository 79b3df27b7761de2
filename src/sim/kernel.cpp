#include "sim/kernel.hpp"

namespace dvsnet::sim
{

Tick
Kernel::run(Tick until)
{
    // A stop() requested before run() is entered is honored, not
    // discarded: the flag is checked (and consumed) at the loop top, so
    // a pre-run stop returns immediately at the current time with the
    // queue untouched.  The next run() proceeds normally.
    //
    // One call takes each event, and only if it is due by `until`: a
    // separate peek must not move the queue's base tick, or an event
    // scheduled after a horizon stop, between the horizon and the next
    // pending event, would fall before the base.
    EventQueue::Event ev;
    while (!stopRequested_ && queue_.takeDue(until, ev)) {
        now_ = ev.when;
        ev.fn();
    }
    if (stopRequested_) {
        stopRequested_ = false;
        return now_;  // stopped: do not advance to the horizon
    }
    // Horizon hit (an event is pending past it) or queue drained.
    if (!queue_.empty() || (until != kTickNever && now_ < until))
        now_ = until;
    return now_;
}

} // namespace dvsnet::sim
