/**
 * @file
 * Simulator run loop.
 */

#include "sim/simulator.hh"

#include "sim/kernel.hh"

namespace altoc::sim {

void
Simulator::kernelRequestStop()
{
    kernel_->requestStop();
}

Tick
Simulator::run(Tick until)
{
    stopRequested_ = false;
    // Fused peek + pop: one heap pass per event. now_ is updated by
    // the queue before the callback runs, so now() stays correct
    // inside event handlers.
    while (!events_.empty() && !stopRequested_) {
        if (dispatchBefore(until) == kTickInf) {
            now_ = until;
            return now_;
        }
    }
    if (events_.empty() && until != kTickInf && now_ < until)
        now_ = until;
    return now_;
}

bool
Simulator::step()
{
    return dispatchBefore(kTickInf) != kTickInf;
}

} // namespace altoc::sim
