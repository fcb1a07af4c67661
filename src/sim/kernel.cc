/**
 * @file
 * Kernel implementation: the serial (tick, region, seq) merge loop
 * and the barrier-free parallel executor for star topologies.
 *
 * Parallel phase (runParallel). The hub region runs on the calling
 * thread, which steps its clock before each hub event: it evaluates
 * the stop flag, the audit count and the parallel gate, then
 * publishes hubClock_ = T, the hub's next event tick ("every hub
 * event below T has been dispatched") -- in steps of at least a
 * quarter lookahead, and exactly T before it waits, since a lower
 * clock is always safe. A cross-region event is only
 * ever sent by a hub event at tick >= T, and lands at least one
 * lookahead later, so every other region may dispatch below
 * horizon() = T + lookahead (clamped to the run bound) without
 * waiting for anything else. The hub pushes its sends into the
 * destination region's ring before it publishes a later clock, so a
 * region that reads the clock (acquire) and then drains its ring has
 * every event below the horizon in its queue.
 *
 * The non-hub regions are claimable work. Each has a home thread; a
 * thread keeps a home region claimed while it has work below the
 * horizon, dispatching one lookahead stretch at a time, and when it
 * is blocked on the hub clock claims the furthest-behind unclaimed
 * region with work for one stretch. With nothing to claim it waits
 * holding its home region and keeps draining its ring (after a long
 * wait, or at once in a plan with more threads than cores, it hands
 * the region back, ring drained, and naps) -- together
 * with the hub draining a region it can claim itself, that is why a
 * full ring can never deadlock the hub. The calling thread dispatches
 * a hub event at T only while T < slowestDone() + leadCap_; while
 * capped it claims regions too, and runs the idle work when there is
 * nothing to claim. A claim is an acquire CAS and a release a release
 * store, so each region -- queue, ring consumer side, simulated
 * state -- is touched by one thread at a time, in order.
 *
 * Exactness: each region dispatches exactly the (tick, seq) sequence
 * the serial merge loop gives it, because nothing it dispatches below
 * its horizon can be preceded by an event that arrives later. Events
 * of different regions commute below the lookahead, so which thread
 * ran which stretch, and in what interleaving, is unobservable. The
 * phase ends when the gate closes (see ParallelGate), the hub has
 * nothing left and every region drained, or a stop or audit violation
 * is seen; the calling thread then drains the rings and the serial
 * merge loop continues from wherever each region stopped.
 */

#include "sim/kernel.hh"

#include <algorithm>
#include <thread>

#include "common/host_clock.hh"

namespace altoc::sim {

namespace {

/** Polite busy-wait hint for the spins on the hub clock and the lead
 *  cap (a stretch is short -- tens of microseconds of host time on a
 *  4 x 64-core rack -- so parking on a futex would cost more than
 *  the wait). */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::this_thread::yield();
#endif
}

/**
 * Three-stage wait: pause-spin while the wait is short (the common
 * case on a dedicated core -- the hub clock moves every few
 * microseconds), then yield, then sleep in short naps. On an
 * oversubscribed host (more threads than cores, or a parallel batch
 * sharing the machine) a thread that is waiting thus gives its core
 * to one that holds work -- yielding alone only helps a thread
 * queued on the same core. Results never depend on timing -- this is
 * purely a progress/efficiency knob.
 */
class SpinWait
{
  public:
    SpinWait() = default;
    /** @p napAtOnce skips the spin and yield stages. */
    explicit SpinWait(bool napAtOnce) : spins_(napAtOnce ? kYieldLimit : 0)
    {
    }

    /** True once the wait has reached its sleeping stage. */
    bool napping() const { return spins_ >= kYieldLimit; }

    void
    pause()
    {
        ++spins_;
        if (spins_ < kSpinLimit)
            cpuRelax();
        else if (spins_ < kYieldLimit)
            std::this_thread::yield();
        else
            hostNapUs(kNapUs);
    }

  private:
    static constexpr unsigned kSpinLimit = 256;
    static constexpr unsigned kYieldLimit = kSpinLimit + 64;
    static constexpr unsigned kNapUs = 20;
    unsigned spins_ = 0;
};

/** Most idle-work chunks the hub runs per step of its clock. */
constexpr unsigned kIdleChunksPerStep = 64;

/** a + b, saturating at kTickInf. */
inline Tick
satAdd(Tick a, Tick b)
{
    return a >= kTickInf - b ? kTickInf : a + b;
}

} // namespace

Kernel::~Kernel() = default;

Simulator &
Kernel::addRegion()
{
    regions_.push_back(std::make_unique<Simulator>());
    crossCtr_.push_back(0);
    auditSeen_.push_back(0);
    if (regions_.size() > 1) {
        // Multi-region worlds route every region's requestStop()
        // through the kernel flag; a lone region keeps the classic
        // self-contained wiring (and run() delegates wholesale).
        for (unsigned r = 0; r < regions_.size(); ++r) {
            regions_[r]->kernel_ = this;
            regions_[r]->regionIdx_ = r;
        }
    }
    return *regions_.back();
}

bool
Kernel::idle() const
{
    for (const auto &s : regions_) {
        if (!s->events_.empty())
            return false;
    }
    return true;
}

Tick
Kernel::now() const
{
    Tick t = 0;
    for (const auto &s : regions_)
        t = std::max(t, s->now_);
    return t;
}

std::uint64_t
Kernel::eventsExecuted() const
{
    std::uint64_t n = 0;
    for (const auto &s : regions_)
        n += s->events_.executed();
    return n;
}

Tick
Kernel::runMergeLoop(Tick until)
{
    const unsigned n = numRegions();
    front_.assign(n, kTickInf);
    for (unsigned r = 0; r < n; ++r)
        front_[r] = regions_[r]->events_.peekTime();
    bool stopped = false;
    for (;;) {
        if (stopFlag_.load(std::memory_order_acquire)) {
            stopped = true;
            break;
        }
        unsigned best = n;
        Tick bw = kTickInf;
        for (unsigned r = 0; r < n; ++r) {
            if (front_[r] < bw) {
                bw = front_[r];
                best = r;
            }
        }
        if (best == n || bw > until)
            break;
        regions_[best]->dispatchBefore(kTickInf);
        front_[best] = regions_[best]->events_.peekTime();
    }
    front_.clear();
    // Final-time semantics match Simulator::run: a run bounded by
    // `until` ends exactly there unless it was stopped early, in
    // which case time holds at the last dispatched event. Every
    // region clock is synchronized to the global final time so
    // per-region elapsed-time stats agree, as they did when all
    // components shared one clock.
    Tick fin = 0;
    for (const auto &s : regions_)
        fin = std::max(fin, s->now_);
    if (!stopped && until != kTickInf && fin < until)
        fin = until;
    for (auto &s : regions_)
        s->now_ = fin;
    return fin;
}

Tick
Kernel::run(Tick until)
{
    altoc_assert(!regions_.empty(), "kernel has no regions");
    if (numRegions() == 1)
        return regions_[0]->run(until);
    stopFlag_.store(false, std::memory_order_relaxed);
    return runMergeLoop(until);
}

Tick
Kernel::runSharded(const ShardPlan &plan, Tick until, ParallelGate gate,
                   IdleWork idle, StretchHook stretch)
{
    windows_ = 0;
    shardStats_.clear();
    windowsNs_ = 0;
    if (numRegions() <= 1 || plan.threads <= 1)
        return run(until);
    altoc_assert(plan.home.size() == regions_.size(),
                 "shard plan does not cover every region");
    altoc_assert(plan.hub < numRegions(), "shard plan hub out of range");
    for (unsigned h : plan.home) {
        altoc_assert(h < plan.threads,
                     "shard plan homes a region past the thread count");
    }
    altoc_assert(plan.lookahead >= 1,
                 "sharded execution needs a positive lookahead");
    stopFlag_.store(false, std::memory_order_relaxed);
    stretchHook_ = std::move(stretch);
    end_ = until == kTickInf ? kTickInf : until + 1;
    const std::uint64_t t0 = hostNowNs();
    runParallel(plan, gate, idle);
    windowsNs_ = hostNowNs() - t0;
    stretchHook_ = {};
    return runMergeLoop(until);
}

void
Kernel::runParallel(const ShardPlan &plan, ParallelGate &gate,
                    IdleWork &idle)
{
    hub_ = plan.hub;
    lookahead_ = plan.lookahead;
    leadCap_ = 2 * plan.lookahead;
    const unsigned cores = std::thread::hardware_concurrency();
    oversubscribed_ = cores != 0 && plan.threads > cores;
    slots_ = std::vector<RegionSlot>(numRegions());
    spokes_.clear();
    for (unsigned r = 0; r < numRegions(); ++r) {
        auditSeen_[r] = 0;
#if ALTOC_AUDIT_ENABLED
        if (const Auditor *a = regions_[r]->auditor_)
            auditSeen_[r] = a->violationCount();
#endif
        if (r == hub_)
            continue;
        spokes_.push_back(r);
        RegionSlot &slot = slots_[r];
        slot.home = plan.home[r];
        slot.next.store(regions_[r]->events_.peekTime(),
                        std::memory_order_relaxed);
        slot.ring = std::make_unique<SpscRing<CrossEvent>>(kRingSlots);
    }
    threadSlots_ = std::vector<ThreadSlot>(plan.threads);
    auditViolations_.store(0, std::memory_order_relaxed);
    hubClock_.store(0, std::memory_order_relaxed);
    closed_.store(false, std::memory_order_relaxed);
    parallelActive_ = true;

    std::vector<std::thread> threads;
    threads.reserve(plan.threads - 1);
    for (unsigned t = 1; t < plan.threads; ++t)
        threads.emplace_back([this, t] { workerLoop(t); });

    runHub(gate, idle);

    closed_.store(true, std::memory_order_release);
    for (auto &t : threads)
        t.join();
    parallelActive_ = false;
    // Events the hub sent that no holder drained yet: the serial loop
    // needs them in their queues.
    for (unsigned r : spokes_)
        drainRing(r, 0);
    shardStats_.assign(plan.threads, ShardStats{});
    for (unsigned t = 0; t < plan.threads; ++t)
        shardStats_[t] = threadSlots_[t].stats;
    threadSlots_.clear();
    slots_.clear();
}

Tick
Kernel::horizon() const
{
    const Tick c = hubClock_.load(std::memory_order_acquire);
    const Tick h = c >= kTickInf - lookahead_ ? kTickInf : c + lookahead_;
    return std::min(h, end_);
}

Tick
Kernel::slowestDone() const
{
    const Tick h = horizon();
    Tick slowest = kTickInf;
    for (unsigned r : spokes_) {
        const RegionSlot &slot = slots_[r];
        Tick d = slot.done.load(std::memory_order_relaxed);
        // An unclaimed region with an empty ring holds all its events
        // in its queue, and anything the hub sends it lands at or past
        // the horizon: it is done up to both, whoever updated it last.
        if (slot.holder.load(std::memory_order_relaxed) == kFree &&
            slot.ring->empty()) {
            d = std::max(
                d, std::min(slot.next.load(std::memory_order_relaxed), h));
        }
        slowest = std::min(slowest, d);
    }
    return slowest;
}

void
Kernel::runHub(ParallelGate &gate, IdleWork &idle)
{
    Simulator &hub = *regions_[hub_];
    ShardStats &st = threadSlots_[0].stats;
    // Publishing every hub event would bounce the clock's cache line
    // to the waiting threads at every event; a quarter lookahead keeps
    // the horizon fresh at a few stores per lookahead.
    const Tick quantum = std::max<Tick>(1, lookahead_ / 4);
    Tick published = 0;
    std::uint64_t lastStep = ~std::uint64_t{0};
    Tick capBase = 0;
    const std::uint64_t phaseStart = hostNowNs();
    std::uint64_t busyFrom = phaseStart;
    auto publish = [&](Tick t) {
        if (t != published) {
            hubClock_.store(t, std::memory_order_release);
            published = t;
        }
    };
    // Wait (claiming regions, else idling) until @p ready holds.
    auto help = [&](auto ready) {
        st.busyNs += hostNowNs() - busyFrom;
        SpinWait wait;
        while (!ready()) {
            if (stopFlag_.load(std::memory_order_acquire))
                break;
            if (helpOnce())
                continue;
            if (idle) {
                const std::uint64_t i0 = hostNowNs();
                const bool more = idle();
                st.idleWorkNs += hostNowNs() - i0;
                if (more)
                    continue;
            }
            wait.pause();
        }
        busyFrom = hostNowNs();
    };
    for (;;) {
        if (stopFlag_.load(std::memory_order_acquire))
            break;
#if ALTOC_AUDIT_ENABLED
        reconcileAudit(hub_);
        if (auditViolations_.load(std::memory_order_acquire) != 0)
            break;
#endif
        Tick t = hub.events_.peekTime();
        if (t >= end_)
            t = kTickInf;
        if (gate && !gate())
            break;
        if (t == kTickInf) {
            publish(kTickInf);
            // The hub is done: help the regions drain to the bound.
            help([this] { return allDrained(); });
            break;
        }
        if (t >= published + quantum)
            publish(t);
        const std::uint64_t step = t / lookahead_;
        if (step != lastStep) {
            ++windows_;
            lastStep = step;
            // Once per step, run the idle work until it is dry (or a
            // bounded number of chunks), so what it consumes -- a
            // rack's observation logs -- cannot pile up while the
            // caller is busy dispatching.
            if (idle) {
                const std::uint64_t i0 = hostNowNs();
                for (unsigned c = 0; c < kIdleChunksPerStep && idle(); ++c) {
                }
                const std::uint64_t i1 = hostNowNs();
                st.idleWorkNs += i1 - i0;
                st.busyNs += i0 - busyFrom;
                busyFrom = i1;
            }
        }
        if (t >= satAdd(capBase, leadCap_)) {
            capBase = slowestDone();
            if (t >= satAdd(capBase, leadCap_)) {
                publish(t);
                help([&] {
                    capBase = slowestDone();
                    return t < satAdd(capBase, leadCap_);
                });
                if (stopFlag_.load(std::memory_order_acquire))
                    break;
            }
        }
        hub.dispatchBefore(kTickInf);
        ++st.events;
    }
    const std::uint64_t phaseEnd = hostNowNs();
    st.busyNs += phaseEnd - busyFrom;
    st.waitNs = phaseEnd - phaseStart - st.busyNs - st.idleWorkNs;
}

bool
Kernel::allDrained() const
{
    for (unsigned r : spokes_) {
        const RegionSlot &slot = slots_[r];
        if (slot.holder.load(std::memory_order_acquire) != kFree ||
            slot.next.load(std::memory_order_relaxed) < end_ ||
            !slot.ring->empty())
            return false;
    }
    return true;
}

bool
Kernel::helpOnce()
{
    const Tick h = horizon();
    const unsigned r = claimNext(0, h);
    if (r == kFree)
        return false;
    advance(r, 0, h);
    release(r);
    return true;
}

void
Kernel::workerLoop(unsigned self)
{
    ShardStats &st = threadSlots_[self].stats;
    const std::uint64_t t0 = hostNowNs();
    unsigned held = kFree;
    // With more threads than cores a spinning worker takes a core from
    // a thread that holds work (at worst the hub's); there a worker
    // with nothing to do hands its region back and naps at once.
    const bool napAtOnce = oversubscribed_;
    SpinWait wait(napAtOnce);
    while (!closed_.load(std::memory_order_acquire)) {
        bool worked = false;
        held = spokeStep(self, held, worked);
        if (worked) {
            wait = SpinWait(napAtOnce);
            continue;
        }
        // A long wait sleeps; the region goes back first, so the hub
        // sees its progress and other threads can claim it. Only with
        // its ring drained: a holder never leaves events behind.
        if (held != kFree && wait.napping() && slots_[held].ring->empty()) {
            release(held);
            held = kFree;
        }
        wait.pause();
    }
    if (held != kFree)
        release(held);
    st.waitNs = hostNowNs() - t0 - st.busyNs;
}

unsigned
Kernel::spokeStep(unsigned self, unsigned held, bool &worked)
{
    const Tick h = horizon();
    if (held == kFree) {
        held = claimNext(self, h);
        worked = held != kFree;
        return held;
    }
    RegionSlot &slot = slots_[held];
    if (advance(held, self, h)) {
        worked = true;
        if (slot.home == self || !homeWaiting(self, h))
            return held;
        // A borrowed region goes back as soon as a home region of
        // ours has work and nobody runs it.
        release(held);
        return kFree;
    }
    // Blocked on the hub clock.
    const unsigned other = claimNext(self, h);
    if (other != kFree) {
        release(held);
        worked = true;
        return other;
    }
    // Nothing else to do: keep the home region and its ring drained
    // while the hub advances -- unless the hub is done, when blocked
    // means finished.
    if (slot.home == self &&
        hubClock_.load(std::memory_order_acquire) != kTickInf)
        return held;
    release(held);
    return kFree;
}

bool
Kernel::hasWork(const RegionSlot &slot, Tick horizon)
{
    return slot.next.load(std::memory_order_relaxed) < horizon ||
           !slot.ring->empty();
}

bool
Kernel::homeWaiting(unsigned self, Tick horizon) const
{
    for (unsigned r : spokes_) {
        const RegionSlot &slot = slots_[r];
        if (slot.home == self &&
            slot.holder.load(std::memory_order_relaxed) == kFree &&
            hasWork(slot, horizon))
            return true;
    }
    return false;
}

unsigned
Kernel::claimNext(unsigned self, Tick horizon)
{
    unsigned best = kFree;
    Tick bestDone = kTickInf;
    for (unsigned r : spokes_) {
        RegionSlot &slot = slots_[r];
        if (slot.holder.load(std::memory_order_relaxed) != kFree ||
            !hasWork(slot, horizon))
            continue;
        if (slot.home == self) {
            if (tryClaim(r, self))
                return r;
            continue;
        }
        const Tick d = slot.done.load(std::memory_order_relaxed);
        if (best == kFree || d < bestDone) {
            best = r;
            bestDone = d;
        }
    }
    if (best != kFree && tryClaim(best, self))
        return best;
    return kFree;
}

bool
Kernel::tryClaim(unsigned r, unsigned self)
{
    RegionSlot &slot = slots_[r];
    unsigned expect = kFree;
    if (!slot.holder.compare_exchange_strong(expect, self,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed))
        return false;
    ShardStats &st = threadSlots_[self].stats;
    ++st.claims;
    if (slot.home != self)
        ++st.steals;
    return true;
}

void
Kernel::release(unsigned r)
{
    slots_[r].holder.store(kFree, std::memory_order_release);
}

bool
Kernel::advance(unsigned r, unsigned self, Tick horizon)
{
    drainRing(r, self);
    const Tick next = regions_[r]->events_.peekTime();
    if (next >= horizon) {
        publishClocks(r, horizon);
        return false;
    }
    stretch(r, self, std::min(horizon, satAdd(next, lookahead_)), horizon);
    return true;
}

ALTOC_HOT void
Kernel::stretch(unsigned r, unsigned self, Tick end, Tick horizon)
{
    ShardStats &st = threadSlots_[self].stats;
    const std::uint64_t t0 = hostNowNs();
    Simulator &region = *regions_[r];
    // end > the region's next tick >= 0, so "strictly below end" is
    // "at or before end - 1", the fused pop's bound.
    const Tick last = end - 1;
    std::uint64_t dispatched = 0;
    unsigned sinceDrain = 0;
    while (region.dispatchBefore(last) != kTickInf) {
        ++dispatched;
        if (++sinceDrain >= kDrainStride) {
            drainRing(r, self);
            sinceDrain = 0;
        }
    }
    st.events += dispatched;
    publishClocks(r, horizon);
    st.busyNs += hostNowNs() - t0;
}

void
Kernel::publishClocks(unsigned r, Tick horizon)
{
    RegionSlot &slot = slots_[r];
    const Tick next = regions_[r]->events_.peekTime();
    slot.next.store(next, std::memory_order_relaxed);
    // Ring contents were pushed after the horizon was read, so they
    // land at or past it: the region is done below min(next, horizon).
    const Tick done = std::min(next, horizon);
    if (done > slot.done.load(std::memory_order_relaxed)) {
        slot.done.store(done, std::memory_order_relaxed);
        if (stretchHook_)
            stretchHook_(r, done);
    }
#if ALTOC_AUDIT_ENABLED
    reconcileAudit(r);
#endif
}

ALTOC_HOT void
Kernel::drainRing(unsigned r, unsigned self)
{
    RegionSlot &slot = slots_[r];
    CrossEvent ev;
    std::uint64_t received = 0;
    while (slot.ring->tryPop(ev)) {
        regions_[ev.dst]->events_.scheduleAtSeq(ev.when, ev.seq,
                                                std::move(ev.cb));
        ++received;
    }
    if (received != 0) {
        threadSlots_[self].stats.crossReceived += received;
        slot.next.store(regions_[r]->events_.peekTime(),
                        std::memory_order_relaxed);
    }
}

ALTOC_HOT void
Kernel::crossPush(CrossEvent ev)
{
    const unsigned dst = ev.dst;
    SpscRing<CrossEvent> &ring = *slots_[dst].ring;
    SpinWait fullWait;
    while (!ring.tryPush(std::move(ev))) {
        // A holder drains while it dispatches and while it waits; an
        // unclaimed region's ring is ours to drain.
        if (tryClaim(dst, 0)) {
            drainRing(dst, 0);
            release(dst);
        } else {
            fullWait.pause();
        }
    }
    ++threadSlots_[0].stats.crossSent;
}

void
Kernel::reconcileAudit(unsigned r)
{
    const Auditor *a = regions_[r]->auditor_;
    if (a == nullptr)
        return;
    const std::uint64_t c = a->violationCount();
    if (c != auditSeen_[r]) {
        auditViolations_.fetch_add(c - auditSeen_[r],
                                   std::memory_order_release);
        auditSeen_[r] = c;
    }
}

} // namespace altoc::sim
