/**
 * @file
 * Kernel implementation: the serial (tick, region, seq) merge loop
 * and the conservative window-parallel executor.
 *
 * Window protocol (runWindows). Shard 0 runs on the calling thread,
 * which also owns the window boundaries; shards 1..S-1 each get one
 * worker thread. Per window:
 *
 *   1. boundary (workers quiescent): the caller peeks every region
 *      for the earliest pending tick winStart, evaluates the stop
 *      flag, the parallel gate and the reconciled audit state, and
 *      either exits the parallel phase or publishes winEnd =
 *      winStart + lookahead (clamped to the run bound);
 *   2. dispatch: epoch_ advances; every shard -- the caller's shard 0
 *      included -- dispatches its own regions' events with tick <
 *      winEnd in (tick, region, seq) order, sweeping its incoming
 *      channels every kDrainStride dispatches and while it waits for
 *      its peers -- a shard blocked pushing into a full channel is
 *      always simultaneously emptying the channels others might be
 *      blocked on, so backpressure cannot deadlock;
 *   3. settle: once every worker signaled doneDispatch_ (and the
 *      caller finished its own dispatch) no producer is active;
 *      drainSeq_ advances and every shard performs one final,
 *      now-complete sweep of its channels; the workers signal
 *      doneDrain_ and park. The caller is back at (1) with every
 *      cross-window event already inserted.
 *
 * Exactness: a cross-region event sent at tick t carries tick >=
 * t + lookahead >= winEnd, so nothing received mid-window is
 * dispatchable in that window and the per-shard order equals the
 * serial merge loop's order restricted to that shard's regions.
 * Same-tick events in different regions commute (cross-region
 * interaction only travels on >= lookahead-latency messages), so
 * the global order is observably identical to the serial loop's.
 */

#include "sim/kernel.hh"

#include <algorithm>
#include <thread>

#include "common/host_clock.hh"

namespace altoc::sim {

namespace {

/** Polite busy-wait hint for the barrier spins (windows are short --
 *  microseconds of host time -- so parking on a futex would dominate
 *  the window itself). */
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
 * Two-stage barrier wait: pause-spin while the wait is short (the
 * common case on a dedicated core -- the window turnaround is
 * microseconds), then fall back to yielding so an oversubscribed
 * host (more shards than cores, or a parallel batch sharing the
 * machine) advances at context-switch speed instead of burning whole
 * scheduler quanta in pause loops. Results never depend on timing --
 * this is purely a progress/efficiency knob.
 */
class SpinWait
{
  public:
    void
    pause()
    {
        if (++spins_ < kSpinLimit)
            cpuRelax();
        else
            std::this_thread::yield();
    }

  private:
    static constexpr unsigned kSpinLimit = 1024;
    unsigned spins_ = 0;
};

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

ALTOC_HOT void
Kernel::dispatchOne(unsigned r)
{
    regions_[r]->dispatchBefore(kTickInf);
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
        dispatchOne(best);
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
Kernel::runSharded(const ShardPlan &plan, Tick until, ParallelGate gate)
{
    windows_ = 0;
    shardStats_.clear();
    windowsNs_ = 0;
    if (numRegions() <= 1 || plan.shards <= 1)
        return run(until);
    altoc_assert(plan.shardOf.size() == regions_.size(),
                 "shard plan does not cover every region");
    for (unsigned s : plan.shardOf) {
        altoc_assert(s < plan.shards,
                     "shard plan maps a region past the shard count");
    }
    altoc_assert(plan.lookahead >= 1,
                 "sharded execution needs a positive lookahead");
    stopFlag_.store(false, std::memory_order_relaxed);
    const std::uint64_t t0 = hostNowNs();
    runWindows(plan, until, gate);
    windowsNs_ = hostNowNs() - t0;
    return runMergeLoop(until);
}

void
Kernel::runWindows(const ShardPlan &plan, Tick until, ParallelGate &gate)
{
    const unsigned nShards = plan.shards;
    shardOf_ = plan.shardOf;
    shards_ = nShards;

    std::vector<std::vector<unsigned>> owned(nShards);
    for (unsigned r = 0; r < numRegions(); ++r)
        owned[shardOf_[r]].push_back(r);

    // Channels only between distinct shards: a shard's events for its
    // own regions are direct inserts (crossSchedule).
    rings_.clear();
    rings_.resize(static_cast<std::size_t>(nShards) * nShards);
    for (unsigned src = 0; src < nShards; ++src) {
        for (unsigned dst = 0; dst < nShards; ++dst) {
            if (src != dst) {
                rings_[src * nShards + dst] =
                    std::make_unique<SpscRing<CrossEvent>>(kRingSlots);
            }
        }
    }
    slots_.assign(nShards, ShardSlot{});

    {
        MutexLock lock(auditMu_);
        auditViolations_ = 0;
    }
    for (unsigned r = 0; r < numRegions(); ++r) {
        auditSeen_[r] = 0;
#if ALTOC_AUDIT_ENABLED
        if (const Auditor *a = regions_[r]->auditor_)
            auditSeen_[r] = a->violationCount();
#endif
    }

    epoch_.store(0, std::memory_order_relaxed);
    drainSeq_.store(0, std::memory_order_relaxed);
    doneDispatch_.store(0, std::memory_order_relaxed);
    doneDrain_.store(0, std::memory_order_relaxed);
    exit_.store(false, std::memory_order_relaxed);
    parallelActive_ = true;

    const unsigned workers = nShards - 1;
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned j = 1; j < nShards; ++j)
        threads.emplace_back([this, j, &owned] { workerLoop(j, owned[j]); });

    ShardStats &self = slots_[0].stats;
    std::uint64_t ep = 0;
    for (;;) {
        // Boundary: workers are quiescent (start, or doneDrain_
        // observed with acquire order), so peeking region queues and
        // evaluating the gate read a settled world.
        Tick winStart = kTickInf;
        for (const auto &s : regions_) {
            const Tick w = s->events_.peekTime();
            if (w < winStart)
                winStart = w;
        }
        if (winStart == kTickInf || winStart > until)
            break;
        if (stopFlag_.load(std::memory_order_acquire))
            break;
        if (gate && !gate())
            break;
        if (!auditClean())
            break;
        Tick winEnd = winStart + plan.lookahead;
        if (winEnd < winStart) // lookahead overflow
            winEnd = kTickInf;
        if (until != kTickInf && winEnd > until)
            winEnd = until + 1; // dispatch strictly-below: covers until
        winEnd_.store(winEnd, std::memory_order_relaxed);
        doneDispatch_.store(0, std::memory_order_relaxed);
        doneDrain_.store(0, std::memory_order_relaxed);
        epoch_.store(++ep, std::memory_order_release);

        // Shard 0 is ours: dispatch it exactly as a worker would.
        const std::uint64_t t0 = hostNowNs();
        dispatchWindow(0, owned[0], winEnd);
        const std::uint64_t t1 = hostNowNs();
        // Keep emptying our channels while the workers finish: one of
        // them may be blocked pushing toward shard 0.
        SpinWait dispatchWait;
        while (doneDispatch_.load(std::memory_order_acquire) < workers) {
            drainRings(0);
            dispatchWait.pause();
        }
        const std::uint64_t t2 = hostNowNs();
        drainSeq_.store(ep, std::memory_order_release);
        drainRings(0);
        SpinWait drainWait;
        while (doneDrain_.load(std::memory_order_acquire) < workers)
            drainWait.pause();
        const std::uint64_t t3 = hostNowNs();
        self.busyNs += t1 - t0;
        self.waitNs += t2 - t1;
        self.settleNs += t3 - t2;
        ++windows_;
    }

    exit_.store(true, std::memory_order_release);
    epoch_.store(ep + 1, std::memory_order_release);
    for (auto &t : threads)
        t.join();
    parallelActive_ = false;
    rings_.clear();
    shardStats_.assign(nShards, ShardStats{});
    for (unsigned j = 0; j < nShards; ++j)
        shardStats_[j] = slots_[j].stats;
    slots_.clear();
}

void
Kernel::workerLoop(unsigned self, const std::vector<unsigned> &owned)
{
    ShardStats &st = slots_[self].stats;
    std::uint64_t ep = 0;
    for (;;) {
        const std::uint64_t t0 = hostNowNs();
        SpinWait epochWait;
        while (epoch_.load(std::memory_order_acquire) == ep)
            epochWait.pause();
        ++ep;
        if (exit_.load(std::memory_order_acquire))
            return;
        const Tick winEnd = winEnd_.load(std::memory_order_relaxed);
        const std::uint64_t t1 = hostNowNs();
        drainRings(self);
        dispatchWindow(self, owned, winEnd);
        const std::uint64_t t2 = hostNowNs();
        doneDispatch_.fetch_add(1, std::memory_order_acq_rel);
        // Keep emptying our channels while peers still dispatch, so
        // none of them can wedge on a full ring; the final sweep
        // after drainSeq_ advances is guaranteed complete.
        SpinWait settleWait;
        while (drainSeq_.load(std::memory_order_acquire) != ep) {
            drainRings(self);
            settleWait.pause();
        }
        const std::uint64_t t3 = hostNowNs();
        drainRings(self);
        st.busyNs += t2 - t1;
        st.waitNs += (t1 - t0) + (t3 - t2);
        st.settleNs += hostNowNs() - t3;
        doneDrain_.fetch_add(1, std::memory_order_acq_rel);
    }
}

ALTOC_HOT void
Kernel::dispatchWindow(unsigned self, const std::vector<unsigned> &owned,
                       Tick winEnd)
{
    std::uint64_t dispatched = 0;
    unsigned sinceDrain = 0;
    for (;;) {
        // (tick, region, seq) order restricted to our regions; seq
        // ordering within a region is the queue's own.
        unsigned best = ~0u;
        Tick bw = kTickInf;
        for (unsigned r : owned) {
            const Tick w = regions_[r]->events_.peekTime();
            if (w < bw) {
                bw = w;
                best = r;
            }
        }
        if (best == ~0u || bw >= winEnd)
            break;
        dispatchOne(best);
        ++dispatched;
        if (++sinceDrain >= kDrainStride) {
            drainRings(self);
            sinceDrain = 0;
        }
    }
    slots_[self].stats.events += dispatched;
#if ALTOC_AUDIT_ENABLED
    reconcileAudit(owned);
#endif
}

ALTOC_HOT void
Kernel::drainRings(unsigned self)
{
    CrossEvent ev;
    std::uint64_t received = 0;
    for (unsigned src = 0; src < shards_; ++src) {
        if (src == self)
            continue;
        SpscRing<CrossEvent> &ring = *rings_[src * shards_ + self];
        while (ring.tryPop(ev)) {
            regions_[ev.dst]->events_.scheduleAtSeq(ev.when, ev.seq,
                                                    std::move(ev.cb));
            ++received;
        }
    }
    slots_[self].stats.crossReceived += received;
}

ALTOC_HOT void
Kernel::crossPush(unsigned srcShard, unsigned dstShard, CrossEvent ev)
{
    SpscRing<CrossEvent> &ring = *rings_[srcShard * shards_ + dstShard];
    SpinWait fullWait;
    while (!ring.tryPush(std::move(ev))) {
        drainRings(srcShard);
        fullWait.pause();
    }
    ++slots_[srcShard].stats.crossSent;
}

void
Kernel::reconcileAudit(const std::vector<unsigned> &owned)
{
    std::uint64_t delta = 0;
    for (unsigned r : owned) {
        const Auditor *a = regions_[r]->auditor_;
        if (a == nullptr)
            continue;
        const std::uint64_t c = a->violationCount();
        delta += c - auditSeen_[r];
        auditSeen_[r] = c;
    }
    if (delta != 0) {
        MutexLock lock(auditMu_);
        auditViolations_ += delta;
    }
}

bool
Kernel::auditClean()
{
    MutexLock lock(auditMu_);
    return auditViolations_ == 0;
}

} // namespace altoc::sim
