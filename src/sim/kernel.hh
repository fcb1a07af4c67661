/**
 * @file
 * Multi-region event kernel: one simulation, many EventQueues, one
 * canonical dispatch order -- serial or sharded.
 *
 * A Kernel owns a set of *regions*, each a full Simulator (its own
 * queue, clock and auditor). Regions map onto the physical units of a
 * topology whose interaction latency is high enough to act as a
 * conservative-PDES lookahead bound: in a rack, every server is a
 * region and the ToR dispatcher is one more, because the only events
 * that cross a region boundary are ToR->server deliveries paying at
 * least the rack link's propagation + serialization delay.
 *
 * Canonical order. Events dispatch in ascending
 *
 *     (tick, region index, per-queue sequence)
 *
 * order. Within a region this is exactly the classic (tick, seq)
 * insertion order, so a single-region kernel *is* the pre-sharding
 * simulator (run() literally delegates to Simulator::run then).
 * Across regions, ties at a tick break by region index -- a rule a
 * parallel executor can reproduce without any global counter, which
 * is the whole point: events at the same tick in different regions
 * can only interact through >= lookahead-latency messages, so their
 * relative order is unobservable and any fixed rule works, as long
 * as every execution mode applies the same one.
 *
 * Cross-region events carry an explicit sequence composed from
 * (sender region, sender counter) in the kCrossSeqBase subspace (see
 * event_queue.hh), so their position in the destination queue is a
 * pure function of the sender's deterministic stream -- identical
 * whether the event traveled through a direct insert (serial, or
 * same shard) or an SPSC channel (parallel).
 *
 * Sharded execution (runSharded) partitions regions across shards
 * -- shard 0 runs on the calling thread, every other shard on a
 * worker thread of its own -- and advances them in
 * barrier-synchronized windows of width equal to the lookahead:
 * every cross-region event sent inside a window lands at least one
 * full window later, so a shard can dispatch its whole window --
 * one region after another -- without observing its peers. See
 * DESIGN.md section 14 for the window protocol and the determinism
 * argument.
 */

#ifndef ALTOC_SIM_KERNEL_HH
#define ALTOC_SIM_KERNEL_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/annotations.hh"
#include "common/inline_fn.hh"
#include "common/logging.hh"
#include "common/mutex.hh"
#include "common/units.hh"
#include "sim/event_queue.hh"
#include "sim/simulator.hh"
#include "sim/spsc.hh"

namespace altoc::sim {

/**
 * Host-time accounting of one shard over a sharded run's parallel
 * phase. Timings are taken per window, never per event. Purely an
 * execution statistic: it varies from run to run and never feeds
 * simulated state, fingerprints or stats dumps.
 */
struct ShardStats
{
    /** Dispatching this shard's events, in-window channel sweeps
     *  included. */
    std::uint64_t busyNs = 0;
    /** Blocked at the window barriers: waiting for the peers to
     *  finish dispatching (sweeping our channels meanwhile) and, on
     *  a worker, for the next window to open. */
    std::uint64_t waitNs = 0;
    /** The settle phase: the final channel sweep once every shard
     *  finished dispatching, up to the window's closing barrier. */
    std::uint64_t settleNs = 0;
    /** Shard 0 only: running runSharded's idle work while it waits
     *  for the workers to finish dispatching (excluded from waitNs). */
    std::uint64_t idleWorkNs = 0;
    /** Events dispatched inside parallel windows. */
    std::uint64_t events = 0;
    /** Cross-region events pushed into / popped from the channels
     *  between this shard and the others. */
    std::uint64_t crossSent = 0;
    std::uint64_t crossReceived = 0;
};

/**
 * A set of Simulator regions advancing as one deterministic
 * simulation, serially or under conservative sharded parallelism.
 */
class Kernel
{
  public:
    Kernel() = default;
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /**
     * Append a region. With more than one region each Simulator gets
     * a back-pointer so its requestStop() reaches the kernel-wide
     * flag; a lone region keeps the classic self-contained wiring.
     */
    Simulator &addRegion();

    Simulator &region(unsigned r) { return *regions_[r]; }
    const Simulator &region(unsigned r) const { return *regions_[r]; }

    unsigned
    numRegions() const
    {
        return static_cast<unsigned>(regions_.size());
    }

    /** True when every region's queue is empty. */
    bool idle() const;

    /** Latest region clock (the global time after run()/runSharded()
     *  synchronized the regions). */
    Tick now() const;

    /** Events executed across all regions. */
    std::uint64_t eventsExecuted() const;

    /** Stop before the next dispatch. Safe from any shard thread;
     *  under sharded execution it takes effect at the next window
     *  boundary (callers gate parallelism so it can only fire in the
     *  serial phase -- see setParallelGate). */
    void
    requestStop()
    {
        stopFlag_.store(true, std::memory_order_release);
    }

    /**
     * Schedule @p cb at @p when into region @p dst on behalf of an
     * event currently executing in region @p src. The event's sort
     * key is (when, cross-seq) where the cross-seq derives from
     * src's private counter, so the destination dispatch position is
     * identical in serial and sharded execution. @p when must be at
     * least lookahead past src's current time for sharded runs to be
     * exact; the serial path works for any future time.
     */
    template <typename F>
    ALTOC_HOT void
    crossSchedule(unsigned src, unsigned dst, Tick when, F &&cb)
    {
        const std::uint64_t seq =
            kCrossSeqBase |
            (static_cast<std::uint64_t>(src) << kCrossRegionShift) |
            crossCtr_[src]++;
        if (!parallelActive_ || shardOf_[src] == shardOf_[dst]) {
            region(dst).events_.scheduleAtSeq(when, seq,
                                              std::forward<F>(cb));
            if (dst < front_.size() && when < front_[dst])
                front_[dst] = when;
            return;
        }
        crossPush(shardOf_[src], shardOf_[dst],
                  CrossEvent{when, seq, dst,
                             EventQueue::Callback(std::forward<F>(cb))});
    }

    /**
     * Serial canonical run: dispatch in (tick, region, seq) order
     * until every queue drains, time would pass @p until, or
     * requestStop(). One region delegates to Simulator::run -- the
     * pre-kernel behavior, bit for bit. Region clocks are
     * synchronized to the returned final time.
     */
    Tick run(Tick until = kTickInf);

    /**
     * How regions map onto shards for runSharded. Shard 0 runs on the
     * thread that calls runSharded; shards 1..shards-1 each get a
     * worker thread. A plan therefore uses shards - 1 extra threads.
     */
    struct ShardPlan
    {
        /** Shard count, the caller's shard 0 included (>= 2 to
         *  actually parallelize). */
        unsigned shards = 1;

        /** Conservative lookahead: the minimum delay of any
         *  cross-region event, in ns. Window width. */
        Tick lookahead = 1;

        /** Region index -> shard index (values < shards). */
        std::vector<unsigned> shardOf;
    };

    /**
     * Re-evaluated at every window boundary: return false to fall
     * back to the serial loop for the rest of the run. Callers use
     * it to keep the run's stopping condition exact -- e.g. a rack
     * stays parallel only while the workload still has arrivals to
     * inject, which provably keeps the completion-count stop from
     * firing inside a window (DESIGN.md section 14). The argument
     * is the next window's start: the earliest pending event, so
     * every event still to run has a tick at or above it.
     */
    using ParallelGate = InlineFunction<bool(Tick)>;

    /**
     * Work the calling thread does while it waits for the workers to
     * finish a window's dispatch: each call performs one small chunk
     * (it must return within about a microsecond, so the window
     * barrier is never held up) and returns true while more remains.
     * It runs only between the caller's own dispatch and the end of
     * the window, so it may touch only state the calling thread owns
     * -- state the gate can hand over at the boundary, where every
     * worker is parked. Never called once the parallel phase ended.
     */
    using IdleWork = InlineFunction<bool()>;

    /**
     * Sharded run: conservative windows of @p plan.lookahead ns while
     * the gate holds -- the calling thread executes shard 0 and
     * plan.shards - 1 workers execute the rest -- then the serial
     * canonical loop for the tail. Inside each window the calling
     * thread, once done with its own regions, runs @p idle in chunks
     * until it reports no more work or the workers finish, sweeping
     * its incoming channels between chunks. Produces the exact event
     * order of run() -- same goldens, fingerprints, trace bytes.
     */
    Tick runSharded(const ShardPlan &plan, Tick until = kTickInf,
                    ParallelGate gate = {}, IdleWork idle = {});

    /** Parallel windows executed by the last runSharded (tests and
     *  benches assert the parallel path actually ran). */
    std::uint64_t parallelWindows() const { return windows_; }

    /** Per-shard accounting of the last runSharded's parallel phase,
     *  shard 0 first; empty when it ran serially. */
    const std::vector<ShardStats> &shardStats() const
    {
        return shardStats_;
    }

    /** Host wall time of the last runSharded's parallel phase, in ns
     *  (0 when it ran serially). */
    std::uint64_t windowsNs() const { return windowsNs_; }

    /** True while parallel windows run: every shard thread sees it
     *  set for the whole parallel phase (it is written only before
     *  the workers start and after they joined). */
    bool parallelPhase() const { return parallelActive_; }

    /** Capacity of each inter-shard channel. */
    static constexpr std::size_t kRingSlots = 1024;

  private:
    /** One event in flight between shards. */
    struct CrossEvent
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        std::uint32_t dst = 0;
        EventQueue::Callback cb;
    };

    /** Bits reserved for the sender counter inside a cross seq; the
     *  region index sits above them (see event_queue.hh). */
    static constexpr unsigned kCrossRegionShift = 40;

    /** Incoming-channel sweep period during a shard's window. */
    static constexpr unsigned kDrainStride = 256;

    /** Dispatch the head event of region @p r (audit hook + clock
     *  update + callback). Caller guarantees the queue is compacted
     *  and non-empty. */
    void dispatchOne(unsigned r);

    /** Serial (tick, region, seq) merge loop; does not reset the
     *  stop flag (run() and runSharded() own that). */
    Tick runMergeLoop(Tick until);

    /** The window-parallel phase of runSharded; the calling thread
     *  executes shard 0 and runs @p idle while it waits. */
    void runWindows(const ShardPlan &plan, Tick until,
                    ParallelGate &gate, IdleWork &idle);

    /** Worker body of shard @p self (>= 1). */
    void workerLoop(unsigned self, const std::vector<unsigned> &owned);

    /** Dispatch shard @p self's @p owned regions' events with tick <
     *  @p winEnd, one region at a time -- each region's window runs
     *  to completion in its own (tick, seq) order before the next
     *  region starts -- sweeping the incoming channels every
     *  kDrainStride dispatches. Exact because regions cannot
     *  interact inside a window: every cross-region event lands at
     *  or after @p winEnd. Keeps one region's working set hot
     *  instead of alternating between them event by event. */
    void dispatchWindow(unsigned self, const std::vector<unsigned> &owned,
                        Tick winEnd);

    /** Insert every event queued toward shard @p self. Only shard
     *  self's thread may call this (SPSC consumer side). */
    void drainRings(unsigned self);

    /** Blocking channel send with deadlock-free backpressure: while
     *  the ring is full, drain our own incoming rings. */
    void crossPush(unsigned srcShard, unsigned dstShard, CrossEvent ev);

    /** Fold the audit-violation delta of @p owned regions into the
     *  kernel-wide window summary (audit builds; called by each
     *  shard at the end of its window). */
    void reconcileAudit(const std::vector<unsigned> &owned)
        ALTOC_EXCLUDES(auditMu_);

    /** Window-boundary check of the reconciled audit state. */
    bool auditClean() ALTOC_EXCLUDES(auditMu_);

    std::vector<std::unique_ptr<Simulator>> regions_;
    /** Per-region cross-schedule counters (owned by the region's
     *  executing thread). */
    std::vector<std::uint64_t> crossCtr_;
    /** Serial merge loop's cached earliest tick per region. */
    std::vector<Tick> front_;

    // ----- sharded-execution state -----------------------------------

    /** Region -> shard map of the active plan. */
    std::vector<unsigned> shardOf_;
    /** Shard-pair SPSC channels, rings_[src * shards_ + dst]; null
     *  on the diagonal (a shard inserts its own events directly). */
    std::vector<std::unique_ptr<SpscRing<CrossEvent>>> rings_;
    unsigned shards_ = 1;
    /** True only while worker threads exist (set before spawn, /
     *  cleared after join, so workers never observe it changing). */
    bool parallelActive_ = false;

    std::atomic<bool> stopFlag_{false};
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<std::uint64_t> drainSeq_{0};
    std::atomic<unsigned> doneDispatch_{0};
    std::atomic<unsigned> doneDrain_{0};
    std::atomic<bool> exit_{false};
    std::atomic<Tick> winEnd_{0};
    std::uint64_t windows_ = 0;

    /** One shard's accounting, alone on its cache line: written only
     *  by that shard's thread while the windows run. */
    struct alignas(64) ShardSlot
    {
        ShardStats stats;
    };
    std::vector<ShardSlot> slots_;
    std::vector<ShardStats> shardStats_;
    std::uint64_t windowsNs_ = 0;

    /** Audit fan-in seam: shards reconcile their regions' violation
     *  counts here at window boundaries; the calling thread ends the
     *  parallel phase as soon as any window saw a violation. */
    Mutex auditMu_;
    std::uint64_t auditViolations_ ALTOC_GUARDED_BY(auditMu_) = 0;
    /** Violation count already reconciled, per region (each region
     *  is read by exactly one shard thread). */
    std::vector<std::uint64_t> auditSeen_;
};

} // namespace altoc::sim

#endif // ALTOC_SIM_KERNEL_HH
