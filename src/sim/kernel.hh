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
 * Sharded execution (runSharded) is conservative PDES on a star: one
 * *hub* region (a rack's ToR) is the only region that sends
 * cross-region events, and it runs on the calling thread, which
 * publishes a monotone hub clock -- "the hub dispatched everything
 * below tick t". Every other region may then dispatch below
 * t + lookahead without waiting for anyone else: no window, no
 * barrier. Those regions are claimable work with a home thread; the
 * plan's worker threads and the caller (whenever the hub is a capped
 * lead ahead of the slowest region) advance a claimed region one
 * lookahead stretch at a time. See DESIGN.md section 14 for the
 * protocol and the determinism argument.
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
#include "common/units.hh"
#include "sim/event_queue.hh"
#include "sim/simulator.hh"
#include "sim/spsc.hh"

namespace altoc::sim {

/**
 * Host-time accounting of one thread over a sharded run's parallel
 * phase (index 0 is the calling thread). Timings are taken per
 * stretch, never per event. Purely an execution statistic: it varies
 * from run to run and never feeds simulated state, fingerprints or
 * stats dumps.
 */
struct ShardStats
{
    /** Dispatching events: the hub's on the calling thread, claimed
     *  regions' stretches (ring drains included) on every thread. */
    std::uint64_t busyNs = 0;
    /** Spinning or napping with nothing to dispatch: waiting on the
     *  hub clock (draining the held region's ring meanwhile), or, on
     *  the calling thread, for the slowest region to come within the
     *  hub's lead cap. */
    std::uint64_t waitNs = 0;
    /** Calling thread only: running runSharded's idle work while it
     *  waits (excluded from waitNs). */
    std::uint64_t idleWorkNs = 0;
    /** Events dispatched inside the parallel phase. */
    std::uint64_t events = 0;
    /** Cross-region events pushed into / popped from region rings. */
    std::uint64_t crossSent = 0;
    std::uint64_t crossReceived = 0;
    /** Regions claimed; steals counts the claims of a region homed on
     *  another thread (the claims that migrate a working set). */
    std::uint64_t claims = 0;
    std::uint64_t steals = 0;
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

    /** Stop before the next dispatch. Safe from any thread; under
     *  sharded execution it ends the parallel phase at the hub's next
     *  clock step (callers gate parallelism so it can only fire in
     *  the serial phase -- see ParallelGate). */
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
        if (!parallelActive_) {
            region(dst).events_.scheduleAtSeq(when, seq,
                                              std::forward<F>(cb));
            if (dst < front_.size() && when < front_[dst])
                front_[dst] = when;
            return;
        }
        altoc_assert(src == hub_ && dst != hub_,
                     "sharded runs carry only hub -> region events");
        crossPush(CrossEvent{when, seq, dst,
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
     * How runSharded executes the regions. The hub runs on the thread
     * that calls runSharded; threads 1..threads-1 are workers. A plan
     * therefore uses threads - 1 extra threads.
     */
    struct ShardPlan
    {
        /** Thread count, the calling thread included (>= 2 to
         *  actually parallelize). */
        unsigned threads = 1;

        /** Conservative lookahead: the minimum delay of any
         *  cross-region event, in ns. */
        Tick lookahead = 1;

        /** The one region that sends cross-region events (a rack's
         *  ToR); it runs on the calling thread. */
        unsigned hub = 0;

        /** Region -> home thread (values < threads; the hub's entry is
         *  ignored). A thread keeps a home region claimed while it
         *  has work and borrows other regions one stretch at a time
         *  only when its own are blocked on the hub clock. */
        std::vector<unsigned> home;
    };

    /**
     * Evaluated by the hub before each step of its clock: return
     * false to end the parallel phase, leaving the rest of the run to
     * the serial loop. Callers use it to keep the run's stopping
     * condition exact -- e.g. a rack stays parallel only while the
     * workload still has arrivals to inject, which provably keeps the
     * completion-count stop from firing in the parallel phase
     * (DESIGN.md section 14). It runs on the calling thread.
     */
    using ParallelGate = InlineFunction<bool()>;

    /**
     * Work the calling thread does in the parallel phase: in chunks
     * while it waits -- for the slowest region to come within the
     * hub's lead cap with nothing to claim, or for the regions to
     * drain after the hub finished -- and once per lookahead step of
     * the hub clock until it reports nothing left (at most 64
     * chunks), so the work cannot pile up while the caller is busy. Each call performs one
     * small chunk (it must return within about a microsecond) and
     * returns true while more remains. It may touch
     * only state the calling thread owns or receives through its own
     * synchronization. Never called once the parallel phase ended.
     */
    using IdleWork = InlineFunction<bool()>;

    /**
     * Called by the thread holding region @p region after each
     * stretch, with the region's clock @p done: every event below it
     * has been dispatched, and every later event of the region has a
     * tick at or above it. Never called for the hub.
     */
    using StretchHook = InlineFunction<void(unsigned region, Tick done)>;

    /**
     * Sharded run: the parallel phase while the gate holds, then the
     * serial canonical loop for the tail. The calling thread runs the
     * hub and, when the hub is a lead cap ahead, claimed regions;
     * plan.threads - 1 workers run claimed regions. Produces the
     * exact event order of run() -- same goldens, fingerprints,
     * trace bytes.
     */
    Tick runSharded(const ShardPlan &plan, Tick until = kTickInf,
                    ParallelGate gate = {}, IdleWork idle = {},
                    StretchHook stretch = {});

    /** Lookahead steps of simulated time the hub's clock covered in
     *  the last runSharded's parallel phase: the distinct values of
     *  tick / lookahead over the hub events it dispatched there. A
     *  function of the hub's event stream, so it repeats exactly
     *  across runs and thread counts (0 when the run was serial). */
    std::uint64_t parallelWindows() const { return windows_; }

    /** Per-thread accounting of the last runSharded's parallel phase,
     *  the calling thread first; empty when it ran serially. */
    const std::vector<ShardStats> &shardStats() const
    {
        return shardStats_;
    }

    /** Host wall time of the last runSharded's parallel phase, in ns
     *  (0 when it ran serially). */
    std::uint64_t windowsNs() const { return windowsNs_; }

    /** True during the parallel phase: every thread sees it set for
     *  the whole phase (it is written only before the workers start
     *  and after they joined). */
    bool parallelPhase() const { return parallelActive_; }

    /** Capacity of each region's inbound ring. */
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

    /** Ring drain period inside a stretch, in dispatches. */
    static constexpr unsigned kDrainStride = 256;

    /** No thread holds the region. */
    static constexpr unsigned kFree = ~0u;

    /** A non-hub region's claim state, clocks and inbound ring, alone
     *  on its cache line(s). */
    struct alignas(64) RegionSlot
    {
        /** Thread holding the claim, or kFree. Claiming is an acquire
         *  CAS and releasing a release store, so whatever the last
         *  holder did to the region -- its queue, its ring's consumer
         *  side, its simulated state -- is visible to the next. */
        std::atomic<unsigned> holder{kFree};
        /** The region's earliest pending tick at its holder's last
         *  update (ring contents not yet drained excepted). */
        std::atomic<Tick> next{kTickInf};
        /** Every event below it dispatched; monotone. */
        std::atomic<Tick> done{0};
        unsigned home = 0;
        std::unique_ptr<SpscRing<CrossEvent>> ring;
    };

    /** Serial (tick, region, seq) merge loop; does not reset the
     *  stop flag (run() and runSharded() own that). */
    Tick runMergeLoop(Tick until);

    /** The parallel phase of runSharded, on the calling thread. */
    void runParallel(const ShardPlan &plan, ParallelGate &gate,
                     IdleWork &idle);

    /** Worker body of thread @p self (>= 1). */
    void workerLoop(unsigned self);

    /** The hub's loop on the calling thread: step the hub clock,
     *  dispatch hub events, help while capped. Returns when the gate
     *  closed, a stop or audit violation was seen, or the hub had
     *  nothing left and every region drained to the run bound. */
    void runHub(ParallelGate &gate, IdleWork &idle);

    /** The calling thread's help while the hub waits: claim a region
     *  with work, run one stretch of it and release it. False when
     *  there was nothing to claim. */
    bool helpOnce();

    /** True when no region is claimed or has anything left below the
     *  run bound (only meaningful once the hub is done). */
    bool allDrained() const;

    /** One scheduling step of worker @p self holding @p held (kFree
     *  for none): advance the held region a stretch, or claim one
     *  with work. Returns the region now held and sets @p worked when
     *  it dispatched or claimed anything. */
    unsigned spokeStep(unsigned self, unsigned held, bool &worked);

    /** Claim the region with work that @p self should run next: an
     *  unclaimed home region first, else the furthest-behind
     *  unclaimed one. Returns kFree when there is none. */
    unsigned claimNext(unsigned self, Tick horizon);

    /** Region @p slot may have events below @p horizon (its last
     *  published next tick, or anything in its ring). */
    static bool hasWork(const RegionSlot &slot, Tick horizon);

    /** A region homed on @p self is unclaimed and has work. */
    bool homeWaiting(unsigned self, Tick horizon) const;

    bool tryClaim(unsigned r, unsigned self);
    void release(unsigned r);

    /** Horizon for the non-hub regions: everything below it is safe
     *  to dispatch given the published hub clock. */
    Tick horizon() const;

    /** Held region @p r, by thread @p self: drain its ring, then run
     *  one stretch -- its events below min(horizon, next + lookahead)
     *  -- if it has any below @p horizon (true), else just publish its
     *  clocks (false: blocked on the hub clock). */
    bool advance(unsigned r, unsigned self, Tick horizon);

    /** Dispatch region @p r's events below @p end, draining its ring
     *  every kDrainStride dispatches, then publishClocks. */
    void stretch(unsigned r, unsigned self, Tick end, Tick horizon);

    /** Holder side: store region @p r's next tick and done clock
     *  (calling the stretch hook when it advanced) and fold its audit
     *  delta. */
    void publishClocks(unsigned r, Tick horizon);

    /** Insert every event in region @p r's ring into its queue and
     *  refresh slot.next. Only the holder (or, after the workers
     *  joined, the calling thread) may call it. */
    void drainRing(unsigned r, unsigned self);

    /** Hub-side send: push into the destination region's ring; while
     *  it is full, drain it ourselves if we can claim the region, or
     *  wait for its holder (holders always drain, see DESIGN.md). */
    void crossPush(CrossEvent ev);

    /** Smallest done clock over the non-hub regions. */
    Tick slowestDone() const;

    /** Fold region @p r's audit-violation delta into the kernel-wide
     *  count (audit builds; called by its holder after a stretch). */
    void reconcileAudit(unsigned r);

    std::vector<std::unique_ptr<Simulator>> regions_;
    /** Per-region cross-schedule counters (owned by the region's
     *  executing thread). */
    std::vector<std::uint64_t> crossCtr_;
    /** Serial merge loop's cached earliest tick per region. */
    std::vector<Tick> front_;

    // ----- sharded-execution state -----------------------------------

    unsigned hub_ = 0;
    Tick lookahead_ = 1;
    /** The hub may dispatch at tick T only while T < slowestDone() +
     *  leadCap_ (two lookaheads): it keeps the server heaps and rings
     *  shallow and hands the caller spare time to claim regions. */
    Tick leadCap_ = 1;
    /** The plan has more threads than the host has cores. */
    bool oversubscribed_ = false;
    /** Exclusive run bound: until + 1, or kTickInf. */
    Tick end_ = kTickInf;
    std::vector<RegionSlot> slots_;
    /** Non-hub region indices. */
    std::vector<unsigned> spokes_;
    StretchHook stretchHook_;
    /** True only while worker threads exist (set before spawn,
     *  cleared after join, so workers never observe it changing). */
    bool parallelActive_ = false;

    std::atomic<bool> stopFlag_{false};
    /** Published hub clock: the hub dispatched everything below it
     *  (kTickInf once it has nothing left below the run bound). */
    alignas(64) std::atomic<Tick> hubClock_{0};
    /** Set by the calling thread to end the parallel phase. */
    std::atomic<bool> closed_{false};
    std::uint64_t windows_ = 0;

    /** One thread's accounting, alone on its cache line: written only
     *  by that thread while the parallel phase runs. */
    struct alignas(64) ThreadSlot
    {
        ShardStats stats;
    };
    std::vector<ThreadSlot> threadSlots_;
    std::vector<ShardStats> shardStats_;
    std::uint64_t windowsNs_ = 0;

    /** Audit fan-in: holders add their regions' violation deltas; the
     *  hub ends the parallel phase at its next clock step once any
     *  stretch saw a violation. */
    std::atomic<std::uint64_t> auditViolations_{0};
    /** Violation count already reconciled, per region (read by the
     *  region's holder only). */
    std::vector<std::uint64_t> auditSeen_;
};

} // namespace altoc::sim

#endif // ALTOC_SIM_KERNEL_HH
