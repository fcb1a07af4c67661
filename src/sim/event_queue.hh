/**
 * @file
 * Deterministic discrete-event queue: the simulator's hot-path kernel.
 *
 * Events are ordered by (tick, sequence); the sequence counter breaks
 * ties in insertion order so simulations replay identically across
 * runs. Internals are built for zero steady-state allocation:
 *
 *  - callbacks are fixed-capacity InlineFn objects (no std::function,
 *    no heap for captures) parked out-of-line in a slot pool, so the
 *    heap sifts move 24-byte POD keys instead of fat closures;
 *  - liveness is a generation-counted slot pool: EventId packs
 *    (generation, slot), and alloc/cancel are O(1) pointer bumps on a
 *    free list -- no hashing, no unordered_set;
 *  - the priority queue is a 4-ary min-heap over (when, seq, slot,
 *    gen) keys. Cancellation is lazy (the key stays until it
 *    surfaces), but the queue compacts eagerly once dead keys exceed
 *    half the heap, so mass-cancellation workloads (timeout-heavy
 *    fault runs) cannot bloat it.
 *
 * A fired or cancelled slot bumps its generation, so stale handles
 * held across a slot's reuse are rejected in O(1). (A single slot
 * would need 2^32 reuses to alias a generation; no reachable
 * workload gets close.)
 */

#ifndef ALTOC_SIM_EVENT_QUEUE_HH
#define ALTOC_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.hh"
#include "common/inline_fn.hh"
#include "common/logging.hh"
#include "common/units.hh"

namespace altoc::sim {

/** Opaque handle to a scheduled event; used for cancellation. */
using EventId = std::uint64_t;

/** Sentinel for "no event". */
constexpr EventId kNoEvent = 0;

/**
 * Sequence-number floor of the cross-region subspace. Locally
 * scheduled events draw seq from a counter starting at 1 and could
 * only reach this bit after 2^63 schedules; events injected from
 * another kernel region (sim/kernel.hh) carry an explicit seq with
 * this bit set, composed from (sender region, sender counter). At
 * equal tick, every cross-region event therefore sorts after every
 * locally scheduled one, and the composed seq is a pure function of
 * the sender -- identical no matter how many shards the kernel runs,
 * which is what keeps sharded runs bit-identical to serial ones.
 */
constexpr std::uint64_t kCrossSeqBase = std::uint64_t{1} << 63;

/**
 * 4-ary-heap event queue with stable tie-breaking, O(1)
 * slot-pool-based cancellation and bounded dead-entry slack.
 */
class EventQueue
{
  public:
    using Callback = InlineFn;

    EventQueue() = default;

    /**
     * Schedule @p cb at absolute time @p when. Returns a handle.
     *
     * Accepts any callable the Callback type can hold and constructs
     * it directly in its slot (one placement-new, no relocate hops);
     * a ready-made Callback moves in instead.
     */
    template <typename F>
    ALTOC_HOT EventId
    schedule(Tick when, F &&cb)
    {
        const std::uint32_t slot = fillSlot(std::forward<F>(cb));
        const std::uint32_t gen = slots_[slot].gen;
        pushKey(when, slot, gen);
        return makeId(slot, gen);
    }

    /**
     * Schedule @p cb at @p when under an explicit sort sequence
     * instead of the insertion counter. The kernel's cross-region
     * delivery path uses this to give an event the same global
     * position regardless of which host thread enqueues it; @p seq
     * must lie in the cross-region subspace (>= kCrossSeqBase) so it
     * can never collide with or overtake locally drawn sequences.
     */
    template <typename F>
    EventId
    scheduleAtSeq(Tick when, std::uint64_t seq, F &&cb)
    {
        altoc_assert(seq >= kCrossSeqBase,
                     "explicit seq outside the cross-region subspace");
        return scheduleKeyed(when, seq, std::forward<F>(cb));
    }

    /**
     * Draw the next insertion sequence without scheduling anything.
     * The caller owns the position (when, returned seq) in the total
     * order, exactly as if it had scheduled an event there, and may
     * later materialize it with scheduleReserved() -- or never, when
     * the position is only compared against dispatchKeyPassed().
     * Every other event keeps the (tick, seq) it would have had.
     */
    std::uint64_t reserveSeq() { return nextSeq_++; }

    /**
     * Schedule @p cb at a position previously claimed with
     * reserveSeq(). The key must still lie after the event being
     * dispatched, so the event fires exactly where a schedule() made
     * at reservation time would have fired.
     */
    template <typename F>
    EventId
    scheduleReserved(Tick when, std::uint64_t seq, F &&cb)
    {
        altoc_assert(seq < nextSeq_ && seq < kCrossSeqBase,
                     "scheduleReserved() needs a seq from reserveSeq()");
        altoc_assert(!dispatchKeyPassed(when, seq),
                     "reserved key already behind the dispatch position");
        return scheduleKeyed(when, seq, std::forward<F>(cb));
    }

    /**
     * True when key (@p when, @p seq) sorts before the key of the
     * event being dispatched (or, between dispatches, the last one
     * dispatched): an event scheduled there would already have run.
     */
    bool
    dispatchKeyPassed(Tick when, std::uint64_t seq) const
    {
        return when != curWhen_ ? when < curWhen_ : seq < curSeq_;
    }

    /**
     * Cancel a previously scheduled event. The slot is reclaimed
     * immediately (O(1)); the heap key lingers until it surfaces at
     * the top or a compaction sweeps it. Cancelling an already-fired
     * or already-cancelled event is a no-op and returns false, even
     * if the slot has since been reused (the generation differs).
     */
    bool cancel(EventId id);

    /** True if no live events remain. */
    bool empty() const { return liveCount_ == 0; }

    /** Number of live (non-cancelled, unfired) events. */
    std::size_t size() const { return liveCount_; }

    /** Time of the earliest live event; kTickInf when empty. */
    Tick nextTime() const;

    /**
     * Like nextTime() but compacts cancelled records first, keeping
     * the subsequent runOne() O(log n). Preferred in run loops.
     */
    Tick peekTime();

    /**
     * Full sort key of the earliest live event, compacting cancelled
     * records first (same contract as peekTime()). Returns false when
     * empty. The kernel's serial merge loop orders region fronts by
     * (when, region, seq), so it needs the seq component too.
     */
    bool
    peekKey(Tick &when, std::uint64_t &seq)
    {
        skipDead();
        if (heap_.empty())
            return false;
        when = heap_.front().when;
        seq = heap_.front().seq;
        return true;
    }

    /**
     * Pop and run the earliest event. Returns its time. Must not be
     * called on an empty queue.
     */
    Tick
    runOne()
    {
        altoc_assert(!empty(), "runOne() on an empty event queue");
        return runOneBefore(kTickInf, [](Tick, EventId) {});
    }

    /**
     * Fused peek + pop for run loops: if the earliest live event
     * fires at or before @p until, pop it, record its key as the
     * dispatch key, call @p on_pop(when, id) and then the event's
     * callback, and return its time; otherwise dispatch nothing and
     * return kTickInf. @p on_pop runs before the callback, so a
     * simulator publishes now() and an auditor learns the event's
     * identity in the same single heap pass.
     */
    template <typename OnPop>
    ALTOC_HOT Tick
    runOneBefore(Tick until, OnPop &&on_pop)
    {
        skipDead();
        if (heap_.empty() || heap_.front().when > until)
            return kTickInf;
        const Key top = heap_.front();
        popTop();
        // Move the closure out before freeing: the callback may
        // schedule, growing slots_ and invalidating any reference
        // into the pool. The slot is released first so cancel(own-id)
        // inside the callback correctly reports "already fired". (In-
        // place dispatch from a chunked stable pool was tried and
        // measured slower: the chunk indirection on every slot touch
        // costs more than the one relocate of a warm <=48-byte
        // closure saves.)
        Callback cb = std::move(slots_[top.slot].cb);
        freeSlot(top.slot);
        --liveCount_;
        ++executed_;
        curWhen_ = top.when;
        curSeq_ = top.seq;
        on_pop(top.when, makeId(top.slot, top.gen));
        cb();
        return top.when;
    }

    /** Total events executed so far (for perf accounting). */
    std::uint64_t executed() const { return executed_; }

    /** Heap keys currently held, live + not-yet-swept dead (test and
     *  bench introspection; bounded at < 2x size() + 1). */
    std::size_t heapEntries() const { return heap_.size(); }

    /** High-water slot-pool size (test and bench introspection). */
    std::size_t slotCapacity() const { return slots_.size(); }

  private:
    /** Heap element: a POD sort key pointing into the slot pool. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /** Pool entry owning the callback of one scheduled event. */
    struct Slot
    {
        Callback cb;
        std::uint32_t gen = 0;
        std::uint32_t nextFree = kNilSlot;
        bool live = false;
    };

    static constexpr std::uint32_t kNilSlot = ~std::uint32_t{0};

    /** (when, seq) lexicographic order; seq is unique, so this is a
     *  total order and the dispatch sequence is bit-reproducible. */
    static bool
    keyLess(const Key &a, const Key &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    /** Slot indices are offset by one so kNoEvent (0) is never a
     *  valid id even for slot 0, generation 0. */
    static EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(gen) << 32) |
               static_cast<EventId>(slot + 1);
    }

    bool
    keyAlive(const Key &k) const
    {
        const Slot &s = slots_[k.slot];
        return s.live && s.gen == k.gen;
    }

    // Only the slot-grab fast path inlines into schedule() callers
    // (two loads and a store); the heap insertion stays one
    // out-of-line call so call sites stay small -- inlining siftUp
    // everywhere was measured to bloat the macro hot loop's icache
    // footprint for no end-to-end gain.

    std::uint32_t
    allocSlot()
    {
        if (freeHead_ != kNilSlot) {
            const std::uint32_t slot = freeHead_;
            freeHead_ = slots_[slot].nextFree;
            return slot;
        }
        return allocSlotSlow();
    }

    std::uint32_t allocSlotSlow();

    /** Park @p cb in a fresh live slot; returns the slot index. */
    template <typename F>
    std::uint32_t
    fillSlot(F &&cb)
    {
        const std::uint32_t slot = allocSlot();
        Slot &s = slots_[slot];
        if constexpr (std::is_same_v<std::decay_t<F>, Callback>)
            s.cb = std::forward<F>(cb);
        else
            s.cb.emplace(std::forward<F>(cb));
        s.live = true;
        return slot;
    }

    /** schedule() under an explicit sort sequence. */
    template <typename F>
    EventId
    scheduleKeyed(Tick when, std::uint64_t seq, F &&cb)
    {
        const std::uint32_t slot = fillSlot(std::forward<F>(cb));
        const std::uint32_t gen = slots_[slot].gen;
        pushKeySeq(when, seq, slot, gen);
        return makeId(slot, gen);
    }

    void
    freeSlot(std::uint32_t slot)
    {
        Slot &s = slots_[slot];
        s.cb.reset();
        s.live = false;
        ++s.gen; // stale handles to this slot die here
        s.nextFree = freeHead_;
        freeHead_ = slot;
    }

    /** Heap insertion half of schedule(): push + siftUp + liveCount. */
    void pushKey(Tick when, std::uint32_t slot, std::uint32_t gen);

    /** Same, under an explicit sequence (scheduleKeyed). */
    void pushKeySeq(Tick when, std::uint64_t seq, std::uint32_t slot,
                    std::uint32_t gen);

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    void popTop();
    void skipDead();
    void compact();

    std::vector<Key> heap_;
    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = kNilSlot;
    std::size_t liveCount_ = 0;
    std::size_t deadInHeap_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t executed_ = 0;
    /** Key of the event being (or last) dispatched; (0, 0) before the
     *  first dispatch, which sorts before every schedulable key. */
    Tick curWhen_ = 0;
    std::uint64_t curSeq_ = 0;
};

} // namespace altoc::sim

#endif // ALTOC_SIM_EVENT_QUEUE_HH
