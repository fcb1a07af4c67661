/**
 * @file
 * EventQueue implementation: an indexed 4-ary min-heap over POD keys
 * with callbacks parked in a generation-counted slot pool.
 *
 * Why 4-ary: sift paths are half as deep as a binary heap's and the
 * four child keys share two cache lines, which wins on the
 * pop-dominated access pattern of a drain loop. Sifts move a single
 * 24-byte key into a "hole" instead of swapping records, and the
 * closures themselves never move during sifts at all.
 *
 * Dead-entry policy: cancel() reclaims the slot immediately but
 * leaves the heap key in place (removing an arbitrary key would be
 * O(n) or need per-slot heap-index bookkeeping on every sift). Keys
 * whose slot generation no longer matches are skipped when they
 * surface; compact() sweeps them wholesale as soon as they exceed
 * half the heap, so the heap never holds more than 2x size() + 1
 * entries no matter how adversarial the cancellation pattern.
 */

#include "sim/event_queue.hh"

#include <utility>

#include "common/logging.hh"
#include "common/annotations.hh"

namespace altoc::sim {

std::uint32_t
EventQueue::allocSlotSlow()
{
    altoc_assert(slots_.size() < kNilSlot, "event slot pool exhausted");
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void
EventQueue::pushKey(Tick when, std::uint32_t slot, std::uint32_t gen)
{
    pushKeySeq(when, nextSeq_++, slot, gen);
}

void
EventQueue::pushKeySeq(Tick when, std::uint64_t seq, std::uint32_t slot,
                       std::uint32_t gen)
{
    heap_.push_back(Key{when, seq, slot, gen});
    siftUp(heap_.size() - 1);
    ++liveCount_;
}

bool
EventQueue::cancel(EventId id)
{
    const std::uint32_t raw = static_cast<std::uint32_t>(id);
    if (raw == 0)
        return false;
    const std::uint32_t slot = raw - 1;
    const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slots_.size())
        return false;
    Slot &s = slots_[slot];
    if (!s.live || s.gen != gen)
        return false;
    freeSlot(slot);
    --liveCount_;
    ++deadInHeap_;
    if (deadInHeap_ * 2 > heap_.size())
        compact();
    return true;
}

void
EventQueue::compact()
{
    std::size_t out = 0;
    for (const Key &k : heap_) {
        if (keyAlive(k))
            heap_[out++] = k;
    }
    heap_.resize(out);
    deadInHeap_ = 0;
    if (out < 2)
        return;
    for (std::size_t i = (out - 2) / 4 + 1; i-- > 0;)
        siftDown(i);
}

void
EventQueue::popTop()
{
    // Bottom-up hole pop (Wegener's heapsort trick): walk the hole
    // from the root to a leaf along minimum children, then drop the
    // displaced last key into the hole and sift it up. A classic
    // sift-down additionally compares the moved key at every level,
    // but that key came from the bottom of the heap, so it nearly
    // always sinks the whole way -- the upward pass here terminates
    // after one comparison instead. Pops dominate the drain loop,
    // so the saved comparisons are the hot path's.
    const std::size_t n = heap_.size() - 1;
    if (n == 0) {
        heap_.pop_back();
        return;
    }
    std::size_t hole = 0;
    for (;;) {
        const std::size_t first = 4 * hole + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (keyLess(heap_[c], heap_[best]))
                best = c;
        }
        heap_[hole] = heap_[best];
        hole = best;
    }
    heap_[hole] = heap_[n];
    heap_.pop_back();
    siftUp(hole);
}

void
EventQueue::skipDead()
{
    while (!heap_.empty() && !keyAlive(heap_.front())) {
        popTop();
        --deadInHeap_;
    }
}

Tick
EventQueue::nextTime() const
{
    if (!heap_.empty() && keyAlive(heap_.front()))
        return heap_.front().when;
    Tick best = kTickInf;
    for (const Key &k : heap_) {
        if (k.when < best && keyAlive(k))
            best = k.when;
    }
    return best;
}

Tick
EventQueue::peekTime()
{
    skipDead();
    return heap_.empty() ? kTickInf : heap_.front().when;
}

void
EventQueue::siftUp(std::size_t i)
{
    const Key k = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!keyLess(k, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = k;
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = heap_.size();
    const Key k = heap_[i];
    for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (keyLess(heap_[c], heap_[best]))
                best = c;
        }
        if (!keyLess(heap_[best], k))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = k;
}

} // namespace altoc::sim
