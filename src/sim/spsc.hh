/**
 * @file
 * Fixed-capacity single-producer/single-consumer ring for the sharded
 * kernel's cross-region channels.
 *
 * One SpscRing connects exactly one producing thread to one consuming
 * thread at a time (a region's ring: the hub's thread to whichever
 * thread holds the region's claim, which hands the consumer side on
 * with release/acquire order). The producer owns tail_, the consumer owns
 * head_; each publishes its index with release order and reads the
 * other's with acquire order, so a popped element's payload (an
 * InlineFn closure plus its sort key) is fully visible to the
 * consumer without any lock. Capacity is a power of two fixed at
 * construction -- the ring never allocates after that, keeping the
 * cross-shard path inside the kernel's alloc-free discipline.
 *
 * tryPush/tryPop never block: a full ring returns false and the
 * kernel's hub retries while the region's holder drains it (holders
 * drain while they dispatch and while they wait), or drains it itself
 * when it can claim the region -- which is what makes the sharded
 * kernel deadlock-free.
 */

#ifndef ALTOC_SIM_SPSC_HH
#define ALTOC_SIM_SPSC_HH

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace altoc::sim {

template <typename T>
class SpscRing
{
  public:
    explicit SpscRing(std::size_t capacity)
        : buf_(roundUpPow2(capacity)), mask_(buf_.size() - 1)
    {
    }

    SpscRing(const SpscRing &) = delete;
    SpscRing &operator=(const SpscRing &) = delete;

    /** Producer side: enqueue @p v; false when the ring is full. */
    bool
    tryPush(T &&v)
    {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        const std::size_t head = head_.load(std::memory_order_acquire);
        if (tail - head > mask_)
            return false;
        buf_[tail & mask_] = std::move(v);
        tail_.store(tail + 1, std::memory_order_release);
        return true;
    }

    /** Consumer side: dequeue into @p out; false when empty. */
    bool
    tryPop(T &out)
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        const std::size_t tail = tail_.load(std::memory_order_acquire);
        if (head == tail)
            return false;
        out = std::move(buf_[head & mask_]);
        head_.store(head + 1, std::memory_order_release);
        return true;
    }

    /** Emptiness probe: exact for the consumer, a racy hint for
     *  anyone else (it only reads the two atomic indices). */
    bool
    empty() const
    {
        return head_.load(std::memory_order_relaxed) ==
               tail_.load(std::memory_order_acquire);
    }

    std::size_t capacity() const { return buf_.size(); }

  private:
    static std::size_t
    roundUpPow2(std::size_t n)
    {
        altoc_assert(n > 0, "spsc ring needs a positive capacity");
        std::size_t p = 1;
        while (p < n)
            p <<= 1;
        return p;
    }

    std::vector<T> buf_;
    std::size_t mask_;
    alignas(64) std::atomic<std::size_t> head_{0};
    alignas(64) std::atomic<std::size_t> tail_{0};
};

} // namespace altoc::sim

#endif // ALTOC_SIM_SPSC_HH
