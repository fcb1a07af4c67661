/**
 * @file
 * Event-kernel tests for the slotted queue: generation-counted handle
 * reuse, mass-cancellation compaction, schedule/cancel interleaving
 * against a reference model, tie-break stability, the inline-callback
 * capture-size compile check, reserved sequence positions, the
 * zero-allocation guarantee on the steady-state hot path (the queue
 * and the UPDATE status channels), and a whole-pipeline bound on
 * allocations per completed request across a warm runExperiment
 * slice.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/inline_fn.hh"
#include "core/hw_messaging.hh"
#include "noc/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/simulator.hh"
#include "system/experiment.hh"
#include "system/rack.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::sim;

// ---------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps
// g_allocs, so a test can assert a region of the kernel hot path
// performs zero heap allocations.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_allocs{0};

/**
 * The one allocation pair behind every replaced operator below. Kept
 * out of line, so the compiler never inlines malloc into an operator
 * new and free into an operator delete at a call site -- which is
 * what GCC's -Wmismatched-new-delete reads as a new/free mismatch.
 */
[[gnu::noinline]] void *
countedAlloc(std::size_t n)
{
    ++g_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
countedFree(void *p) noexcept
{
    std::free(p);
}
} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }

// ---------------------------------------------------------------------
// Generation-counted handles
// ---------------------------------------------------------------------

TEST(EventSlots, StaleHandleAfterFireIsRejected)
{
    EventQueue q;
    const EventId a = q.schedule(10, [] {});
    q.runOne();
    // The slot is free; a new event reuses it with a new generation.
    const EventId b = q.schedule(20, [] {});
    EXPECT_NE(a, b);
    EXPECT_FALSE(q.cancel(a)) << "stale handle cancelled a reused slot";
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.cancel(b));
    EXPECT_TRUE(q.empty());
}

TEST(EventSlots, StaleHandleAfterCancelIsRejected)
{
    EventQueue q;
    const EventId a = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(a));
    const EventId b = q.schedule(10, [] {});
    EXPECT_FALSE(q.cancel(a));
    EXPECT_TRUE(q.cancel(b));
    EXPECT_FALSE(q.cancel(b));
}

TEST(EventSlots, HandlesNeverEqualNoEvent)
{
    EventQueue q;
    for (int i = 0; i < 100; ++i) {
        const EventId id = q.schedule(static_cast<Tick>(i + 1), [] {});
        EXPECT_NE(id, kNoEvent);
    }
    EXPECT_FALSE(q.cancel(kNoEvent));
}

TEST(EventSlots, SlotsAreReusedNotLeaked)
{
    EventQueue q;
    Tick t = 1;
    for (int round = 0; round < 1000; ++round) {
        q.schedule(t++, [] {});
        q.runOne();
    }
    // One live event at a time: the pool must stay O(1), not O(rounds).
    EXPECT_LE(q.slotCapacity(), 4u);
}

// ---------------------------------------------------------------------
// Mass cancellation / eager compaction
// ---------------------------------------------------------------------

TEST(EventCompaction, MassCancelBoundsHeapSlack)
{
    EventQueue q;
    std::vector<EventId> ids;
    const unsigned kTotal = 4096;
    for (unsigned i = 0; i < kTotal; ++i)
        ids.push_back(q.schedule(1 + i, [] {}));
    // Cancel all but every 64th event -- the timeout-heavy fault-run
    // pattern that used to leave the heap full of corpses.
    unsigned live = 0;
    for (unsigned i = 0; i < kTotal; ++i) {
        if (i % 64 == 0) {
            ++live;
            continue;
        }
        EXPECT_TRUE(q.cancel(ids[i]));
    }
    EXPECT_EQ(q.size(), live);
    // Eager compaction keeps dead keys at no more than half the heap.
    EXPECT_LE(q.heapEntries(), 2 * q.size() + 1)
        << "cancelled records bloated the heap";
    // The survivors still fire, in order.
    Tick last = 0;
    while (!q.empty()) {
        const Tick when = q.runOne();
        EXPECT_GT(when, last);
        last = when;
    }
    EXPECT_EQ(q.executed(), live);
}

TEST(EventCompaction, CancelEverythingEmptiesHeap)
{
    EventQueue q;
    std::vector<EventId> ids;
    for (unsigned i = 0; i < 512; ++i)
        ids.push_back(q.schedule(1 + i, [] {}));
    for (const EventId id : ids)
        EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    EXPECT_LE(q.heapEntries(), 1u);
    EXPECT_EQ(q.nextTime(), kTickInf);
    EXPECT_EQ(q.peekTime(), kTickInf);
}

// ---------------------------------------------------------------------
// Interleaving stress against a reference model
// ---------------------------------------------------------------------

TEST(EventStress, ScheduleCancelInterleavingMatchesReferenceModel)
{
    // Reference: an ordered map keyed by (when, seq) -- the defined
    // dispatch order. The kernel must fire exactly the same sequence.
    EventQueue q;
    std::map<std::pair<Tick, std::uint64_t>, int> model;
    std::vector<std::pair<EventId, std::pair<Tick, std::uint64_t>>> live;
    std::vector<int> fired;
    std::vector<int> expected;

    std::uint64_t lcg = 12345;
    auto rnd = [&lcg](std::uint64_t mod) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return (lcg >> 33) % mod;
    };

    std::uint64_t seq = 0;
    int token = 0;
    Tick now = 0;
    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t kind = rnd(10);
        if (kind < 5 || live.empty()) {
            // Schedule at or after `now` (time is monotone).
            const Tick when = now + rnd(50);
            const int tok = token++;
            const EventId id =
                q.schedule(when, [tok, &fired] { fired.push_back(tok); });
            const auto key = std::make_pair(when, seq++);
            model.emplace(key, tok);
            live.emplace_back(id, key);
        } else if (kind < 7) {
            // Cancel a random live event.
            const std::size_t pick = rnd(live.size());
            const auto [id, key] = live[pick];
            live[pick] = live.back();
            live.pop_back();
            EXPECT_TRUE(q.cancel(id));
            EXPECT_FALSE(q.cancel(id));
            model.erase(key);
        } else if (!model.empty()) {
            // Fire the earliest event.
            const auto it = model.begin();
            expected.push_back(it->second);
            const auto key = it->first;
            model.erase(it);
            for (std::size_t i = 0; i < live.size(); ++i) {
                if (live[i].second == key) {
                    live[i] = live.back();
                    live.pop_back();
                    break;
                }
            }
            EXPECT_EQ(q.peekTime(), key.first);
            now = q.runOne();
            EXPECT_EQ(now, key.first);
        }
        ASSERT_EQ(q.size(), model.size());
    }
    while (!model.empty()) {
        const auto it = model.begin();
        expected.push_back(it->second);
        model.erase(it);
        q.runOne();
    }
    EXPECT_TRUE(q.empty());
    ASSERT_EQ(fired.size(), expected.size());
    EXPECT_EQ(fired, expected);
}

// ---------------------------------------------------------------------
// Tie-break stability
// ---------------------------------------------------------------------

TEST(EventOrdering, EqualTicksFireInScheduleOrderAcrossCancels)
{
    EventQueue q;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 64; ++i)
        ids.push_back(q.schedule(7, [i, &order] { order.push_back(i); }));
    // Punch holes: cancel every third event, which exercises the
    // sift paths without disturbing the (when, seq) order.
    for (int i = 0; i < 64; i += 3)
        q.cancel(ids[static_cast<std::size_t>(i)]);
    while (!q.empty())
        q.runOne();
    int prev = -1;
    for (const int i : order) {
        EXPECT_GT(i, prev) << "tie-break order violated";
        EXPECT_NE(i % 3, 0) << "cancelled event fired";
        prev = i;
    }
    EXPECT_EQ(order.size(), 64u - 22u);
}

TEST(EventOrdering, RescheduleInsideCallbackKeepsOrder)
{
    EventQueue q;
    std::vector<Tick> times;
    q.schedule(10, [&q, &times] {
        times.push_back(10);
        // Scheduling from inside a dispatch reuses the just-freed
        // slot while the pool may grow; both paths must be safe.
        q.schedule(15, [&times] { times.push_back(15); });
        q.schedule(12, [&times] { times.push_back(12); });
    });
    q.schedule(11, [&times] { times.push_back(11); });
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(times, (std::vector<Tick>{10, 11, 12, 15}));
}

TEST(EventOrdering, ReservedSeqHoldsItsPositionAmongOrdinarySchedules)
{
    // A reservation claims the seq an ordinary schedule() would have
    // drawn at that point; materializing it later (from inside an
    // earlier event) slots it exactly there, and dispatchKeyPassed()
    // agrees with the dispatch order at the same tick.
    EventQueue q;
    std::vector<int> order;
    bool passedInFirst = true;
    bool passedInThird = false;
    std::uint64_t reserved = 0;
    q.schedule(10, [&] {
        order.push_back(1);
        passedInFirst = q.dispatchKeyPassed(10, reserved);
    });
    reserved = q.reserveSeq();
    q.schedule(10, [&] {
        order.push_back(3);
        passedInThird = q.dispatchKeyPassed(10, reserved);
    });
    q.schedule(5, [&] {
        order.push_back(0);
        EXPECT_FALSE(q.dispatchKeyPassed(10, reserved));
        EXPECT_TRUE(q.dispatchKeyPassed(4, reserved));
        q.scheduleReserved(10, reserved, [&] { order.push_back(2); });
    });
    // A reservation never materialized leaves no trace in the queue.
    const std::uint64_t unused = q.reserveSeq();
    EXPECT_GT(unused, reserved);
    q.schedule(10, [&] { order.push_back(4); });
    EXPECT_EQ(q.size(), 4u);
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_FALSE(passedInFirst);
    EXPECT_TRUE(passedInThird);
    EXPECT_EQ(q.executed(), 5u);
}

TEST(EventOrdering, DispatchKeyStartsBeforeEveryKey)
{
    EventQueue q;
    const std::uint64_t seq = q.reserveSeq();
    EXPECT_FALSE(q.dispatchKeyPassed(0, seq));
    q.schedule(0, [] {});
    q.runOne();
    // The first event (0, seq + 1) is now the dispatch key.
    EXPECT_TRUE(q.dispatchKeyPassed(0, seq));
    EXPECT_FALSE(q.dispatchKeyPassed(0, seq + 1));
    EXPECT_FALSE(q.dispatchKeyPassed(1, 0));
}

// ---------------------------------------------------------------------
// Inline-callback capture budget (compile-time check)
// ---------------------------------------------------------------------

namespace {

struct SmallCapture
{
    void *a;
    std::uint64_t b;
    std::uint32_t c;
};

struct BigCapture
{
    char blob[InlineFn::kCapacity + 1];
};

} // namespace

TEST(InlineCallback, CaptureBudgetIsCompileChecked)
{
    const SmallCapture small{nullptr, 1, 2};
    auto fits = [small] { (void)small; };
    static_assert(std::is_constructible_v<InlineFn, decltype(fits)>,
                  "a 20-byte capture must fit the inline budget");
    static_assert(InlineFn::fits<decltype(fits)>);

    const BigCapture big{};
    auto too_big = [big] { (void)big; };
    static_assert(!std::is_constructible_v<InlineFn, decltype(too_big)>,
                  "an over-budget capture must be rejected at compile "
                  "time, not spilled to the heap");
    static_assert(!InlineFn::fits<decltype(too_big)>);

    InlineFn fn(fits);
    EXPECT_TRUE(static_cast<bool>(fn));
    fn();
}

TEST(InlineCallback, MoveTransfersOwnership)
{
    int calls = 0;
    InlineFn a([&calls] { ++calls; });
    InlineFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a)); // NOLINT: testing moved-from
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(calls, 1);
    InlineFn c;
    c = std::move(b);
    c();
    EXPECT_EQ(calls, 2);
}

TEST(InlineCallback, MoveOnlyClosuresAreSupported)
{
    // std::function would reject this closure (it requires
    // copy-constructible targets); the kernel must not.
    auto owner = std::make_unique<int>(41);
    int seen = 0;
    InlineFn fn([o = std::move(owner), &seen] { seen = *o + 1; });
    fn();
    EXPECT_EQ(seen, 42);
}

// ---------------------------------------------------------------------
// Zero-allocation steady state
// ---------------------------------------------------------------------

TEST(EventHotPath, SteadyStateScheduleDispatchDoesNotAllocate)
{
    EventQueue q;
    Tick t = 1;
    // Warm-up: size the slot pool and heap storage, then hold the
    // queue at constant depth so vector growth is off the table.
    for (unsigned i = 0; i < 1024; ++i)
        q.schedule(t++, [] {});
    for (unsigned i = 0; i < 2048; ++i) {
        q.schedule(t++, [] {});
        q.runOne();
    }

    const std::size_t before = g_allocs.load();
    for (unsigned i = 0; i < 100000; ++i) {
        q.schedule(t++, [] {});
        q.runOne();
    }
    EXPECT_EQ(g_allocs.load(), before)
        << "schedule/dispatch allocated on the steady-state hot path";

    // Cancellation is also allocation-free once warm: slots recycle
    // through the free list and dead heap keys are compacted in
    // place. One warm-up round first -- lazy cancellation legitimately
    // carries up to live+1 dead keys before compaction, so the heap
    // vector's high-water capacity is ~2x depth, reached here.
    for (unsigned i = 0; i < 10000; ++i) {
        const EventId id = q.schedule(t++, [] {});
        q.cancel(id);
    }
    const std::size_t before_cancel = g_allocs.load();
    for (unsigned i = 0; i < 10000; ++i) {
        const EventId id = q.schedule(t++, [] {});
        q.cancel(id);
    }
    EXPECT_EQ(g_allocs.load(), before_cancel)
        << "schedule/cancel allocated on the steady-state hot path";
    while (!q.empty())
        q.runOne();
}

namespace {

/** Four managers that re-read their views and re-broadcast their
 *  queue length every @c period ns, the runtime's UPDATE pattern. */
struct UpdateLoop
{
    sim::Simulator sim;
    noc::Mesh mesh{4, 4};
    core::HwMessaging msg{sim, mesh, {0, 3, 12, 15}, {}};
    std::vector<std::vector<std::size_t>> views{
        4, std::vector<std::size_t>(4, 0)};
    std::size_t qlen = 0;
    Tick period;

    explicit UpdateLoop(Tick p) : period(p)
    {
        for (unsigned m = 0; m < 4; ++m)
            sim.after(m, [this, m] { tick(m); });
    }

    void
    tick(unsigned m)
    {
        msg.syncView(m, views[m]);
        msg.broadcastUpdate(m, ++qlen);
        sim.after(period, [this, m] { tick(m); });
    }
};

} // namespace

TEST(EventHotPath, UpdateBroadcastPathDoesNotAllocate)
{
    // At 200 ns every channel is idle when the next broadcast comes
    // (the lazy path: no event); at 5 ns broadcasts outrun the wire,
    // so every channel coalesces into a materialized landing event
    // that relaunches (the event path).
    for (const Tick period : {Tick{200}, Tick{5}}) {
        UpdateLoop loop(period);
        loop.sim.run(50 * kUs); // warm: queue and pool at high water
        const std::uint64_t sent = loop.msg.stats().updatesSent;
        const std::uint64_t events = loop.sim.eventsExecuted();
        const std::size_t before = g_allocs.load();
        loop.sim.run(150 * kUs);
        EXPECT_EQ(g_allocs.load(), before)
            << "UPDATE path allocated at period " << period;
        const std::uint64_t ticks = 4 * (100 * kUs / period);
        const std::uint64_t ran = loop.sim.eventsExecuted() - events;
        EXPECT_GT(loop.msg.stats().updatesSent, sent);
        if (period == 200) {
            // Lazy path: the only events are the runtime ticks.
            EXPECT_EQ(ran, ticks);
            EXPECT_EQ(loop.msg.stats().updatesSent - sent, 3 * ticks);
        } else {
            // Event path: landing events on top of the ticks.
            EXPECT_GT(ran, ticks);
        }
        for (unsigned m = 1; m < 4; ++m)
            EXPECT_GT(loop.views[m][0], 0u);
    }
}

// ---------------------------------------------------------------------
// Whole-pipeline allocation bound per completed request
// ---------------------------------------------------------------------

#if !ALTOC_AUDIT_ENABLED
namespace {

std::size_t
allocsForAcIntRun(std::uint64_t requests)
{
    altoc::system::DesignConfig cfg;
    cfg.design = altoc::system::Design::AcInt;
    cfg.cores = 16;
    cfg.groups = 2;
    altoc::system::WorkloadSpec spec;
    spec.service = altoc::workload::makeFixed(1 * kUs);
    spec.rateMrps = 8.0;
    spec.requests = requests;
    spec.seed = 42;
    const std::size_t before = g_allocs.load();
    const altoc::system::RunResult res =
        altoc::system::runExperiment(cfg, spec);
    const std::size_t used = g_allocs.load() - before;
    EXPECT_EQ(res.completed, requests);
    return used;
}

std::size_t
allocsForShardedRackRun(std::uint64_t requests)
{
    altoc::system::DesignConfig cfg;
    cfg.design = altoc::system::Design::AcInt;
    cfg.cores = 16;
    cfg.groups = 2;
    cfg.rack.servers = 2;
    cfg.rack.policy = altoc::system::TorPolicy::RoundRobin;
    cfg.shards = 2;
    altoc::system::WorkloadSpec spec;
    spec.service = altoc::workload::makeFixed(1 * kUs);
    spec.rateMrps = 8.0;
    spec.requests = requests;
    spec.seed = 42;
    const std::size_t before = g_allocs.load();
    const altoc::system::RunResult res =
        altoc::system::runExperiment(cfg, spec);
    const std::size_t used = g_allocs.load() - before;
    EXPECT_EQ(res.completed, requests);
    EXPECT_GT(res.parallelWindows, 0u);
    return used;
}

} // namespace
#endif // !ALTOC_AUDIT_ENABLED

TEST(EventHotPath, CompletedRequestAllocationIsBounded)
{
#if ALTOC_AUDIT_ENABLED
    GTEST_SKIP() << "audit builds allocate in the invariant auditor";
#else
    // Fixed setup costs (server, scheduler, reserves) are identical
    // between an N- and a 2N-request run of the same config, so the
    // difference isolates what actually scales with completed
    // requests. After the descriptor-path overhaul that residue is a
    // handful of slab/regrowth allocations for the *whole* extra
    // slice -- bound it at 1 allocation per 20 completed requests so
    // any per-request heap traffic sneaking back in fails loudly.
    constexpr std::uint64_t kN = 4000;
    const std::size_t small = allocsForAcIntRun(kN);
    const std::size_t big = allocsForAcIntRun(2 * kN);
    ASSERT_GE(big, small)
        << "longer run allocated less; harness assumption broken";
    const std::size_t per_slice = big - small;
    EXPECT_LE(per_slice, kN / 20)
        << "steady-state pipeline allocates per completed request ("
        << per_slice << " extra allocations across " << kN
        << " extra requests)";
#endif
}

/** The same bound on a 2-server rack on two worker shards: window
 *  traffic (cross-region deliveries through the channels, the
 *  observation logs handed over at every boundary and folded inside
 *  the windows) recycles its buffers instead of allocating per window
 *  or per request. */
TEST(ShardedHotPath, RackCompletedRequestAllocationIsBounded)
{
#if ALTOC_AUDIT_ENABLED
    GTEST_SKIP() << "audit builds allocate in the invariant auditor";
#else
    constexpr std::uint64_t kN = 4000;
    const std::size_t small = allocsForShardedRackRun(kN);
    const std::size_t big = allocsForShardedRackRun(2 * kN);
    const std::size_t per_slice = big > small ? big - small : 0;
    EXPECT_LE(per_slice, kN / 20)
        << "sharded rack allocates per completed request (" << per_slice
        << " extra allocations across " << kN << " extra requests)";
#endif
}
