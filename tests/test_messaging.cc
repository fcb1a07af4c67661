/**
 * @file
 * Hardware messaging mechanism tests: MIGRATE/ACK/NACK protocol,
 * buffer bounds, UPDATE broadcast, software fallback.
 *
 * UPDATEs are status registers read by syncView() from inside the
 * reading event, so the UPDATE tests observe a manager's view from an
 * event scheduled at the tick of interest, never after sim.run().
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>

#include "core/hw_messaging.hh"
#include "sim/simulator.hh"

using namespace altoc;
using namespace altoc::core;

namespace {

struct MsgHarness
{
    sim::Simulator sim;
    noc::Mesh mesh{4, 4};
    net::RpcPool pool;
    std::unique_ptr<HwMessaging> msg;

    std::vector<std::pair<unsigned, std::size_t>> delivered; // (mgr, n)
    std::vector<std::pair<unsigned, std::size_t>> returned;  // (mgr, n)

    explicit MsgHarness(HwMessaging::Config cfg = {},
                        std::vector<unsigned> tiles = {0, 3, 12, 15})
    {
        msg = std::make_unique<HwMessaging>(sim, mesh, tiles, cfg);
        msg->setMigrateIn(
            [this](unsigned mgr, const std::vector<net::Rpc *> &reqs) {
                delivered.emplace_back(mgr, reqs.size());
            });
        msg->setReturn([this](unsigned mgr, unsigned,
                              const std::vector<net::Rpc *> &reqs) {
            returned.emplace_back(mgr, reqs.size());
        });
    }

    /**
     * Every manager's view as an event at @p when reads it. Entries
     * are pre-set to kUnset, so a manager's own entry (which
     * syncView never writes) stays kUnset.
     */
    std::vector<std::vector<std::size_t>>
    viewsAt(Tick when)
    {
        const unsigned n = msg->numManagers();
        std::vector<std::vector<std::size_t>> views(
            n, std::vector<std::size_t>(n, kUnset));
        sim.at(when, [this, &views] {
            for (unsigned mgr = 0; mgr < views.size(); ++mgr)
                msg->syncView(mgr, views[mgr]);
        });
        sim.run();
        return views;
    }

    /** Schedule (now, not later) a read of manager @p mgr's view at
     *  @p when into @p view; the read's seq is drawn here. */
    void
    readAt(Tick when, unsigned mgr, std::vector<std::size_t> &view)
    {
        sim.at(when, [this, mgr, &view] { msg->syncView(mgr, view); });
    }

    static constexpr std::size_t kUnset = ~std::size_t{0};

    std::vector<net::Rpc *>
    batch(unsigned n)
    {
        std::vector<net::Rpc *> v;
        for (unsigned i = 0; i < n; ++i) {
            net::Rpc *r = pool.alloc();
            r->service = 100;
            r->remaining = 100;
            v.push_back(r);
        }
        return v;
    }
};

} // namespace

TEST(HwMessaging, MigrateDeliversAndAcks)
{
    MsgHarness h;
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(4)));
    h.sim.run();
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(h.delivered[0].first, 1u);
    EXPECT_EQ(h.delivered[0].second, 4u);
    EXPECT_EQ(h.msg->stats().migratesSent, 1u);
    EXPECT_EQ(h.msg->stats().migratesAcked, 1u);
    EXPECT_EQ(h.msg->stats().descriptorsDelivered, 4u);
    // ACK freed the staged MR entries.
    EXPECT_EQ(h.msg->freeMrEntries(0), hw::kMrEntries);
}

TEST(HwMessaging, MigrationMarksDescriptors)
{
    MsgHarness h;
    auto reqs = h.batch(2);
    net::Rpc *first = reqs[0];
    EXPECT_FALSE(first->migrated);
    h.msg->sendMigrate(0, 2, std::move(reqs));
    h.sim.run();
    EXPECT_TRUE(first->migrated);
    EXPECT_EQ(first->curGroup, 2u);
}

TEST(HwMessaging, MigrationTakesNocTime)
{
    MsgHarness h;
    h.msg->sendMigrate(0, 3, h.batch(8)); // tiles 0 -> 15: 6 hops
    Tick deliver_time = 0;
    h.msg->setMigrateIn(
        [&](unsigned, const std::vector<net::Rpc *> &) {
            deliver_time = h.sim.now();
        });
    h.sim.run();
    // At least the NoC flight time (18 ns) plus controller/migrator.
    EXPECT_GE(deliver_time, 18u);
    // Paper bound: migration latency < 50 ns even at 256 cores.
    EXPECT_LT(deliver_time, 50u);
}

TEST(HwMessaging, StagingBoundRefusesOversizedSends)
{
    MsgHarness h;
    // MR bank holds 11 entries; a 12-descriptor MIGRATE cannot stage.
    EXPECT_EQ(h.msg->sendCapacity(0), hw::kMrEntries);
    EXPECT_FALSE(h.msg->sendMigrate(0, 1, h.batch(12)));
    EXPECT_EQ(h.msg->stats().sendsRefused, 1u);
    // In-flight staging blocks a second full batch until the ACK.
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(8)));
    EXPECT_EQ(h.msg->sendCapacity(0), hw::kMrEntries - 8);
    EXPECT_FALSE(h.msg->sendMigrate(0, 1, h.batch(8)));
    h.sim.run();
    EXPECT_EQ(h.msg->sendCapacity(0), hw::kMrEntries);
}

TEST(HwMessaging, ReceiverOverflowNacksAndReturns)
{
    MsgHarness h;
    // Two equidistant senders hit manager 1 in the same cycle:
    // 8 + 8 > 11 MR entries, so the second MIGRATE must be dropped
    // and returned (managers 0 and 3 are both 3 hops from tile 3).
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(8)));
    EXPECT_TRUE(h.msg->sendMigrate(3, 1, h.batch(8)));
    h.sim.run();
    EXPECT_EQ(h.delivered.size() + h.returned.size(), 2u);
    EXPECT_EQ(h.msg->stats().migratesNacked, 1u);
    ASSERT_EQ(h.returned.size(), 1u);
    EXPECT_EQ(h.returned[0].second, 8u);
    // NACKed descriptors are not marked migrated.
    EXPECT_EQ(h.msg->stats().descriptorsReturned, 8u);
}

/** Read time well past any UPDATE's arrival in these harnesses. */
constexpr Tick kLate = 10 * kUs;

TEST(HwMessaging, UpdateBroadcastReachesAllOthers)
{
    MsgHarness h;
    h.msg->broadcastUpdate(1, 42);
    h.sim.run();
    const auto views = h.viewsAt(kLate);
    unsigned reached = 0;
    for (unsigned mgr = 0; mgr < 4; ++mgr) {
        if (mgr == 1) {
            // The broadcaster does not deliver to itself.
            EXPECT_EQ(views[mgr][1], MsgHarness::kUnset);
            continue;
        }
        EXPECT_EQ(views[mgr][1], 42u);
        // Only manager 1 broadcast; no other source wrote a value.
        for (unsigned src = 0; src < 4; ++src) {
            if (src != 1 && src != mgr) {
                EXPECT_EQ(views[mgr][src], 0u);
            }
        }
        ++reached;
    }
    EXPECT_EQ(reached, 3u);
    EXPECT_EQ(h.msg->stats().updatesSent, 3u);
}

TEST(HwMessaging, SoftwareFallbackIsSlower)
{
    HwMessaging::Config sw;
    sw.hardware = false;
    MsgHarness hw_h;
    MsgHarness sw_h(sw);

    Tick hw_time = 0, sw_time = 0;
    hw_h.msg->setMigrateIn(
        [&](unsigned, const std::vector<net::Rpc *> &) {
            hw_time = hw_h.sim.now();
        });
    sw_h.msg->setMigrateIn(
        [&](unsigned, const std::vector<net::Rpc *> &) {
            sw_time = sw_h.sim.now();
        });
    hw_h.msg->sendMigrate(0, 1, hw_h.batch(4));
    sw_h.msg->sendMigrate(0, 1, sw_h.batch(4));
    hw_h.sim.run();
    sw_h.sim.run();
    EXPECT_GT(sw_time, hw_time * 3);
    EXPECT_GE(sw_time, hw::kSwMessageNs);
}

TEST(HwMessaging, SoftwareFallbackIgnoresBufferBounds)
{
    HwMessaging::Config sw;
    sw.hardware = false;
    MsgHarness h(sw);
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(40)));
    h.sim.run();
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(h.delivered[0].second, 40u);
}

TEST(HwMessaging, UpdateCoalescingBoundsTraffic)
{
    // Thousands of broadcasts while the wire is busy must collapse
    // into at most one in-flight + one pending value per channel.
    MsgHarness h;
    for (std::size_t q = 0; q < 1000; ++q)
        h.msg->broadcastUpdate(0, q);
    h.sim.run();
    // 3 destinations; first value flies immediately, later ones
    // coalesce into (few) follow-ups.
    EXPECT_LE(h.msg->stats().updatesSent, 3u * 4u);
    // Every destination must end at the freshest value, and only
    // manager 0's entry was ever written.
    const auto views = h.viewsAt(kLate);
    for (unsigned mgr = 1; mgr < 4; ++mgr) {
        EXPECT_EQ(views[mgr][0], 999u);
        for (unsigned src = 1; src < 4; ++src) {
            if (src != mgr) {
                EXPECT_EQ(views[mgr][src], 0u);
            }
        }
    }
}

TEST(HwMessaging, UpdateChannelRecoversAfterIdle)
{
    MsgHarness h;
    h.msg->broadcastUpdate(0, 1);
    h.sim.run();
    const auto first_batch = h.msg->stats().updatesSent;
    // The second broadcast runs in an event past the first UPDATE's
    // arrival, so every channel has gone idle by then.
    h.sim.at(kLate, [&h] { h.msg->broadcastUpdate(0, 2); });
    h.sim.run();
    // Channel went idle, so the second broadcast sends fresh
    // messages to all three peers again -- none coalesced, so the
    // queue ran only the broadcasting event itself.
    EXPECT_EQ(h.msg->stats().updatesSent, first_batch + 3);
    EXPECT_EQ(h.sim.eventsExecuted(), 1u);
    const auto views = h.viewsAt(2 * kLate);
    for (unsigned mgr = 1; mgr < 4; ++mgr)
        EXPECT_EQ(views[mgr][0], 2u);
}

/** Arrival tick of the first header-sized UPDATE from tile @p from
 *  to tile @p to on an idle 4x4 mesh, sent at @p depart. */
Tick
firstUpdateArrival(unsigned from, unsigned to, Tick depart)
{
    noc::Mesh probe{4, 4};
    return probe.send(noc::kVnSched, from, to, hw::kHeaderBytes,
                      depart + hw::kControllerNs);
}

TEST(HwMessaging, UpdateLandingAtReaderTickFollowsEagerOrder)
{
    // An UPDATE lands at key (arrival, the seq it reserved at
    // launch) -- where its delivery event sat when UPDATEs were
    // events. A reader at the arrival tick whose event was scheduled
    // before the launch (smaller seq) must still see the old value;
    // one scheduled after the launch must see the new value.
    MsgHarness h;
    const Tick t0 = 100;
    // Launch at t0 inside an event, as the runtime does. Manager 0
    // sits at tile 0 and manager 1 at tile 3; 0 -> 1 is the first
    // send of the broadcast, so an idle probe mesh predicts it.
    const Tick arrive = firstUpdateArrival(0, 3, t0);
    std::vector<std::size_t> early(4, 0), before(4, 0), after(4, 0);
    h.readAt(arrive - 1, 1, early);
    h.readAt(arrive, 1, before); // seq drawn before the launch
    h.sim.at(t0, [&h, arrive, &after] {
        h.msg->broadcastUpdate(0, 7);
        h.readAt(arrive, 1, after); // seq drawn after the launch
    });
    h.sim.run();
    EXPECT_EQ(early[0], 0u) << "UPDATE visible before its arrival";
    EXPECT_EQ(before[0], 0u)
        << "reader ordered before the delivery key saw the UPDATE";
    EXPECT_EQ(after[0], 7u)
        << "reader ordered after the delivery key missed the UPDATE";
    // Nothing but the three scheduled events ran: no delivery events.
    EXPECT_EQ(h.sim.eventsExecuted(), 4u);
}

TEST(HwMessaging, CoalescedUpdateTakesReservedSeqEventAndRelaunches)
{
    MsgHarness h;
    h.msg->broadcastUpdate(0, 1);
    // An idle channel launches lazily: no event is scheduled.
    EXPECT_EQ(h.sim.pendingEvents(), 0u);
    EXPECT_EQ(h.msg->stats().updatesSent, 3u);

    // The first UPDATEs are airborne, so this one coalesces; each
    // channel materializes exactly one landing event.
    h.msg->broadcastUpdate(0, 2);
    EXPECT_EQ(h.sim.pendingEvents(), 3u);
    h.msg->broadcastUpdate(0, 3); // overwrites the pending value only
    EXPECT_EQ(h.sim.pendingEvents(), 3u);
    EXPECT_EQ(h.msg->stats().updatesSent, 3u);

    // 0 -> 1 is each broadcast's first send; its landing event fires
    // at the first arrival and relaunches the freshest value there.
    const Tick first = firstUpdateArrival(0, 3, 0);
    std::vector<std::size_t> mid(4, 0);
    h.readAt(first + 1, 1, mid);
    h.sim.run();
    EXPECT_EQ(mid[0], 1u) << "first UPDATE did not land at its arrival";
    // Three landing events plus the read; the relaunches are lazy.
    EXPECT_EQ(h.sim.eventsExecuted(), 4u);
    EXPECT_EQ(h.msg->stats().updatesSent, 6u);
    EXPECT_EQ(h.msg->stats().bytesOnNoc, 6u * hw::kHeaderBytes);
    const auto views = h.viewsAt(kLate);
    for (unsigned mgr = 1; mgr < 4; ++mgr)
        EXPECT_EQ(views[mgr][0], 3u);
}

TEST(HwMessaging, UpdateSkipsDeadDestination)
{
    MsgHarness h;
    h.msg->setManagerDead(2);
    h.msg->broadcastUpdate(0, 5);
    EXPECT_EQ(h.msg->stats().updatesSent, 2u);
    const auto views = h.viewsAt(kLate);
    EXPECT_EQ(views[1][0], 5u);
    EXPECT_EQ(views[3][0], 5u);

    // A destination that dies with a coalesced UPDATE airborne still
    // sees the pending value relaunched when the wire frees (the
    // sender cannot know), but no later broadcast reaches it.
    MsgHarness g;
    g.msg->broadcastUpdate(0, 1);
    g.msg->broadcastUpdate(0, 2);
    g.msg->setManagerDead(2);
    g.sim.run();
    EXPECT_EQ(g.msg->stats().updatesSent, 6u);
    g.sim.at(kLate, [&g] { g.msg->broadcastUpdate(0, 3); });
    g.sim.run();
    EXPECT_EQ(g.msg->stats().updatesSent, 8u);
    const auto late = g.viewsAt(2 * kLate);
    EXPECT_EQ(late[1][0], 3u);
    EXPECT_EQ(late[3][0], 3u);
}

TEST(HwMessaging, SoftwareFallbackUpdateLandsAfterFixedLatency)
{
    HwMessaging::Config sw;
    sw.hardware = false;
    MsgHarness h(sw);
    const Tick t0 = 50;
    const Tick arrive = t0 + hw::kControllerNs + hw::kSwUpdateNs;
    std::vector<std::size_t> early(4, 0), landed(4, 0);
    h.sim.at(t0, [&] {
        h.msg->broadcastUpdate(0, 9);
        h.readAt(arrive - 1, 2, early);
        h.readAt(arrive, 2, landed);
    });
    h.sim.run();
    EXPECT_EQ(early[0], 0u);
    EXPECT_EQ(landed[0], 9u);
    EXPECT_EQ(h.msg->stats().updatesSent, 3u);
    // Shared-cache messages never touch the NoC.
    EXPECT_EQ(h.msg->stats().bytesOnNoc, 0u);
}

TEST(HwMessaging, ConcurrentMigrationsBetweenDisjointPairs)
{
    MsgHarness h;
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(4)));
    EXPECT_TRUE(h.msg->sendMigrate(2, 3, h.batch(4)));
    h.sim.run();
    EXPECT_EQ(h.msg->stats().migratesAcked, 2u);
    EXPECT_EQ(h.delivered.size(), 2u);
}

TEST(HwMessaging, NocBytesAccounted)
{
    MsgHarness h;
    h.msg->sendMigrate(0, 1, h.batch(4));
    h.sim.run();
    // MIGRATE (8 + 4*14 = 64 B) + ACK (8 B).
    EXPECT_EQ(h.msg->stats().bytesOnNoc, 72u);
}

TEST(HwMessaging, ReceiveFifoBoundNacksIndependently)
{
    // Shrink the receive FIFO below the MR bank so the FIFO is the
    // binding constraint: 3 + 3 fits 64 MR entries but not 4 FIFO
    // slots when two equidistant MIGRATEs land in the same cycle.
    HwMessaging::Config cfg;
    cfg.mrEntries = 64;
    cfg.fifoEntries = 4;
    MsgHarness h(cfg);
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(3)));
    EXPECT_TRUE(h.msg->sendMigrate(3, 1, h.batch(3)));
    h.sim.run();
    EXPECT_EQ(h.msg->stats().migratesNacked, 1u);
    ASSERT_EQ(h.returned.size(), 1u);
    EXPECT_EQ(h.returned[0].second, 3u);
}

TEST(HwMessaging, MrBankBoundNacksIndependently)
{
    // Now the MR bank binds: 4 + 4 fits 16 FIFO slots but not 6 MR
    // entries.
    HwMessaging::Config cfg;
    cfg.mrEntries = 6;
    cfg.fifoEntries = 16;
    MsgHarness h(cfg);
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(4)));
    EXPECT_TRUE(h.msg->sendMigrate(3, 1, h.batch(4)));
    h.sim.run();
    EXPECT_EQ(h.msg->stats().migratesNacked, 1u);
    ASSERT_EQ(h.returned.size(), 1u);
    EXPECT_EQ(h.returned[0].second, 4u);
}

TEST(HwMessaging, NackCountsOncePerBatchNotPerDescriptor)
{
    MsgHarness h;
    // 8 + 8 > 11 MR entries: one whole batch bounces. The NACK is a
    // single protocol event regardless of batch size.
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(8)));
    EXPECT_TRUE(h.msg->sendMigrate(3, 1, h.batch(8)));
    h.sim.run();
    EXPECT_EQ(h.msg->stats().migratesNacked, 1u);
    EXPECT_EQ(h.msg->stats().descriptorsReturned, 8u);
    // And the staging the bounced batch held is fully released.
    EXPECT_EQ(h.msg->freeMrEntries(0), hw::kMrEntries);
    EXPECT_EQ(h.msg->freeMrEntries(3), hw::kMrEntries);
    EXPECT_EQ(h.msg->outstanding(), 0u);
}

TEST(HwMessaging, NackPreservesMigratedOnceState)
{
    MsgHarness h;
    // First hop 0 -> 1 lands and marks the batch migrated-once.
    auto reqs = h.batch(2);
    net::Rpc *probe = reqs[0];
    std::vector<net::Rpc *> landed;
    h.msg->setMigrateIn(
        [&](unsigned, const std::vector<net::Rpc *> &in) {
            landed = in;
        });
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, std::move(reqs)));
    h.sim.run();
    ASSERT_EQ(landed.size(), 2u);
    EXPECT_TRUE(probe->migrated);
    EXPECT_EQ(probe->curGroup, 1u);

    // A later 1 -> 2 attempt that bounces must leave both the flag
    // and the landed group untouched: the request still lives at
    // group 1 and still counts as migrated exactly once. Manager 2's
    // MR bank is held by its own outbound staging (freed only by the
    // much later ACK), so the probe's arrival deterministically finds
    // no room: 10 staged + 2 inbound > 11 entries.
    EXPECT_TRUE(h.msg->sendMigrate(2, 3, h.batch(10)));
    EXPECT_TRUE(h.msg->sendMigrate(1, 2, std::move(landed)));
    h.sim.run();
    EXPECT_EQ(h.msg->stats().migratesNacked, 1u);
    EXPECT_TRUE(probe->migrated);
    EXPECT_EQ(probe->curGroup, 1u);
}

/** operator+= sums every field. The struct is viewed as its words (its
 *  size is static_asserted to be exactly its counters), each holding a
 *  distinct value in both operands, so a field left unsummed shows. */
TEST(MessagingStats, PlusEqualsSumsEveryField)
{
    using Words = std::array<std::uint64_t,
                             sizeof(MessagingStats) / sizeof(std::uint64_t)>;
    Words a{};
    Words b{};
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = i + 1;
        b[i] = 100 * (i + 1);
    }
    MessagingStats sum = std::bit_cast<MessagingStats>(a);
    sum += std::bit_cast<MessagingStats>(b);
    const Words got = std::bit_cast<Words>(sum);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], 101 * (i + 1)) << "field " << i;
}
