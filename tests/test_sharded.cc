/**
 * @file
 * Sharded-kernel exactness suite (sim/kernel.hh, system/rack.hh).
 *
 * The sharded conservative-PDES executor's contract is *bit
 * identity*: for any shard count, a rack run produces the same
 * fingerprint, the same completion count, the same latency summary
 * and the same raw trace bytes as the serial kernel -- sharding is
 * purely an execution strategy. This suite pins that contract:
 *
 *  1. Fingerprint identity across shards in {1, 2, 8} for a matrix
 *     of designs x seeds, on the 4-server round-robin rack (the
 *     shardable topology), with the parallel path proven live
 *     (parallelWindows > 0).
 *  2. Raw trace-file byte identity serial vs sharded.
 *  3. Chaos: a drop/delay fault schedule (shardable -- fault draws
 *     are region-private) is shard-invariant, and a kill-bearing
 *     schedule collapses to the serial kernel (parallelWindows == 0)
 *     while still agreeing bit-for-bit.
 *  4. Downgrade semantics: load-inspecting ToR policies and N=1
 *     topologies resolve to the serial kernel rather than changing
 *     results.
 *  5. Region clocks at kernel level, on a star whose hub runs on the
 *     calling thread: a hub that fills rings of regions whose holders
 *     wait on its clock, claims handed between threads at every
 *     stretch, and endless idle work on the calling thread all
 *     reproduce Kernel::run()'s per-region dispatch sequences; the
 *     rack runs the ToR on the calling thread, reports per-thread
 *     accounting, and its parallelWindows repeat exactly.
 *  6. The rack's observation fold, partly run inside the parallel
 *     phase: ObsFold replays the whole-log merge whatever its
 *     hand-over clocks and fold points, also when records carry ticks
 *     past the hand-over clock; latency summaries, per-server
 *     summaries and the per-request capture agree across shard
 *     counts, also when a time limit ends the parallel phase before
 *     the gate closes or straggle and freeze faults log such
 *     records.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "sim/fault_spec.hh"
#include "sim/kernel.hh"
#include "system/obs_fold.hh"
#include "system/rack.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

/** The representative federated scenario of test_rack.cc, on the
 *  round-robin policy (the load-oblivious one sharding supports). */
DesignConfig
shardConfig(Design design, unsigned shards,
            TorPolicy policy = TorPolicy::RoundRobin)
{
    DesignConfig cfg;
    cfg.design = design;
    cfg.cores = 16;
    cfg.groups = 2;
    cfg.rack.servers = 4;
    cfg.rack.policy = policy;
    cfg.shards = shards;
    return cfg;
}

WorkloadSpec
shardSpec(std::uint64_t seed = 42)
{
    WorkloadSpec spec;
    spec.service = workload::makeExponential(1 * kUs);
    spec.rateMrps = 8.0;
    spec.requests = 4000;
    spec.seed = seed;
    return spec;
}

std::string
tmpPath(const char *name)
{
    return ::testing::TempDir() + "altoc_sharded_" + name;
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

/** Every observable a run exposes that must be shard-invariant. */
void
expectIdentical(const RunResult &serial, const RunResult &sharded,
                const char *what)
{
    EXPECT_EQ(serial.fingerprint, sharded.fingerprint) << what;
    EXPECT_EQ(serial.fingerprintEvents, sharded.fingerprintEvents)
        << what;
    EXPECT_EQ(serial.completed, sharded.completed) << what;
    EXPECT_EQ(serial.torDispatched, sharded.torDispatched) << what;
    EXPECT_EQ(serial.torShed, sharded.torShed) << what;
    EXPECT_EQ(serial.violations, sharded.violations) << what;
    EXPECT_EQ(serial.latency.p50, sharded.latency.p50) << what;
    EXPECT_EQ(serial.latency.p99, sharded.latency.p99) << what;
    EXPECT_EQ(serial.latency.max, sharded.latency.max) << what;
    EXPECT_EQ(serial.migrated, sharded.migrated) << what;
    EXPECT_EQ(serial.requestsShed, sharded.requestsShed) << what;
    EXPECT_EQ(serial.faultsInjected, sharded.faultsInjected) << what;
    ASSERT_EQ(serial.perServer.size(), sharded.perServer.size())
        << what;
    for (std::size_t s = 0; s < serial.perServer.size(); ++s) {
        EXPECT_EQ(serial.perServer[s].completed,
                  sharded.perServer[s].completed)
            << what << " server " << s;
        EXPECT_EQ(serial.perServer[s].latency.p99,
                  sharded.perServer[s].latency.p99)
            << what << " server " << s;
    }
}

} // namespace

// ---------------------------------------------------------------------
// 1. Fingerprint identity across the design x seed x shard matrix
// ---------------------------------------------------------------------

/** shards in {2, 8} reproduce the serial run exactly, across four
 *  designs and three seeds, and the parallel path really runs. */
TEST(Sharded, FingerprintIdentityMatrix)
{
    const Design designs[] = {Design::AcInt, Design::AcRss,
                              Design::Rss, Design::Nebula};
    const std::uint64_t seeds[] = {42, 7, 1234567};
    for (Design design : designs) {
        for (std::uint64_t seed : seeds) {
            const RunResult serial = runExperiment(
                shardConfig(design, 1), shardSpec(seed));
            ASSERT_GT(serial.fingerprintEvents, 0u);
            EXPECT_EQ(serial.parallelWindows, 0u);
            for (unsigned shards : {2u, 8u}) {
                const RunResult sharded = runExperiment(
                    shardConfig(design, shards), shardSpec(seed));
                char what[64];
                std::snprintf(what, sizeof what,
                              "design=%d seed=%llu shards=%u",
                              static_cast<int>(design),
                              static_cast<unsigned long long>(seed),
                              shards);
                expectIdentical(serial, sharded, what);
                // Prove the run didn't silently collapse to serial.
                EXPECT_GT(sharded.parallelWindows, 0u) << what;
            }
        }
    }
}

/** Repeat sharded runs agree with each other (no hidden
 *  scheduling-order dependence across the host's thread timing). */
TEST(Sharded, RepeatRunsAgree)
{
    const RunResult a =
        runExperiment(shardConfig(Design::AcInt, 4), shardSpec());
    const RunResult b =
        runExperiment(shardConfig(Design::AcInt, 4), shardSpec());
    expectIdentical(a, b, "repeat shards=4");
    EXPECT_GT(a.parallelWindows, 0u);
}

// ---------------------------------------------------------------------
// 2. Raw trace bytes
// ---------------------------------------------------------------------

/** The merged rack trace file is byte-identical serial vs sharded:
 *  every record, every timestamp, every ring in the same order. */
TEST(Sharded, TraceBytesIdentical)
{
    const std::string serialPath = tmpPath("serial.bin");
    const std::string shardedPath = tmpPath("sharded.bin");

    WorkloadSpec spec = shardSpec();
    spec.tracing.enabled = true;
    spec.tracing.ringSlots = 1u << 16; // lossless
    spec.tracing.file = serialPath;
    const RunResult serial =
        runExperiment(shardConfig(Design::AcInt, 1), spec);

    spec.tracing.file = shardedPath;
    const RunResult sharded =
        runExperiment(shardConfig(Design::AcInt, 8), spec);

    expectIdentical(serial, sharded, "traced");
    EXPECT_GT(sharded.parallelWindows, 0u);
    EXPECT_GT(serial.traceRecords, 0u);
    EXPECT_EQ(serial.traceRecords, sharded.traceRecords);

    const std::vector<char> serialBytes = slurp(serialPath);
    const std::vector<char> shardedBytes = slurp(shardedPath);
    ASSERT_FALSE(serialBytes.empty());
    EXPECT_EQ(serialBytes, shardedBytes);
    std::remove(serialPath.c_str());
    std::remove(shardedPath.c_str());
}

// ---------------------------------------------------------------------
// 3. Chaos: fault schedules under sharding
// ---------------------------------------------------------------------

/** Drop/delay/duplication faults draw from region-private streams,
 *  so a chaotic run shards exactly like a pristine one. */
TEST(Sharded, FaultDrawsAreShardInvariant)
{
    WorkloadSpec spec = shardSpec();
    spec.faults = sim::FaultSpec::parse(
        "drop=0.02,dup=0.02,delay=0.1:300,seed=9");

    const RunResult serial =
        runExperiment(shardConfig(Design::AcInt, 1), spec);
    ASSERT_GT(serial.faultsInjected, 0u);
    const RunResult sharded =
        runExperiment(shardConfig(Design::AcInt, 4), spec);
    expectIdentical(serial, sharded, "chaos drop/dup/delay");
    EXPECT_GT(sharded.parallelWindows, 0u);
}

/** A kill-bearing schedule fans server-death state into the ToR, so
 *  resolveShards pins it to the serial kernel -- and the result is
 *  still bit-identical to an explicit serial run. */
TEST(Sharded, KillSpecCollapsesToSerial)
{
    WorkloadSpec spec = shardSpec();
    spec.faults =
        sim::FaultSpec::parse("S2.kill=3@100000,drop=0.01,seed=5");

    const RunResult serial =
        runExperiment(shardConfig(Design::AcInt, 1), spec);
    const RunResult sharded =
        runExperiment(shardConfig(Design::AcInt, 8), spec);
    expectIdentical(serial, sharded, "chaos kill");
    EXPECT_EQ(sharded.parallelWindows, 0u);
}

// ---------------------------------------------------------------------
// 4. Downgrade semantics
// ---------------------------------------------------------------------

/** Load-inspecting ToR policies read remote queue depths at pick
 *  time; requesting shards under them resolves to serial without
 *  changing a single bit. */
TEST(Sharded, OraclePoliciesStaySerial)
{
    for (TorPolicy policy :
         {TorPolicy::PowerOfK, TorPolicy::LeastLoaded}) {
        const RunResult serial = runExperiment(
            shardConfig(Design::AcInt, 1, policy), shardSpec());
        const RunResult sharded = runExperiment(
            shardConfig(Design::AcInt, 8, policy), shardSpec());
        expectIdentical(serial, sharded, torPolicyName(policy));
        EXPECT_EQ(sharded.parallelWindows, 0u)
            << torPolicyName(policy);
    }
}

/** An N=1 "rack" is one region; shards resolve to 1 and the
 *  single-server world is untouched. */
TEST(Sharded, SingleServerStaysSerial)
{
    DesignConfig cfg = shardConfig(Design::AcInt, 8);
    cfg.rack.servers = 1;
    DesignConfig serial = cfg;
    serial.shards = 1;
    const RunResult a = runExperiment(serial, shardSpec());
    const RunResult b = runExperiment(cfg, shardSpec());
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.fingerprintEvents, b.fingerprintEvents);
    EXPECT_EQ(b.parallelWindows, 0u);
}

// ---------------------------------------------------------------------
// 5. Region clocks at kernel level, and the rack's thread placement
// ---------------------------------------------------------------------

namespace {

constexpr Tick kLookahead = 100;

/**
 * A star: spoke regions 0..spokes-1 and the hub, region `spokes`,
 * which alone sends cross-region events. The hub fires `burst` events
 * at tick 0, then keeps sending a few per spoke every half lookahead
 * up to tick `until`; a fifth of the landings start a short local
 * chain and some add a local event. Every dispatch appends (tick,
 * tag) to its region's log and the executing thread's id to its
 * region's thread log -- both touched only by the region's holder.
 */
struct StarFlood
{
    sim::Kernel kernel;
    unsigned spokes;
    std::vector<std::vector<std::pair<Tick, std::uint64_t>>> logs;
    std::vector<std::vector<std::thread::id>> ran;
    std::uint64_t burst;
    Tick until;

    StarFlood(unsigned spokes_, std::uint64_t burst_, Tick until_)
        : spokes(spokes_), logs(spokes_ + 1), ran(spokes_ + 1),
          burst(burst_), until(until_)
    {
        for (unsigned r = 0; r <= spokes; ++r)
            kernel.addRegion();
    }

    /** Schedule the hub's tick-0 burst (after any tick-0 event the
     *  test scheduled first). */
    StarFlood &
    start()
    {
        hub().at(0, [this] { fire(burst); });
        return *this;
    }

    sim::Simulator &hub() { return kernel.region(spokes); }

    sim::Kernel::ShardPlan
    plan(unsigned threads, std::vector<unsigned> home)
    {
        sim::Kernel::ShardPlan p;
        p.threads = threads;
        p.lookahead = kLookahead;
        p.hub = spokes;
        home.push_back(0); // the hub's entry is ignored
        p.home = std::move(home);
        return p;
    }

    void
    fire(std::uint64_t n)
    {
        const Tick now = hub().now();
        logs[spokes].emplace_back(now, n);
        for (std::uint64_t i = 0; i < n; ++i) {
            const unsigned dst = static_cast<unsigned>((now + i) % spokes);
            const std::uint64_t tag = (now << 20) | i;
            kernel.crossSchedule(spokes, dst, now + kLookahead + i % 7,
                                 [this, dst, tag] { land(dst, tag, 0); });
        }
        if (now + kLookahead / 2 <= until)
            hub().after(kLookahead / 2, [this] { fire(2 * spokes); });
    }

    void
    land(unsigned r, std::uint64_t tag, unsigned hop)
    {
        sim::Simulator &here = kernel.region(r);
        logs[r].emplace_back(here.now(), tag);
        ran[r].push_back(std::this_thread::get_id());
        if (hop < 3 && tag % 5 == 0) {
            here.after(kLookahead / 3 + tag % 3,
                       [this, r, tag, hop] { land(r, tag, hop + 1); });
        }
        if (tag % 11 == 0) {
            here.after(3, [this, r, tag] {
                logs[r].emplace_back(kernel.region(r).now(), ~tag);
            });
        }
    }
};

/** Per-region sequences fix the canonical (tick, region, seq) merge,
 *  so equal logs are the whole dispatch order. */
void
expectSameLogs(const StarFlood &serial, const StarFlood &sharded)
{
    for (unsigned r = 0; r <= serial.spokes; ++r)
        EXPECT_EQ(serial.logs[r], sharded.logs[r]) << "region " << r;
    EXPECT_EQ(serial.kernel.eventsExecuted(),
              sharded.kernel.eventsExecuted());
}

} // namespace

/** Both spokes are held by their home workers, which are blocked on
 *  the hub clock, when the hub's first event sends several rings'
 *  worth into each: the hub cannot claim a held region, so it
 *  finishes only because a holder waiting on the hub clock keeps
 *  draining its region's ring. (On a host too loaded to start the
 *  workers in time the hub drains unclaimed rings itself; the result
 *  must be the same.) */
TEST(Sharded, FullTorRingDrainsWhileHoldersWait)
{
    constexpr std::uint64_t kBurst = 6 * sim::Kernel::kRingSlots;
    // Each spoke's tick-0 event marks its region held; the hub's
    // tick-0 event, scheduled before the burst, waits for both (up to
    // a second). The serial reference gets the same events.
    std::atomic<unsigned> started{0};
    auto build = [&started](StarFlood &f, bool wait) {
        for (unsigned r = 0; r < 2; ++r) {
            f.kernel.region(r).at(0, [&started] {
                started.fetch_add(1, std::memory_order_release);
            });
        }
        f.hub().at(0, [&started, wait] {
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(1);
            while (wait && started.load(std::memory_order_acquire) < 2 &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
        });
        f.start();
    };
    StarFlood serial(2, kBurst, 20 * kLookahead);
    build(serial, false);
    serial.kernel.run();

    started.store(0);
    StarFlood sharded(2, kBurst, 20 * kLookahead);
    build(sharded, true);
    sharded.kernel.runSharded(sharded.plan(3, {1, 2}));

    expectSameLogs(serial, sharded);
    EXPECT_GT(sharded.kernel.parallelWindows(), 0u);
    const std::vector<sim::ShardStats> &st = sharded.kernel.shardStats();
    ASSERT_EQ(st.size(), 3u);
    std::uint64_t received = 0;
    for (const sim::ShardStats &s : st)
        received += s.crossReceived;
    EXPECT_GT(st[0].crossSent, 2 * sim::Kernel::kRingSlots);
    EXPECT_EQ(received, st[0].crossSent);
}

/** Every spoke is homed on the calling thread, which is mostly busy
 *  with the hub, so the workers run them as borrowed regions: a
 *  worker hands a borrowed region back whenever it blocks on the hub
 *  clock -- with the hub firing every half lookahead, after nearly
 *  every stretch -- and the calling thread after each stretch it
 *  helps with; the next stretch goes to whichever thread claims the
 *  region first. Claims hand each region between threads throughout
 *  the run, and every region's dispatch sequence still equals the
 *  serial run's. */
TEST(Sharded, ClaimsRotateAmongThreads)
{
    StarFlood serial(3, 64, 400 * kLookahead);
    serial.start().kernel.run();

    StarFlood sharded(3, 64, 400 * kLookahead);
    sharded.start().kernel.runSharded(sharded.plan(3, {0, 0, 0}));

    expectSameLogs(serial, sharded);
    EXPECT_GT(sharded.kernel.parallelWindows(), 300u);
    const std::vector<sim::ShardStats> &st = sharded.kernel.shardStats();
    ASSERT_EQ(st.size(), 3u);
    std::uint64_t events = 0;
    for (const sim::ShardStats &s : st)
        events += s.events;
    EXPECT_EQ(events, sharded.kernel.eventsExecuted());
    // Worker claims are all steals, one per stretch; the calling
    // thread claims whatever it helps with.
    std::uint64_t claims = 0;
    for (unsigned t = 0; t < 3; ++t) {
        claims += st[t].claims;
        if (t != 0) {
            EXPECT_EQ(st[t].claims, st[t].steals) << "thread " << t;
        }
    }
    EXPECT_GT(claims, 3u);
    // Which thread ran what depends on the host's scheduling; with
    // the workers running at all, regions change hands.
    std::size_t handOffs = 0;
    for (unsigned r = 0; r < 3; ++r) {
        const std::vector<std::thread::id> &ids = sharded.ran[r];
        for (std::size_t i = 1; i < ids.size(); ++i)
            handOffs += ids[i] != ids[i - 1];
    }
    if (st[1].steals + st[2].steals > 10) {
        EXPECT_GT(handOffs, 0u);
    }
    RecordProperty("hand_offs", static_cast<int>(handOffs));
}

/** A burst past ring capacity plus idle work on the calling thread
 *  that never runs out: the caller must keep moving the hub (and so
 *  keep pushing and draining) between idle chunks. A late spoke event
 *  run by a worker waits (up to a second) for the idle work to have
 *  run, so it provably does, and the idle work never runs outside the
 *  parallel phase. */
TEST(Sharded, IdleWorkKeepsCallerDrainingPastChannelCapacity)
{
    constexpr std::uint64_t kBurst = 3 * sim::Kernel::kRingSlots;
    StarFlood serial(2, kBurst, 40 * kLookahead);
    serial.kernel.region(1).at(10 * kLookahead, [&serial] {
        serial.logs[1].emplace_back(serial.kernel.region(1).now(), 0);
    });
    serial.start().kernel.run();

    StarFlood sharded(2, kBurst, 40 * kLookahead);
    std::atomic<bool> idleRan{false};
    const std::thread::id caller = std::this_thread::get_id();
    bool lateOnWorker = false;
    sharded.kernel.region(1).at(10 * kLookahead, [&, caller] {
        // Only a worker can wait for the calling thread's idle work.
        lateOnWorker = std::this_thread::get_id() != caller;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(1);
        while (lateOnWorker && !idleRan.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        sharded.logs[1].emplace_back(sharded.kernel.region(1).now(), 0);
    });
    sharded.start();
    // Caller-owned work: a running checksum over a private vector.
    std::vector<std::uint64_t> work(64, 1);
    std::uint64_t calls = 0;
    std::uint64_t outsidePhase = 0;
    sharded.kernel.runSharded(
        sharded.plan(3, {1, 2}), kTickInf, {},
        sim::Kernel::IdleWork([&] {
            if (!sharded.kernel.parallelPhase())
                ++outsidePhase;
            for (std::size_t i = 1; i < work.size(); ++i)
                work[i] += work[i - 1] ^ calls;
            ++calls;
            idleRan.store(true, std::memory_order_release);
            return true;
        }));

    expectSameLogs(serial, sharded);
    EXPECT_EQ(outsidePhase, 0u);
    const std::vector<sim::ShardStats> &st = sharded.kernel.shardStats();
    ASSERT_EQ(st.size(), 3u);
    EXPECT_GT(st[0].crossSent, sim::Kernel::kRingSlots);
    EXPECT_GT(calls, 0u);
    EXPECT_GT(st[0].idleWorkNs, 0u);
    EXPECT_EQ(st[1].idleWorkNs, 0u);
    EXPECT_EQ(st[2].idleWorkNs, 0u);
}

/** A rack with K worker threads runs K + 1 threads: the ToR on the
 *  calling thread, the only sender (request deliveries); server
 *  regions are claimed to be run, and every delivery pushed into a
 *  ring is drained out of one. */
TEST(Sharded, TorRunsOnCallingThread)
{
    const RunResult serial =
        runExperiment(shardConfig(Design::AcInt, 1), shardSpec());
    EXPECT_TRUE(serial.shardStats.empty());
    EXPECT_EQ(serial.hostPhases.windowsNs, 0u);

    const RunResult res =
        runExperiment(shardConfig(Design::AcInt, 2), shardSpec());
    expectIdentical(serial, res, "shards=2 accounting");
    ASSERT_EQ(res.shardStats.size(), 3u);
    const sim::ShardStats &tor = res.shardStats[0];
    EXPECT_GT(tor.events, 0u);
    EXPECT_GT(tor.crossSent, 0u);
    EXPECT_LE(tor.crossSent, res.torDispatched);
    std::uint64_t delivered = 0;
    std::uint64_t events = 0;
    std::uint64_t claims = 0;
    for (unsigned k = 0; k < 3; ++k) {
        if (k != 0) {
            EXPECT_EQ(res.shardStats[k].crossSent, 0u) << "thread " << k;
        }
        delivered += res.shardStats[k].crossReceived;
        events += res.shardStats[k].events;
        claims += res.shardStats[k].claims;
    }
    EXPECT_EQ(delivered, tor.crossSent);
    EXPECT_GT(events, tor.events); // server events ran in the phase
    EXPECT_GT(claims, 0u);
    EXPECT_GT(res.hostPhases.windowsNs, 0u);
}

/** parallelWindows counts the lookahead steps the ToR clock covered
 *  in the parallel phase -- a function of the ToR's event stream --
 *  so it repeats exactly across runs and thread counts. */
TEST(Sharded, ParallelWindowsRepeatExactly)
{
    std::uint64_t first = 0;
    for (unsigned shards : {2u, 4u}) {
        for (int rep = 0; rep < 3; ++rep) {
            const RunResult res =
                runExperiment(shardConfig(Design::AcInt, shards),
                              shardSpec());
            ASSERT_GT(res.parallelWindows, 0u);
            if (first == 0)
                first = res.parallelWindows;
            EXPECT_EQ(res.parallelWindows, first)
                << "shards=" << shards << " run " << rep;
        }
    }
}

// ---------------------------------------------------------------------
// 6. Observation fold inside the windows
// ---------------------------------------------------------------------

namespace {

void
expectSameSummary(const stats::Summary &a, const stats::Summary &b,
                  const std::string &what)
{
    EXPECT_EQ(a.count, b.count) << what;
    EXPECT_EQ(a.mean, b.mean) << what;
    EXPECT_EQ(a.p50, b.p50) << what;
    EXPECT_EQ(a.p90, b.p90) << what;
    EXPECT_EQ(a.p99, b.p99) << what;
    EXPECT_EQ(a.p999, b.p999) << what;
    EXPECT_EQ(a.max, b.max) << what;
}

/** Latency summaries, every server's summary and the per-request
 *  capture, element by element. */
void
expectSameObservations(const RunResult &serial, const RunResult &sharded,
                       const std::string &what)
{
    expectIdentical(serial, sharded, what.c_str());
    expectSameSummary(serial.latency, sharded.latency, what);
    ASSERT_EQ(serial.perServer.size(), sharded.perServer.size()) << what;
    for (std::size_t s = 0; s < serial.perServer.size(); ++s) {
        expectSameSummary(serial.perServer[s].latency,
                          sharded.perServer[s].latency,
                          what + " server " + std::to_string(s));
    }
    ASSERT_EQ(serial.perRequest.size(), sharded.perRequest.size()) << what;
    for (std::size_t i = 0; i < serial.perRequest.size(); ++i) {
        const RequestOutcome &a = serial.perRequest[i];
        const RequestOutcome &b = sharded.perRequest[i];
        ASSERT_TRUE(a.id == b.id && a.latency == b.latency &&
                    a.migrated == b.migrated && a.predicted == b.predicted)
            << what << " request " << i;
    }
}

} // namespace

/** ObsFold at unit level, with the hand-over and fold points chosen
 *  by the test rather than by thread timing: three servers advance
 *  their own region clocks in random order, log records at or past
 *  them (same-tick ties across servers included) and usually hand
 *  over at the new clock; each step folds a random budget -- often
 *  too small, so a mailbox is still full at the next hand-over,
 *  which must then wait. The folded stream must be the whole-log
 *  merge a serial run folds in finish() alone, every record exactly
 *  once; with every record at its logging event's tick that is the
 *  global (tick, server, position) order. A second pass gives records
 *  ticks ahead of their logging event (a straggle or freeze record
 *  carries its slice's start, one dispatch delay on), some past the
 *  clock the hand-over uses: those, and everything after them, must
 *  stay live. */
TEST(Sharded, ObsFoldBatchesReplayGlobalOrder)
{
    constexpr unsigned kServers = 3;
    constexpr Tick kWindow = 100;
    struct Seen
    {
        Tick now;
        unsigned server;
        std::uint64_t id;
        bool operator==(const Seen &) const = default;
    };
    // Largest tick lead over the logging event.
    for (const Tick lead : {Tick{0}, Tick{60}}) {
        std::vector<Seen> logged;
        std::vector<Seen> whole;
        std::vector<Seen> batched;
        ObsFold serial(kServers,
                       [&whole](const ObsRec &o, unsigned server) {
                           whole.push_back(Seen{o.now, server, o.id});
                       });
        ObsFold fold(kServers,
                     [&batched](const ObsRec &o, unsigned server) {
                         batched.push_back(Seen{o.now, server, o.id});
                     });

        // Each server has its own region clock: it logs records at
        // event ticks at or past its clock, then advances the clock
        // and usually hands over at it. Servers advance in random
        // order and by random amounts, as claimed regions do.
        Rng rng(11);
        std::uint64_t id = 0;
        std::uint64_t pastClock = 0;
        std::vector<Tick> clock(kServers, 0);
        for (int step = 0; step < 900; ++step) {
            const unsigned s = static_cast<unsigned>(rng.below(kServers));
            const Tick next = clock[s] + 1 + rng.below(kWindow);
            Tick t = clock[s];
            const std::uint64_t records = rng.below(6);
            for (std::uint64_t k = 0; k < records; ++k) {
                // A few tick values, so servers tie with each other.
                t = std::min(t + rng.below(3) * 10, next - 1);
                ObsRec o;
                o.now = t - t % 10;
                if (o.now < clock[s])
                    o.now = t;
                if (lead != 0 && rng.below(2) == 0)
                    o.now += rng.below(lead + 1);
                o.id = id++;
                pastClock += o.now >= next;
                fold.log(s)->push_back(o);
                serial.log(s)->push_back(o);
                logged.push_back(Seen{o.now, s, o.id});
            }
            clock[s] = next;
            if (rng.below(4) != 0)
                fold.handOver(s, next);
            fold.fold(rng.below(12));
        }
        fold.finish();
        serial.finish();

        ASSERT_GT(whole.size(), 1000u);
        EXPECT_EQ(batched, whole) << "lead " << lead;
        if (lead == 0) {
            // Per-server ids ascend with log position, so (tick,
            // server, id) is the (tick, server, position) order.
            std::sort(logged.begin(), logged.end(),
                      [](const Seen &a, const Seen &b) {
                          if (a.now != b.now)
                              return a.now < b.now;
                          if (a.server != b.server)
                              return a.server < b.server;
                          return a.id < b.id;
                      });
            EXPECT_EQ(whole, logged);
        } else {
            EXPECT_GT(pastClock, 20u);
        }
    }
}

/** The serial kernel's fold-as-you-go at unit level: one dispatch
 *  clock that never goes back, three servers logging at it (ties
 *  across servers included), and before every record the call a
 *  completion probe makes, foldSerial at the current tick. The record
 *  is completed after it is pushed, as the completion hook does. In
 *  the second pass some records carry a tick up to one dispatch delay
 *  ahead of the clock, as straggle and freeze records do. The folded
 *  stream must be what finish() alone folds, and a live log must
 *  never hold more than a chunk plus what the last fold had to keep:
 *  at most the records logged within one dispatch delay of its
 *  tick. */
TEST(ObsFold, SerialFoldAsYouGoMatchesFinish)
{
    constexpr unsigned kServers = 3;
    struct Seen
    {
        Tick now;
        unsigned server;
        std::uint64_t id;
        Tick latency;
        bool operator==(const Seen &) const = default;
    };
    for (const Tick lead : {Tick{0}, Tick{40}}) {
        std::vector<Seen> whole;
        std::vector<Seen> batched;
        auto sinkInto = [](std::vector<Seen> &out) {
            return [&out](const ObsRec &o, unsigned server) {
                out.push_back(Seen{o.now, server, o.id, o.latency});
            };
        };
        ObsFold serial(kServers, sinkInto(whole));
        ObsFold fold(kServers, sinkInto(batched));
        constexpr std::size_t kChunk = decltype(fold)::kSerialChunk;

        Rng rng(23);
        Tick clock = 0;
        std::uint64_t folds = 0;
        std::uint64_t keptAhead = 0;
        // Per server: the dispatch tick of every record still live
        // and the bound the last fold allows.
        std::vector<std::vector<Tick>> loggedAt(kServers);
        std::vector<std::size_t> allowed(kServers, kChunk);
        for (std::uint64_t id = 0; id < 60000; ++id) {
            clock += rng.below(4);
            const unsigned s = static_cast<unsigned>(rng.below(kServers));
            const bool due = fold.log(s)->size() >= kChunk;
            fold.foldSerial(s, clock);
            if (due) {
                ++folds;
                for (unsigned r = 0; r < kServers; ++r) {
                    // What stays live was logged within one dispatch
                    // delay of the fold's tick.
                    std::vector<Tick> &at = loggedAt[r];
                    const std::size_t kept = fold.log(r)->size();
                    at.erase(at.begin(),
                             at.end() - static_cast<std::ptrdiff_t>(kept));
                    const std::size_t window = static_cast<std::size_t>(
                        std::count_if(at.begin(), at.end(),
                                      [&](Tick t) {
                                          return t + lead >= clock;
                                      }));
                    EXPECT_LE(kept, window) << "lead " << lead;
                    keptAhead += kept;
                    allowed[r] = kChunk + kept;
                }
            }
            ObsRec o;
            o.now = clock;
            if (lead != 0 && rng.below(8) == 0)
                o.now += 1 + rng.below(lead);
            o.id = id;
            fold.log(s)->push_back(o);
            serial.log(s)->push_back(o);
            loggedAt[s].push_back(clock);
            fold.log(s)->back().latency = id * 7;
            serial.log(s)->back().latency = id * 7;
            for (unsigned r = 0; r < kServers; ++r)
                EXPECT_LE(fold.log(r)->size(), allowed[r]);
        }
        fold.finish();
        serial.finish();

        ASSERT_EQ(whole.size(), 60000u);
        EXPECT_EQ(batched, whole) << "lead " << lead;
        EXPECT_GE(folds, 8u);
        if (lead != 0) {
            EXPECT_GT(keptAhead, 0u);
        }
    }
}

/** The fold that runs inside the parallel phase (handed-over
 *  records) and after the run (the rest) replays the serial observation stream:
 *  every summary and every captured request agree at 1, 2 and 4
 *  shards. */
TEST(Sharded, InWindowFoldMatchesSerialCapture)
{
    WorkloadSpec spec = shardSpec();
    spec.capturePerRequest = true;
    const RunResult serial =
        runExperiment(shardConfig(Design::AcInt, 1), spec);
    ASSERT_EQ(serial.perRequest.size(), spec.requests);
    for (unsigned shards : {2u, 4u}) {
        const RunResult sharded =
            runExperiment(shardConfig(Design::AcInt, shards), spec);
        EXPECT_GT(sharded.parallelWindows, 0u);
        expectSameObservations(serial, sharded,
                               "shards=" + std::to_string(shards));
    }
}

/** A time limit inside the arrival stream ends the parallel phase
 *  without the gate closing: the last stretches' records are never
 *  folded in the phase, and the post-run fold merges the leftover
 *  cursors, mailboxes and live logs. Still the serial run's
 *  observations. */
TEST(Sharded, TimeLimitLeavesLogsForPostRunFold)
{
    WorkloadSpec spec = shardSpec();
    spec.capturePerRequest = true;
    spec.timeLimit = 200 * kUs; // arrivals span ~500 us at 8 MRPS
    const RunResult serial =
        runExperiment(shardConfig(Design::AcInt, 1), spec);
    ASSERT_GT(serial.completed, 0u);
    ASSERT_LT(serial.completed, spec.requests);
    for (unsigned shards : {2u, 4u}) {
        const RunResult sharded =
            runExperiment(shardConfig(Design::AcInt, shards), spec);
        EXPECT_GT(sharded.parallelWindows, 0u);
        expectSameObservations(serial, sharded,
                               "time-limited shards=" +
                                   std::to_string(shards));
    }
}

/** Straggle and freeze records carry the tick a slice starts, which a
 *  design with a dispatch delay (Shinjuku ~35 ns, RSS 2 ns) puts
 *  ahead of the event that logs them -- possibly past the region
 *  clock of the next hand-over. Such records must be folded after
 *  other servers' earlier-ticked later records, exactly as the serial
 *  run's whole-log merge folds them. */
TEST(Sharded, StretchFaultsPastBoundaryFoldInSerialOrder)
{
    WorkloadSpec spec = shardSpec();
    spec.capturePerRequest = true;
    spec.faults =
        sim::FaultSpec::parse("straggle=0.2:3,freeze=0.1:500,seed=3");
    for (Design design : {Design::Shinjuku, Design::Rss}) {
        const RunResult serial =
            runExperiment(shardConfig(design, 1), spec);
        ASSERT_GT(serial.faultsInjected, 0u) << designName(design);
        for (unsigned shards : {2u, 4u}) {
            const RunResult sharded =
                runExperiment(shardConfig(design, shards), spec);
            EXPECT_GT(sharded.parallelWindows, 0u) << designName(design);
            expectSameObservations(serial, sharded,
                                   std::string(designName(design)) +
                                       " shards=" +
                                       std::to_string(shards));
        }
    }
}
