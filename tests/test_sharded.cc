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
 *  5. The window protocol itself, at kernel level: the calling
 *     thread's shard 0 sends and receives more than a channel holds
 *     in one window and still reproduces Kernel::run()'s dispatch
 *     order, also while it runs idle work between its channel
 *     sweeps; the rack places the ToR alone on that shard and reports
 *     per-shard accounting.
 *  6. The rack's observation fold, partly run inside the windows:
 *     ObsFold replays the whole-log merge whatever its hand-over and
 *     fold points, also when records carry ticks past the window
 *     end; latency summaries, per-server summaries and the
 *     per-request capture agree across shard counts, also when a
 *     time limit ends the parallel phase before the gate closes or
 *     straggle and freeze faults log such records.
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
// 5. Window protocol at kernel level, and the rack's shard placement
// ---------------------------------------------------------------------

namespace {

constexpr Tick kLookahead = 100;
constexpr unsigned kRegions = 4;
/** Cross events each region fires at tick 0 -- all inside the first
 *  window, and several channels' worth. */
constexpr std::uint64_t kBurst = 3 * sim::Kernel::kRingSlots;

/**
 * Four regions that flood each other with cross-region events: each
 * fires kBurst at tick 0, a fifth of the landings bounce on (up to
 * twice), and some landings add a local event. Every dispatch
 * appends (tick, tag) to its region's log, which only that region's
 * thread touches.
 */
struct CrossFlood
{
    sim::Kernel kernel;
    std::vector<std::vector<std::pair<Tick, std::uint64_t>>> logs;

    CrossFlood() : logs(kRegions)
    {
        for (unsigned r = 0; r < kRegions; ++r)
            kernel.addRegion();
        for (unsigned r = 0; r < kRegions; ++r)
            kernel.region(r).at(0, [this, r] { burst(r); });
    }

    void
    burst(unsigned src)
    {
        for (std::uint64_t i = 0; i < kBurst; ++i) {
            const unsigned dst = (src + 1 + i % (kRegions - 1)) % kRegions;
            const Tick when = kernel.region(src).now() + kLookahead + i % 7;
            const std::uint64_t tag = (std::uint64_t{src} << 32) | i;
            kernel.crossSchedule(src, dst, when,
                                 [this, dst, tag] { land(dst, tag, 0); });
        }
    }

    void
    land(unsigned r, std::uint64_t tag, unsigned hop)
    {
        sim::Simulator &here = kernel.region(r);
        logs[r].emplace_back(here.now(), tag);
        if (hop < 2 && tag % 5 == 0) {
            const unsigned dst = (r + 2) % kRegions;
            kernel.crossSchedule(r, dst, here.now() + kLookahead + tag % 3,
                                 [this, dst, tag, hop] {
                                     land(dst, tag, hop + 1);
                                 });
        }
        if (tag % 11 == 0) {
            here.after(3, [this, r, tag] {
                logs[r].emplace_back(kernel.region(r).now(), ~tag);
            });
        }
    }
};

} // namespace

/** Regions 0 and 1 on the caller's shard 0, regions 2 and 3 on two
 *  workers. In the first window shard 0 both sends and receives more
 *  cross events than a channel holds -- so the caller must keep
 *  draining while it pushes and while it waits for the workers --
 *  and every region's dispatch sequence still equals the serial
 *  run's. Per-region sequences fix the canonical (tick, region, seq)
 *  merge, so this is the whole dispatch order. */
TEST(Sharded, CallerShardExchangesPastChannelCapacity)
{
    CrossFlood serial;
    serial.kernel.run();

    CrossFlood sharded;
    sim::Kernel::ShardPlan plan;
    plan.shards = 3;
    plan.lookahead = kLookahead;
    plan.shardOf = {0, 0, 1, 2};
    sharded.kernel.runSharded(plan);

    ASSERT_GT(serial.logs[0].size(), kBurst);
    for (unsigned r = 0; r < kRegions; ++r)
        EXPECT_EQ(serial.logs[r], sharded.logs[r]) << "region " << r;
    EXPECT_EQ(serial.kernel.eventsExecuted(),
              sharded.kernel.eventsExecuted());
    EXPECT_GT(sharded.kernel.parallelWindows(), 0u);

    // No gate, so every event ran inside a parallel window, and every
    // event pushed into a channel came out of one.
    const std::vector<sim::ShardStats> &st = sharded.kernel.shardStats();
    ASSERT_EQ(st.size(), 3u);
    std::uint64_t events = 0, sent = 0, received = 0;
    for (const sim::ShardStats &s : st) {
        events += s.events;
        sent += s.crossSent;
        received += s.crossReceived;
    }
    EXPECT_EQ(events, sharded.kernel.eventsExecuted());
    EXPECT_EQ(sent, received);
    EXPECT_GT(st[0].crossSent, sim::Kernel::kRingSlots);
    EXPECT_GT(st[0].crossReceived, sim::Kernel::kRingSlots);
}

/** Same flood, plus idle work on the caller that never runs out: in
 *  every window the caller must keep sweeping its channels between
 *  idle chunks, or a worker blocked on a full ring toward shard 0
 *  never finishes its dispatch. A late event on a worker waits (up
 *  to a second) for the idle work to have run, so it provably does,
 *  and the idle work never runs outside the parallel phase. */
TEST(Sharded, IdleWorkKeepsCallerDrainingPastChannelCapacity)
{
    CrossFlood serial;
    serial.kernel.region(2).at(10 * kLookahead, [&serial] {
        serial.logs[2].emplace_back(serial.kernel.region(2).now(), 0);
    });
    serial.kernel.run();

    CrossFlood sharded;
    std::atomic<bool> idleRan{false};
    sharded.kernel.region(2).at(10 * kLookahead, [&sharded, &idleRan] {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(1);
        while (!idleRan.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        sharded.logs[2].emplace_back(sharded.kernel.region(2).now(), 0);
    });
    sim::Kernel::ShardPlan plan;
    plan.shards = 3;
    plan.lookahead = kLookahead;
    plan.shardOf = {0, 0, 1, 2};
    // Caller-owned work: a running checksum over a private vector.
    std::vector<std::uint64_t> work(64, 1);
    std::uint64_t calls = 0;
    std::uint64_t outsidePhase = 0;
    sharded.kernel.runSharded(
        plan, kTickInf, {},
        sim::Kernel::IdleWork([&] {
            if (!sharded.kernel.parallelPhase())
                ++outsidePhase;
            for (std::size_t i = 1; i < work.size(); ++i)
                work[i] += work[i - 1] ^ calls;
            ++calls;
            idleRan.store(true, std::memory_order_release);
            return true;
        }));

    for (unsigned r = 0; r < kRegions; ++r)
        EXPECT_EQ(serial.logs[r], sharded.logs[r]) << "region " << r;
    EXPECT_EQ(serial.kernel.eventsExecuted(),
              sharded.kernel.eventsExecuted());
    EXPECT_GT(calls, 0u);
    EXPECT_EQ(outsidePhase, 0u);
    const std::vector<sim::ShardStats> &st = sharded.kernel.shardStats();
    ASSERT_EQ(st.size(), 3u);
    EXPECT_GT(st[0].crossSent, sim::Kernel::kRingSlots);
    EXPECT_GT(st[0].crossReceived, sim::Kernel::kRingSlots);
    EXPECT_GT(st[0].idleWorkNs, 0u);
    EXPECT_EQ(st[1].idleWorkNs, 0u);
    EXPECT_EQ(st[2].idleWorkNs, 0u);
}

/** A rack on K server shards runs K + 1 shards: the ToR alone on the
 *  caller's shard 0, which only sends (request deliveries) and never
 *  receives; every worker shard dispatches server events. */
TEST(Sharded, TorRunsAloneOnCallerShard)
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
    EXPECT_EQ(tor.crossReceived, 0u);
    std::uint64_t delivered = 0;
    for (unsigned k = 1; k < 3; ++k) {
        EXPECT_GT(res.shardStats[k].events, 0u) << "shard " << k;
        EXPECT_EQ(res.shardStats[k].crossSent, 0u) << "shard " << k;
        delivered += res.shardStats[k].crossReceived;
    }
    EXPECT_EQ(delivered, tor.crossSent);
    EXPECT_GT(res.hostPhases.windowsNs, 0u);
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
 *  by the test rather than by thread timing: three servers log
 *  records window by window (same-tick ties across servers
 *  included), the logs are handed over at every boundary, and each
 *  window folds a random budget -- often too small, so a batch is
 *  still pending at the next boundary and that hand-over must wait.
 *  The folded stream must be the whole-log merge a serial run folds
 *  in finish() alone, every record exactly once; with every record
 *  at its logging event's tick that is the global (tick, server,
 *  position) order. A second pass gives records ticks ahead of their
 *  logging event (a straggle or freeze record carries its slice's
 *  start, one dispatch delay on), some past the window end: those,
 *  and everything after them, must stay live at the hand-over. */
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

        Rng rng(11);
        std::uint64_t id = 0;
        std::uint64_t pastEnd = 0;
        for (Tick w = 0; w < 300; ++w) {
            fold.handOver(w * kWindow);
            for (unsigned s = 0; s < kServers; ++s) {
                // Logging events advance through the window, from a
                // few tick values so servers tie with each other.
                Tick t = w * kWindow;
                const std::uint64_t records = rng.below(6);
                for (std::uint64_t k = 0; k < records; ++k) {
                    t = std::min(t + rng.below(3) * 10,
                                 w * kWindow + kWindow - 1);
                    ObsRec o;
                    o.now = t;
                    if (lead != 0 && rng.below(2) == 0)
                        o.now += rng.below(lead + 1);
                    o.id = id++;
                    pastEnd += o.now >= (w + 1) * kWindow;
                    fold.log(s)->push_back(o);
                    serial.log(s)->push_back(o);
                    logged.push_back(Seen{o.now, s, o.id});
                }
            }
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
            EXPECT_GT(pastEnd, 20u);
        }
    }
}

/** The fold that runs inside the windows (handed-over batches) and
 *  after the run (the rest) replays the serial observation stream:
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

/** A time limit inside the arrival stream ends the parallel phase at
 *  a boundary that never consults the gate: the last windows' logs
 *  are never handed over and the post-run fold merges the leftover
 *  batch and the live logs. Still the serial run's observations. */
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
 *  ahead of the event that logs them -- possibly past the window
 *  end. Such records must be folded after the next window's
 *  earlier-ticked records of other servers, exactly as the serial
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
