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
 *     order; the rack places the ToR alone on that shard and reports
 *     per-shard accounting.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "sim/fault_spec.hh"
#include "sim/kernel.hh"
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
            const RunResult serial = runRackExperiment(
                shardConfig(design, 1), shardSpec(seed));
            ASSERT_GT(serial.fingerprintEvents, 0u);
            EXPECT_EQ(serial.parallelWindows, 0u);
            for (unsigned shards : {2u, 8u}) {
                const RunResult sharded = runRackExperiment(
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
        runRackExperiment(shardConfig(Design::AcInt, 4), shardSpec());
    const RunResult b =
        runRackExperiment(shardConfig(Design::AcInt, 4), shardSpec());
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
        runRackExperiment(shardConfig(Design::AcInt, 1), spec);

    spec.tracing.file = shardedPath;
    const RunResult sharded =
        runRackExperiment(shardConfig(Design::AcInt, 8), spec);

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
        runRackExperiment(shardConfig(Design::AcInt, 1), spec);
    ASSERT_GT(serial.faultsInjected, 0u);
    const RunResult sharded =
        runRackExperiment(shardConfig(Design::AcInt, 4), spec);
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
        runRackExperiment(shardConfig(Design::AcInt, 1), spec);
    const RunResult sharded =
        runRackExperiment(shardConfig(Design::AcInt, 8), spec);
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
        const RunResult serial = runRackExperiment(
            shardConfig(Design::AcInt, 1, policy), shardSpec());
        const RunResult sharded = runRackExperiment(
            shardConfig(Design::AcInt, 8, policy), shardSpec());
        expectIdentical(serial, sharded, torPolicyName(policy));
        EXPECT_EQ(sharded.parallelWindows, 0u)
            << torPolicyName(policy);
    }
}

/** An N=1 "rack" is one region; shards resolve to 1 and the classic
 *  world is untouched. */
TEST(Sharded, SingleServerStaysSerial)
{
    DesignConfig cfg = shardConfig(Design::AcInt, 8);
    cfg.rack.servers = 1;
    DesignConfig classic = cfg;
    classic.shards = 1;
    const RunResult a = runRackExperiment(classic, shardSpec());
    const RunResult b = runRackExperiment(cfg, shardSpec());
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

/** A rack on K server shards runs K + 1 shards: the ToR alone on the
 *  caller's shard 0, which only sends (request deliveries) and never
 *  receives; every worker shard dispatches server events. */
TEST(Sharded, TorRunsAloneOnCallerShard)
{
    const RunResult serial =
        runRackExperiment(shardConfig(Design::AcInt, 1), shardSpec());
    EXPECT_TRUE(serial.shardStats.empty());
    EXPECT_EQ(serial.hostPhases.windowsNs, 0u);

    const RunResult res =
        runRackExperiment(shardConfig(Design::AcInt, 2), shardSpec());
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
