/**
 * @file
 * Tests of the benchmark itself: its count-derived per-layer metrics
 * repeat exactly for a seed and move with the seed, its layer probes
 * run on the workload's shape, and its correctness checks fail a run
 * whose fingerprint or accounting is off.
 *
 * Build and run: python3 perfbench/run.py --self-test
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "perfbench.hh"
#include "system/rack.hh"

using namespace perfbench;

namespace {

/** Small runs keep the suite quick; the shapes are unchanged. */
constexpr std::uint64_t kTestRequests = 20000;

Workload
workload(const std::string &name, std::uint64_t seed = kDefaultSeed)
{
    Workload w;
    EXPECT_TRUE(makeWorkload(name, seed, kTestRequests, w)) << name;
    return w;
}

double
metric(const std::vector<Metric> &ms, const std::string &name)
{
    for (const Metric &m : ms)
        if (m.name == name)
            return m.value;
    ADD_FAILURE() << "no metric " << name;
    return 0.0;
}

class EachWorkload : public ::testing::TestWithParam<std::string>
{};

INSTANTIATE_TEST_SUITE_P(Perfbench, EachWorkload,
                         ::testing::ValuesIn(workloadNames()));

} // namespace

TEST(Perfbench, UnknownWorkloadIsRejected)
{
    Workload w;
    EXPECT_FALSE(makeWorkload("no_such_workload", 1, 10, w));
}

namespace {

std::vector<Metric>
counts(const Workload &w)
{
    return countMetrics(countedRun(w), sampleShape(w), resolvedShards(w));
}

} // namespace

TEST_P(EachWorkload, CountMetricsRepeatExactlyForASeed)
{
    const Workload w = workload(GetParam());
    const std::vector<Metric> a = counts(w);
    const std::vector<Metric> b = counts(w);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].value, b[i].value) << a[i].name;
    }
}

namespace {

/**
 * Count metrics a workload's structure pins regardless of the seed:
 * d-FCFS runs exactly arrival, dispatch and completion per request
 * and has no runtime, NoC or windows; a single server never shards;
 * the rack's rare MIGRATEs all carry two descriptors and are ACKed.
 * Every other count metric must move when the seed does.
 */
std::set<std::string>
structuralMetrics(const std::string &workload)
{
    if (workload == "rss16") {
        std::set<std::string> all;
        for (const Metric &m : countMetrics(CountedRun{}, Shape{}, 1))
            all.insert(m.name);
        all.erase("cpu.utilization");
        return all;
    }
    if (workload == "ac64_bursty") {
        return {"sim.parallel_windows", "sim.events_per_window",
                "sim.resolved_shards", "core.sends_refused_per_req"};
    }
    return {"sim.resolved_shards", "core.descriptors_per_migrate",
            "core.migrate_ack_ratio", "core.sends_refused_per_req"};
}

} // namespace

TEST_P(EachWorkload, CountMetricsMoveWithTheSeed)
{
    const CountedRun c10 = countedRun(workload(GetParam(), 10));
    const CountedRun c11 = countedRun(workload(GetParam(), 11));
    EXPECT_NE(c10.run.result.fingerprint, c11.run.result.fingerprint);
    const unsigned shards = resolvedShards(workload(GetParam()));
    const std::vector<Metric> a =
        countMetrics(c10, sampleShape(workload(GetParam(), 10)), shards);
    const std::vector<Metric> b =
        countMetrics(c11, sampleShape(workload(GetParam(), 11)), shards);
    const std::set<std::string> fixed = structuralMetrics(GetParam());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (fixed.count(a[i].name))
            EXPECT_EQ(a[i].value, b[i].value) << a[i].name;
        else
            EXPECT_NE(a[i].value, b[i].value) << a[i].name;
    }
}

TEST_P(EachWorkload, CountedRunIsACorrectRun)
{
    const Workload w = workload(GetParam());
    const TimedRun ref = timedRun(w.cfg, w.spec);
    EXPECT_TRUE(checkRun(w, ref.result, ref.result).empty());
    const CountedRun c = countedRun(w);
    EXPECT_TRUE(checkRun(w, ref.result, c.run.result).empty());
    EXPECT_FALSE(c.stats.empty());
    // The tracer records runtime transitions; d-FCFS makes none.
    if (w.cfg.design == altoc::system::Design::AcInt)
        EXPECT_GT(c.run.result.traceRecords, 0u);
    EXPECT_TRUE(checkCounts(c.run.result, countedRun(w).run.result).empty());
}

TEST(Perfbench, ShapeDriveIsTheSingleServerRun)
{
    // On one server the shape drive builds and drives exactly what
    // runExperiment does, so its counts equal the counted run's.
    const Workload w = workload("ac64_bursty");
    const CountedRun c = countedRun(w);
    const Shape s = sampleShape(w);
    EXPECT_EQ(static_cast<double>(s.events),
              c.stats.at("sim.eventsExecuted"));
    EXPECT_EQ(static_cast<double>(s.meshMessages),
              c.stats.at("noc.messages"));
    EXPECT_EQ(s.completed, c.run.result.completed);
}

TEST(Perfbench, CountsDifferingFromTheCountedRunFail)
{
    const Workload w = workload("ac64_bursty");
    const RunResult r = countedRun(w).run.result;
    EXPECT_TRUE(checkCounts(r, r).empty());
    RunResult bad = r;
    bad.messaging.updatesSent += 1;
    ASSERT_EQ(checkCounts(r, bad).size(), 1u);
    EXPECT_NE(checkCounts(r, bad)[0].find("updatesSent"), std::string::npos);
}

TEST_P(EachWorkload, ProbesUseTheWorkloadShape)
{
    const Workload w = workload(GetParam());
    const Shape s = sampleShape(w);
    const ProbeResult p = runProbes(w, s);

    // Mesh: the per-server NoC the workload's cores sit on.
    const altoc::noc::Mesh mesh = altoc::noc::Mesh::forTiles(w.cfg.cores);
    EXPECT_EQ(p.meshCols, mesh.cols());
    EXPECT_EQ(p.meshRows, mesh.rows());

    // Queues: one per AC group, one per core under d-FCFS; the
    // Erlang-C model sees the workers behind one queue.
    const bool ac = w.cfg.design == altoc::system::Design::AcInt;
    EXPECT_EQ(p.qWidth, ac ? w.cfg.groups : w.cfg.cores);
    EXPECT_EQ(p.erlangServers, ac ? w.cfg.cores / w.cfg.groups - 1 : 1u);
    EXPECT_EQ(s.queueTiles.size(), p.qWidth);
    EXPECT_FALSE(s.queueSamples.empty());

    // Arrivals: MMPP only on the bursty workload.
    EXPECT_EQ(p.arrivalProcess,
              w.spec.realWorldArrivals ? "MMPP" : "Poisson");

    // One server's share of the workload's requests; depths come from
    // the run, not from constants.
    EXPECT_EQ(s.completed, w.spec.requests / w.cfg.rack.servers);
    EXPECT_GE(p.eventDepth, 1u);
    EXPECT_GE(p.poolDepth, 1u);
    EXPECT_GT(p.eventOpNs, 0.0);
    EXPECT_GT(p.meshSendNs, 0.0);
}

TEST_P(EachWorkload, BuildAndTeardownAreTimed)
{
    const BuildTiming t = buildAndTeardown(workload(GetParam()));
    EXPECT_GT(t.buildS, 0.0);
    EXPECT_GT(t.teardownS, 0.0);
}

TEST(Perfbench, PerturbedFingerprintFailsTheRun)
{
    const Workload w = workload("rss16");
    const TimedRun ref = timedRun(w.cfg, w.spec);
    RunResult bad = ref.result;
    bad.fingerprint ^= 1;

    Ledger ledger;
    ledger.record("good", checkRun(w, ref.result, ref.result));
    ledger.record("perturbed", checkRun(w, ref.result, bad));
    EXPECT_EQ(ledger.attempted, 2u);
    EXPECT_EQ(ledger.failed, 1u);
    ASSERT_EQ(ledger.failures.size(), 1u);
    EXPECT_NE(ledger.failures[0].find("perturbed: fingerprint"),
              std::string::npos);
}

TEST(Perfbench, BrokenAccountingFailsTheRun)
{
    const Workload w = workload("rss16");
    const TimedRun ref = timedRun(w.cfg, w.spec);
    RunResult bad = ref.result;
    bad.completed -= 1;
    EXPECT_GE(checkRun(w, ref.result, bad).size(), 2u);

    RunResult shed = ref.result;
    shed.requestsShed = 1;
    EXPECT_EQ(checkRun(w, ref.result, shed).size(), 1u);
}

TEST(Perfbench, RackShardsAgreeAndDowngradeFails)
{
    const Workload w = workload("rack4_sharded");
    EXPECT_EQ(resolvedShards(w), 2u);
    EXPECT_TRUE(checkShards(w, resolvedShards(w)).empty());

    const TimedRun sharded = timedRun(w.cfg, w.spec);
    EXPECT_GT(sharded.result.parallelWindows, 0u);
    Workload serial = w;
    serial.cfg.shards = 1;
    serial.expectedShards = 1;
    const TimedRun one = timedRun(serial.cfg, serial.spec);
    EXPECT_EQ(one.result.parallelWindows, 0u);
    EXPECT_TRUE(checkRun(serial, sharded.result, one.result).empty());
    // The sharded workload must not pass without parallel windows.
    EXPECT_FALSE(checkRun(w, sharded.result, one.result).empty());

    // A load-reading ToR policy forces the serial kernel: reported.
    Workload p2c = w;
    p2c.cfg.rack.policy = altoc::system::TorPolicy::PowerOfK;
    EXPECT_EQ(resolvedShards(p2c), 1u);
    EXPECT_FALSE(checkShards(p2c, resolvedShards(p2c)).empty());
}

TEST(Perfbench, RssHasNoRuntimeNocOrWindowTraffic)
{
    const std::vector<Metric> ms = counts(workload("rss16"));
    EXPECT_EQ(metric(ms, "core.updates_per_req"), 0.0);
    EXPECT_EQ(metric(ms, "noc.msgs_per_req"), 0.0);
    EXPECT_EQ(metric(ms, "sim.parallel_windows"), 0.0);
}
