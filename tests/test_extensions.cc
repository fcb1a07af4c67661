/**
 * @file
 * Tests for the extension modules: time series, the deadline-drop
 * baseline and the AC worker-preemption quantum.
 */

#include <gtest/gtest.h>

#include "core/group.hh"
#include "stats/timeseries.hh"
#include "system/experiment.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;

// ---------------------------------------------------------------------
// TimeSeries
// ---------------------------------------------------------------------

TEST(TimeSeries, WindowAggregation)
{
    stats::TimeSeries ts(100);
    ts.record(10, 5.0);
    ts.record(50, 15.0);
    ts.record(150, 7.0);
    ASSERT_EQ(ts.windows().size(), 2u);
    EXPECT_EQ(ts.windows()[0].count, 2u);
    EXPECT_DOUBLE_EQ(ts.windows()[0].mean(), 10.0);
    EXPECT_DOUBLE_EQ(ts.windows()[0].min, 5.0);
    EXPECT_DOUBLE_EQ(ts.windows()[0].max, 15.0);
    EXPECT_EQ(ts.windows()[1].count, 1u);
    EXPECT_EQ(ts.windows()[1].start, 100u);
}

TEST(TimeSeries, GapsLeaveEmptyWindows)
{
    stats::TimeSeries ts(10);
    ts.record(5, 1.0);
    ts.record(95, 2.0);
    ASSERT_EQ(ts.windows().size(), 10u);
    EXPECT_EQ(ts.windows()[4].count, 0u);
    EXPECT_DOUBLE_EQ(ts.peak(), 2.0);
}

TEST(TimeSeries, MultiSeriesStableReferences)
{
    stats::MultiSeries ms(10);
    stats::TimeSeries &a = ms.series("a");
    for (int i = 0; i < 50; ++i) {
        std::string name = "s";
        name += std::to_string(i);
        ms.series(name).record(1, 1.0);
    }
    a.record(5, 42.0); // the reference must still be valid
    EXPECT_EQ(ms.size(), 51u);
    EXPECT_DOUBLE_EQ(ms.at(0).peak(), 42.0);
    EXPECT_EQ(ms.names()[0], "a");
}

// ---------------------------------------------------------------------
// DeadlineDrop
// ---------------------------------------------------------------------

namespace {

RunResult
runDrop(double rate, Tick budget, unsigned connections)
{
    DesignConfig cfg;
    cfg.design = Design::DeadlineDrop;
    cfg.cores = 8;
    cfg.dropBudget = budget;
    WorkloadSpec spec;
    spec.service = workload::makeFixed(1 * kUs);
    spec.rateMrps = rate;
    spec.requests = 30000;
    spec.connections = connections;
    spec.warmupFraction = 0.0;
    spec.seed = 9;
    return runExperiment(cfg, spec);
}

} // namespace

TEST(DeadlineDrop, NoDropsAtLowLoad)
{
    // Many connections keep RSS even; low load then never queues
    // past the budget.
    const RunResult res = runDrop(2.0, 10 * kUs, 1024);
    EXPECT_EQ(res.completed, 30000u);
    EXPECT_EQ(res.dropped, 0u);
}

TEST(DeadlineDrop, DropsUnderOverload)
{
    const RunResult res = runDrop(12.0, 10 * kUs, 8);
    EXPECT_EQ(res.completed, 30000u);
    EXPECT_GT(res.dropped, 1000u);
    // Dropping bounds the executed tail near the budget + service.
    EXPECT_LT(res.latency.p99, 10 * kUs + 5 * kUs);
}

TEST(DeadlineDrop, TighterBudgetDropsMore)
{
    const RunResult loose = runDrop(10.0, 20 * kUs, 8);
    const RunResult tight = runDrop(10.0, 5 * kUs, 8);
    EXPECT_GT(tight.dropped, loose.dropped);
}

TEST(DeadlineDrop, AcNeverDrops)
{
    DesignConfig cfg;
    cfg.design = Design::AcInt;
    cfg.cores = 8;
    cfg.groups = 2;
    WorkloadSpec spec;
    spec.service = workload::makeFixed(1 * kUs);
    spec.rateMrps = 12.0;
    spec.requests = 30000;
    spec.seed = 9;
    const RunResult res = runExperiment(cfg, spec);
    EXPECT_EQ(res.dropped, 0u);
    EXPECT_EQ(res.completed, 30000u);
}

// ---------------------------------------------------------------------
// AC worker preemption (extension)
// ---------------------------------------------------------------------

namespace {

RunResult
runAcQuantum(Tick quantum)
{
    DesignConfig cfg;
    cfg.design = Design::AcInt;
    cfg.cores = 16;
    cfg.groups = 2;
    cfg.workerQuantum = quantum;
    WorkloadSpec spec;
    spec.service =
        std::make_shared<workload::BimodalDist>(0.01, 500, 200 * kUs);
    spec.rateMrps = 8.0;
    spec.requests = 40000;
    spec.sloAbsolute = 100 * kUs;
    spec.seed = 15;
    return runExperiment(cfg, spec);
}

} // namespace

TEST(AcPreemption, QuantumCutsBimodalTail)
{
    const RunResult rtc = runAcQuantum(kTickInf);
    const RunResult preempt = runAcQuantum(5 * kUs);
    EXPECT_EQ(rtc.completed, 40000u);
    EXPECT_EQ(preempt.completed, 40000u);
    // With 1% 200 us longs at 8 MRPS, run-to-completion workers are
    // mostly long-occupied; a 5 us quantum lets shorts through.
    EXPECT_LT(preempt.latency.p99, rtc.latency.p99);
}

TEST(AcPreemption, LoneLongRequestRunsWithoutChurn)
{
    DesignConfig cfg;
    cfg.design = Design::AcInt;
    cfg.cores = 4;
    cfg.groups = 1;
    cfg.workerQuantum = 1 * kUs;
    WorkloadSpec spec;
    spec.service = workload::makeFixed(50 * kUs);
    spec.rateMrps = 0.001; // essentially one request at a time
    spec.requests = 20;
    spec.warmupFraction = 0.0;
    spec.seed = 15;
    const RunResult res = runExperiment(cfg, spec);
    EXPECT_EQ(res.completed, 20u);
    // No competition -> resume-in-place, no preemption tax: latency
    // stays at service + transit.
    EXPECT_LT(res.latency.p50, 51 * kUs);
}
