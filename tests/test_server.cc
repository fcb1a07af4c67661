/**
 * @file
 * Server and experiment-driver tests.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>

#include "system/experiment.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;

TEST(Server, LatencyIncludesNicAndResponsePath)
{
    // One request on an idle PCIe system: latency must include RX
    // PCIe + service + response hand-off, so it clearly exceeds the
    // raw service time.
    DesignConfig cfg;
    cfg.design = Design::Rss;
    cfg.cores = 2;
    WorkloadSpec spec;
    spec.service = workload::makeFixed(1000);
    spec.rateMrps = 0.001;
    spec.requests = 10;
    spec.warmupFraction = 0.0;
    const RunResult res = runExperiment(cfg, spec);
    EXPECT_EQ(res.completed, 10u);
    EXPECT_GT(res.latency.p50, 1000u + 2 * lat::kPcieMin);
}

TEST(Server, IntegratedNicIsFaster)
{
    WorkloadSpec spec;
    spec.service = workload::makeFixed(1000);
    spec.rateMrps = 0.001;
    spec.requests = 10;
    spec.warmupFraction = 0.0;

    DesignConfig pcie;
    pcie.design = Design::Rss;
    pcie.cores = 2;
    DesignConfig integ;
    integ.design = Design::Nebula;
    integ.cores = 2;

    const RunResult slow = runExperiment(pcie, spec);
    const RunResult fast = runExperiment(integ, spec);
    EXPECT_LT(fast.latency.p50, slow.latency.p50);
}

TEST(Server, WarmupExcludesEarlySamples)
{
    DesignConfig cfg;
    cfg.design = Design::Rss;
    cfg.cores = 4;
    WorkloadSpec spec;
    spec.service = workload::makeFixed(500);
    spec.rateMrps = 1.0;
    spec.requests = 1000;
    spec.warmupFraction = 0.5;
    const RunResult res = runExperiment(cfg, spec);
    EXPECT_EQ(res.completed, 1000u);
    // Tracker only saw the post-warmup half.
    EXPECT_LE(res.latency.count, 500u);
    EXPECT_GE(res.latency.count, 450u);
}

TEST(Server, PerRequestCaptureCoversAllRequests)
{
    DesignConfig cfg;
    cfg.design = Design::Nebula;
    cfg.cores = 4;
    WorkloadSpec spec;
    spec.service = workload::makeFixed(500);
    spec.rateMrps = 2.0;
    spec.requests = 2000;
    spec.capturePerRequest = true;
    const RunResult res = runExperiment(cfg, spec);
    ASSERT_EQ(res.perRequest.size(), 2000u);
    std::vector<bool> seen(2000, false);
    for (const auto &o : res.perRequest) {
        ASSERT_LT(o.id, 2000u);
        EXPECT_FALSE(seen[o.id]) << "duplicate completion";
        seen[o.id] = true;
        EXPECT_GT(o.latency, 0u);
    }
}

TEST(Server, TraceReplayIsExactlyReproducible)
{
    auto dist = workload::makePaperBimodal();
    auto arrivals = workload::makePoisson(0.002);
    const workload::Trace trace = workload::Trace::generate(
        *dist, *arrivals, 3000, 64, 300, Rng(17));

    DesignConfig cfg;
    cfg.design = Design::Nebula;
    cfg.cores = 8;
    WorkloadSpec spec;
    spec.trace = &trace;
    spec.capturePerRequest = true;
    spec.sloAbsolute = 300 * kUs;

    const RunResult a = runExperiment(cfg, spec);
    const RunResult b = runExperiment(cfg, spec);
    ASSERT_EQ(a.perRequest.size(), b.perRequest.size());
    for (std::size_t i = 0; i < a.perRequest.size(); ++i) {
        EXPECT_EQ(a.perRequest[i].id, b.perRequest[i].id);
        EXPECT_EQ(a.perRequest[i].latency, b.perRequest[i].latency);
    }
}

TEST(Server, TraceReplayRespectsArrivalTimes)
{
    std::vector<workload::TraceRecord> recs;
    for (int i = 0; i < 5; ++i) {
        workload::TraceRecord rec;
        rec.arrival = 1000 * (i + 1);
        rec.service = 100;
        rec.sizeBytes = 64;
        recs.push_back(rec);
    }
    const workload::Trace trace{std::move(recs)};

    DesignConfig cfg;
    cfg.design = Design::Nebula;
    cfg.cores = 2;
    WorkloadSpec spec;
    spec.trace = &trace;
    spec.warmupFraction = 0.0;
    const RunResult res = runExperiment(cfg, spec);
    EXPECT_EQ(res.completed, 5u);
    // Offered rate derived from the trace span.
    EXPECT_NEAR(res.offeredMrps, 1.0, 0.05);
}

TEST(Server, SloAbsoluteOverridesFactor)
{
    DesignConfig cfg;
    cfg.design = Design::Rss;
    cfg.cores = 4;
    WorkloadSpec spec;
    spec.service = workload::makeFixed(1000);
    spec.rateMrps = 1.0;
    spec.requests = 100;
    spec.sloAbsolute = 123456;
    const RunResult res = runExperiment(cfg, spec);
    EXPECT_EQ(res.sloTarget, 123456u);
}

TEST(Server, DumpStatsWritesEveryComponent)
{
    DesignConfig cfg;
    cfg.design = Design::Nebula;
    cfg.cores = 4;
    auto server = makeServer(cfg, 1000, "Fixed", 10 * kUs, 0, 1);
    server->stopAfterCompletions(100);
    WorkloadSpec spec;
    spec.service = workload::makeFixed(500);
    spec.rateMrps = 1.0;
    spec.requests = 100;
    LoadGenerator gen(*server, spec);
    gen.start();
    server->run();

    const char *path = "/tmp/altoc_stats_test.txt";
    std::FILE *f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr);
    server->dumpStats(f);
    std::fclose(f);

    std::FILE *in = std::fopen(path, "r");
    ASSERT_NE(in, nullptr);
    std::string contents;
    char buf[256];
    while (std::fgets(buf, sizeof buf, in) != nullptr)
        contents += buf;
    std::fclose(in);
    std::remove(path);

    for (const char *key :
         {"sim.finalTick", "nic.received", "noc.messages",
          "server.completed", "latency.p99Ns", "slo.violationRatio",
          "core00.busyNs", "core03.busyNs", "sched.queue00.length"}) {
        EXPECT_NE(contents.find(key), std::string::npos) << key;
    }
    EXPECT_NE(contents.find("100"), std::string::npos);
}

TEST(Server, DesignNamesRoundTrip)
{
    EXPECT_STREQ(designName(Design::Rss), "RSS");
    EXPECT_STREQ(designName(Design::Nebula), "Nebula");
    EXPECT_STREQ(designName(Design::AcRss), "AC_rss");
    EXPECT_STREQ(designName(Design::AcInt), "AC_int");
}

TEST(Server, SchedulerNamesMatchVariants)
{
    DesignConfig cfg;
    cfg.design = Design::AcRss;
    cfg.cores = 16;
    cfg.groups = 2;
    auto s = makeScheduler(cfg, 1000, "Fixed");
    EXPECT_EQ(s->name(), "AC_rss");
    cfg.params.iface = core::Interface::Msr;
    auto s2 = makeScheduler(cfg, 1000, "Fixed");
    EXPECT_EQ(s2->name(), "AC_rss-MSR");
    cfg.params.iface = core::Interface::Isa;
    cfg.params.migrationEnabled = false;
    auto s3 = makeScheduler(cfg, 1000, "Fixed");
    EXPECT_EQ(s3->name(), "AC_rss-nomig");
}

TEST(Server, NicConfigMatchesDesign)
{
    DesignConfig cfg;
    cfg.design = Design::Nebula;
    EXPECT_EQ(nicConfigFor(cfg).attach, net::NicAttach::Integrated);
    EXPECT_EQ(nicConfigFor(cfg).steering, net::Steering::Central);
    cfg.design = Design::AcRss;
    EXPECT_EQ(nicConfigFor(cfg).attach, net::NicAttach::Pcie);
    EXPECT_EQ(nicConfigFor(cfg).steering, net::Steering::Rss);
    cfg.steering = net::Steering::RoundRobin;
    EXPECT_EQ(nicConfigFor(cfg).steering, net::Steering::RoundRobin);
}

/** operator+= sums every field. The struct is viewed as its words (its
 *  size is static_asserted to be exactly its counters), each holding a
 *  distinct value in both operands, so a field left unsummed shows. */
TEST(PredictionStats, PlusEqualsSumsEveryField)
{
    using Words = std::array<std::uint64_t,
                             sizeof(PredictionStats) / sizeof(std::uint64_t)>;
    Words a{};
    Words b{};
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = i + 1;
        b[i] = 100 * (i + 1);
    }
    PredictionStats sum = std::bit_cast<PredictionStats>(a);
    sum += std::bit_cast<PredictionStats>(b);
    const Words got = std::bit_cast<Words>(sum);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], 101 * (i + 1)) << "field " << i;
}
