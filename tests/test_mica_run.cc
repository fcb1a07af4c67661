/**
 * @file
 * End-to-end MICA experiment runner tests.
 */

#include <gtest/gtest.h>

#include "system/mica_run.hh"
#include "system/parallel_run.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

/** One MICA run's three inputs. */
struct MicaCase
{
    DesignConfig design;
    WorkloadSpec spec;
    MicaRunConfig mica;
};

MicaCase
smallCase(Design design)
{
    MicaCase c;
    c.design.design = design;
    c.design.cores = 32;
    c.design.groups = 2;
    c.design.lineRateGbps = 1600.0;
    c.spec.rateMrps = 30.0;
    c.spec.requests = 30000;
    c.spec.sloAbsolute = 10 * kUs;
    c.spec.seed = 4;
    c.mica.store.keysPerPartition = 2000;
    c.mica.store.buckets = 1 << 12;
    // Large enough that the circular log does not wrap during the
    // run; the log is lossy by design (see CircularLog), so a
    // wrapped log would make GET misses legitimate.
    c.mica.store.logBytes = 64u << 20;
    return c;
}

MicaRunResult
run(const MicaCase &c)
{
    return runMicaExperiment(c.design, c.spec, c.mica);
}

/** The values a run of smallCase (and its variants) must reproduce
 *  exactly: they were recorded when runMicaExperiment still drove a
 *  bare Server itself, so they pin the move onto runExperiment. */
struct Pinned
{
    std::uint64_t completed, p50, p99, violations, migrated;
    std::uint64_t gets, sets, scans, misses, remote;
};

void
expectPinned(const MicaRunResult &r, const Pinned &p)
{
    EXPECT_EQ(r.run.completed, p.completed);
    EXPECT_EQ(r.run.latency.p50, p.p50);
    EXPECT_EQ(r.run.latency.p99, p.p99);
    EXPECT_EQ(r.run.violations, p.violations);
    EXPECT_EQ(r.run.migrated, p.migrated);
    EXPECT_EQ(r.gets, p.gets);
    EXPECT_EQ(r.sets, p.sets);
    EXPECT_EQ(r.scans, p.scans);
    EXPECT_EQ(r.misses, p.misses);
    EXPECT_EQ(r.remoteExecutions, p.remote);
}

} // namespace

TEST(MicaRun, CompletesAllRequests)
{
    const MicaRunResult res = run(smallCase(Design::AcInt));
    EXPECT_EQ(res.run.completed, 30000u);
    // Query mix: ~0.5% scans, rest split between GETs and SETs.
    EXPECT_GT(res.scans, 50u);
    EXPECT_LT(res.scans, 400u);
    EXPECT_NEAR(static_cast<double>(res.gets),
                static_cast<double>(res.sets), 30000 * 0.03);
}

TEST(MicaRun, NoMissesOnPopulatedStore)
{
    const MicaRunResult res = run(smallCase(Design::Nebula));
    EXPECT_EQ(res.misses, 0u);
}

TEST(MicaRun, RemoteExecutionsTracked)
{
    // Nebula schedules without partition affinity, so roughly half of
    // the requests in a 2-partition store execute remotely.
    const MicaRunResult res = run(smallCase(Design::Nebula));
    EXPECT_GT(res.remoteExecutions, res.run.completed / 4);
}

TEST(MicaRun, ServiceTimesComeFromExecution)
{
    const MicaRunResult res = run(smallCase(Design::AcInt));
    // GET/SET dominate: median latency must sit at nanosecond scale
    // (well below the 50 us SCAN nominal the generator pre-stamps),
    // proving the resolver replaced nominal demands with executed
    // operation times.
    EXPECT_LT(res.run.latency.p50, 2 * kUs);
    EXPECT_GT(res.run.latency.p50, 50u);
}

TEST(MicaRun, DeterministicAcrossRuns)
{
    const MicaRunResult a = run(smallCase(Design::AcRss));
    const MicaRunResult b = run(smallCase(Design::AcRss));
    EXPECT_EQ(a.run.latency.p99, b.run.latency.p99);
    EXPECT_EQ(a.run.migrated, b.run.migrated);
    EXPECT_EQ(a.gets, b.gets);
    EXPECT_EQ(a.remoteExecutions, b.remoteExecutions);
    EXPECT_EQ(a.run.fingerprint, b.run.fingerprint);
    EXPECT_EQ(a.run.fingerprintEvents, a.run.completed);
}

TEST(MicaRun, CapturePerRequestJoinsWithIds)
{
    MicaCase c = smallCase(Design::AcInt);
    c.spec.capturePerRequest = true;
    const MicaRunResult res = run(c);
    ASSERT_EQ(res.run.perRequest.size(), c.spec.requests);
    std::vector<bool> seen(c.spec.requests, false);
    for (const auto &o : res.run.perRequest) {
        ASSERT_LT(o.id, c.spec.requests);
        EXPECT_FALSE(seen[o.id]);
        seen[o.id] = true;
    }
}

TEST(MicaRun, CrewReadsSkipRemotePenalty)
{
    // Under CREW only SETs pay the owner access, so remote
    // executions drop to roughly the SET share of EREW's count.
    const MicaCase erew = smallCase(Design::Nebula);
    MicaCase crew = smallCase(Design::Nebula);
    crew.mica.mode = mica::ConcurrencyMode::Crew;
    const MicaRunResult r_erew = run(erew);
    const MicaRunResult r_crew = run(crew);
    EXPECT_LT(r_crew.remoteExecutions, r_erew.remoteExecutions);
    EXPECT_GT(r_crew.remoteExecutions, 0u);
    // Roughly half of the GET/SET mix is SETs.
    EXPECT_NEAR(static_cast<double>(r_crew.remoteExecutions),
                static_cast<double>(r_erew.remoteExecutions) / 2.0,
                static_cast<double>(r_erew.remoteExecutions) * 0.15);
}

TEST(MicaRun, ZipfSkewConcentratesPartitions)
{
    const MicaCase uniform = smallCase(Design::AcInt);
    MicaCase skewed = smallCase(Design::AcInt);
    skewed.mica.keySkew = 1.2;
    const MicaRunResult u = run(uniform);
    const MicaRunResult z = run(skewed);
    EXPECT_EQ(u.run.completed, z.run.completed);
    // Hot keys pile onto one partition's owner group: the skewed run
    // migrates at least as much as the uniform one.
    EXPECT_GE(z.run.migrated + 50, u.run.migrated);
}

TEST(MicaRun, PartitionsMatchGroups)
{
    MicaCase c = smallCase(Design::AcInt);
    c.design.groups = 4;
    c.design.cores = 32;
    const MicaRunResult res = run(c);
    EXPECT_EQ(res.run.completed, c.spec.requests);
}

/** Every value of the small runs as the bare-Server driver produced
 *  them, reproduced exactly through runExperiment. */
TEST(MicaRun, PinnedResultsSurviveTheDriver)
{
    expectPinned(run(smallCase(Design::AcInt)),
                 {30000, 214, 236, 142, 0, 14830, 15020, 150, 0, 14999});
    expectPinned(run(smallCase(Design::AcRss)),
                 {30000, 747, 902, 142, 100, 14830, 15020, 150, 0, 15003});
    expectPinned(run(smallCase(Design::Nebula)),
                 {30000, 239, 248, 142, 0, 14830, 15020, 150, 0, 15007});
    MicaCase crew = smallCase(Design::Nebula);
    crew.mica.mode = mica::ConcurrencyMode::Crew;
    expectPinned(run(crew),
                 {30000, 216, 248, 142, 0, 14830, 15020, 150, 0, 7513});
    MicaCase skew = smallCase(Design::AcInt);
    skew.mica.keySkew = 1.2;
    expectPinned(run(skew),
                 {30000, 206, 233, 122, 0, 14879, 14987, 134, 0, 14897});
    MicaCase groups4 = smallCase(Design::AcInt);
    groups4.design.groups = 4;
    expectPinned(run(groups4),
                 {30000, 220, 233, 142, 0, 14830, 15020, 150, 0, 22563});

    // The captured (id, latency, migrated) stream, in completion
    // order.
    MicaCase capture = smallCase(Design::AcInt);
    capture.spec.capturePerRequest = true;
    const MicaRunResult c = run(capture);
    std::uint64_t h = 1469598103934665603ull;
    for (const RequestOutcome &o : c.run.perRequest) {
        h = (h ^ o.id) * 1099511628211ull;
        h = (h ^ o.latency) * 1099511628211ull;
        h = (h ^ (o.migrated ? 1u : 0u)) * 1099511628211ull;
    }
    EXPECT_EQ(c.run.perRequest.size(), 30000u);
    EXPECT_EQ(h, 0x886c874fb157ffeaull);
}

/** A MICA run is inside the determinism contract: its fingerprint is
 *  anchored, covers every completion, and repeats across runs and
 *  across a parallel batch at one and two jobs. */
TEST(MicaRun, FingerprintIsAnchoredAndRepeats)
{
    const MicaCase c = smallCase(Design::AcInt);
    const MicaRunResult a = run(c);
    EXPECT_EQ(a.run.fingerprint, 0x593052c188446b4dull);
    EXPECT_EQ(a.run.fingerprintEvents, a.run.completed);
    EXPECT_EQ(run(c).run.fingerprint, a.run.fingerprint);

    const std::vector<MicaCase> batch{smallCase(Design::AcInt),
                                      smallCase(Design::Nebula)};
    for (unsigned jobs : {1u, 2u}) {
        const std::vector<MicaRunResult> res = mapOrdered(
            batch, [](const MicaCase &m) { return run(m); }, jobs);
        ASSERT_EQ(res.size(), 2u);
        EXPECT_EQ(res[0].run.fingerprint, a.run.fingerprint) << jobs;
        EXPECT_NE(res[1].run.fingerprint, a.run.fingerprint) << jobs;
        for (const MicaRunResult &r : res)
            EXPECT_EQ(r.run.fingerprintEvents, r.run.completed) << jobs;
    }
}

/** One MICA store serves one server: a handler on a federated rack is
 *  refused rather than run against a shared store. */
TEST(MicaRunDeathTest, HandlerOnRackIsRejected)
{
    MicaCase c = smallCase(Design::AcInt);
    c.design.rack.servers = 2;
    EXPECT_DEATH(run(c), "RPC handler runs on one server");
}
