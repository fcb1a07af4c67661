/**
 * @file
 * End-to-end MICA key-value store example (Sec. IX): a 64-core
 * server running the GET/SET/SCAN mix under bursty "real-world"
 * traffic, comparing Nebula's hardware JBSQ against ALTOCUMULUS.
 *
 * This mirrors the paper's Fig. 14 setup at example scale: the same
 * dataset, the same EREW partitioning, the nanoRPC-class ~50 ns
 * GET/SET service times and 0.5% ~50 us SCANs.
 */

#include <cstdio>

#include "system/mica_run.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

DesignConfig
baseDesign(Design design)
{
    DesignConfig cfg;
    cfg.design = design;
    cfg.cores = 64;
    cfg.groups = 4;
    cfg.lineRateGbps = 1600.0;
    return cfg;
}

WorkloadSpec
baseSpec()
{
    WorkloadSpec spec;
    // SCANs are 0.5% of requests but ~80% of the demanded core time;
    // 60 MRPS keeps the burst phases of the MMPP inside capacity.
    spec.rateMrps = 60.0;
    spec.requests = 300000;
    spec.realWorldArrivals = true;
    spec.sloAbsolute = 10 * kUs;
    // Few client connections make RSS steering lumpy across groups,
    // which is the imbalance ALTOCUMULUS migrations correct.
    spec.connections = 12;
    spec.seed = 2026;
    return spec;
}

MicaRunConfig
baseMica()
{
    MicaRunConfig mica;
    mica.store.keysPerPartition = 20000;
    mica.store.buckets = 1 << 15;
    mica.store.logBytes = 32u << 20;
    return mica;
}

void
report(const MicaRunResult &res)
{
    const RunResult &r = res.run;
    std::printf("%-12s  %7.1f MRPS  p50 %8.2f us  p99 %8.2f us  "
                "viol %6.3f%%  migr %8llu  remote %8llu  miss %llu\n",
                r.design.c_str(), r.achievedMrps, r.latency.p50 / 1e3,
                r.latency.p99 / 1e3, r.violationRatio * 100.0,
                static_cast<unsigned long long>(r.migrated),
                static_cast<unsigned long long>(res.remoteExecutions),
                static_cast<unsigned long long>(res.misses));
}

} // namespace

int
main()
{
    std::printf("MICA over RPC scheduling, 64 cores, real-world "
                "traffic (0.5%% SCAN / 99.5%% GET+SET)\n\n");

    const WorkloadSpec spec = baseSpec();
    const MicaRunConfig mica = baseMica();

    // Baseline: Nebula's NIC-driven JBSQ across all 64 cores.
    report(runMicaExperiment(baseDesign(Design::Nebula), spec, mica));

    // ALTOCUMULUS on the integrated NIC, 4 groups of 1+15 -- first
    // with migration disabled to expose the raw steering imbalance,
    // then with the full runtime.
    DesignConfig ac_off = baseDesign(Design::AcInt);
    ac_off.params.migrationEnabled = false;
    report(runMicaExperiment(ac_off, spec, mica));

    report(runMicaExperiment(baseDesign(Design::AcInt), spec, mica));

    // ALTOCUMULUS on a commodity PCIe RSS NIC with the custom ISA
    // interface (the Fig. 14 AC_rss-ISA configuration).
    report(runMicaExperiment(baseDesign(Design::AcRss), spec, mica));

    std::printf("\nCompare the two AC_int rows: proactive migration "
                "recovers most of the tail that lumpy RSS steering "
                "costs a grouped design, approaching Nebula's "
                "perfectly balanced (but coherence-domain-bound) "
                "central queue. AC_rss additionally shows the "
                "software manager's ~28 MRPS hand-off ceiling under "
                "bursts.\n");
    return 0;
}
