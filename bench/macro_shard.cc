/**
 * @file
 * Sharded-kernel macro bench: one large-topology run, serial vs
 * parallel windows.
 *
 * BM_MacroShard/N runs a single 256-core federation -- 4 AC_int
 * servers x 64 cores behind a round-robin ToR (the load-oblivious
 * policy the sharded kernel supports) -- on N kernel shards, and
 * reports items_per_second where one item is one completed simulated
 * request. Every N produces bit-identical results (the fingerprint
 * counter pins that inside the bench itself); the rows differ only in
 * wall clock, so the /1 vs /4 ratio *is* the sharded executor's
 * speedup on one topology too big for a single core's event loop. On
 * a ci-constrained single-core runner the windows still execute
 * (parallel_windows counter > 0) but yield their speedup back.
 *
 * Where the wall clock went, averaged per run: build_ms, windows_ms
 * (parallel phase), serial_ms (the tail after it, or the whole run at
 * /1), fold_ms (the observation merge left after the run, and the
 * summaries) and, on sharded rows, window_fold_ms (the merge the
 * calling thread did inside the windows while it waited for the
 * server shards; part of windows_ms, not of s0_wait_ms); and per shard k
 * of a sharded row -- shard 0 is the ToR on the calling thread,
 * shards 1..N the servers -- sK_busy_ms, sK_wait_ms, sK_settle_ms
 * (sim::ShardStats), sK_events, and sK_cross_sent / sK_cross_recv.
 *
 * The checked-in baseline is BENCH_shard.json (compared warn-only by
 * scripts/bench_compare.py in the perf-smoke job). Regenerate with
 * --json=FILE.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "system/rack.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

constexpr std::uint64_t kRequests = 60000;

/** Fig. 10's service mix on a 4 x 64-core rack. 40 MRPS is 10 MRPS
 *  per server against ~75 MRPS of capacity (56 workers at a 747.5 ns
 *  mean), so about 13% load per server: light, but every region's
 *  runtime ticks and UPDATEs keep its event queue busy, so the
 *  windows have work to parallelize. */
WorkloadSpec
shardSpec()
{
    WorkloadSpec spec;
    spec.service =
        std::make_shared<workload::BimodalDist>(0.005, 500, 50 * kUs);
    spec.rateMrps = 40.0;
    spec.requests = kRequests;
    spec.sloAbsolute = 300 * kUs;
    spec.seed = 10;
    return spec;
}

DesignConfig
shardConfig(unsigned shards)
{
    DesignConfig cfg;
    cfg.design = Design::AcInt;
    cfg.cores = 64;
    cfg.groups = 8;
    cfg.rack.servers = 4;
    cfg.rack.policy = TorPolicy::RoundRobin;
    cfg.shards = shards;
    return cfg;
}

void
BM_MacroShard(benchmark::State &state)
{
    const DesignConfig cfg =
        shardConfig(static_cast<unsigned>(state.range(0)));
    const WorkloadSpec spec = shardSpec();
    std::uint64_t completed = 0;
    std::uint64_t windows = 0;
    std::uint64_t fingerprint = 0;
    RunResult::HostPhases phases;
    std::vector<sim::ShardStats> shards;
    for (auto _ : state) {
        const RunResult res = runExperiment(cfg, spec);
        completed += res.completed;
        windows = res.parallelWindows;
        if (fingerprint != 0 && fingerprint != res.fingerprint) {
            state.SkipWithError("fingerprint changed across iterations");
            return;
        }
        fingerprint = res.fingerprint;
        phases.buildNs += res.hostPhases.buildNs;
        phases.windowsNs += res.hostPhases.windowsNs;
        phases.serialNs += res.hostPhases.serialNs;
        phases.foldNs += res.hostPhases.foldNs;
        shards.resize(res.shardStats.size());
        for (std::size_t k = 0; k < shards.size(); ++k) {
            const sim::ShardStats &s = res.shardStats[k];
            shards[k].busyNs += s.busyNs;
            shards[k].waitNs += s.waitNs;
            shards[k].settleNs += s.settleNs;
            shards[k].idleWorkNs += s.idleWorkNs;
            shards[k].events += s.events;
            shards[k].crossSent += s.crossSent;
            shards[k].crossReceived += s.crossReceived;
        }
        benchmark::DoNotOptimize(res.completed);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(completed));
    auto perRun = [&state](const std::string &name, double total) {
        state.counters[name] =
            benchmark::Counter(total, benchmark::Counter::kAvgIterations);
    };
    constexpr double kNsPerMs = 1e6;
    perRun("build_ms", static_cast<double>(phases.buildNs) / kNsPerMs);
    perRun("windows_ms", static_cast<double>(phases.windowsNs) / kNsPerMs);
    perRun("serial_ms", static_cast<double>(phases.serialNs) / kNsPerMs);
    perRun("fold_ms", static_cast<double>(phases.foldNs) / kNsPerMs);
    if (!shards.empty()) {
        perRun("window_fold_ms",
               static_cast<double>(shards[0].idleWorkNs) / kNsPerMs);
    }
    for (std::size_t k = 0; k < shards.size(); ++k) {
        const sim::ShardStats &s = shards[k];
        auto perShard = [&perRun, k](const char *what, double total) {
            char name[32];
            std::snprintf(name, sizeof name, "s%zu_%s", k, what);
            perRun(name, total);
        };
        perShard("busy_ms", static_cast<double>(s.busyNs) / kNsPerMs);
        perShard("wait_ms", static_cast<double>(s.waitNs) / kNsPerMs);
        perShard("settle_ms", static_cast<double>(s.settleNs) / kNsPerMs);
        perShard("events", static_cast<double>(s.events));
        perShard("cross_sent", static_cast<double>(s.crossSent));
        perShard("cross_recv", static_cast<double>(s.crossReceived));
    }
    // Every /N row must report the same value here: the run's
    // fingerprint does not depend on the shard count. A divergence
    // shows up as a changed user counter across rows.
    state.counters["fingerprint"] =
        static_cast<double>(fingerprint & 0xffffffffu);
    state.counters["parallel_windows"] = static_cast<double>(windows);
}
BENCHMARK(BM_MacroShard)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonFlagArgs args(argc, argv);
    benchmark::Initialize(&args.argc(), args.argv());
    if (benchmark::ReportUnrecognizedArguments(args.argc(), args.argv()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
