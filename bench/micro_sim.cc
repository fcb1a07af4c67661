/**
 * @file
 * google-benchmark micro benches for the simulation substrate and
 * the MICA data structures: event-queue throughput, NoC message
 * timing, descriptor pooling, histogram recording and KVS ops.
 *
 * Every row is baselined in BENCH_sim.json (5 repetitions), which
 * the perf-smoke CI job compares warn-only through
 * scripts/bench_compare.py. Regenerate with
 *   ./build/bench/micro_sim --json=BENCH_sim.json \
 *       --benchmark_repetitions=5
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "mica/kvs.hh"
#include "net/rpc.hh"
#include "noc/mesh.hh"
#include "sim/simulator.hh"
#include "stats/histogram.hh"

using namespace altoc;

// The BM_Event* group is part of the checked-in baseline
// (BENCH_sim.json, compared by scripts/bench_compare.py). The
// steady-state schedule/dispatch path performs zero heap allocations
// by construction -- InlineFn callbacks live in the slot pool, whose
// storage is fixed once warm (enforced by
// tests/test_event_queue.cc:EventHotPath.*).

static void
BM_EventScheduleRun(benchmark::State &state)
{
    sim::Simulator sim;
    Tick t = 1;
    for (auto _ : state) {
        sim.at(t, [] {});
        sim.step();
        ++t;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventScheduleRun);

static void
BM_EventQueueDepth(benchmark::State &state)
{
    // Sustained operation with a deep queue (the high-load regime).
    const unsigned depth = static_cast<unsigned>(state.range(0));
    sim::Simulator sim;
    Tick t = 1;
    for (unsigned i = 0; i < depth; ++i)
        sim.at(t++, [] {});
    for (auto _ : state) {
        sim.at(t++, [] {});
        sim.step();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueDepth)->Arg(1024)->Arg(65536);

static void
BM_EventScheduleCancel(benchmark::State &state)
{
    // The timeout pattern of the hardened migration protocol: almost
    // every armed deadline is cancelled before it fires. Exercises
    // slot-pool recycling plus the >=50%-dead heap compaction.
    sim::Simulator sim;
    Tick t = 1;
    for (auto _ : state) {
        const sim::EventId id = sim.at(t + 1000, [] {});
        sim.cancel(id);
        ++t;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventScheduleCancel);

static void
BM_RpcPoolAllocRelease(benchmark::State &state)
{
    net::RpcPool pool;
    for (auto _ : state) {
        net::Rpc *r = pool.alloc();
        benchmark::DoNotOptimize(r);
        pool.release(r);
    }
}
BENCHMARK(BM_RpcPoolAllocRelease);

static void
BM_MeshSend(benchmark::State &state)
{
    noc::Mesh mesh(16, 16);
    Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mesh.send(noc::kVnSched, 0, 255, 64, t));
        t += 10;
    }
}
BENCHMARK(BM_MeshSend);

static void
BM_HistogramRecord(benchmark::State &state)
{
    stats::LogHistogram hist;
    Tick v = 1;
    for (auto _ : state) {
        hist.record(v);
        v = v * 1664525 + 1013904223;
        v &= 0xffffff;
        v |= 1;
    }
}
BENCHMARK(BM_HistogramRecord);

static void
BM_MicaGet(benchmark::State &state)
{
    mica::MicaStore::Config cfg;
    cfg.partitions = 1;
    cfg.keysPerPartition = 10000;
    mica::MicaStore store(cfg);
    Rng rng(1);
    store.populate(rng);
    std::uint64_t key = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(store.executeGet(key));
        key = (key + 7919) % 10000;
    }
}
BENCHMARK(BM_MicaGet);

static void
BM_MicaSet(benchmark::State &state)
{
    mica::MicaStore::Config cfg;
    cfg.partitions = 1;
    cfg.keysPerPartition = 10000;
    mica::MicaStore store(cfg);
    Rng rng(2);
    store.populate(rng);
    std::uint64_t key = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(store.executeSet(key, {}));
        key = (key + 104729) % 10000;
    }
}
BENCHMARK(BM_MicaSet);

static void
BM_HashTableFind(benchmark::State &state)
{
    mica::HashTable ht(1 << 16);
    for (std::uint64_t i = 0; i < 40000; ++i)
        ht.insert(mica::hashKey("key" + std::to_string(i)), i);
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ht.find(mica::hashKey("key" + std::to_string(i))));
        i = (i + 6151) % 40000;
    }
}
BENCHMARK(BM_HashTableFind);

// BENCHMARK_MAIN() with the --json shorthand of the perf-regression
// harness expanded first (see bench_util.hh:JsonFlagArgs).
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
