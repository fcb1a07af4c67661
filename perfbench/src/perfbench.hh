/**
 * @file
 * The repository benchmark's library: named workloads, the per-run
 * correctness checks, count extraction from the program's own run
 * results, a shape-sampling drive, and isolated probes that time each
 * layer's entry points on inputs shaped like the workload.
 *
 * Everything here drives the simulator from outside, through its
 * public API (runExperiment, makeServer, LoadGenerator, Rack, the
 * layer classes); nothing under src/ is modified or instrumented.
 * perfbench/README.md documents every workload and metric.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "system/experiment.hh"

namespace perfbench {

using altoc::Tick;
using altoc::system::DesignConfig;
using altoc::system::RunResult;
using altoc::system::WorkloadSpec;

/** Requests per run: every run simulates exactly this many. */
constexpr std::uint64_t kRequests = 200000;

/** The default workload seed (the one the benchmark was tuned on). */
constexpr std::uint64_t kDefaultSeed = 10;

/** One named workload: the system shape and the traffic it serves. */
struct Workload
{
    std::string name;
    DesignConfig cfg;
    WorkloadSpec spec;
    /** Shard count the rack must resolve to; anything else is a
     *  silent downgrade and fails the run. */
    unsigned expectedShards = 1;
};

/** Names of every workload, in documentation order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name for @p seed, simulating @p requests
 *  requests per run. Returns false for an unknown name. */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  std::uint64_t requests, Workload &out);

/** Shard count the workload's rack resolves its requested count to
 *  (Rack::resolveShards on a freshly built rack). */
unsigned resolvedShards(const Workload &w);

/** One complete run through runExperiment, with its host wall time. */
struct TimedRun
{
    RunResult result;
    double wallS = 0.0;
};

TimedRun timedRun(const DesignConfig &cfg, const WorkloadSpec &spec);

/**
 * Correctness checks of one run of @p w against the invocation's
 * reference run @p ref (its first run). Returns one line per failed
 * check; empty means the run passed. Checks: the fingerprint equals
 * the reference's; every completion was fingerprinted; completed ==
 * requested; completed + shed + dropped + torShed == issued; a
 * workload that must run sharded executed parallel windows.
 */
std::vector<std::string> checkRun(const Workload &w, const RunResult &ref,
                                  const RunResult &r);

/** The per-layer counts two runs of one seed and shard count must
 *  agree on exactly: messaging, migrations, trace records, windows. */
std::vector<std::string> checkCounts(const RunResult &ref,
                                     const RunResult &r);

/** The rack must resolve to the workload's shard count: a silent
 *  downgrade to serial is a failed check. */
std::vector<std::string> checkShards(const Workload &w, unsigned resolved);

/** Attempted/failed run accounting of one invocation. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    /** Count one run; @p problems as returned by checkRun. */
    void record(const std::string &label,
                const std::vector<std::string> &problems);
};

/** Host time to build the system a run starts from, and to destroy
 *  it again. */
struct BuildTiming
{
    double buildS = 0.0;
    double teardownS = 0.0;
};

/**
 * Build what runExperiment builds before its run starts -- makeServer,
 * reserveFor, stopAfterCompletions and LoadGenerator::start on one
 * server; Rack construction, reserveFor and stopAfterCompletions on a
 * rack -- then destroy it, timing both phases.
 */
BuildTiming buildAndTeardown(const Workload &w);

/**
 * One traced runExperiment run with WorkloadSpec::dumpStats on: its
 * RunResult, and the numeric lines of the stats block it printed
 * (captured off stdout), keyed by name ("server1.noc.messages").
 */
struct CountedRun
{
    TimedRun run;
    std::map<std::string, double> stats;
};

CountedRun countedRun(const Workload &w);

/**
 * What a shape drive observed: one server of the workload's shape,
 * built and driven as runExperiment builds and drives it (makeServer
 * and LoadGenerator) at the per-server share of the workload's rate
 * and requests, with completion hooks sampling the inputs the probes
 * replay. On a single-server workload this is the workload's own run.
 */
struct Shape
{
    std::uint64_t completed = 0;
    std::uint64_t events = 0;
    std::uint64_t meshMessages = 0;
    std::uint64_t runtimeTicks = 0;
    Tick finalTick = 0;
    double utilization = 0.0;
    double meanLatencyNs = 0.0;

    /** Queues the scheduler reports (AC groups, or per-core d-FCFS
     *  queues), the workers behind each and the tiles owning them. */
    unsigned queues = 0;
    unsigned workersPerQueue = 0;
    unsigned meshCols = 0;
    unsigned meshRows = 0;
    std::vector<unsigned> queueTiles;
    std::string arrivalProcess;
    /** Mean pending events, sampled at completions. */
    double meanPendingEvents = 0.0;
    /** Scheduler queue-length vectors, sampled at completions. */
    std::vector<std::vector<std::size_t>> queueSamples;
    /** Completion latencies, sampled. */
    std::vector<Tick> latencySamples;
};

Shape sampleShape(const Workload &w);

/** Per-call host ns of each isolated layer probe. */
struct ProbeResult
{
    double eventOpNs = 0.0;   //!< Simulator::at + step at workload depth
    double classifyNs = 0.0;  //!< core::classifyPatternInto
    double decideNs = 0.0;    //!< core::decideMigrationsInto
    double thresholdNs = 0.0; //!< core::ThresholdModel::threshold
    double erlangNs = 0.0;    //!< core::erlangC
    double meshSendNs = 0.0;  //!< noc::Mesh::send
    double poolOpNs = 0.0;    //!< net::RpcPool alloc + release
    double recordNs = 0.0;    //!< stats::SloTracker::record
    double arrivalNs = 0.0;   //!< ArrivalProcess::nextGap
    double serviceNs = 0.0;   //!< ServiceDist::sample
    double torPickNs = 0.0;   //!< system::Rack::pickServer

    /** Inputs the probes used (exposed for the shape tests). */
    std::size_t eventDepth = 0;
    std::size_t poolDepth = 0;
    unsigned meshCols = 0;
    unsigned meshRows = 0;
    std::size_t qWidth = 0;
    unsigned erlangServers = 0;
    std::string arrivalProcess;
};

/** Time each layer entry point in isolation on @p s's shape. */
ProbeResult runProbes(const Workload &w, const Shape &s);

/** A named metric value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Count-derived per-layer metrics (exact for a fixed seed): events,
 * NoC and trace counts from @p c's stats block and RunResult, the
 * runtime tick rate from @p s, and the shard count @p shards the
 * rack resolved to.
 */
std::vector<Metric> countMetrics(const CountedRun &c, const Shape &s,
                                 unsigned shards);

/** Median of @p v (which is reordered); 0 for an empty vector. */
double median(std::vector<double> v);

/** Peak resident set of this process in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
