/**
 * @file
 * Experiment driver: named design configurations (Table I /
 * Sec. VII-A) plus a one-call "run workload X on design Y" harness
 * used by the benches, examples and integration tests.
 */

#ifndef ALTOC_SYSTEM_EXPERIMENT_HH
#define ALTOC_SYSTEM_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/group.hh"
#include "core/params.hh"
#include "net/nic.hh"
#include "sched/scheduler.hh"
#include "sim/kernel.hh"
#include "stats/histogram.hh"
#include "system/server.hh"
#include "system/topology.hh"
#include "workload/arrivals.hh"
#include "workload/distributions.hh"
#include "workload/trace.hh"

namespace altoc::system {

/** The evaluated scheduler designs (Sec. VII-A). */
enum class Design : std::uint8_t
{
    Rss,      //!< commodity RSS NIC, d-FCFS
    Ix,       //!< IX dataplane, d-FCFS
    ZygOs,    //!< d-FCFS + work stealing
    Shinjuku, //!< centralized dispatcher + preemption
    RpcValet, //!< NI-driven c-FCFS (JBSQ(1), integrated NIC)
    Nebula,   //!< hardware JBSQ(2), integrated NIC
    NanoPu,   //!< JBSQ(2) + register delivery + preemption
    AcInt,    //!< ALTOCUMULUS on an integrated NIC
    AcRss,    //!< ALTOCUMULUS on a commodity PCIe RSS NIC
    DeadlineDrop, //!< reactive drop-on-deadline c-FCFS (intro's [14,21])
};

const char *designName(Design d);

/** System-side configuration of one run. */
struct DesignConfig
{
    Design design = Design::Rss;
    unsigned cores = 16;

    /** Groups for the AC designs (workers = cores/groups - 1). */
    unsigned groups = 2;

    /** ALTOCUMULUS runtime parameters. */
    core::AltocParams params;

    /** Local dispatch bound within an AC group. */
    unsigned localDepth = 1;

    /** NUCA payload-read modeling for AC groups (see
     *  GroupScheduler::Config::nucaPayload). */
    bool nucaPayload = true;

    /** Optional AC worker preemption quantum (extension; kTickInf =
     *  the paper's run-to-completion workers). */
    Tick workerQuantum = kTickInf;

    /** Queueing budget for Design::DeadlineDrop. */
    Tick dropBudget = 10 * kUs;

    /** NIC line rate. */
    double lineRateGbps = 400.0;

    /** Steering override (defaults chosen per design). */
    std::optional<net::Steering> steering;

    /** Custom label (defaults to the scheduler's own name). */
    std::string label;

    /**
     * Pretend the whole machine is one coherence domain even beyond
     * 64 cores. Integrated-NIC hardware schedulers (RPCValet,
     * Nebula, nanoPU) are otherwise sharded into 64-core domains
     * with NIC steering across shards and no rebalancing (case
     * study 1's "scale-out Nebula"); this flag enables the paper's
     * optimistic single-domain assumption instead.
     */
    bool singleCoherenceDomain = false;

    /**
     * Rack topology (system/topology.hh). Every run is a rack
     * (system/rack.hh): the default is a rack of one server, which is
     * the single-server world; rack.servers > 1 federates
     * `rack.servers` copies of the server shape above behind a ToR
     * dispatcher.
     */
    RackConfig rack;

    /**
     * Shard the event kernel across this many worker threads
     * (sim/kernel.hh). Only a federated rack has a region topology
     * coarse enough to shard (one region per server plus the ToR,
     * lookahead = the rack link's minimum delivery time); the value
     * is resolved against the topology and policy at run time
     * (Rack::resolveShards) and configurations that cannot shard
     * without changing semantics are downgraded to 1 with a log
     * line. Results are bit-identical for every value -- sharding is
     * purely an execution strategy.
     */
    unsigned shards = 1;
};

/** Workload-side configuration of one run. */
struct WorkloadSpec
{
    /** Service-time distribution; required unless trace is set. */
    std::shared_ptr<workload::ServiceDist> service;

    /** Bursty MMPP arrivals instead of Poisson. */
    bool realWorldArrivals = false;

    /** Offered load in million requests per second. */
    double rateMrps = 1.0;

    std::uint64_t requests = 100000;

    unsigned connections = 1024;

    std::uint32_t requestBytes = 300;

    /** SLO target: absolute wins over the L-factor when set. */
    std::optional<Tick> sloAbsolute;
    double sloFactor = 10.0;

    /** Completions ignored before stats record (fraction). */
    double warmupFraction = 0.1;

    /** Replay this trace instead of sampling (rate/requests/service
     *  are then taken from the trace). */
    const workload::Trace *trace = nullptr;

    /** Capture (id, latency, migrated) per completed request. */
    bool capturePerRequest = false;

    /**
     * Record latencies in the constant-memory LogHistogram instead of
     * the exact per-sample store. For very long runs whose sample
     * vector would dominate memory; percentile metrics then carry the
     * log store's ~0.8% relative error. Default off (exact).
     */
    bool logLatencyHistogram = false;

    /** Print the gem5-style stats dump to stdout after the run. */
    bool dumpStats = false;

    /**
     * Deterministic fault schedule injected into the run (chaos
     * experiments; sim/fault_spec.hh). Default = no faults.
     */
    sim::FaultSpec faults;

    /**
     * Wall-clock bound on the run in simulated ns. Fault-injection
     * runs must set this: an injected loss the protocol fails to
     * recover would otherwise leave stopAfterCompletions unreachable
     * and the run spinning on the runtime's periodic events forever.
     */
    Tick timeLimit = kTickInf;

    /**
     * Binary event tracing (trace/trace.hh). When enabled the run
     * records migration/quarantine/threshold transitions into
     * per-core rings and, if `tracing.file` is set, serializes them
     * after the run. Purely observational: fingerprints and latency
     * results are bit-identical with tracing on or off. (Named
     * `tracing` because `trace` is the replayed workload trace.)
     */
    trace::TraceConfig tracing;

    /**
     * The application behind the requests, when it shapes them
     * itself (MICA, system/mica_run.hh): the load generator lets it
     * fill every request after sampling the service distribution, and
     * it resolves each request's demand on the server's cores.
     * Single-server racks only; not owned.
     */
    net::RpcHandler *handler = nullptr;

    std::uint64_t seed = 1;
};

/** Per-request outcome captured when capturePerRequest is set. */
struct RequestOutcome
{
    std::uint64_t id = 0;
    Tick latency = 0;
    bool migrated = false;
    bool predicted = false;
};

/** One server's slice of a rack run (RunResult::perServer). */
struct PerServerResult
{
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t migrated = 0;
    std::uint64_t requestsShed = 0;
    std::uint64_t coresKilled = 0;
    std::uint64_t requestsRescued = 0;
    std::uint64_t managersFailedOver = 0;
    stats::Summary latency;
    double utilization = 0.0;
    bool dead = false; //!< lost every worker core during the run
};

/** Headline metrics of one run. */
struct RunResult
{
    std::string design;
    double offeredMrps = 0.0;
    double achievedMrps = 0.0;
    stats::Summary latency;
    Tick sloTarget = 0;
    double violationRatio = 0.0;
    std::uint64_t violations = 0;
    std::uint64_t completed = 0;
    double utilization = 0.0;
    PredictionStats predictions;

    /** Requests rejected by drop-based designs. */
    std::uint64_t dropped = 0;

    /** AC-only extras (zero elsewhere). */
    std::uint64_t migrated = 0;
    core::MessagingStats messaging;

    /** Hardened-protocol extras (nonzero only under fault injection). */
    std::uint64_t migratesRetried = 0;
    std::uint64_t migratesTimedOut = 0;
    std::uint64_t peersQuarantined = 0;
    std::uint64_t faultsInjected = 0;

    /** Fail-stop extras (nonzero only under kill specs): cores that
     *  fail-stopped, descriptors rescued off dead cores/groups,
     *  manager groups failed over, and arrivals shed at admission
     *  under degraded capacity. Conservation under any kill spec:
     *  completed + requestsShed == issued (rescued descriptors stay
     *  live and complete on their adoptive core). */
    std::uint64_t coresKilled = 0;
    std::uint64_t requestsRescued = 0;
    std::uint64_t managersFailedOver = 0;
    std::uint64_t requestsShed = 0;

    /** AC-only: peers escalated from quarantine to declared-dead
     *  after repeated half-open probe failures. */
    std::uint64_t peersDeadDeclared = 0;

    /** Tracing extras (nonzero only when WorkloadSpec::tracing is
     *  enabled): records pushed to / evicted from the trace rings. */
    std::uint64_t traceRecords = 0;
    std::uint64_t traceDropped = 0;

    /** Rack extras: servers in the topology, ToR dispatch decisions
     *  and ToR-level sheds (requests arriving with every server
     *  dead). The headline counters above are rack-wide sums;
     *  perServer carries each server's slice (empty when servers ==
     *  1). */
    unsigned rackServers = 1;
    std::uint64_t torDispatched = 0;
    std::uint64_t torShed = 0;
    std::vector<PerServerResult> perServer;

    /**
     * Order-sensitive digest of the completion stream: every
     * completion (warmup included) mixes (tick, event type, core id,
     * request id) into an FNV-1a hash (common/fingerprint.hh). Two
     * runs of the same (config, spec) must agree bit-for-bit; the
     * parallel engine and the golden regression suite both key off
     * this field.
     */
    std::uint64_t fingerprint = 0;

    /** Completions mixed into the fingerprint. */
    std::uint64_t fingerprintEvents = 0;

    /** Lookahead steps of simulated time the ToR clock covered in the
     *  sharded kernel's parallel phase (sim::Kernel::parallelWindows;
     *  0 on the serial path). A function of the ToR's event stream,
     *  so it repeats exactly across runs and shard counts; tests and
     *  benches assert it to prove the parallel path actually ran
     *  rather than silently collapsing to serial. */
    std::uint64_t parallelWindows = 0;

    /**
     * Host wall time of a run's phases, in ns: building the world
     * (rack, generator, hooks), the sharded kernel's parallel
     * phase, the serial loop (the whole run when unsharded, the tail
     * after the parallel phase otherwise), and the post-run fold (the
     * observation merge the run left over -- the serial loop folds as
     * it goes, see ShardStats::idleWorkNs for the part done inside
     * the parallel phase -- and the latency summaries). Execution
     * statistics like parallelWindows: they vary from run to run,
     * never feed the fingerprint and stay out of dumpStats.
     */
    struct HostPhases
    {
        std::uint64_t buildNs = 0;
        std::uint64_t windowsNs = 0;
        std::uint64_t serialNs = 0;
        std::uint64_t foldNs = 0;
    };
    HostPhases hostPhases;

    /** Per-thread accounting of the parallel phase, the calling
     *  thread (the ToR's) first; empty on serial runs. */
    std::vector<sim::ShardStats> shardStats;

    std::vector<RequestOutcome> perRequest;

    /** True when p99 <= SLO target. */
    bool
    meetsSlo() const
    {
        return latency.p99 <= sloTarget;
    }
};

/**
 * Build the scheduler for a design. @p mean_service and @p dist_name
 * feed the ALTOCUMULUS model for the AC designs.
 */
std::unique_ptr<sched::Scheduler>
makeScheduler(const DesignConfig &cfg, Tick mean_service,
              const std::string &dist_name);

/** NIC configuration a design implies (attach + default steering). */
net::Nic::Config nicConfigFor(const DesignConfig &cfg);

/**
 * Build a ready-to-run server for a design (callers that need custom
 * injection, e.g. the MICA benches, use this directly).
 */
std::unique_ptr<Server>
makeServer(const DesignConfig &cfg, Tick mean_service,
           const std::string &dist_name, Tick slo_target,
           std::uint64_t warmup, std::uint64_t seed,
           const sim::FaultSpec &faults = {},
           bool log_latency_histogram = false,
           const trace::TraceConfig &tracing = {});

class Rack;

/**
 * Open-loop load generator: fills a wire-form request per sampled or
 * trace-replayed arrival and hands it to its target. A bare Server
 * takes it straight in (Server::injectWire). A Rack first asks the
 * ToR for a placement -- before any sample is drawn, so an arrival
 * shed with every server dead (Rack::shedAtTor) leaves the RNG
 * stream untouched -- and then delivers it (Rack::deliver). Both
 * draw the same stream from server 0's RNG fork, so a rack of one
 * server sees exactly the bare server's arrivals.
 */
class LoadGenerator
{
  public:
    LoadGenerator(Server &server, const WorkloadSpec &spec);
    LoadGenerator(Rack &rack, const WorkloadSpec &spec);

    /** Schedule all arrivals (trace) or the first arrival (sampled). */
    void start();

    /** Arrivals issued so far (shed at the ToR included). */
    std::uint64_t injected() const { return injected_; }

  private:
    LoadGenerator(sim::Simulator &sim, Server &server0, Rack *rack,
                  const WorkloadSpec &spec);

    void injectNext();

    /** Placement of the next arrival: -1 when the ToR sheds it. */
    int place();

    /** Issue @p w to server @p s (filled by the spec's handler first,
     *  if any), or shed it at the ToR when @p s < 0. */
    void send(int s, net::WireRpc &w);

    sim::Simulator &sim_;
    Server &server0_;
    Rack *rack_;
    const WorkloadSpec &spec_;
    Rng rng_;
    std::unique_ptr<workload::ArrivalProcess> arrivals_;
    std::uint64_t injected_ = 0;
    Tick nextArrival_ = 0;
};

/**
 * Run one complete experiment and collect metrics: build the rack
 * cfg.rack describes (one server by default), drive the workload
 * through it, fold per-server and rack-wide metrics. cfg.shards > 1
 * requests sharded execution, resolved against the topology
 * (Rack::resolveShards); the RunResult is identical either way.
 * Defined in system/rack.cc.
 */
RunResult runExperiment(const DesignConfig &cfg, const WorkloadSpec &spec);

} // namespace altoc::system

#endif // ALTOC_SYSTEM_EXPERIMENT_HH
