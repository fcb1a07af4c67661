/**
 * @file
 * Rack-scale federation: N servers behind a ToR dispatcher, one
 * multi-region event kernel. Every experiment runs as a rack
 * (runExperiment in system/experiment.hh); the default rack has one
 * server.
 *
 * A Rack instantiates RackConfig::servers identical Servers, each in
 * its own region of a sim::Kernel (plus one region for the ToR when
 * servers > 1), then layers a RackSched-style two-level scheduler on
 * top: the ToR picks a server per request (system/topology.hh
 * policies), pays the inter-server link cost (net/rack_link.hh), and
 * the chosen server's ALTOCUMULUS (or baseline) scheduler takes over
 * inside the machine. Placement is decided once, at admission -- the
 * ~1 us fabric hop makes rack-level rebalancing three orders of
 * magnitude more expensive than the 3 ns NoC migrations the
 * intra-server layer performs freely.
 *
 * That same ~1 us hop is the kernel's conservative-PDES lookahead:
 * the only events crossing a region boundary are ToR->server
 * deliveries paying at least the link's propagation + serialization
 * delay, so runSharded() can let every server region run up to one
 * lookahead past the ToR's published clock, with no barrier, and
 * still dispatch the exact canonical (tick, region, seq) order of the
 * serial kernel. Fingerprints, goldens and raw trace bytes are
 * bit-identical for every shard count (tests/test_sharded.cc pins
 * this); sharding is purely an execution strategy. Configurations
 * whose semantics genuinely couple regions below the lookahead --
 * load-inspecting ToR policies (p2c/ll read server queue depths at
 * pick time) and fail-stop fault schedules (server death fans state
 * back into the ToR's steering tables) -- are downgraded to the
 * serial kernel by resolveShards(), with a log
 * line, rather than silently changing results.
 *
 * Determinism contract: with servers == 1 the Rack adds nothing to
 * the world -- no ToR RNG draw, no link event, no extra trace ring,
 * one kernel region whose run() delegates to the standalone
 * Simulator::run -- so a rack of one is the single-server world of a
 * bare makeServer Server: the (tick, seq) event stream, and
 * therefore every golden, fingerprint and trace file, is the one
 * that world produces. tests/test_rack.cc pins this against a table
 * of every design's fingerprint and a trace-file digest.
 *
 * Fail-stop handling: a server whose last worker core dies is
 * declared dead (TraceKind::ServerDead) and the ToR stops steering to
 * it; requests arriving with every server dead are shed at the ToR.
 * Conservation across the rack: issued == sum(completed) +
 * sum(requestsShed) + torShed, checked at drain.
 */

#ifndef ALTOC_SYSTEM_RACK_HH
#define ALTOC_SYSTEM_RACK_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hh"
#include "net/rack_link.hh"
#include "sim/kernel.hh"
#include "system/experiment.hh"
#include "system/topology.hh"

namespace altoc::system {

/**
 * N federated servers, one shared kernel, one ToR dispatcher.
 */
class Rack
{
  public:
    /**
     * Build the rack described by @p cfg (server shape + cfg.rack
     * topology) for workload @p spec. Server 0 is constructed with
     * exactly the configuration makeServer would produce, so a rack of
     * one server is the single-server world. Panics when the fault
     * spec scopes past the topology.
     */
    Rack(const DesignConfig &cfg, const WorkloadSpec &spec);
    ~Rack();

    Rack(const Rack &) = delete;
    Rack &operator=(const Rack &) = delete;

    /** The multi-region event kernel all servers run against. */
    sim::Kernel &kernel() { return kernel_; }
    const sim::Kernel &kernel() const { return kernel_; }

    /** The ToR's own kernel region (arrival events, dispatch
     *  decisions, link departures live here). With one server it is
     *  that server's region -- the single-clock world. */
    sim::Simulator &sim() { return *torSim_; }

    /** True when every region's queue drained. */
    bool idle() const { return kernel_.idle(); }

    unsigned numServers() const
    {
        return static_cast<unsigned>(servers_.size());
    }

    Server &server(unsigned s) { return *servers_[s]; }
    const Server &server(unsigned s) const { return *servers_[s]; }

    const RackConfig &rackConfig() const { return rack_; }

    /**
     * ToR placement decision: the index of the server the next
     * request goes to, or -1 when every server is dead (shed at the
     * ToR). Consumes ToR RNG only for the Random and PowerOfK
     * policies, and only when servers > 1.
     */
    ALTOC_HOT int pickServer();

    /**
     * Dispatch the wire-form request @p w to server @p s. With one
     * server this materializes and injects directly -- no event, no
     * trace record. Otherwise the ToR records the dispatch, pays the
     * downlink's serialization + propagation delay, and the request
     * materializes *in the receiving server's region* (a sharded rack
     * never touches a descriptor pool from a foreign thread).
     */
    void deliver(unsigned s, const net::WireRpc &w);

    /** Account one request shed at the ToR (all servers dead). */
    void shedAtTor(std::uint64_t rpc_id);

    /** Stop the kernel once @p n requests completed rack-wide,
     *  summed from the per-server counts after each completion
     *  outside the parallel phase (Server::stopAfterSharedCompletions). */
    void stopAfterCompletions(std::uint64_t n);

    /** Serial canonical run, then settle every server's audit. */
    Tick run(Tick until = kTickInf);

    /**
     * The shard count this rack actually runs @p requested under.
     * Downgrades (each with an inform() line naming the reason):
     *  - servers == 1: one region, nothing to shard;
     *  - p2c / ll ToR policies: pickServer reads remote queue depths
     *    at decision time, an oracle the region clocks cannot
     *    reproduce;
     *  - fault specs with fail-stops: server death synchronously
     *    updates the ToR's steering state;
     * and clamps to at most one shard per server. The result counts
     * worker threads: the calling thread runs the ToR on top (see
     * runSharded). No hardware-concurrency clamp -- host fitting
     * is the batch layer's job (runMany).
     */
    unsigned resolveShards(unsigned requested) const;

    /**
     * Sharded run with @p shards worker threads plus the calling
     * thread: the ToR region is the kernel's hub, on the calling
     * thread; server s is homed on worker 1 + s*shards/servers, and
     * any thread -- the calling one too, while the ToR is a capped
     * lead ahead -- may borrow it when its own work is blocked on the
     * ToR clock. The lookahead is the rack link's
     * minimum delivery time. @p gate, @p idle and @p stretch as in
     * sim::Kernel::runSharded -- runExperiment's gate answers
     * "arrivals still pending", which provably confines the
     * completion-count stop to the serial tail (DESIGN.md sec. 14),
     * its stretch hook hands each server's observation log over at
     * the server's region clock, and its idle work folds what those
     * clocks made final. Exact same results as run(); callers should
     * pass a @p shards value vetted by resolveShards().
     */
    Tick runSharded(unsigned shards, Tick until = kTickInf,
                    sim::Kernel::ParallelGate gate = {},
                    sim::Kernel::IdleWork idle = {},
                    sim::Kernel::StretchHook stretch = {});

    /** Pre-size every server's latency sample store (descriptor
     *  pools grow with the in-flight count; see Server::reserveFor). */
    void reserveFor(std::uint64_t total_requests);

    // ----- ToR state and counters ------------------------------------

    std::uint64_t torDispatched() const { return torDispatched_; }
    std::uint64_t torShed() const { return torShed_; }

    bool serverDead(unsigned s) const { return dead_[s]; }
    unsigned liveServers() const { return liveServers_; }

    /** The ToR's own single-ring tracer (null unless tracing and
     *  servers > 1). */
    trace::Tracer *torTracer() const { return torTracer_.get(); }

    // ----- rack aggregates -------------------------------------------

    std::uint64_t completedTotal() const;
    std::uint64_t requestsShedTotal() const;
    double workerUtilization() const;

    /**
     * Rack-wide conservation: every issued request either completed
     * on some server, was shed at some server's admission, or was
     * shed at the ToR. Panics on a mismatch. Only meaningful once
     * the kernel drained (in-flight requests are neither).
     */
    void checkConservation(std::uint64_t issued) const;

    /**
     * Write the run's trace to @p path (or the configured trace
     * file). One server delegates to Server::writeTrace (byte-
     * identical legacy format); a federation writes the merged
     * format of trace::writeRackTraceFile.
     */
    bool writeTrace(const std::string &path = {}) const;

    /**
     * Rack stats dump: aggregate counters, then one per-server block
     * under "serverN." prefixes, inside a single banner pair.
     */
    void dumpStats(std::FILE *out = nullptr) const;

  private:
    /** Death notifier for server @p s's cores: declare the server
     *  dead once its last worker is gone. */
    void noteCoreDeath(unsigned s);

    /** First live server at or after @p start (wrapping), or -1. */
    int nextLive(unsigned start) const;

    /** Post-run settlement: per-server audit checks (each panics on
     *  its own violations -- the shard-safe successor of the old
     *  fan-out auditor). */
    void settle();

    DesignConfig cfg_;
    RackConfig rack_;
    trace::TraceConfig traceCfg_;
    sim::Kernel kernel_;
    /** The ToR's region (== region 0 when servers == 1, else the
     *  extra region past the servers). */
    sim::Simulator *torSim_ = nullptr;
    /** The ToR's region index (crossSchedule source). */
    unsigned torRegion_ = 0;
    /** ToR decision stream, independent of every server RNG so the
     *  N=1 world never observes it. */
    Rng torRng_;
    std::vector<std::unique_ptr<Server>> servers_;
    std::vector<net::RackLink> links_;
    std::vector<bool> dead_;
    std::unique_ptr<trace::Tracer> torTracer_;
    /** The workload schedules fail-stops (resolveShards downgrades
     *  sharding then -- death fans into ToR steering state). */
    bool faultsHaveKills_ = false;
    unsigned liveServers_ = 0;
    unsigned rrNext_ = 0;
    std::uint64_t torDispatched_ = 0;
    std::uint64_t torShed_ = 0;
};

} // namespace altoc::system

#endif // ALTOC_SYSTEM_RACK_HH
