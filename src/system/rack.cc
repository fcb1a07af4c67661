/**
 * @file
 * Rack federation implementation: construction, the ToR dispatcher
 * and runExperiment, the one experiment driver (every run is a rack;
 * a rack of one server is the single-server world).
 */

#include "system/rack.hh"

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/fingerprint.hh"
#include "common/host_clock.hh"
#include "common/logging.hh"
#include "sim/fault_injector.hh"
#include "system/obs_fold.hh"

namespace altoc::system {

const char *
torPolicyName(TorPolicy policy)
{
    switch (policy) {
    case TorPolicy::Random:
        return "random";
    case TorPolicy::RoundRobin:
        return "rr";
    case TorPolicy::PowerOfK:
        return "p2c";
    case TorPolicy::LeastLoaded:
        return "ll";
    }
    return "?";
}

TorPolicy
torPolicyFromName(std::string_view name)
{
    if (name == "random")
        return TorPolicy::Random;
    if (name == "rr" || name == "round-robin")
        return TorPolicy::RoundRobin;
    if (name == "p2c" || name == "pk" || name == "power-of-k")
        return TorPolicy::PowerOfK;
    if (name == "ll" || name == "least-loaded")
        return TorPolicy::LeastLoaded;
    panic("unknown ToR policy '%.*s' (expected random, rr, p2c, ll)",
          static_cast<int>(name.size()), name.data());
}

namespace {

/** Salt folding the workload seed into the ToR's private decision
 *  stream (never drawn when servers == 1). */
constexpr std::uint64_t kTorSeedSalt = 0x70f25eed;

/** Per-server seed/identity fold; identity for server 0 so a rack of
 *  one reproduces the bare server's world bit-for-bit. */
constexpr std::uint64_t
serverSalt(unsigned server)
{
    return server * 0x9e3779b97f4a7c15ull;
}

/** The (mean service, slo, total, warmup) the driver derives from a
 *  WorkloadSpec; shared by the ctor and runExperiment so the two can
 *  never disagree. */
struct DerivedSpec
{
    double meanService = 0.0;
    std::string distName;
    Tick slo = 0;
    std::uint64_t total = 0;
    std::uint64_t warmup = 0;
};

DerivedSpec
derive(const WorkloadSpec &spec)
{
    DerivedSpec d;
    d.meanService =
        spec.trace ? spec.trace->meanService() : spec.service->mean();
    d.distName = spec.trace ? "Fixed" : spec.service->name();
    d.slo = spec.sloAbsolute
                ? *spec.sloAbsolute
                : static_cast<Tick>(spec.sloFactor * d.meanService);
    d.total = spec.trace ? spec.trace->size() : spec.requests;
    d.warmup = static_cast<std::uint64_t>(
        spec.warmupFraction * static_cast<double>(d.total));
    return d;
}

} // namespace

// ---------------------------------------------------------------------
// Rack
// ---------------------------------------------------------------------

Rack::Rack(const DesignConfig &cfg, const WorkloadSpec &spec)
    : cfg_(cfg), rack_(cfg.rack), traceCfg_(spec.tracing),
      torRng_(spec.seed ^ kTorSeedSalt),
      faultsHaveKills_(spec.faults.hasKills())
{
    altoc_assert(rack_.servers >= 1, "a rack needs at least one server");
    altoc_assert(rack_.policy != TorPolicy::PowerOfK || rack_.sampleK >= 1,
                 "power-of-k needs k >= 1");
    const int maxScoped = spec.faults.maxScopedServer();
    if (maxScoped >= static_cast<int>(rack_.servers)) {
        fatal("fault spec scopes server %d but the rack has %u "
              "server(s)",
              maxScoped, rack_.servers);
    }

    const DerivedSpec d = derive(spec);
    const std::uint64_t perWarmup =
        rack_.servers == 1 ? d.warmup : d.warmup / rack_.servers;

    // Region topology: server s lives in kernel region s; a
    // federation adds one more region for the ToR (arrivals, pick
    // decisions, link departures). Region indices are the canonical
    // tie-break order, so server events at a tick dispatch before
    // the ToR's. With one server the ToR shares region 0 and the
    // kernel degenerates to the single-Simulator world.
    servers_.reserve(rack_.servers);
    for (unsigned s = 0; s < rack_.servers; ++s) {
        sim::Simulator &region = kernel_.addRegion();
        Server::Config scfg;
        scfg.cores = cfg_.cores;
        scfg.nic = nicConfigFor(cfg_);
        scfg.sloTarget = d.slo;
        scfg.warmup = perWarmup;
        scfg.seed = spec.seed ^ serverSalt(s);
        scfg.serverId = s;
        scfg.faults = spec.faults.forServer(s);
        scfg.logLatencyHistogram = spec.logLatencyHistogram;
        scfg.trace = spec.tracing;
        servers_.push_back(std::make_unique<Server>(
            scfg,
            makeScheduler(cfg_, static_cast<Tick>(d.meanService),
                          d.distName),
            &region));
    }
    if (rack_.servers == 1) {
        torSim_ = &kernel_.region(0);
        torRegion_ = 0;
    } else {
        torSim_ = &kernel_.addRegion();
        torRegion_ = rack_.servers;
    }

    dead_.assign(rack_.servers, false);
    liveServers_ = rack_.servers;

    if (rack_.servers > 1) {
        links_.reserve(rack_.servers);
        for (unsigned s = 0; s < rack_.servers; ++s)
            links_.emplace_back(rack_.linkLatency, rack_.linkGbps);
        for (unsigned s = 0; s < rack_.servers; ++s) {
            servers_[s]->setDeathNotifier(
                [this, s](unsigned) { noteCoreDeath(s); });
        }
        if (traceCfg_.enabled) {
            torTracer_ =
                std::make_unique<trace::Tracer>(1, traceCfg_.ringSlots);
        }
    }

#if ALTOC_AUDIT_ENABLED
    // Each server's auditor attaches to its *own* region, so audit
    // state is shard-confined by construction; the kernel folds
    // per-region violation counts together at window boundaries
    // (Kernel::reconcileAudit) and settle() panics per server. For
    // one server this is exactly a bare server's wiring.
    for (auto &srv : servers_) {
        if (core::InvariantAuditor *a = srv->auditor())
            srv->sim().setAuditor(a);
    }
#endif
}

Rack::~Rack() = default;

ALTOC_HOT int
Rack::pickServer()
{
    const unsigned n = numServers();
    if (n == 1)
        return 0;
    if (liveServers_ == 0)
        return -1;
    switch (rack_.policy) {
    case TorPolicy::Random:
        return nextLive(static_cast<unsigned>(torRng_.below(n)));
    case TorPolicy::RoundRobin: {
        const int c = nextLive(rrNext_);
        rrNext_ = (static_cast<unsigned>(c) + 1) % n;
        return c;
    }
    case TorPolicy::PowerOfK: {
        // Sample k servers with replacement (dead draws probe to the
        // next live machine), keep the least loaded; the first drawn
        // wins ties, so the decision is a pure function of (rng
        // stream, load vector). The load read crosses regions, which
        // is why resolveShards() pins this policy to the serial
        // kernel.
        int best = -1;
        std::size_t bestLoad = 0;
        for (unsigned k = 0; k < rack_.sampleK; ++k) {
            const int c =
                nextLive(static_cast<unsigned>(torRng_.below(n)));
            const std::size_t load =
                servers_[static_cast<unsigned>(c)]
                    ->scheduler()
                    .totalQueued();
            if (best < 0 || load < bestLoad) {
                best = c;
                bestLoad = load;
            }
        }
        return best;
    }
    case TorPolicy::LeastLoaded: {
        // Full information, lowest index wins ties.
        int best = -1;
        std::size_t bestLoad = 0;
        for (unsigned s = 0; s < n; ++s) {
            if (dead_[s])
                continue;
            const std::size_t load =
                servers_[s]->scheduler().totalQueued();
            if (best < 0 || load < bestLoad) {
                best = static_cast<int>(s);
                bestLoad = load;
            }
        }
        return best;
    }
    }
    return -1;
}

int
Rack::nextLive(unsigned start) const
{
    const unsigned n = numServers();
    for (unsigned i = 0; i < n; ++i) {
        const unsigned c = (start + i) % n;
        if (!dead_[c])
            return static_cast<int>(c);
    }
    return -1;
}

void
Rack::deliver(unsigned s, const net::WireRpc &w)
{
    if (numServers() == 1) {
        // A rack of one is the bare server: straight into the
        // server, no ToR event, no link pacing, no trace record.
        servers_[0]->injectWire(w);
        return;
    }
    ++torDispatched_;
    ALTOC_TRACE_HOOK(
        torTracer_.get(),
        record(torSim_->now(), 0, trace::TraceKind::TorDispatch,
               trace::tracePack(
                   static_cast<std::uint32_t>(w.id) & 0xffffu, s),
               static_cast<std::uint8_t>(rack_.policy)));
    Server *srv = servers_[s].get();
    const Tick arrive = links_[s].send(torSim_->now(), w.sizeBytes);
    // The wire form crosses the region boundary; the descriptor
    // materializes in the receiving server's own region at delivery
    // time, >= the link's minDelivery() (the shard lookahead) from
    // now. The cross-seq makes its dispatch position identical in
    // serial and sharded execution.
    kernel_.crossSchedule(torRegion_, s, arrive,
                          [srv, w] { srv->injectWire(w); });
}

void
Rack::shedAtTor([[maybe_unused]] std::uint64_t rpc_id)
{
    ++torShed_;
    ALTOC_TRACE_HOOK(torTracer_.get(),
                     record(torSim_->now(), 0,
                            trace::TraceKind::AdmissionShed,
                            static_cast<std::uint32_t>(rpc_id)));
}

void
Rack::noteCoreDeath(unsigned s)
{
    if (dead_[s] || servers_[s]->scheduler().liveWorkerCores() > 0)
        return;
    dead_[s] = true;
    --liveServers_;
    // Stamp the record with the dying server's own region clock --
    // the causal time of the death -- not the ToR's possibly-lagging
    // one. (Kills pin the run to the serial kernel, so this write is
    // never raced; see resolveShards.)
    ALTOC_TRACE_HOOK(torTracer_.get(),
                     record(servers_[s]->sim().now(), 0,
                            trace::TraceKind::ServerDead, s));
}

void
Rack::stopAfterCompletions(std::uint64_t n)
{
    // Evaluated only outside parallel windows: the parallel gate
    // proves the bound cannot be crossed inside one (DESIGN.md sec.
    // 14), and outside them one thread runs every region, so the
    // per-server counts are current and read race-free.
    for (auto &srv : servers_) {
        srv->stopAfterSharedCompletions([this, n] {
            return !kernel_.parallelPhase() && completedTotal() >= n;
        });
    }
}

Tick
Rack::run(Tick until)
{
    const Tick end = kernel_.run(until);
    settle();
    return end;
}

unsigned
Rack::resolveShards(unsigned requested) const
{
    if (requested <= 1)
        return 1;
    if (numServers() == 1) {
        inform("sharding disabled: one server is one region (the "
               "3 ns NoC lookahead cannot amortize a window barrier)");
        return 1;
    }
    if (rack_.policy == TorPolicy::PowerOfK ||
        rack_.policy == TorPolicy::LeastLoaded) {
        inform("sharding disabled: ToR policy '%s' reads server queue "
               "depths at dispatch time (couples regions below the "
               "rack-link lookahead)",
               torPolicyName(rack_.policy));
        return 1;
    }
    if (faultsHaveKills_) {
        inform("sharding disabled: fault spec schedules fail-stops "
               "(server death updates ToR steering synchronously)");
        return 1;
    }
    unsigned shards = requested;
    if (shards > numServers()) {
        inform("clamping shards=%u to %u (one shard per server)",
               shards, numServers());
        shards = numServers();
    }
    // Deliberately no hardware-concurrency clamp here: results are
    // bit-identical at any shard count, and the kernel's barriers
    // yield under oversubscription, so an over-threaded run is only
    // slow, never wrong. Host-fitting (the --jobs x --shards
    // product) is the batch layer's job -- see runMany.
    return shards;
}

Tick
Rack::runSharded(unsigned shards, Tick until,
                 sim::Kernel::ParallelGate gate,
                 sim::Kernel::IdleWork idle)
{
    if (shards <= 1 || numServers() == 1)
        return run(until);
    // The ToR runs alone on shard 0, which the calling thread
    // executes; the servers spread over the worker shards 1..shards.
    sim::Kernel::ShardPlan plan;
    plan.shards = shards + 1;
    plan.lookahead = links_[0].minDelivery();
    for (const net::RackLink &link : links_)
        plan.lookahead = std::min(plan.lookahead, link.minDelivery());
    plan.shardOf.resize(kernel_.numRegions());
    for (unsigned s = 0; s < numServers(); ++s)
        plan.shardOf[s] = 1 + s * shards / numServers();
    plan.shardOf[torRegion_] = 0;
    const Tick end =
        kernel_.runSharded(plan, until, std::move(gate), std::move(idle));
    settle();
    return end;
}

void
Rack::settle()
{
    for (auto &srv : servers_)
        srv->finishRun();
}

void
Rack::reserveFor(std::uint64_t total_requests)
{
    const unsigned n = numServers();
    // Per-server share plus imbalance headroom; the sample stores
    // still grow on demand if a skewed policy concentrates more.
    const std::uint64_t per =
        n == 1 ? total_requests
               : total_requests / n + total_requests / (4 * n) + 1024;
    for (auto &srv : servers_)
        srv->reserveFor(per);
}

std::uint64_t
Rack::completedTotal() const
{
    std::uint64_t sum = 0;
    for (const auto &srv : servers_)
        sum += srv->completed();
    return sum;
}

std::uint64_t
Rack::requestsShedTotal() const
{
    std::uint64_t sum = 0;
    for (const auto &srv : servers_)
        sum += srv->requestsShed();
    return sum;
}

double
Rack::workerUtilization() const
{
    // Homogeneous rack: every server has the same worker count and
    // the same elapsed time, so the rack ratio is the plain mean.
    double sum = 0.0;
    for (const auto &srv : servers_)
        sum += srv->workerUtilization();
    return sum / static_cast<double>(numServers());
}

void
Rack::checkConservation(std::uint64_t issued) const
{
    const std::uint64_t accounted =
        completedTotal() + requestsShedTotal() + torShed_;
    if (accounted != issued) {
        panic("rack conservation violated: issued %llu != completed "
              "%llu + shed %llu + torShed %llu",
              static_cast<unsigned long long>(issued),
              static_cast<unsigned long long>(completedTotal()),
              static_cast<unsigned long long>(requestsShedTotal()),
              static_cast<unsigned long long>(torShed_));
    }
}

bool
Rack::writeTrace(const std::string &path) const
{
    if (!traceCfg_.enabled)
        return false;
    const std::string &target = path.empty() ? traceCfg_.file : path;
    if (target.empty())
        return false;
    if (numServers() == 1)
        return servers_[0]->writeTrace(target);
    std::vector<const trace::Tracer *> tracers;
    tracers.reserve(servers_.size());
    for (const auto &srv : servers_)
        tracers.push_back(srv->tracer());
    return trace::writeRackTraceFile(target, tracers, cfg_.cores,
                                     torTracer_.get());
}

void
Rack::dumpStats(std::FILE *out) const
{
    if (out == nullptr)
        out = stdout;
    auto line = [out](const char *name, double value) {
        std::fprintf(out, "%-40s %20.6g\n", name, value);
    };
    std::fprintf(out, "---------- Begin Simulation Statistics ----------\n");
    line("rack.servers", static_cast<double>(numServers()));
    line("rack.liveServers", static_cast<double>(liveServers_));
    line("rack.finalTick", static_cast<double>(kernel_.now()));
    line("rack.eventsExecuted",
         static_cast<double>(kernel_.eventsExecuted()));
    line("rack.torDispatched", static_cast<double>(torDispatched_));
    line("rack.torShed", static_cast<double>(torShed_));
    line("rack.completed", static_cast<double>(completedTotal()));
    line("rack.requestsShed",
         static_cast<double>(requestsShedTotal()));
    line("rack.workerUtilization", workerUtilization());
    if (torTracer_) {
        line("rack.torTraceRecorded",
             static_cast<double>(torTracer_->totalWritten()));
    }
    for (unsigned s = 0; s < numServers(); ++s) {
        char prefix[32];
        std::snprintf(prefix, sizeof prefix, "server%u.", s);
        servers_[s]->dumpStatsBody(out, prefix);
    }
    std::fprintf(out, "---------- End Simulation Statistics ----------\n");
}

namespace {

/** Records folded per idle-work call: a few hundred ns of host time,
 *  so the calling thread notices the workers' window end promptly. */
constexpr std::size_t kFoldChunk = 16;

/**
 * The run's digest (RunResult::fingerprint): every completion mixes
 * (tick, request kind, core id, request id), every injected fault
 * (tick, 0xFA000000 + fault kind, a, b) -- the scheme of
 * bench::RunFingerprint (common/fingerprint.hh). Mixing faults makes
 * two chaos runs comparable bit for bit and leaves a pristine run's
 * digest untouched. A federation also mixes the server index (core
 * ids are per-server); one server does not, so a rack of one keeps
 * the single-server digest.
 */
class RunDigest
{
  public:
    explicit RunDigest(bool mix_server) : mixServer_(mix_server) {}

    void
    completion(Tick now, std::uint64_t kind, std::uint64_t core,
               std::uint64_t id, unsigned server)
    {
        fp_.mix(now);
        fp_.mix(kind);
        fp_.mix(core);
        fp_.mix(id);
        close(server);
    }

    void
    fault(Tick now, std::uint64_t kind, std::uint64_t a, std::uint64_t b,
          unsigned server)
    {
        fp_.mix(now);
        fp_.mix(0xFA000000ull + kind);
        fp_.mix(a);
        fp_.mix(b);
        close(server);
    }

    std::uint64_t digest() const { return fp_.digest(); }
    std::uint64_t events() const { return events_; }

  private:
    void
    close(unsigned server)
    {
        if (mixServer_)
            fp_.mix(server);
        ++events_;
    }

    Fnv1a fp_;
    std::uint64_t events_ = 0;
    bool mixServer_;
};

} // namespace

// ---------------------------------------------------------------------
// runExperiment
// ---------------------------------------------------------------------

RunResult
runExperiment(const DesignConfig &cfg, const WorkloadSpec &spec)
{
    const std::uint64_t buildStart = hostNowNs();
    const DerivedSpec d = derive(spec);

    Rack rack(cfg, spec);
    const unsigned n = rack.numServers();
    rack.reserveFor(d.total);
    rack.stopAfterCompletions(d.total);

    RunResult result;
    result.rackServers = n;
    if (spec.capturePerRequest)
        result.perRequest.reserve(d.total);
    RunDigest digest(n > 1);

    // Rack-wide latency. One server's own tracker is the run's: its
    // warmup gate is the rack-wide one. A federation keeps one more
    // tracker, gated on rack-wide completions in fold order.
    std::unique_ptr<stats::SloTracker> rackTracker;
    std::uint64_t seen = 0;
    if (n > 1) {
        rackTracker = std::make_unique<stats::SloTracker>(
            d.slo, spec.logLatencyHistogram);
        rackTracker->reserve(static_cast<std::size_t>(d.total));
    }
    const stats::SloTracker &tracker =
        n > 1 ? *rackTracker : rack.server(0).tracker();

    // Observation wiring. One server feeds the digest and the
    // per-request capture straight from its hooks, in event order. A
    // federation instead appends to per-server logs (thread-confined
    // under sharding) that ObsFold merges, partly inside the parallel
    // windows and the rest after the run; both the serial and the
    // sharded kernel produce the same logs, so every derived
    // statistic agrees bit-for-bit.
    ObsFold obs(n, [&](const ObsRec &o, unsigned server) {
        if (o.type != 0) {
            digest.fault(o.now, o.kind, o.id, o.aux, server);
            return;
        }
        digest.completion(o.now, o.kind, o.core, o.id, server);
        if (++seen > d.warmup)
            rackTracker->record(o.latency);
        if (spec.capturePerRequest) {
            result.perRequest.push_back(
                RequestOutcome{o.id, o.latency, o.migrated, o.predicted});
        }
    });
    if (n == 1) {
        Server &srv = rack.server(0);
        srv.setCompletionProbe([&digest](const cpu::Core &core,
                                         const net::Rpc &r, Tick now) {
            digest.completion(now, static_cast<std::uint64_t>(r.kind),
                              core.id(), r.id, 0);
        });
        if (spec.capturePerRequest) {
            srv.setCompletionHook(
                [&result](const net::Rpc &r, Tick latency) {
                    result.perRequest.push_back(RequestOutcome{
                        r.id, latency, r.migrated,
                        r.predictedViolation});
                });
        }
        if (sim::FaultInjector *fi = srv.faultInjector()) {
            fi->setEventHook([&digest](sim::FaultInjector::Kind kind,
                                       Tick now, unsigned a, unsigned b) {
                digest.fault(now, static_cast<std::uint64_t>(kind), a, b,
                             0);
            });
        }
    } else {
        for (unsigned s = 0; s < n; ++s) {
            std::vector<ObsRec> *log = obs.log(s);
            // The probe fires first in onRpcDone and opens the
            // record; the hook fires later in the same call and
            // completes it -- nothing can append in between.
            rack.server(s).setCompletionProbe(
                [log](const cpu::Core &core, const net::Rpc &r,
                      Tick now) {
                    ObsRec o;
                    o.now = now;
                    o.id = r.id;
                    o.kind = static_cast<std::uint16_t>(r.kind);
                    o.core = static_cast<std::uint16_t>(core.id());
                    log->push_back(o);
                });
            rack.server(s).setCompletionHook(
                [log](const net::Rpc &r, Tick latency) {
                    ObsRec &o = log->back();
                    o.latency = latency;
                    o.migrated = r.migrated;
                    o.predicted = r.predictedViolation;
                });
            if (sim::FaultInjector *fi =
                    rack.server(s).faultInjector()) {
                fi->setEventHook(
                    [log](sim::FaultInjector::Kind kind, Tick now,
                          unsigned a, unsigned b) {
                        ObsRec o;
                        o.now = now;
                        o.type = 1;
                        o.kind = static_cast<std::uint16_t>(kind);
                        o.id = a;
                        o.aux = b;
                        log->push_back(o);
                    });
            }
        }
    }

    LoadGenerator gen(rack, spec);
    const unsigned shards = rack.resolveShards(cfg.shards);
    gen.start();
    const std::uint64_t runStart = hostNowNs();
    Tick end = 0;
    if (shards > 1) {
        // Stay parallel only while arrivals are still pending: a
        // request injected during a window cannot complete within it
        // (delivery alone costs a full window), so the completion
        // threshold can only be crossed in the serial tail and the
        // stop lands on exactly the event it would serially.
        //
        // Each boundary also hands the servers' logs over up to the
        // next window's start (every worker is parked there), and
        // the calling thread folds the batch while it waits for the
        // workers' dispatch.
        end = rack.runSharded(
            shards, spec.timeLimit,
            sim::Kernel::ParallelGate([&gen, &obs, total = d.total](
                                          Tick boundary) {
                obs.handOver(boundary);
                return gen.injected() < total;
            }),
            sim::Kernel::IdleWork([&obs] { return obs.fold(kFoldChunk); }));
    } else {
        end = rack.run(spec.timeLimit);
    }
    const std::uint64_t foldStart = hostNowNs();
    obs.finish(); // no-op for n == 1: the direct hooks already folded

    // Conservation only holds once everything in flight finished; a
    // run stopped early legitimately leaves live descriptors behind.
    if (rack.idle())
        rack.checkConservation(gen.injected());

    result.design = rack.server(0).scheduler().name();
    result.offeredMrps =
        spec.trace ? spec.trace->offeredRate() * 1e3 : spec.rateMrps;
    result.achievedMrps =
        end > 0 ? static_cast<double>(rack.completedTotal()) /
                      static_cast<double>(end) * 1e3
                : 0.0;
    result.latency = tracker.summary();
    result.sloTarget = d.slo;
    result.violationRatio = tracker.violationRatio();
    result.violations = tracker.violations();
    result.completed = rack.completedTotal();
    result.utilization = rack.workerUtilization();
    result.requestsShed = rack.requestsShedTotal();
    result.torDispatched = rack.torDispatched();
    result.torShed = rack.torShed();
    result.fingerprint = digest.digest();
    result.fingerprintEvents = digest.events();
    result.parallelWindows = rack.kernel().parallelWindows();
    result.shardStats = rack.kernel().shardStats();

    if (n > 1)
        result.perServer.reserve(n);
    for (unsigned s = 0; s < n; ++s) {
        const Server &srv = rack.server(s);
        const sched::Scheduler &scheduler = srv.scheduler();
        const auto *group =
            dynamic_cast<const core::GroupScheduler *>(&scheduler);
        result.predictions += srv.predictions();
        result.dropped += srv.dropped();
        result.coresKilled += scheduler.coresDead();
        result.requestsRescued += scheduler.requestsRescued();
        result.managersFailedOver += scheduler.managersFailedOver();
        if (group != nullptr) {
            result.migrated += group->requestsMigrated();
            result.migratesRetried += group->migratesRetried();
            result.migratesTimedOut += group->migratesTimedOut();
            result.peersQuarantined += group->peersQuarantined();
            result.peersDeadDeclared += group->peersDeadDeclared();
            result.messaging += group->messagingStats();
        }
        if (const sim::FaultInjector *fi = srv.faultInjector())
            result.faultsInjected += fi->counters().total();
        if (const trace::Tracer *tr = srv.tracer()) {
            result.traceRecords += tr->totalWritten();
            result.traceDropped += tr->totalDropped();
        }
        if (n > 1) {
            PerServerResult ps;
            ps.completed = srv.completed();
            ps.dropped = srv.dropped();
            ps.requestsShed = srv.requestsShed();
            ps.coresKilled = scheduler.coresDead();
            ps.requestsRescued = scheduler.requestsRescued();
            ps.managersFailedOver = scheduler.managersFailedOver();
            ps.latency = srv.tracker().summary();
            ps.utilization = srv.workerUtilization();
            ps.dead = rack.serverDead(s);
            ps.migrated = group != nullptr ? group->requestsMigrated() : 0;
            result.perServer.push_back(ps);
        }
    }
    if (const trace::Tracer *tor = rack.torTracer()) {
        result.traceRecords += tor->totalWritten();
        result.traceDropped += tor->totalDropped();
    }

    RunResult::HostPhases &ph = result.hostPhases;
    ph.buildNs = runStart - buildStart;
    ph.windowsNs = rack.kernel().windowsNs();
    ph.serialNs = foldStart - runStart - ph.windowsNs;
    ph.foldNs = hostNowNs() - foldStart;

    if (spec.dumpStats) {
        if (n == 1)
            rack.server(0).dumpStats();
        else
            rack.dumpStats();
    }
    if (rack.server(0).tracer() != nullptr &&
        !spec.tracing.file.empty()) {
        altoc_assert(rack.writeTrace(), "failed to write trace file");
    }
    return result;
}

} // namespace altoc::system
