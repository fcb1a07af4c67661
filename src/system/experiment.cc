/**
 * @file
 * Experiment driver implementation.
 */

#include "system/experiment.hh"

#include <algorithm>

#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "sim/fault_injector.hh"
#include "sched/centralized.hh"
#include "sched/dfcfs.hh"
#include "sched/deadline_drop.hh"
#include "sched/jbsq.hh"
#include "sched/work_stealing.hh"
#include "cpu/topology.hh"
#include "system/rack.hh"

namespace altoc::system {

const char *
designName(Design d)
{
    switch (d) {
      case Design::Rss:
        return "RSS";
      case Design::Ix:
        return "IX";
      case Design::ZygOs:
        return "ZygOS";
      case Design::Shinjuku:
        return "Shinjuku";
      case Design::RpcValet:
        return "RPCValet";
      case Design::Nebula:
        return "Nebula";
      case Design::NanoPu:
        return "nanoPU";
      case Design::AcInt:
        return "AC_int";
      case Design::AcRss:
        return "AC_rss";
      case Design::DeadlineDrop:
        return "DeadlineDrop";
    }
    return "?";
}

std::unique_ptr<sched::Scheduler>
makeScheduler(const DesignConfig &cfg, Tick mean_service,
              const std::string &dist_name)
{
    switch (cfg.design) {
      case Design::Rss:
        {
            sched::DFcfsScheduler::Config c;
            c.label = cfg.label.empty() ? "RSS" : cfg.label;
            return std::make_unique<sched::DFcfsScheduler>(c);
        }
      case Design::Ix:
        {
            sched::DFcfsScheduler::Config c;
            c.label = cfg.label.empty() ? "IX" : cfg.label;
            // IX's dataplane batches adaptively; the residual
            // per-request scheduling cost is roughly a cache-miss
            // pair on the RX descriptor ring.
            c.dispatchOverhead = 2 * lat::kLlc;
            return std::make_unique<sched::DFcfsScheduler>(c);
        }
      case Design::ZygOs:
        {
            sched::WorkStealingScheduler::Config c;
            if (!cfg.label.empty())
                c.label = cfg.label;
            return std::make_unique<sched::WorkStealingScheduler>(c);
        }
      case Design::Shinjuku:
        {
            sched::CentralizedScheduler::Config c;
            if (!cfg.label.empty())
                c.label = cfg.label;
            return std::make_unique<sched::CentralizedScheduler>(c);
        }
      case Design::RpcValet:
      case Design::Nebula:
      case Design::NanoPu:
        {
            sched::JbsqScheduler::Config c =
                cfg.design == Design::RpcValet
                    ? sched::JbsqScheduler::rpcValet()
                    : cfg.design == Design::Nebula
                          ? sched::JbsqScheduler::nebula()
                          : sched::JbsqScheduler::nanoPu();
            if (!cfg.singleCoherenceDomain &&
                cfg.cores > cpu::kCoresPerSocket) {
                altoc_assert(cfg.cores % cpu::kCoresPerSocket == 0,
                             "core count must be a multiple of the "
                             "coherence-domain size beyond one socket");
                c.domains = cfg.cores / cpu::kCoresPerSocket;
            }
            if (!cfg.label.empty())
                c.label = cfg.label;
            return std::make_unique<sched::JbsqScheduler>(c);
        }
      case Design::DeadlineDrop:
        {
            sched::DeadlineDropScheduler::Config c;
            if (!cfg.label.empty())
                c.label = cfg.label;
            c.budget = cfg.dropBudget;
            return std::make_unique<sched::DeadlineDropScheduler>(c);
        }
      case Design::AcInt:
      case Design::AcRss:
        {
            core::GroupScheduler::Config c;
            altoc_assert(cfg.groups >= 1 && cfg.cores % cfg.groups == 0,
                         "cores (%u) must divide into groups (%u)",
                         cfg.cores, cfg.groups);
            const unsigned per_group = cfg.cores / cfg.groups;
            altoc_assert(per_group >= 2,
                         "each group needs a manager and a worker");
            c.numGroups = cfg.groups;
            c.workersPerGroup = per_group - 1;
            c.variant = cfg.design == Design::AcInt
                            ? core::GroupScheduler::Variant::Int
                            : core::GroupScheduler::Variant::Rss;
            c.params = cfg.params;
            c.localDepth = cfg.localDepth;
            c.nucaPayload = cfg.nucaPayload;
            c.workerQuantum = cfg.workerQuantum;
            c.meanService = mean_service;
            c.distName = dist_name;
            c.label = cfg.label;
            return std::make_unique<core::GroupScheduler>(c);
        }
    }
    panic("unknown design");
}

net::Nic::Config
nicConfigFor(const DesignConfig &cfg)
{
    net::Nic::Config n;
    n.lineRateGbps = cfg.lineRateGbps;
    switch (cfg.design) {
      case Design::Rss:
      case Design::Ix:
      case Design::ZygOs:
        n.attach = net::NicAttach::Pcie;
        n.steering = net::Steering::Rss;
        break;
      case Design::Shinjuku:
        n.attach = net::NicAttach::Pcie;
        n.steering = net::Steering::Central;
        break;
      case Design::RpcValet:
      case Design::Nebula:
      case Design::NanoPu:
        n.attach = net::NicAttach::Integrated;
        // One NIC queue per coherence domain; multi-domain machines
        // steer across shards RSS-style.
        n.steering = (!cfg.singleCoherenceDomain &&
                      cfg.cores > cpu::kCoresPerSocket)
                         ? net::Steering::Rss
                         : net::Steering::Central;
        break;
      case Design::DeadlineDrop:
        n.attach = net::NicAttach::Integrated;
        n.steering = net::Steering::Rss;
        break;
      case Design::AcInt:
        n.attach = net::NicAttach::Integrated;
        n.steering = net::Steering::Rss;
        break;
      case Design::AcRss:
        n.attach = net::NicAttach::Pcie;
        n.steering = net::Steering::Rss;
        break;
    }
    if (cfg.steering)
        n.steering = *cfg.steering;
    return n;
}

std::unique_ptr<Server>
makeServer(const DesignConfig &cfg, Tick mean_service,
           const std::string &dist_name, Tick slo_target,
           std::uint64_t warmup, std::uint64_t seed,
           const sim::FaultSpec &faults, bool log_latency_histogram,
           const trace::TraceConfig &tracing)
{
    Server::Config scfg;
    scfg.cores = cfg.cores;
    scfg.nic = nicConfigFor(cfg);
    scfg.sloTarget = slo_target;
    scfg.warmup = warmup;
    scfg.seed = seed;
    scfg.faults = faults;
    scfg.logLatencyHistogram = log_latency_histogram;
    scfg.trace = tracing;
    return std::make_unique<Server>(
        scfg, makeScheduler(cfg, mean_service, dist_name));
}

// ---------------------------------------------------------------------
// LoadGenerator
// ---------------------------------------------------------------------

LoadGenerator::LoadGenerator(Server &server, const WorkloadSpec &spec)
    : server_(server), spec_(spec), rng_(server.forkRng(spec.seed))
{
    if (spec_.trace == nullptr) {
        altoc_assert(spec_.service != nullptr,
                     "workload needs a service distribution or a trace");
        const double rate = spec_.rateMrps * 1e-3; // requests per ns
        if (spec_.realWorldArrivals) {
            arrivals_ = workload::makeRealWorld(
                rate, static_cast<Tick>(spec_.service->mean()));
        } else {
            arrivals_ = workload::makePoisson(rate);
        }
    }
}

void
LoadGenerator::start()
{
    if (spec_.trace != nullptr) {
        // Trace replay: schedule every arrival up front; ids are
        // trace indices so runs can be joined per request.
        const auto &recs = spec_.trace->records();
        for (std::uint64_t i = 0; i < recs.size(); ++i) {
            const workload::TraceRecord &rec = recs[i];
            server_.sim().at(rec.arrival, [this, i, &rec] {
                net::Rpc *r = server_.makeRpc();
                r->id = i;
                r->service = rec.service;
                r->remaining = rec.service;
                r->kind = rec.kind;
                r->conn = rec.conn;
                r->sizeBytes = rec.sizeBytes;
                r->key = rec.key;
                r->homeGroup = rec.homeGroup;
                if (decorate_)
                    decorate_(*r, rng_);
                ++injected_;
                server_.inject(r);
            });
        }
        return;
    }
    nextArrival_ = arrivals_->nextGap(rng_);
    server_.sim().at(nextArrival_, [this] { injectNext(); });
}

void
LoadGenerator::injectNext()
{
    net::Rpc *r = server_.makeRpc();
    r->id = injected_;
    const workload::ServiceSample s = spec_.service->sample(rng_);
    r->service = s.service;
    r->remaining = s.service;
    r->kind = s.kind;
    r->conn = static_cast<std::uint32_t>(rng_.below(spec_.connections));
    r->sizeBytes = spec_.requestBytes;
    if (decorate_)
        decorate_(*r, rng_);
    ++injected_;
    server_.inject(r);

    if (injected_ < spec_.requests) {
        nextArrival_ += arrivals_->nextGap(rng_);
        server_.sim().at(nextArrival_, [this] { injectNext(); });
    }
}

// ---------------------------------------------------------------------
// runExperiment
// ---------------------------------------------------------------------

RunResult
runExperiment(const DesignConfig &cfg, const WorkloadSpec &spec)
{
    // Topology dispatch: a federated rack gets the two-layer driver.
    // The classic path below stays byte-for-byte what it was -- the
    // N=1 bit-identity contract in system/rack.hh leans on it.
    if (cfg.rack.servers > 1)
        return runRackExperiment(cfg, spec);
    if (cfg.shards > 1) {
        inform("sharding disabled: one server is one kernel region "
               "(set --rack to get a shardable topology)");
    }
    if (spec.faults.maxScopedServer() > 0) {
        fatal("fault spec scopes server %d but the run is "
              "single-server (set --rack / DesignConfig::rack)",
              spec.faults.maxScopedServer());
    }

    const double mean_service =
        spec.trace ? spec.trace->meanService() : spec.service->mean();
    const std::string dist_name =
        spec.trace ? "Fixed" : spec.service->name();
    const Tick slo =
        spec.sloAbsolute
            ? *spec.sloAbsolute
            : static_cast<Tick>(spec.sloFactor * mean_service);
    const std::uint64_t total =
        spec.trace ? spec.trace->size() : spec.requests;
    const std::uint64_t warmup = static_cast<std::uint64_t>(
        spec.warmupFraction * static_cast<double>(total));

    // forServer(0) folds S0-scoped entries into the plain schedule;
    // it is the identity on an unscoped spec.
    auto server = makeServer(cfg, static_cast<Tick>(mean_service),
                             dist_name, slo, warmup, spec.seed,
                             spec.faults.forServer(0),
                             spec.logLatencyHistogram, spec.tracing);
    // Pre-size the latency store so recording never reallocates (the
    // descriptor pool grows with the in-flight count instead).
    server->reserveFor(total);
    server->stopAfterCompletions(total);

    RunResult result;
    if (spec.capturePerRequest) {
        result.perRequest.reserve(total);
        server->setCompletionHook(
            [&result](const net::Rpc &r, Tick latency) {
                result.perRequest.push_back(RequestOutcome{
                    r.id, latency, r.migrated, r.predictedViolation});
            });
    }

    // Completion-stream digest; the mixing scheme must match
    // bench::RunFingerprint (see common/fingerprint.hh).
    Fnv1a fp;
    std::uint64_t fp_events = 0;
    server->setCompletionProbe([&fp, &fp_events](const cpu::Core &core,
                                                 const net::Rpc &r,
                                                 Tick now) {
        fp.mix(now);
        fp.mix(static_cast<std::uint64_t>(r.kind));
        fp.mix(core.id());
        fp.mix(r.id);
        ++fp_events;
    });

    // Satellite of the fingerprint scheme: injected fault events are
    // part of the run's identity. Mixing them in makes two chaos runs
    // comparable bit-for-bit (and a pristine run's digest untouched,
    // since the hook only exists when an injector does).
    if (sim::FaultInjector *fi = server->faultInjector()) {
        fi->setEventHook([&fp, &fp_events](sim::FaultInjector::Kind kind,
                                           Tick now, unsigned a,
                                           unsigned b) {
            fp.mix(now);
            fp.mix(0xFA000000ull + static_cast<std::uint64_t>(kind));
            fp.mix(a);
            fp.mix(b);
            ++fp_events;
        });
    }

    LoadGenerator gen(*server, spec);
    gen.start();
    const Tick end = server->run(spec.timeLimit);

    result.design = server->scheduler().name();
    result.offeredMrps =
        spec.trace ? spec.trace->offeredRate() * 1e3 : spec.rateMrps;
    result.achievedMrps =
        end > 0 ? static_cast<double>(server->completed()) /
                      static_cast<double>(end) * 1e3
                : 0.0;
    result.latency = server->tracker().summary();
    result.sloTarget = slo;
    result.violationRatio = server->tracker().violationRatio();
    result.violations = server->tracker().violations();
    result.completed = server->completed();
    result.utilization = server->workerUtilization();
    result.predictions = server->predictions();
    result.dropped = server->dropped();
    result.coresKilled = server->scheduler().coresDead();
    result.requestsRescued = server->scheduler().requestsRescued();
    result.managersFailedOver = server->scheduler().managersFailedOver();
    result.requestsShed = server->requestsShed();
    result.fingerprint = fp.digest();
    result.fingerprintEvents = fp_events;
    if (spec.dumpStats)
        server->dumpStats();

    if (auto *group = dynamic_cast<const core::GroupScheduler *>(
            &server->scheduler())) {
        result.migrated = group->requestsMigrated();
        result.messaging = group->messagingStats();
        result.migratesRetried = group->migratesRetried();
        result.migratesTimedOut = group->migratesTimedOut();
        result.peersQuarantined = group->peersQuarantined();
        result.peersDeadDeclared = group->peersDeadDeclared();
    }
    if (const sim::FaultInjector *fi = server->faultInjector())
        result.faultsInjected = fi->counters().total();
    if (const trace::Tracer *tr = server->tracer()) {
        result.traceRecords = tr->totalWritten();
        result.traceDropped = tr->totalDropped();
        if (!spec.tracing.file.empty()) {
            altoc_assert(server->writeTrace(),
                         "failed to write trace file");
        }
    }
    return result;
}

} // namespace altoc::system
