/**
 * @file
 * Design table, server factories and the load generator. The driver
 * itself, runExperiment, runs every experiment as a rack and lives in
 * system/rack.cc.
 */

#include "system/experiment.hh"

#include "common/logging.hh"
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
    : LoadGenerator(server.sim(), server, nullptr, spec)
{
}

LoadGenerator::LoadGenerator(Rack &rack, const WorkloadSpec &spec)
    : LoadGenerator(rack.sim(), rack.server(0), &rack, spec)
{
}

LoadGenerator::LoadGenerator(sim::Simulator &sim, Server &server0,
                             Rack *rack, const WorkloadSpec &spec)
    : sim_(sim), server0_(server0), rack_(rack), spec_(spec),
      rng_(server0.forkRng(spec.seed))
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
            sim_.at(rec.arrival, [this, i, &rec] {
                const int s = place();
                net::WireRpc w;
                w.id = i;
                w.service = rec.service;
                w.kind = rec.kind;
                w.conn = rec.conn;
                w.sizeBytes = rec.sizeBytes;
                w.key = rec.key;
                w.homeGroup = rec.homeGroup;
                send(s, w);
            });
        }
        return;
    }
    nextArrival_ = arrivals_->nextGap(rng_);
    sim_.at(nextArrival_, [this] { injectNext(); });
}

void
LoadGenerator::injectNext()
{
    const int s = place();
    net::WireRpc w;
    w.id = injected_;
    // A request shed at the ToR draws none of the samples it would
    // have carried.
    if (s >= 0) {
        const workload::ServiceSample smp = spec_.service->sample(rng_);
        w.service = smp.service;
        w.kind = smp.kind;
        w.conn = static_cast<std::uint32_t>(rng_.below(spec_.connections));
        w.sizeBytes = spec_.requestBytes;
    }
    send(s, w);

    if (injected_ < spec_.requests) {
        nextArrival_ += arrivals_->nextGap(rng_);
        sim_.at(nextArrival_, [this] { injectNext(); });
    }
}

int
LoadGenerator::place()
{
    return rack_ != nullptr ? rack_->pickServer() : 0;
}

void
LoadGenerator::send(int s, net::WireRpc &w)
{
    ++injected_;
    if (s < 0) {
        rack_->shedAtTor(w.id);
        return;
    }
    if (spec_.handler != nullptr)
        spec_.handler->sampleRequest(w, rng_);
    if (rack_ != nullptr)
        rack_->deliver(static_cast<unsigned>(s), w);
    else
        server0_.injectWire(w);
}

} // namespace altoc::system
