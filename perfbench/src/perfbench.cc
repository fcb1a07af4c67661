/**
 * @file
 * Implementation of the benchmark library (see perfbench.hh).
 */

#include "perfbench.hh"

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>

#include "common/rng.hh"
#include "core/erlang.hh"
#include "core/group.hh"
#include "core/params.hh"
#include "core/pattern.hh"
#include "core/prediction.hh"
#include "core/runtime.hh"
#include "net/rpc.hh"
#include "noc/mesh.hh"
#include "sim/simulator.hh"
#include "stats/slo.hh"
#include "system/rack.hh"
#include "workload/arrivals.hh"
#include "workload/distributions.hh"

namespace perfbench {

using namespace altoc;
using altoc::system::Design;
using altoc::system::LoadGenerator;
using altoc::system::Rack;
using altoc::system::Server;
using altoc::system::TorPolicy;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Fig. 10's service mix: Bimodal(0.5 %, 500 ns, 50 us), SLO 300 us,
 *  open loop. */
WorkloadSpec
fig10Spec(double rate_mrps, bool bursty, std::uint64_t seed,
          std::uint64_t requests)
{
    WorkloadSpec spec;
    spec.service =
        std::make_shared<workload::BimodalDist>(0.005, 500, 50 * kUs);
    spec.realWorldArrivals = bursty;
    spec.rateMrps = rate_mrps;
    spec.requests = requests;
    spec.sloAbsolute = 300 * kUs;
    spec.seed = seed;
    return spec;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Keeps probe results observable so the timed loops are not
 *  optimized away. */
volatile std::uint64_t gSink = 0;

/**
 * Median over @p reps repetitions of the host ns per call of
 * @p body(i) for i in [0, n), after one untimed warm-up repetition.
 * @p reset runs untimed before each repetition.
 */
template <class Body, class Reset>
double
nsPerCall(unsigned reps, std::uint64_t n, Body &&body, Reset &&reset)
{
    std::vector<double> per;
    for (unsigned r = 0; r <= reps; ++r) {
        reset();
        const Clock::time_point t0 = Clock::now();
        for (std::uint64_t i = 0; i < n; ++i)
            body(i);
        const double ns = secondsSince(t0) * 1e9 / static_cast<double>(n);
        if (r > 0)
            per.push_back(ns);
    }
    return median(std::move(per));
}

template <class Body>
double
nsPerCall(unsigned reps, std::uint64_t n, Body &&body)
{
    return nsPerCall(reps, n, std::forward<Body>(body), [] {});
}

constexpr unsigned kProbeReps = 5;
constexpr std::uint64_t kProbeCalls = 1u << 18;

} // namespace

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"rss16", "ac64_bursty",
                                                   "rack4_sharded"};
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed,
             std::uint64_t requests, Workload &out)
{
    Workload w;
    w.name = name;
    if (name == "rss16") {
        w.cfg.design = Design::Rss;
        w.cfg.cores = 16;
        w.spec = fig10Spec(10.0, false, seed, requests);
    } else if (name == "ac64_bursty") {
        w.cfg.design = Design::AcInt;
        w.cfg.cores = 64;
        w.cfg.groups = 8;
        w.spec = fig10Spec(40.0, true, seed, requests);
    } else if (name == "rack4_sharded") {
        w.cfg.design = Design::AcInt;
        w.cfg.cores = 64;
        w.cfg.groups = 8;
        w.cfg.rack.servers = 4;
        w.cfg.rack.policy = TorPolicy::RoundRobin;
        w.cfg.shards = 2;
        w.expectedShards = 2;
        w.spec = fig10Spec(140.0, false, seed, requests);
    } else {
        return false;
    }
    out = std::move(w);
    return true;
}

unsigned
resolvedShards(const Workload &w)
{
    const Rack rack(w.cfg, w.spec);
    return rack.resolveShards(w.cfg.shards);
}

// ---------------------------------------------------------------------
// Runs and checks
// ---------------------------------------------------------------------

TimedRun
timedRun(const DesignConfig &cfg, const WorkloadSpec &spec)
{
    TimedRun t;
    const Clock::time_point t0 = Clock::now();
    t.result = altoc::system::runExperiment(cfg, spec);
    t.wallS = secondsSince(t0);
    return t;
}

std::vector<std::string>
checkRun(const Workload &w, const RunResult &ref, const RunResult &r)
{
    std::vector<std::string> out;
    char buf[256];
    if (r.fingerprint != ref.fingerprint) {
        out.push_back("fingerprint " + hex(r.fingerprint) +
                      " != reference " + hex(ref.fingerprint));
    }
    if (r.fingerprintEvents != r.completed) {
        std::snprintf(buf, sizeof buf,
                      "%" PRIu64 " fingerprinted completions != %" PRIu64
                      " completed",
                      r.fingerprintEvents, r.completed);
        out.emplace_back(buf);
    }
    const std::uint64_t issued = w.spec.requests;
    if (r.completed != issued) {
        std::snprintf(buf, sizeof buf,
                      "completed %" PRIu64 " != requested %" PRIu64,
                      r.completed, issued);
        out.emplace_back(buf);
    }
    if (r.completed + r.requestsShed + r.dropped + r.torShed != issued) {
        std::snprintf(buf, sizeof buf,
                      "conservation: completed %" PRIu64 " + shed %" PRIu64
                      " + dropped %" PRIu64 " + torShed %" PRIu64
                      " != issued %" PRIu64,
                      r.completed, r.requestsShed, r.dropped, r.torShed,
                      issued);
        out.emplace_back(buf);
    }
    if (w.expectedShards > 1 && r.parallelWindows == 0)
        out.emplace_back("sharded run executed no parallel windows");
    return out;
}

std::vector<std::string>
checkCounts(const RunResult &ref, const RunResult &r)
{
    const core::MessagingStats &a = ref.messaging;
    const core::MessagingStats &b = r.messaging;
    const std::pair<const char *, bool> same[] = {
        {"updatesSent", a.updatesSent == b.updatesSent},
        {"migratesSent", a.migratesSent == b.migratesSent},
        {"migratesAcked", a.migratesAcked == b.migratesAcked},
        {"descriptorsSent", a.descriptorsSent == b.descriptorsSent},
        {"sendsRefused", a.sendsRefused == b.sendsRefused},
        {"migrated", ref.migrated == r.migrated},
        {"traceRecords", ref.traceRecords == r.traceRecords},
        {"parallelWindows", ref.parallelWindows == r.parallelWindows},
    };
    std::vector<std::string> out;
    for (const auto &[name, equal] : same) {
        if (!equal)
            out.push_back(std::string(name) + " differs from the counted run");
    }
    return out;
}

std::vector<std::string>
checkShards(const Workload &w, unsigned resolved)
{
    if (resolved == w.expectedShards)
        return {};
    return {"rack resolved to " + std::to_string(resolved) +
            " shard(s), workload requires " +
            std::to_string(w.expectedShards)};
}

void
Ledger::record(const std::string &label,
               const std::vector<std::string> &problems)
{
    ++attempted;
    if (problems.empty())
        return;
    ++failed;
    for (const std::string &p : problems)
        failures.push_back(label + ": " + p);
}

// ---------------------------------------------------------------------
// Set-up, counted run and shape drive
// ---------------------------------------------------------------------

namespace {

/** makeServer with the arguments runExperiment derives from a sampled
 *  workload spec, pre-sized and stopped as runExperiment does. */
std::unique_ptr<Server>
buildServer(const DesignConfig &cfg, const WorkloadSpec &spec)
{
    const double mean = spec.service->mean();
    const Tick slo = spec.sloAbsolute
                         ? *spec.sloAbsolute
                         : static_cast<Tick>(spec.sloFactor * mean);
    const std::uint64_t warmup = static_cast<std::uint64_t>(
        spec.warmupFraction * static_cast<double>(spec.requests));
    auto server = altoc::system::makeServer(
        cfg, static_cast<Tick>(mean), spec.service->name(), slo, warmup,
        spec.seed, {}, spec.logLatencyHistogram, spec.tracing);
    server->reserveFor(spec.requests);
    server->stopAfterCompletions(spec.requests);
    return server;
}

/** Sum of every stats line named @p name, with or without a
 *  "serverN." prefix. */
double
sumStat(const std::map<std::string, double> &stats, const std::string &name)
{
    double sum = 0.0;
    for (const auto &[key, value] : stats) {
        if (key == name ||
            (key.size() > name.size() &&
             key.compare(key.size() - name.size() - 1, std::string::npos,
                         "." + name) == 0))
            sum += value;
    }
    return sum;
}

constexpr std::uint64_t kPendingEvery = 64;
constexpr std::uint64_t kQueueEvery = 97;
constexpr std::size_t kMaxQueueSamples = 2048;
constexpr std::uint64_t kLatencyEvery = 7;
constexpr std::size_t kMaxLatencySamples = 16384;

} // namespace

BuildTiming
buildAndTeardown(const Workload &w)
{
    BuildTiming t;
    const Clock::time_point t0 = Clock::now();
    if (w.cfg.rack.servers > 1) {
        auto rack = std::make_unique<Rack>(w.cfg, w.spec);
        rack->reserveFor(w.spec.requests);
        rack->stopAfterCompletions(w.spec.requests);
        t.buildS = secondsSince(t0);
        const Clock::time_point t1 = Clock::now();
        rack.reset();
        t.teardownS = secondsSince(t1);
    } else {
        auto server = buildServer(w.cfg, w.spec);
        auto gen = std::make_unique<LoadGenerator>(*server, w.spec);
        gen->start();
        t.buildS = secondsSince(t0);
        const Clock::time_point t1 = Clock::now();
        gen.reset();
        server.reset();
        t.teardownS = secondsSince(t1);
    }
    return t;
}

CountedRun
countedRun(const Workload &w)
{
    WorkloadSpec spec = w.spec;
    spec.tracing.enabled = true;
    spec.dumpStats = true;

    // The stats block goes to stdout; divert it into an anonymous
    // in-memory file for the length of the run.
    CountedRun c;
    std::fflush(stdout);
    const int saved = dup(STDOUT_FILENO);
    const int mem = memfd_create("perfbench-stats", 0);
    const bool diverted =
        saved >= 0 && mem >= 0 && dup2(mem, STDOUT_FILENO) >= 0;
    c.run = timedRun(w.cfg, spec);
    std::fflush(stdout);
    if (saved >= 0) {
        dup2(saved, STDOUT_FILENO);
        close(saved);
    }
    if (mem < 0)
        return c;
    std::string text;
    if (diverted && lseek(mem, 0, SEEK_SET) == 0) {
        char buf[4096];
        ssize_t n = 0;
        while ((n = read(mem, buf, sizeof buf)) > 0)
            text.append(buf, static_cast<std::size_t>(n));
    }
    close(mem);

    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream fields(line);
        std::string name;
        double value = 0.0;
        if (fields >> name >> value)
            c.stats[name] = value;
    }
    return c;
}

Shape
sampleShape(const Workload &w)
{
    const unsigned n = std::max(1u, w.cfg.rack.servers);
    DesignConfig cfg = w.cfg;
    cfg.rack = {};
    cfg.shards = 1;
    WorkloadSpec spec = w.spec;
    spec.rateMrps /= n;
    spec.requests /= n;

    Shape s;
    std::uint64_t completions = 0;
    double pendingSum = 0.0;
    std::uint64_t pendingSamples = 0;
    double latencySum = 0.0;
    std::uint64_t latencies = 0;
    // Declared after what its hooks write to, so it is destroyed first.
    std::unique_ptr<Server> server = buildServer(cfg, spec);
    Server &srv = *server;
    srv.setCompletionProbe([&](const cpu::Core &, const net::Rpc &, Tick) {
        ++completions;
        if (completions % kPendingEvery == 0) {
            pendingSum += static_cast<double>(srv.sim().pendingEvents());
            ++pendingSamples;
        }
        if (completions % kQueueEvery == 0 &&
            s.queueSamples.size() < kMaxQueueSamples)
            s.queueSamples.push_back(srv.scheduler().queueLengths());
    });
    srv.setCompletionHook([&](const net::Rpc &, Tick latency) {
        latencySum += static_cast<double>(latency);
        if (++latencies % kLatencyEvery == 0 &&
            s.latencySamples.size() < kMaxLatencySamples)
            s.latencySamples.push_back(latency);
    });
    LoadGenerator gen(srv, spec);
    gen.start();
    srv.run(spec.timeLimit);

    s.completed = srv.completed();
    s.events = srv.sim().eventsExecuted();
    s.meshMessages = srv.mesh().messages();
    s.finalTick = srv.sim().now();
    s.utilization = srv.workerUtilization();
    s.meanLatencyNs = ratio(latencySum, static_cast<double>(latencies));
    s.meanPendingEvents =
        ratio(pendingSum, static_cast<double>(pendingSamples));
    s.meshCols = srv.mesh().cols();
    s.meshRows = srv.mesh().rows();
    const auto *group =
        dynamic_cast<const core::GroupScheduler *>(&srv.scheduler());
    if (group)
        s.runtimeTicks = group->runtimeTicks();
    s.queues = static_cast<unsigned>(srv.scheduler().queueLengths().size());
    s.workersPerQueue = group ? cfg.cores / cfg.groups - 1
                              : std::max(1u, cfg.cores / s.queues);
    // The tiles of the cores that own the scheduler's queues: each
    // group's manager on AC, every core on a per-core-queue design.
    const unsigned stride = group ? cfg.cores / cfg.groups
                                  : std::max(1u, cfg.cores / s.queues);
    for (unsigned q = 0; q < s.queues; ++q)
        s.queueTiles.push_back(srv.cores()[q * stride]->tile());
    return s;
}

// ---------------------------------------------------------------------
// Isolated layer probes
// ---------------------------------------------------------------------

ProbeResult
runProbes(const Workload &w, const Shape &s)
{
    ProbeResult p;
    const core::AltocParams &params = w.cfg.params;
    Rng rng(0x9e0b3e5ull ^ w.spec.seed);

    // sim: one Simulator::at + step pair at the depth the shape drive
    // kept; each step retires one event and schedules its
    // replacement, so the depth stays put. The scheduling horizon
    // is that depth times the simulated ns per event (Little).
    {
        p.eventDepth = static_cast<std::size_t>(
            std::max(1.0, std::round(s.meanPendingEvents)));
        const double nsPerEvent =
            ratio(static_cast<double>(s.finalTick),
                  static_cast<double>(s.events));
        const double horizon = std::max(
            1.0, static_cast<double>(p.eventDepth) * nsPerEvent);
        std::vector<Tick> gaps(4096);
        for (Tick &g : gaps)
            g = 1 + static_cast<Tick>(rng.exponential(horizon));
        std::unique_ptr<sim::Simulator> sim;
        p.eventOpNs = nsPerCall(
            kProbeReps, kProbeCalls,
            [&](std::uint64_t i) {
                sim->step();
                sim->at(sim->now() + gaps[i & 4095], [] {});
            },
            [&] {
                sim = std::make_unique<sim::Simulator>();
                for (std::size_t i = 0; i < p.eventDepth; ++i)
                    sim->at(gaps[i & 4095], [] {});
            });
        gSink = gSink + sim->eventsExecuted();
    }

    // core: the runtime's per-period decision procedure on the queue
    // vectors the workload's scheduler actually reported.
    std::vector<std::vector<std::size_t>> qs = s.queueSamples;
    if (qs.empty())
        qs.emplace_back(std::max(1u, s.queues), 0);
    p.qWidth = qs[0].size();
    const core::ThresholdModel model(
        std::max(1u, s.workersPerQueue), params.sloFactor,
        core::defaultConstants(w.spec.service->name()));
    p.erlangServers = model.k();
    std::vector<double> loads(1024);
    const double k = static_cast<double>(model.k());
    for (double &a : loads) {
        a = std::min(k - 1e-3,
                     s.utilization * k * rng.uniform(0.5, 1.5));
    }
    {
        std::vector<unsigned> rank;
        core::PatternResult out;
        p.classifyNs = nsPerCall(kProbeReps, kProbeCalls,
                                 [&](std::uint64_t i) {
                                     core::classifyPatternInto(
                                         qs[i % qs.size()], params.bulk,
                                         params.concurrency, rank, out);
                                     gSink = gSink + out.plans.size();
                                 });
    }
    {
        core::RuntimeScratch scratch;
        core::RuntimeDecision out;
        const unsigned width = static_cast<unsigned>(p.qWidth);
        std::vector<unsigned> thresholds(loads.size());
        for (std::size_t i = 0; i < loads.size(); ++i)
            thresholds[i] = model.threshold(loads[i]);
        p.decideNs = nsPerCall(
            kProbeReps, kProbeCalls, [&](std::uint64_t i) {
                core::decideMigrationsInto(
                    qs[i % qs.size()], static_cast<unsigned>(i % width),
                    thresholds[i & 1023], params, scratch, out);
                gSink = gSink + out.migrations.size();
            });
    }
    p.thresholdNs =
        nsPerCall(kProbeReps, kProbeCalls, [&](std::uint64_t i) {
            gSink = gSink + model.threshold(loads[i & 1023]);
        });
    p.erlangNs = nsPerCall(kProbeReps, kProbeCalls / 8, [&](std::uint64_t i) {
        gSink = gSink + static_cast<std::uint64_t>(
                            1e6 * core::erlangC(model.k(), loads[i & 1023]));
    });

    // noc: Mesh::send of scheduler-VN headers between the queue-owning
    // tiles of the workload's mesh, departures spaced as the
    // workload's per-server message rate spaces them.
    {
        p.meshCols = s.meshCols;
        p.meshRows = s.meshRows;
        const std::size_t t = s.queueTiles.size();
        std::vector<std::pair<unsigned, unsigned>> pairs(4096);
        for (auto &pr : pairs) {
            const unsigned a = static_cast<unsigned>(rng.below(t));
            unsigned b = static_cast<unsigned>(rng.below(t));
            if (t > 1 && b == a)
                b = (b + 1) % static_cast<unsigned>(t);
            pr = {s.queueTiles[a], s.queueTiles[b]};
        }
        const Tick spacing =
            s.meshMessages > 0
                ? std::max<Tick>(1, s.finalTick / s.meshMessages)
                : 100;
        std::unique_ptr<noc::Mesh> mesh;
        Tick depart = 0;
        p.meshSendNs = nsPerCall(
            kProbeReps, kProbeCalls,
            [&](std::uint64_t i) {
                const auto &pr = pairs[i & 4095];
                depart += spacing;
                gSink = gSink + mesh->send(noc::kVnSched, pr.first, pr.second,
                                           core::hw::kHeaderBytes, depart);
            },
            [&] {
                mesh = std::make_unique<noc::Mesh>(s.meshCols, s.meshRows);
                depart = 0;
            });
    }

    // net: RpcPool alloc + release with the per-server in-flight
    // population of the workload (Little: rate x mean latency).
    {
        const double rate = ratio(static_cast<double>(s.completed),
                                  static_cast<double>(s.finalTick));
        p.poolDepth = static_cast<std::size_t>(
            std::max(1.0, std::round(rate * s.meanLatencyNs)));
        net::RpcPool pool;
        pool.reserve(p.poolDepth + 1);
        std::vector<net::Rpc *> live(p.poolDepth);
        for (auto &r : live)
            r = pool.alloc();
        p.poolOpNs =
            nsPerCall(kProbeReps, kProbeCalls, [&](std::uint64_t i) {
                net::Rpc *&slot = live[i % p.poolDepth];
                pool.release(slot);
                slot = pool.alloc();
                slot->id = i;
            });
        for (net::Rpc *r : live)
            pool.release(r);
    }

    // stats: the SloTracker::record call every completion makes, on
    // the workload's own latencies, into a pre-sized tracker.
    {
        std::vector<Tick> lat = s.latencySamples;
        if (lat.empty())
            lat.push_back(1000);
        const Tick slo = *w.spec.sloAbsolute;
        std::unique_ptr<stats::SloTracker> tracker;
        p.recordNs = nsPerCall(
            kProbeReps, kProbeCalls,
            [&](std::uint64_t i) { tracker->record(lat[i % lat.size()]); },
            [&] {
                tracker = std::make_unique<stats::SloTracker>(slo);
                tracker->reserve(kProbeCalls);
            });
        gSink = gSink + tracker->violations();
    }

    // workload: the arrival process and service sampler the
    // generator calls once per request.
    {
        const double rate = w.spec.rateMrps * 1e-3;
        auto arrivals =
            w.spec.realWorldArrivals
                ? workload::makeRealWorld(
                      rate, static_cast<Tick>(w.spec.service->mean()))
                : workload::makePoisson(rate);
        p.arrivalProcess = arrivals->name();
        p.arrivalNs = nsPerCall(kProbeReps, kProbeCalls, [&](std::uint64_t) {
            gSink = gSink + arrivals->nextGap(rng);
        });
        p.serviceNs = nsPerCall(kProbeReps, kProbeCalls, [&](std::uint64_t) {
            gSink = gSink + w.spec.service->sample(rng).service;
        });
    }

    // system: the ToR's placement decision on the workload's rack.
    {
        Rack rack(w.cfg, w.spec);
        p.torPickNs = nsPerCall(kProbeReps, kProbeCalls, [&](std::uint64_t) {
            gSink = gSink + static_cast<std::uint64_t>(rack.pickServer());
        });
    }
    return p;
}

// ---------------------------------------------------------------------
// Metrics helpers
// ---------------------------------------------------------------------

std::vector<Metric>
countMetrics(const CountedRun &c, const Shape &s, unsigned shards)
{
    const RunResult &r = c.run.result;
    const core::MessagingStats &ms = r.messaging;
    const double req =
        static_cast<double>(std::max<std::uint64_t>(r.completed, 1));
    auto perReq = [req](double v) { return v / req; };
    // A rack prints its kernel's total; a single server its own.
    const double events = c.stats.count("rack.eventsExecuted")
                              ? c.stats.at("rack.eventsExecuted")
                              : sumStat(c.stats, "sim.eventsExecuted");
    const double msgs = sumStat(c.stats, "noc.messages");
    const double windows = static_cast<double>(r.parallelWindows);
    const double migrates = static_cast<double>(ms.migratesSent);
    return {
        {"sim.events_per_req", perReq(events), "events/req"},
        {"sim.parallel_windows", windows, "count"},
        {"sim.events_per_window", ratio(events, windows), "events/window"},
        {"sim.resolved_shards", static_cast<double>(shards), "count"},
        {"core.ticks_per_req",
         ratio(static_cast<double>(s.runtimeTicks),
               static_cast<double>(s.completed)),
         "ticks/req"},
        {"core.updates_per_req",
         perReq(static_cast<double>(ms.updatesSent)), "msgs/req"},
        {"core.migrates_per_req", perReq(migrates), "msgs/req"},
        {"core.migrated_per_req", perReq(static_cast<double>(r.migrated)),
         "reqs/req"},
        {"core.descriptors_per_migrate",
         ratio(static_cast<double>(ms.descriptorsSent), migrates),
         "desc/msg"},
        {"core.migrate_ack_ratio",
         ratio(static_cast<double>(ms.migratesAcked), migrates), "ratio"},
        {"core.sends_refused_per_req",
         perReq(static_cast<double>(ms.sendsRefused)), "sends/req"},
        {"noc.msgs_per_req", perReq(msgs), "msgs/req"},
        {"noc.hops_per_msg", ratio(sumStat(c.stats, "noc.flitHops"), msgs),
         "flit-hops/msg"},
        {"cpu.utilization", r.utilization, "ratio"},
        {"trace.records_per_req",
         perReq(static_cast<double>(r.traceRecords)), "records/req"},
    };
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                     v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1)
        return hi;
    const double lo = *std::max_element(
        v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    return (lo + hi) / 2.0;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
