/**
 * @file
 * altoc-perfbench: the repository benchmark's command-line program.
 *
 *   altoc-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *
 * Runs the named workload (rss16, ac64_bursty, rack4_sharded). With
 * --trace 0, set-up is timed in kSetups fresh processes (this binary
 * re-run with --setup-once, which builds the system and prints the
 * seconds from its own start), then an untimed reference run fixes
 * the invocation's fingerprint and timed runs repeat for --seconds.
 * With --trace 1 a separate pass makes a counted (traced, stats-dumping)
 * run, rounds of untraced/traced runs for --seconds, a shape drive and
 * the isolated layer probes, and reports the per-layer metrics
 * instead of the end-to-end ones. Every run is a correctness run
 * (perfbench.hh, checkRun). The last line of stdout is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. Exit status
 * is 0 only when every run passed.
 */

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hh"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/** Captured before main runs, so set-up includes static init. */
const Clock::time_point kProcessStart = Clock::now();

constexpr unsigned kSetups = 9;
constexpr unsigned kMinTimedRuns = 10;
/**
 * sim_req_per_s is this quantile of the per-run rates. Every timed run
 * simulates identical work (the fingerprint check pins it), so their
 * spread is host interference, which only ever slows a run down: the
 * upper tail estimates the program's own speed, where the median moves
 * with whatever else the host is running.
 */
constexpr double kRateQuantile = 0.9;
constexpr unsigned kMinTracedRounds = 5;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
usage(std::FILE *out)
{
    std::fprintf(out,
                 "usage: altoc-perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "workloads:");
    for (const std::string &n : workloadNames())
        std::fprintf(out, " %s", n.c_str());
    std::fprintf(out, "\n");
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || s[0] == '-')
        return false;
    out = v;
    return true;
}

/**
 * Seconds one fresh process of this binary takes from its start to
 * the built system of workload @p name (its --setup-once output), or
 * -1 when it fails.
 */
double
setupInChild(const std::string &name, std::uint64_t seed)
{
    int fds[2];
    if (pipe(fds) != 0)
        return -1.0;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const std::string seedArg = std::to_string(seed);
    const char *args[] = {"altoc-perfbench", "--setup-once", "1",
                          "--workload", name.c_str(), "--seed",
                          seedArg.c_str(), nullptr};
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                               const_cast<char *const *>(args), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string out;
    if (rc == 0) {
        char buf[256];
        ssize_t n = 0;
        while ((n = read(fds[0], buf, sizeof buf)) > 0)
            out.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    if (rc != 0)
        return -1.0;
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        return -1.0;
    char *end = nullptr;
    const double s = std::strtod(out.c_str(), &end);
    return end != out.c_str() && s > 0.0 ? s : -1.0;
}

/** Why this build must not be measured, or nullptr. */
const char *
refusedBuild()
{
#if defined(ALTOC_AUDIT_ENABLED) && ALTOC_AUDIT_ENABLED
    return "the invariant auditor is compiled in (ALTOC_AUDIT)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "a sanitizer is compiled in";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
    return "a sanitizer is compiled in";
#endif
#endif
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
    return "not an optimized release build";
#endif
    return nullptr;
}

constexpr bool kTraceCompiled =
#if defined(ALTOC_TRACE_ENABLED) && ALTOC_TRACE_ENABLED
    true;
#else
    false;
#endif

/** One-minute load average, or -1 when unavailable. */
double
loadavg()
{
    double v[1];
    return getloadavg(v, 1) == 1 ? v[0] : -1.0;
}

/** Quantile @p q of @p v by linear interpolation. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void
printMetric(const Metric &m)
{
    std::printf("metric %-30s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

void
printJson(const Ledger &ledger, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                ledger.failed == 0 ? "true" : "false", ledger.attempted,
                ledger.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    std::uint64_t seed = kDefaultSeed;
    std::uint64_t seconds = 10;
    std::uint64_t traceFlag = 0;
    std::uint64_t setupOnce = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage(stdout);
            return 0;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", a.c_str());
            usage(stderr);
            return 2;
        }
        const char *v = argv[++i];
        bool ok = true;
        if (a == "--workload")
            name = v;
        else if (a == "--seed")
            ok = parseU64(v, seed);
        else if (a == "--seconds")
            ok = parseU64(v, seconds);
        else if (a == "--trace")
            ok = parseU64(v, traceFlag) && traceFlag <= 1;
        else if (a == "--setup-once")
            ok = parseU64(v, setupOnce) && setupOnce <= 1;
        else
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "bad argument %s %s\n", a.c_str(), v);
            usage(stderr);
            return 2;
        }
    }
    Workload w;
    if (!makeWorkload(name, seed, kRequests, w)) {
        std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
        usage(stderr);
        return 2;
    }
    if (const char *why = refusedBuild()) {
        std::fprintf(stderr, "refusing to measure: %s\n", why);
        return 3;
    }

    if (setupOnce) {
        // Child of the set-up measurement: process start (static
        // initialization included) to the built system, on stdout.
        const double toMain = secondsSince(kProcessStart);
        const BuildTiming b = buildAndTeardown(w);
        std::printf("%.9g\n", toMain + b.buildS);
        return 0;
    }

    const double loadStart = loadavg();
    const unsigned shards = resolvedShards(w);
    std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%" PRIu64
                " trace=%" PRIu64 " requests=%" PRIu64 "\n",
                w.name.c_str(), seed, seconds, traceFlag, kRequests);
    std::fflush(stdout);

    Ledger ledger;

    // Set-up: each sample is a fresh process that builds the system
    // a run starts from. Only the end-to-end pass reports it.
    std::vector<double> setupS;
    if (traceFlag == 0) {
        for (unsigned i = 0; i < kSetups; ++i) {
            const double s = setupInChild(w.name, seed);
            ledger.record("setup" + std::to_string(i),
                          s > 0.0 ? std::vector<std::string>{}
                                  : std::vector<std::string>{
                                        "set-up process failed"});
            if (s > 0.0)
                setupS.push_back(s);
        }
    }

    // The reference run: every later run must reproduce it. It is
    // also the warm-up, and is not timed.
    const RunResult ref = timedRun(w.cfg, w.spec).result;
    {
        std::vector<std::string> problems = checkRun(w, ref, ref);
        for (std::string &p : checkShards(w, shards))
            problems.push_back(std::move(p));
        ledger.record("reference", problems);
    }

    // The modelled design's latency: deterministic for a seed (every
    // run reproduces the reference), so reported from the reference.
    const std::vector<Metric> latency = {
        {"sim_p50_us", static_cast<double>(ref.latency.p50) / 1e3, "us"},
        {"sim_p99_us", static_cast<double>(ref.latency.p99) / 1e3, "us"},
    };

    std::vector<Metric> metrics;
    std::vector<double> rates;
    if (traceFlag == 0) {
        const Clock::time_point tTimed = Clock::now();
        while (rates.size() < kMinTimedRuns ||
               secondsSince(tTimed) < static_cast<double>(seconds)) {
            const TimedRun r = timedRun(w.cfg, w.spec);
            rates.push_back(static_cast<double>(r.result.completed) /
                            r.wallS);
            ledger.record("timed" + std::to_string(rates.size()),
                          checkRun(w, ref, r.result));
        }
        metrics = {
            {"sim_req_per_s", quantile(rates, kRateQuantile), "req/s"},
            {"setup_s", median(setupS), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    } else {
        // Traced pass. The counted run is traced and prints the stats
        // block; the rounds pair untraced and traced runs (and, on a
        // sharded workload, a serial run) for --seconds, and every
        // traced run must repeat the counted run's counts.
        const CountedRun counted = countedRun(w);
        {
            std::vector<std::string> problems =
                checkRun(w, ref, counted.run.result);
            if (counted.stats.empty())
                problems.emplace_back("stats block not captured");
            ledger.record("counted", problems);
        }
        Workload serial = w;
        serial.cfg.shards = 1;
        serial.expectedShards = 1;
        WorkloadSpec traced = w.spec;
        traced.tracing.enabled = true;
        std::vector<double> plainWall, tracedWall, serialWall;
        const Clock::time_point tRounds = Clock::now();
        for (unsigned i = 0;
             i < kMinTracedRounds ||
             secondsSince(tRounds) < static_cast<double>(seconds);
             ++i) {
            const std::string tag = std::to_string(i);
            const TimedRun a = timedRun(w.cfg, w.spec);
            plainWall.push_back(a.wallS);
            ledger.record("untraced" + tag, checkRun(w, ref, a.result));
            const TimedRun b = timedRun(w.cfg, traced);
            tracedWall.push_back(b.wallS);
            std::vector<std::string> problems = checkRun(w, ref, b.result);
            for (std::string &p : checkCounts(counted.run.result, b.result))
                problems.push_back(std::move(p));
            ledger.record("traced" + tag, problems);
            if (w.expectedShards > 1) {
                const TimedRun c = timedRun(serial.cfg, serial.spec);
                serialWall.push_back(c.wallS);
                ledger.record("serial" + tag,
                              checkRun(serial, ref, c.result));
            }
        }
        const Shape shape = sampleShape(w);
        std::vector<double> buildMs, teardownMs;
        for (unsigned i = 0; i < kSetups; ++i) {
            const BuildTiming b = buildAndTeardown(w);
            buildMs.push_back(b.buildS * 1e3);
            teardownMs.push_back(b.teardownS * 1e3);
        }
        const ProbeResult p = runProbes(w, shape);

        metrics = countMetrics(counted, shape, shards);
        auto get = [&metrics](const char *n) {
            for (const Metric &m : metrics)
                if (m.name == n)
                    return m.value;
            return 0.0;
        };
        const double eventsPerReq = get("sim.events_per_req");
        const double ticksPerReq = get("core.ticks_per_req");
        const double msgsPerReq = get("noc.msgs_per_req");
        const double hostNsPerReq =
            median(plainWall) * 1e9 / static_cast<double>(w.spec.requests);
        const std::vector<Metric> timing = {
            {"sim.host_ns_per_event",
             eventsPerReq > 0 ? hostNsPerReq / eventsPerReq : 0.0, "ns"},
            {"sim.event_op_ns", p.eventOpNs, "ns"},
            {"sim.est_share", p.eventOpNs * eventsPerReq / hostNsPerReq,
             "ratio"},
            // A serial workload has nothing to compare: 1 by definition.
            {"sim.shard_speedup",
             serialWall.empty() ? 1.0
                                : median(serialWall) / median(plainWall),
             "x"},
            {"core.classify_ns", p.classifyNs, "ns"},
            {"core.decide_ns", p.decideNs, "ns"},
            {"core.threshold_ns", p.thresholdNs, "ns"},
            {"core.erlang_ns", p.erlangNs, "ns"},
            {"core.est_share",
             (p.decideNs + p.thresholdNs) * ticksPerReq / hostNsPerReq,
             "ratio"},
            {"noc.send_ns", p.meshSendNs, "ns"},
            {"noc.est_share", p.meshSendNs * msgsPerReq / hostNsPerReq,
             "ratio"},
            {"net.pool_op_ns", p.poolOpNs, "ns"},
            {"stats.record_ns", p.recordNs, "ns"},
            {"workload.arrival_ns", p.arrivalNs, "ns"},
            {"workload.service_ns", p.serviceNs, "ns"},
            {"system.build_ms", median(buildMs), "ms"},
            {"system.run_ms", median(plainWall) * 1e3, "ms"},
            {"system.teardown_ms", median(teardownMs), "ms"},
            {"system.tor_pick_ns", p.torPickNs, "ns"},
            {"trace.overhead_pct",
             (median(tracedWall) / median(plainWall) - 1.0) * 100.0, "%"},
        };
        metrics.insert(metrics.end(), timing.begin(), timing.end());
        metrics.insert(metrics.end(), latency.begin(), latency.end());
        std::printf("probe-shape mesh=%ux%u queues=%zu workers/queue=%u "
                    "erlang_k=%u arrivals=%s event_depth=%zu "
                    "pool_depth=%zu queue_samples=%zu\n",
                    p.meshCols, p.meshRows, p.qWidth, shape.workersPerQueue,
                    p.erlangServers, p.arrivalProcess.c_str(), p.eventDepth,
                    p.poolDepth, shape.queueSamples.size());
        std::printf("estimates: *.est_share = probe ns/call x calls/req / "
                    "host ns/req (%.1f ns/req); isolated-probe estimates, "
                    "not measured self time\n",
                    hostNsPerReq);
        std::printf("runs untraced=%zu traced=%zu serial=%zu\n",
                    plainWall.size(), tracedWall.size(), serialWall.size());
    }

    const double loadEnd = loadavg();
    std::printf("context nproc=%u loadavg_start=%.2f loadavg_end=%.2f "
                "build=%s altoc_trace=%d altoc_audit=0 seed=%" PRIu64
                " shards_requested=%u shards_resolved=%u\n",
                std::thread::hardware_concurrency(), loadStart,
                loadEnd, PERFBENCH_BUILD_TYPE, kTraceCompiled ? 1 : 0,
                seed, w.cfg.shards, shards);
    std::printf("fingerprint %s seed=%" PRIu64 ": 0x%016" PRIx64
                " over %" PRIu64 " completions\n",
                w.name.c_str(), seed, ref.fingerprint, ref.fingerprintEvents);
    if (traceFlag == 0) {
        std::printf("setup_s median of %zu set-up processes: %.6g s\n",
                    setupS.size(), median(setupS));
        std::printf("sim_req_per_s p%.0f of %zu timed runs: %.6g "
                    "(median %.6g, q1 %.6g, q3 %.6g)\n",
                    kRateQuantile * 100, rates.size(),
                    quantile(rates, kRateQuantile), median(rates),
                    quantile(rates, 0.25), quantile(rates, 0.75));
    }
    std::printf("runs attempted=%" PRIu64 " failed=%" PRIu64
                " run_error_rate=%.6g\n",
                ledger.attempted, ledger.failed,
                static_cast<double>(ledger.failed) /
                    static_cast<double>(ledger.attempted));
    std::printf("simulated latency p50 %.3f us, p99 %.3f us (SLO %.0f us)\n",
                latency[0].value, latency[1].value,
                static_cast<double>(ref.sloTarget) / 1e3);
    for (const std::string &f : ledger.failures)
        std::printf("FAILED %s\n", f.c_str());
    for (const Metric &m : metrics)
        printMetric(m);
    printJson(ledger, metrics);
    return ledger.failed == 0 ? 0 : 1;
}
