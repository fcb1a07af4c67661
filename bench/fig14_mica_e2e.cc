/**
 * @file
 * Fig. 14: MICA end-to-end with the nanoRPC-class stack on 64 cores
 * under real-world traffic: p99 latency (log-scale in the paper) and
 * SLO-violation ratio vs throughput for Nebula, AC_rss-ISA and
 * AC_rss-MSR.
 *
 * Scale note (see EXPERIMENTS.md): the paper plots up to 700 MRPS,
 * which is incompatible with its own 28 MRPS-per-manager hand-off
 * ceiling (70 cycles @ 2 GHz, Sec. VIII-B) for a 4-manager system.
 * We keep the ceiling, so our AC_rss saturates around 4 x 28 MRPS;
 * the *relationships* -- Nebula's tail collapsing from SCAN
 * head-of-line blocking while AC degrades gracefully, and the MSR
 * interface costing ~9% of ISA's peak -- are the reproduction
 * target.
 *
 * The 4 x 11 grid runs as one parallel batch (--jobs, --scale; see
 * bench_util.hh) and ends with the sweep fingerprint of its runs.
 */

#include <cstdio>
#include <iterator>
#include <vector>

#include "bench_util.hh"
#include "system/mica_run.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

/** One Fig. 14 point: a design at an offered rate. */
struct Point
{
    DesignConfig design;
    WorkloadSpec spec;
    MicaRunConfig mica;
};

Point
pointFor(Design design, core::Interface iface, double rate,
         const bench::Options &opt)
{
    Point p;
    p.design.design = design;
    p.design.cores = 64;
    p.design.groups = 4; // the paper's 4-manager configuration
    p.design.lineRateGbps = 1600.0;
    p.design.params.iface = iface;
    // A 200 ns control loop over ~100-cycle rdmsr/wrmsr would starve
    // the manager; the MSR configuration runs a saner 1 us period.
    p.design.params.period =
        iface == core::Interface::Msr ? 1000 : 200;
    p.design.params.bulk = 16;
    p.design.params.concurrency = 4;
    p.spec.rateMrps = rate;
    p.spec.requests = bench::scaled(200000, opt);
    p.spec.realWorldArrivals = true;
    // SLO: 5 us p99 (10x the ~70 ns mean leaves no room for the
    // PCIe hop AC_rss pays; 5 us keeps all designs comparable).
    p.spec.sloAbsolute = 5 * kUs;
    p.spec.seed = 91;
    p.mica.store.keysPerPartition = 20000;
    p.mica.store.buckets = 1 << 15;
    p.mica.store.logBytes = 32u << 20;
    // SCANs walk 160 entries (~4 us): the only SCAN scale compatible
    // with the paper's 700 MRPS x-axis on 64 cores (see
    // EXPERIMENTS.md). Mean service ~= 70 ns.
    p.mica.store.scanEntries = 160;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options opt = bench::parseArgs(argc, argv);
    bench::banner("Fig. 14",
                  "MICA end-to-end, 64 cores, nanoRPC-class stack, "
                  "real-world traffic (99.5% GET/SET ~50ns, 0.5% "
                  "SCAN ~4us)");
    bench::Stopwatch watch;

    const std::vector<double> rates{10, 20, 25, 30, 35, 40,
                                    50, 75, 100, 150, 190};

    struct Series
    {
        const char *label;
        Design design;
        core::Interface iface;
    };
    const Series series[] = {
        {"Nebula", Design::Nebula, core::Interface::Isa},
        {"AC_int", Design::AcInt, core::Interface::Isa},
        {"AC_rss-ISA", Design::AcRss, core::Interface::Isa},
        {"AC_rss-MSR", Design::AcRss, core::Interface::Msr},
    };

    // The series x rate grid is one parallel batch.
    std::vector<Point> points;
    for (const Series &s : series) {
        for (double r : rates)
            points.push_back(pointFor(s.design, s.iface, r, opt));
    }
    const std::vector<MicaRunResult> results = altoc::mapOrdered(
        points,
        [](const Point &p) {
            return runMicaExperiment(p.design, p.spec, p.mica);
        },
        opt.jobs);
    bench::SweepDigest digest;
    for (const MicaRunResult &res : results)
        digest.add(res.run);
    auto at = [&](std::size_t series_idx, std::size_t rate_idx)
        -> const RunResult & {
        return results[series_idx * rates.size() + rate_idx].run;
    };
    // One row per series of @p value at every rate, @p prec decimals.
    auto table = [&](const char *title, int prec, auto value) {
        bench::section(title);
        std::printf("%-12s", "design");
        for (double r : rates)
            std::printf(" %8.0f", r);
        std::printf("\n");
        for (std::size_t i = 0; i < std::size(series); ++i) {
            std::printf("%-12s", series[i].label);
            for (std::size_t j = 0; j < rates.size(); ++j)
                std::printf(" %8.*f", prec, value(at(i, j)));
            std::printf("\n");
        }
    };
    table("(a) p99 latency (us) vs offered MRPS", 2,
          [](const RunResult &r) { return r.latency.p99 / 1e3; });
    table("(b) SLO-violation ratio vs offered MRPS", 4,
          [](const RunResult &r) { return r.violationRatio; });

    bench::section("max throughput with p99 <= 5 us");
    double best[std::size(series)] = {};
    for (std::size_t i = 0; i < std::size(series); ++i) {
        for (std::size_t j = 0; j < rates.size(); ++j) {
            if (at(i, j).latency.p99 <= 5 * kUs)
                best[i] = rates[j];
        }
        std::printf("%-12s %8.0f MRPS\n", series[i].label, best[i]);
    }
    const double neb_best = best[0], int_best = best[1],
                 isa_best = best[2], msr_best = best[3];
    if (neb_best > 0) {
        std::printf("\nAC_int / Nebula     = %.2fx (paper's AC-vs-"
                    "Nebula claim: 2.5x; see EXPERIMENTS.md)\n",
                    int_best / neb_best);
        std::printf("AC_rss-ISA / Nebula = %.2fx (bounded by the 70-"
                    "cycle manager hand-off, Sec. VIII-B)\n",
                    isa_best / neb_best);
    }
    if (isa_best > 0)
        std::printf("AC_rss-MSR / AC_rss-ISA = %.0f%% (paper: 91%%)\n",
                    100.0 * msr_best / isa_best);

    digest.print();
    watch.report();
    return 0;
}
