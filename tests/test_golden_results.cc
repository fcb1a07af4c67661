/**
 * @file
 * Golden-result regression suite: pins the exact simulation output of
 * one representative run per headline design (d-FCFS/RSS, work
 * stealing, AC on integrated NIC, AC on commodity RSS NIC), plus a
 * short-period AC_int run, against checked-in files in tests/golden/. Any change to event ordering,
 * RNG consumption, scheduler decisions or stats accounting shows up
 * as a fingerprint mismatch here before it silently shifts a figure.
 *
 * Regenerating after an *intentional* behavior change:
 *
 *     ./build/tests/test_golden_results --update-golden
 *
 * rewrites the files in the source tree; commit them with the change
 * that moved the numbers. Scalar stats use exact equality -- goldens
 * are only guaranteed against the toolchain/libm that generated them,
 * so regenerate rather than hand-edit if a platform disagrees.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "system/experiment.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

bool g_update = false;

#ifndef ALTOC_GOLDEN_DIR
#error "build must define ALTOC_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

struct GoldenCase
{
    const char *file; // golden file basename, sans .txt
    Design design;
};

const std::vector<GoldenCase> &
goldenCases()
{
    static const std::vector<GoldenCase> cases{
        {"rss_dfcfs", Design::Rss},
        {"zygos_stealing", Design::ZygOs},
        {"ac_integrated", Design::AcInt},
        {"ac_rss", Design::AcRss},
    };
    return cases;
}

/** The pinned scenario: identical across designs so the four files
 *  differ only through scheduling behavior. */
RunResult
runGoldenScenario(Design design)
{
    DesignConfig cfg;
    cfg.design = design;
    cfg.cores = 16;
    cfg.groups = 2;

    WorkloadSpec spec;
    spec.service = workload::makeExponential(1 * kUs);
    spec.rateMrps = 8.0;
    spec.requests = 4000;
    spec.seed = 42;
    return runExperiment(cfg, spec);
}

/**
 * Fig. 11b's 10 ns sweep point, scaled down: 16 managers re-run
 * Algorithm 1 faster than an UPDATE crosses the mesh, so nearly
 * every broadcast coalesces into an airborne one. The default-period
 * scenarios almost never coalesce; this one pins the materialized
 * landing-and-relaunch path of HwMessaging::broadcastUpdate, with
 * the messaging counters in the file as well.
 */
RunResult
runShortPeriodScenario()
{
    DesignConfig cfg;
    cfg.design = Design::AcInt;
    cfg.cores = 256;
    cfg.groups = 16;
    cfg.lineRateGbps = 1600.0;
    cfg.params.period = 10;
    cfg.params.bulk = 16;
    cfg.params.concurrency = 8;

    WorkloadSpec spec;
    spec.service =
        std::make_shared<workload::BimodalDist>(0.005, 500, 26 * kUs);
    spec.rateMrps = 350.0;
    spec.requests = 20000;
    spec.requestBytes = 64;
    spec.connections = 256;
    spec.sloFactor = 10.0;
    spec.seed = 31;
    return runExperiment(cfg, spec);
}

std::string
goldenPath(const char *file)
{
    return std::string(ALTOC_GOLDEN_DIR) + "/" + file + ".txt";
}

void
writeGolden(const char *file, const RunResult &res, bool messaging)
{
    const std::string path = goldenPath(file);
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << "cannot write " << path;
    std::fprintf(f, "design %s\n", res.design.c_str());
    std::fprintf(f, "fingerprint %016" PRIx64 "\n", res.fingerprint);
    std::fprintf(f, "events %" PRIu64 "\n", res.fingerprintEvents);
    std::fprintf(f, "completed %" PRIu64 "\n", res.completed);
    std::fprintf(f, "violations %" PRIu64 "\n", res.violations);
    std::fprintf(f, "p99 %" PRIu64 "\n",
                 static_cast<std::uint64_t>(res.latency.p99));
    std::fprintf(f, "achieved_mrps %.17g\n", res.achievedMrps);
    if (messaging) {
        std::fprintf(f, "updates_sent %" PRIu64 "\n",
                     res.messaging.updatesSent);
        std::fprintf(f, "bytes_on_noc %" PRIu64 "\n",
                     res.messaging.bytesOnNoc);
        std::fprintf(f, "migrates_sent %" PRIu64 "\n",
                     res.messaging.migratesSent);
    }
    std::fclose(f);
}

std::map<std::string, std::string>
readGolden(const char *file)
{
    std::map<std::string, std::string> kv;
    const std::string path = goldenPath(file);
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return kv;
    char key[64], value[192];
    while (std::fscanf(f, "%63s %191s", key, value) == 2)
        kv[key] = value;
    std::fclose(f);
    return kv;
}

/** Compare @p res against golden @p file; @p messaging also pins
 *  the UPDATE/MIGRATE counters. */
void
checkGolden(const char *file, const RunResult &res, bool messaging = false)
{
    ASSERT_GT(res.fingerprintEvents, 0u);

    if (g_update) {
        writeGolden(file, res, messaging);
        std::printf("updated %s\n", goldenPath(file).c_str());
        return;
    }

    const auto kv = readGolden(file);
    ASSERT_FALSE(kv.empty())
        << goldenPath(file)
        << " missing or unreadable; run with --update-golden to "
           "(re)generate";

    char fp[32];
    std::snprintf(fp, sizeof fp, "%016" PRIx64, res.fingerprint);
    EXPECT_EQ(kv.at("fingerprint"), fp);
    EXPECT_EQ(kv.at("events"),
              std::to_string(res.fingerprintEvents));
    EXPECT_EQ(kv.at("completed"), std::to_string(res.completed));
    EXPECT_EQ(kv.at("violations"), std::to_string(res.violations));
    EXPECT_EQ(kv.at("p99"),
              std::to_string(static_cast<std::uint64_t>(
                  res.latency.p99)));
    char mrps[64];
    std::snprintf(mrps, sizeof mrps, "%.17g", res.achievedMrps);
    EXPECT_EQ(kv.at("achieved_mrps"), mrps);
    if (messaging) {
        EXPECT_EQ(kv.at("updates_sent"),
                  std::to_string(res.messaging.updatesSent));
        EXPECT_EQ(kv.at("bytes_on_noc"),
                  std::to_string(res.messaging.bytesOnNoc));
        EXPECT_EQ(kv.at("migrates_sent"),
                  std::to_string(res.messaging.migratesSent));
    }
}

void
checkGolden(const GoldenCase &c)
{
    checkGolden(c.file, runGoldenScenario(c.design));
}

} // namespace

TEST(GoldenResults, RssDFcfs) { checkGolden(goldenCases()[0]); }
TEST(GoldenResults, ZygosWorkStealing) { checkGolden(goldenCases()[1]); }
TEST(GoldenResults, AcIntegrated) { checkGolden(goldenCases()[2]); }
TEST(GoldenResults, AcRss) { checkGolden(goldenCases()[3]); }

TEST(GoldenResults, AcIntShortPeriod)
{
    checkGolden("ac_int_period10", runShortPeriodScenario(), true);
}

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--update-golden") == 0)
            g_update = true;
    }
    testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
