/**
 * @file
 * Histogram and SLO tracker tests, including exact-vs-approximate
 * percentile agreement.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.hh"
#include "stats/histogram.hh"
#include "stats/slo.hh"

using namespace altoc;
using namespace altoc::stats;

TEST(SampleHistogram, EmptyIsZero)
{
    SampleHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.99), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.max(), 0u);
}

TEST(SampleHistogram, SingleSample)
{
    SampleHistogram h;
    h.record(42);
    EXPECT_EQ(h.percentile(0.0), 42u);
    EXPECT_EQ(h.percentile(0.5), 42u);
    EXPECT_EQ(h.percentile(1.0), 42u);
    EXPECT_EQ(h.max(), 42u);
    EXPECT_EQ(h.mean(), 42.0);
}

TEST(SampleHistogram, PercentilesOfKnownSequence)
{
    SampleHistogram h;
    for (Tick v = 1; v <= 100; ++v)
        h.record(v);
    EXPECT_EQ(h.percentile(0.50), 50u);
    EXPECT_EQ(h.percentile(0.99), 99u);
    EXPECT_EQ(h.percentile(1.00), 100u);
    EXPECT_EQ(h.percentile(0.01), 1u);
}

TEST(SampleHistogram, CountAboveExact)
{
    SampleHistogram h;
    for (Tick v = 1; v <= 10; ++v)
        h.record(v);
    EXPECT_EQ(h.countAbove(7), 3u);
    EXPECT_EQ(h.countAbove(10), 0u);
    EXPECT_EQ(h.countAbove(0), 10u);
    EXPECT_DOUBLE_EQ(h.fractionAbove(5), 0.5);
}

TEST(SampleHistogram, RecordAfterQueryStillCorrect)
{
    SampleHistogram h;
    h.record(10);
    EXPECT_EQ(h.percentile(0.5), 10u);
    h.record(5);
    EXPECT_EQ(h.percentile(0.01), 5u);
    EXPECT_EQ(h.max(), 10u);
}

namespace {

/** Nearest-rank value of @p q over the ascending @p sorted. */
Tick
referenceRank(const std::vector<Tick> &sorted, double q)
{
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::max<std::size_t>(rank, 1);
    return sorted[std::min(rank, sorted.size()) - 1];
}

} // namespace

/** summary() buckets and selects its ranks instead of sorting; every
 *  field must equal a sorted reference, at sizes around the p99.9
 *  rank step, with heavy duplicates inside and above the buckets
 *  that hold one value each, all-equal samples, a bimodal tail and
 *  values across the 64-bit range. summary() keeps the
 *  recording order, and the lazy-sort queries still hold after it. */
TEST(SampleHistogram, SummarySelectionMatchesSortedReference)
{
    Rng rng(2024);
    // Sample shapes: a narrow spread puts most samples on a few
    // values, the wide one adds a sparse tail like latencies; then
    // all-equal samples, a cluster on 1500 ns (two values per bucket
    // there), a bimodal 500 ns / 50 us service mix, and values across
    // the whole 64-bit range (every bucket range).
    enum Shape { Narrow, Wide, AllEqual, Cluster, Bimodal, FullRange };
    const auto draw = [&rng](Shape shape) -> Tick {
        switch (shape) {
        case Narrow:
        case Wide:
            return 100 + rng.below(shape == Narrow ? 3 : 1000000) +
                   (rng.below(100) == 0 ? 50000 : 0);
        case AllEqual:
            return 777777;
        case Cluster:
            return 1500 + (rng.below(3) == 0 ? rng.below(300) : 0);
        case Bimodal:
            return (rng.below(200) == 0 ? 50 * kUs : 500) + rng.below(40);
        case FullRange:
            return rng.next() >> rng.below(64);
        }
        return 0;
    };
    for (const std::size_t n : {0u, 1u, 2u, 999u, 1000u, 1001u, 20000u}) {
        for (const Shape shape :
             {Narrow, Wide, AllEqual, Cluster, Bimodal, FullRange}) {
            SampleHistogram h;
            std::vector<Tick> ref;
            double sum = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                const Tick v = draw(shape);
                h.record(v);
                ref.push_back(v);
                sum += static_cast<double>(v);
            }
            const std::vector<Tick> recorded = ref;
            std::sort(ref.begin(), ref.end());
            const Summary s = h.summary();
            EXPECT_EQ(h.samples(), recorded);
            char what[64];
            std::snprintf(what, sizeof what, "n=%zu shape=%d", n,
                          static_cast<int>(shape));
            EXPECT_EQ(s.count, n) << what;
            if (n == 0) {
                EXPECT_EQ(s.p50, 0u);
                EXPECT_EQ(s.p999, 0u);
                EXPECT_EQ(s.max, 0u);
                continue;
            }
            EXPECT_DOUBLE_EQ(s.mean, sum / static_cast<double>(n)) << what;
            EXPECT_EQ(s.p50, referenceRank(ref, 0.50)) << what;
            EXPECT_EQ(s.p90, referenceRank(ref, 0.90)) << what;
            EXPECT_EQ(s.p99, referenceRank(ref, 0.99)) << what;
            EXPECT_EQ(s.p999, referenceRank(ref, 0.999)) << what;
            EXPECT_EQ(s.max, ref.back()) << what;

            // Queries after summary() still see every sample.
            EXPECT_EQ(h.percentile(0.25), referenceRank(ref, 0.25))
                << what;
            const Tick cut = ref[ref.size() / 2];
            const auto above = static_cast<std::uint64_t>(
                ref.end() - std::upper_bound(ref.begin(), ref.end(), cut));
            EXPECT_EQ(h.countAbove(cut), above) << what;
            // And a summary over the now-sorted store agrees.
            const Summary again = h.summary();
            EXPECT_EQ(again.p99, s.p99) << what;
            EXPECT_EQ(again.max, s.max) << what;
        }
    }
}

TEST(SampleHistogram, ResetClears)
{
    SampleHistogram h;
    h.record(3);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(LogHistogram, SmallValuesExact)
{
    LogHistogram h;
    for (Tick v = 0; v < 128; ++v)
        h.record(v);
    // Values below 2^subBits land in exact unit buckets.
    EXPECT_EQ(h.percentile(1.0), 127u);
    EXPECT_EQ(h.count(), 128u);
}

TEST(LogHistogram, BoundedRelativeError)
{
    Rng rng(5);
    LogHistogram approx(7);
    SampleHistogram exact;
    for (int i = 0; i < 200000; ++i) {
        const Tick v = 1 + rng.below(10'000'000);
        approx.record(v);
        exact.record(v);
    }
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const double e = static_cast<double>(exact.percentile(q));
        const double a = static_cast<double>(approx.percentile(q));
        EXPECT_NEAR(a, e, e * 0.02) << "q=" << q;
    }
    EXPECT_NEAR(approx.mean(), exact.mean(), exact.mean() * 1e-9);
    EXPECT_EQ(approx.max(), exact.max());
}

TEST(LogHistogram, HugeValuesDontOverflow)
{
    LogHistogram h;
    h.record(~Tick{0} >> 1);
    h.record(1);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_GE(h.percentile(1.0), (~Tick{0} >> 1) / 2);
}

TEST(SloTracker, CountsViolations)
{
    SloTracker t(100);
    t.record(50);
    t.record(100); // boundary: not a violation
    t.record(101);
    t.record(500);
    EXPECT_EQ(t.completed(), 4u);
    EXPECT_EQ(t.violations(), 2u);
    EXPECT_DOUBLE_EQ(t.violationRatio(), 0.5);
}

TEST(SloTracker, MeetsSloUsesP99)
{
    SloTracker t(100);
    // 1% of samples above target -> p99 exactly at the boundary.
    for (int i = 0; i < 99; ++i)
        t.record(50);
    t.record(1000);
    EXPECT_TRUE(t.meetsSlo());
    t.record(1000);
    t.record(1000);
    EXPECT_FALSE(t.meetsSlo());
}

TEST(SloTracker, TargetHelper)
{
    EXPECT_EQ(sloTarget(850, 10.0), 8500u);
    EXPECT_EQ(sloTarget(1000, 5.0), 5000u);
}
