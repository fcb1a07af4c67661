/**
 * @file
 * Histogram implementations.
 */

#include "stats/histogram.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/logging.hh"

namespace altoc::stats {

// ---------------------------------------------------------------------
// SampleHistogram
// ---------------------------------------------------------------------

namespace {

/** 1-based nearest rank of quantile @p q over @p n > 0 samples: the
 *  smallest rank such that at least q * n samples are at or below
 *  it. */
std::size_t
nearestRank(double q, std::size_t n)
{
    const auto rank = static_cast<std::size_t>(std::ceil(q * n));
    return std::clamp<std::size_t>(rank, 1, n);
}

/** Bits below a sample's leading one that summary() buckets by. */
constexpr unsigned kSummaryBits = 10;
constexpr std::size_t kSummaryBuckets = std::size_t{64 - kSummaryBits + 1}
                                        << kSummaryBits;
/** Buckets below this hold exactly one value: the bucket index. */
constexpr std::size_t kExactBuckets = std::size_t{1} << kSummaryBits;

/** Order-preserving bucket of @p v: exact below 2^kSummaryBits, else
 *  its power-of-two range and the next kSummaryBits bits. */
inline std::size_t
summaryBucket(Tick v)
{
    if (v < (Tick{1} << kSummaryBits))
        return static_cast<std::size_t>(v);
    const unsigned range = 63 - std::countl_zero(v) - kSummaryBits + 1;
    return (static_cast<std::size_t>(range) << kSummaryBits) +
           static_cast<std::size_t>((v >> range) &
                                    ((Tick{1} << kSummaryBits) - 1));
}

} // namespace

void
SampleHistogram::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
SampleHistogram::mean() const
{
    return samples_.empty() ? 0.0 : sum_ / samples_.size();
}

Tick
SampleHistogram::percentile(double q) const
{
    altoc_assert(q >= 0.0 && q <= 1.0, "quantile out of range: %f", q);
    if (samples_.empty())
        return 0;
    ensureSorted();
    return samples_[nearestRank(q, samples_.size()) - 1];
}

Tick
SampleHistogram::max() const
{
    if (samples_.empty())
        return 0;
    ensureSorted();
    return samples_.back();
}

std::uint64_t
SampleHistogram::countAbove(Tick target) const
{
    ensureSorted();
    auto it = std::upper_bound(samples_.begin(), samples_.end(), target);
    return static_cast<std::uint64_t>(samples_.end() - it);
}

double
SampleHistogram::fractionAbove(Tick target) const
{
    return samples_.empty()
               ? 0.0
               : static_cast<double>(countAbove(target)) / samples_.size();
}

Summary
SampleHistogram::summary() const
{
    Summary s;
    s.count = count();
    s.mean = mean();
    if (samples_.empty())
        return s;
    const std::size_t n = samples_.size();
    const std::pair<double, Tick *> ranks[] = {
        {0.50, &s.p50}, {0.90, &s.p90}, {0.99, &s.p99}, {0.999, &s.p999}};
    if (sorted_) {
        for (const auto &[q, out] : ranks)
            *out = samples_[nearestRank(q, n) - 1];
        s.max = samples_.back();
        return s;
    }
    // Pass 1: count the samples per bucket and take the max.
    std::vector<std::uint32_t> counts(kSummaryBuckets, 0);
    Tick top = 0;
    for (const Tick v : samples_) {
        ++counts[summaryBucket(v)];
        top = std::max(top, v);
    }
    // The bucket holding each nearest rank, and the rank's position
    // among that bucket's samples. A bucket below kExactBuckets holds
    // a single value: the bucket's index.
    std::size_t bucket[4];
    std::size_t offset[4];
    std::size_t below = 0;
    std::size_t b = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        const std::size_t rank = nearestRank(ranks[i].first, n);
        while (below + counts[b] < rank)
            below += counts[b++];
        bucket[i] = b;
        offset[i] = rank - below - 1;
    }
    // Pass 2, only for ranks in wider buckets: gather those buckets'
    // samples, which -- the buckets being order-preserving -- sort as
    // one run (at[i] is rank i's position in it), then place each
    // rank in ascending order, each nth_element over the remainder the
    // previous one left.
    std::size_t at[4];
    std::size_t gathered = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        if (bucket[i] < kExactBuckets)
            continue;
        if (i == 0 || bucket[i] != bucket[i - 1])
            gathered += counts[bucket[i]];
        at[i] = gathered - counts[bucket[i]] + offset[i];
    }
    std::vector<Tick> run;
    if (gathered > 0) {
        run.reserve(gathered);
        std::fill(counts.begin(), counts.end(), 0);
        for (std::size_t i = 0; i < 4; ++i) {
            if (bucket[i] >= kExactBuckets)
                counts[bucket[i]] = 1;
        }
        for (const Tick v : samples_) {
            if (counts[summaryBucket(v)] != 0)
                run.push_back(v);
        }
    }
    auto rest = run.begin();
    for (std::size_t i = 0; i < 4; ++i) {
        Tick &out = *ranks[i].second;
        if (bucket[i] < kExactBuckets) {
            out = static_cast<Tick>(bucket[i]);
            continue;
        }
        const auto nth = run.begin() + static_cast<std::ptrdiff_t>(at[i]);
        // An equal position was already placed by the previous round.
        if (nth >= rest) {
            std::nth_element(rest, nth, run.end());
            rest = nth + 1;
        }
        out = *nth;
    }
    s.max = top;
    return s;
}

void
SampleHistogram::reset()
{
    samples_.clear();
    sorted_ = false;
    sum_ = 0.0;
}

// ---------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------

LogHistogram::LogHistogram(unsigned sub_bits)
    : subBits_(sub_bits)
{
    altoc_assert(sub_bits >= 1 && sub_bits <= 16,
                 "sub_bits out of range: %u", sub_bits);
    // 64 power-of-two ranges, each with 2^subBits sub-buckets, covers
    // the whole Tick domain.
    buckets_.assign((64 - subBits_ + 1) << subBits_, 0);
}

std::size_t
LogHistogram::bucketIndex(Tick value) const
{
    if (value < (Tick{1} << subBits_))
        return static_cast<std::size_t>(value);
    const unsigned msb = 63 - std::countl_zero(value);
    const unsigned range = msb - subBits_ + 1;
    const unsigned shift = range;
    const std::size_t sub =
        static_cast<std::size_t>((value >> shift) & ((1u << subBits_) - 1));
    return (static_cast<std::size_t>(range) << subBits_) + sub;
}

Tick
LogHistogram::bucketUpperBound(std::size_t index) const
{
    const std::size_t range = index >> subBits_;
    const std::size_t sub = index & ((std::size_t{1} << subBits_) - 1);
    if (range == 0)
        return static_cast<Tick>(sub);
    // For range r >= 1 the sub index retains the leading bit of the
    // value, so values mapping here lie in [sub << r, ((sub+1) << r) - 1].
    const unsigned shift = static_cast<unsigned>(range);
    return ((static_cast<Tick>(sub) + 1) << shift) - 1;
}

void
LogHistogram::record(Tick value)
{
    const std::size_t idx = bucketIndex(value);
    altoc_assert(idx < buckets_.size(), "bucket index overflow");
    ++buckets_[idx];
    ++count_;
    sum_ += static_cast<double>(value);
    maxSeen_ = std::max(maxSeen_, value);
}

Tick
LogHistogram::percentile(double q) const
{
    altoc_assert(q >= 0.0 && q <= 1.0, "quantile out of range: %f", q);
    if (count_ == 0)
        return 0;
    std::uint64_t rank =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
    if (rank == 0)
        rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= rank)
            return std::min(bucketUpperBound(i), maxSeen_);
    }
    return maxSeen_;
}

std::uint64_t
LogHistogram::countAbove(Tick target) const
{
    if (count_ == 0)
        return 0;
    const std::size_t cut = bucketIndex(target);
    std::uint64_t above = 0;
    for (std::size_t i = cut + 1; i < buckets_.size(); ++i)
        above += buckets_[i];
    return above;
}

Summary
LogHistogram::summary() const
{
    Summary s;
    s.count = count_;
    s.mean = mean();
    s.p50 = percentile(0.50);
    s.p90 = percentile(0.90);
    s.p99 = percentile(0.99);
    s.p999 = percentile(0.999);
    s.max = maxSeen_;
    return s;
}

void
LogHistogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
    maxSeen_ = 0;
}

} // namespace altoc::stats
