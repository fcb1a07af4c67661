/**
 * @file
 * M/G/k approximation implementations.
 */

#include "tests/mgk.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/erlang.hh"

namespace altoc::core {

ServiceMoments
momentsOf(const workload::ServiceDist &dist)
{
    using namespace workload;
    ServiceMoments m;
    m.mean = dist.mean();

    if (auto *fixed = dynamic_cast<const FixedDist *>(&dist)) {
        (void)fixed;
        m.secondMoment = m.mean * m.mean;
        return m;
    }
    if (auto *uni = dynamic_cast<const UniformDist *>(&dist)) {
        // E[X^2] = (a^2 + ab + b^2)/3 for U(a, b); recover bounds
        // from the +/-50% construction is not possible generally, so
        // use the continuous formula with the distribution's own
        // mean assuming the library's symmetric band [m/2, 3m/2].
        (void)uni;
        const double a = m.mean / 2.0;
        const double b = 3.0 * m.mean / 2.0;
        m.secondMoment = (a * a + a * b + b * b) / 3.0;
        return m;
    }
    if (dynamic_cast<const ExponentialDist *>(&dist) != nullptr) {
        m.secondMoment = 2.0 * m.mean * m.mean;
        return m;
    }
    if (auto *bi = dynamic_cast<const BimodalDist *>(&dist)) {
        const double p = bi->longFraction();
        const double s = static_cast<double>(bi->shortService());
        const double l = static_cast<double>(bi->longService());
        m.secondMoment = (1.0 - p) * s * s + p * l * l;
        return m;
    }
    // Unknown shape: sample.
    return sampleMoments(dist, 200000, 0xabcdef);
}

ServiceMoments
sampleMoments(const workload::ServiceDist &dist, std::uint64_t draws,
              std::uint64_t seed)
{
    altoc_assert(draws > 0, "need at least one draw");
    Rng rng(seed);
    double sum = 0.0, sq = 0.0;
    for (std::uint64_t i = 0; i < draws; ++i) {
        const double v =
            static_cast<double>(dist.sample(rng).service);
        sum += v;
        sq += v * v;
    }
    ServiceMoments m;
    m.mean = sum / static_cast<double>(draws);
    m.secondMoment = sq / static_cast<double>(draws);
    return m;
}

double
mmkMeanWait(unsigned k, double rho, double mean_service)
{
    altoc_assert(rho > 0.0 && rho < 1.0, "utilization must be in (0,1)");
    const double a = rho * static_cast<double>(k);
    return erlangC(k, a) * mean_service /
           (static_cast<double>(k) * (1.0 - rho));
}

double
mgkMeanWait(unsigned k, double rho, const ServiceMoments &moments)
{
    // Allen-Cunneen with Poisson arrivals: (1 + C_s^2) / 2 factor.
    const double cs2 = moments.scv();
    return (1.0 + cs2) / 2.0 * mmkMeanWait(k, rho, moments.mean);
}

double
kingmanWait(double rho, double ca2, const ServiceMoments &moments)
{
    altoc_assert(rho > 0.0 && rho < 1.0, "utilization must be in (0,1)");
    return rho / (1.0 - rho) * (ca2 + moments.scv()) / 2.0 *
           moments.mean;
}

double
mgkWaitQuantile(unsigned k, double rho, const ServiceMoments &moments,
                double p)
{
    altoc_assert(p > 0.0 && p < 1.0, "quantile must be in (0,1)");
    const double a = rho * static_cast<double>(k);
    const double pw = erlangC(k, a); // probability of waiting at all
    if (pw <= 1.0 - p)
        return 0.0;
    // Conditional wait modeled exponential with the M/G/k mean.
    const double mean_wait = mgkMeanWait(k, rho, moments) / pw;
    return -mean_wait * std::log((1.0 - p) / pw);
}

} // namespace altoc::core
