/**
 * @file
 * Analytic M/G/k queueing approximations.
 *
 * The Erlang-C model (core/erlang.*) is exact for exponential
 * service; the paper's workloads are general (Fixed, Uniform,
 * Bimodal), so we also provide the standard two-moment
 * approximations used to sanity-check the simulator:
 *
 *  - Allen-Cunneen: E[Wq] ~ (C_a^2 + C_s^2)/2 * E[Wq^{M/M/k}]
 *  - Kingman (G/G/1 heavy traffic), exposed for completeness
 *  - M/D/k via the Allen-Cunneen form with C_s^2 = 0.5 correction
 *
 * The property tests in tests/test_mgk.cc drive both the analytic
 * forms and the discrete-event simulator over the same
 * configurations and require agreement within tolerance -- a strong
 * end-to-end check that the simulation substrate's queueing behavior
 * is sound. The analytics are that oracle only -- no simulated
 * component uses them -- so they live with the tests, outside the
 * library.
 */

#ifndef ALTOC_TESTS_MGK_HH
#define ALTOC_TESTS_MGK_HH

#include "workload/distributions.hh"

namespace altoc::core {

/** First two moments of a service distribution. */
struct ServiceMoments
{
    double mean = 0.0;
    double secondMoment = 0.0;

    /** Squared coefficient of variation. */
    double
    scv() const
    {
        return mean > 0.0 ? secondMoment / (mean * mean) - 1.0 : 0.0;
    }
};

/** Analytic moments for the library's named distributions. */
ServiceMoments momentsOf(const workload::ServiceDist &dist);

/** Empirical moments by sampling (fallback for custom shapes). */
ServiceMoments sampleMoments(const workload::ServiceDist &dist,
                             std::uint64_t draws, std::uint64_t seed);

/**
 * Mean waiting time (ns) in an M/M/k system at utilization @p rho
 * with mean service @p mean_service.
 */
double mmkMeanWait(unsigned k, double rho, double mean_service);

/**
 * Allen-Cunneen approximation of the mean waiting time (ns) for
 * M/G/k: Poisson arrivals (C_a^2 = 1), service SCV from @p moments.
 */
double mgkMeanWait(unsigned k, double rho, const ServiceMoments &moments);

/**
 * Kingman's G/G/1 heavy-traffic bound on mean wait (ns).
 */
double kingmanWait(double rho, double ca2, const ServiceMoments &moments);

/**
 * Approximate p-quantile of waiting time for M/G/k assuming the
 * conditional wait is exponential (exact for M/M/k): returns 0 when
 * the waiting probability C_k(A) is below 1 - p.
 */
double mgkWaitQuantile(unsigned k, double rho,
                       const ServiceMoments &moments, double p);

} // namespace altoc::core

#endif // ALTOC_TESTS_MGK_HH
