/**
 * @file
 * Request service-time distributions.
 *
 * The paper evaluates three widely-used shapes (Sec. IV-A, Fig. 7):
 * Fixed, Uniform and Bi-modal, plus the MICA end-to-end mix of
 * Sec. IX-D (99.5% ~50 ns GET/SET, 0.5% ~50 us SCAN). Each sample is
 * tagged with a RequestKind so schedulers with type-aware behaviour
 * (preemption, MICA handlers) can react to it.
 */

#ifndef ALTOC_WORKLOAD_DISTRIBUTIONS_HH
#define ALTOC_WORKLOAD_DISTRIBUTIONS_HH

#include <memory>
#include <string>

#include "common/rng.hh"
#include "common/units.hh"

namespace altoc::workload {

/** Coarse request classes used by schedulers and the MICA handlers. */
enum class RequestKind : std::uint8_t
{
    Generic,
    Short,  //!< the short mode of a bimodal mix
    Long,   //!< the long mode of a bimodal mix
    Get,
    Set,
    Scan,
};

/** One sampled request: its on-core service demand and class. */
struct ServiceSample
{
    Tick service;
    RequestKind kind;
};

/**
 * Abstract service-time distribution.
 */
class ServiceDist
{
  public:
    virtual ~ServiceDist() = default;

    /** Draw one request's service demand. */
    virtual ServiceSample sample(Rng &rng) const = 0;

    /** Analytic mean service time in ns. */
    virtual double mean() const = 0;

    /** Human-readable name for reports. */
    virtual std::string name() const = 0;
};

/** Every request takes exactly the same time. */
class FixedDist : public ServiceDist
{
  public:
    explicit FixedDist(Tick service) : service_(service) {}

    ServiceSample
    sample(Rng &) const override
    {
        return {service_, RequestKind::Generic};
    }

    double mean() const override { return static_cast<double>(service_); }
    std::string name() const override { return "Fixed"; }

  private:
    Tick service_;
};

/** Uniform over [lo, hi] (inclusive). */
class UniformDist : public ServiceDist
{
  public:
    UniformDist(Tick lo, Tick hi);

    ServiceSample sample(Rng &rng) const override;
    double mean() const override;
    std::string name() const override { return "Uniform"; }

  private:
    Tick lo_;
    Tick hi_;
};

/** Exponential with the given mean (memoryless, M/M/k analyses). */
class ExponentialDist : public ServiceDist
{
  public:
    explicit ExponentialDist(Tick mean) : mean_(mean) {}

    ServiceSample sample(Rng &rng) const override;
    double mean() const override { return static_cast<double>(mean_); }
    std::string name() const override { return "Exponential"; }

  private:
    Tick mean_;
};

/**
 * Two-point mixture: with probability @p long_frac the request is
 * Long taking @p long_service, otherwise Short taking
 * @p short_service. The paper's headline workload (Sec. VIII-A) is
 * Bimodal(0.005, 500 ns, 500 us): GET/SET vs SCAN style dispersion.
 */
class BimodalDist : public ServiceDist
{
  public:
    BimodalDist(double long_frac, Tick short_service, Tick long_service);

    ServiceSample sample(Rng &rng) const override;
    double mean() const override;
    std::string name() const override { return "Bimodal"; }

    double longFraction() const { return longFrac_; }
    Tick shortService() const { return shortService_; }
    Tick longService() const { return longService_; }

  private:
    double longFrac_;
    Tick shortService_;
    Tick longService_;
};

/**
 * The Sec. IX-D MICA mix: 99.5% GET/SET (~@p rw_service, split evenly
 * between GETs and SETs) and 0.5% SCAN (~@p scan_service). Service
 * values here are nominal; when the MICA substrate executes the
 * request the realized time also reflects counted memory operations.
 */
class MicaMixDist : public ServiceDist
{
  public:
    MicaMixDist(double scan_frac, Tick rw_service, Tick scan_service);

    ServiceSample sample(Rng &rng) const override;
    double mean() const override;
    std::string name() const override { return "MicaMix"; }

  private:
    double scanFrac_;
    Tick rwService_;
    Tick scanService_;
};

/** Factory helpers matching the paper's named configurations. */
std::unique_ptr<ServiceDist> makeFixed(Tick service);
std::unique_ptr<ServiceDist> makeUniformAround(Tick mean);
std::unique_ptr<ServiceDist> makeExponential(Tick mean);
std::unique_ptr<ServiceDist> makePaperBimodal();

} // namespace altoc::workload

#endif // ALTOC_WORKLOAD_DISTRIBUTIONS_HH
