/**
 * @file
 * RPC handlers binding MICA to the scheduling system (Sec. IX-A).
 *
 * MICA is "ported to our RPC handlers": the load generator tags each
 * request with a kind (GET/SET/SCAN) and a key id; when a worker core
 * first executes the request, the handler runs the real KVS operation
 * against the store and replaces the nominal service demand with the
 * modeled operation time -- plus a remote-access penalty when the
 * executing core's group is not the key's EREW owner (the
 * "application-level concurrency overhead" migrated RPCs pay,
 * Sec. IX / Fig. 13a discussion).
 */

#ifndef ALTOC_MICA_HANDLERS_HH
#define ALTOC_MICA_HANDLERS_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "common/rng.hh"
#include "common/units.hh"
#include "cpu/core.hh"
#include "mica/kvs.hh"
#include "net/rpc.hh"
#include "workload/distributions.hh"
#include "workload/zipf.hh"

namespace altoc::mica {

/** MICA concurrency modes (Lim et al., Sec. IX-B of the paper). */
enum class ConcurrencyMode : std::uint8_t
{
    /** Exclusive read, exclusive write: every operation on a key
     *  executed outside its owner group pays the remote access
     *  (the paper's configuration: "EREW has the highest
     *  performance in most cases"). */
    Erew,
    /** Concurrent read, exclusive write: reads are replica-served
     *  anywhere for free; only writes pay the owner access. */
    Crew,
};

/**
 * Executes MICA operations for RPCs and accounts their timing.
 */
class MicaHandler final : public net::RpcHandler
{
  public:
    /** Maps an executing core id to its scheduler group. */
    using CoreGroupFn = std::function<unsigned(unsigned core_id)>;

    /** Maps a group to the core id homing its partition (the
     *  manager core), for the cross-socket distance check. */
    using HomeCoreFn = std::function<unsigned(unsigned group)>;

    /**
     * @param store        the partitioned store
     * @param core_group   core -> group mapping from the scheduler
     * @param home_core    group -> partition-owning core
     * @param scan_frac    fraction of SCAN requests in generated load
     */
    MicaHandler(MicaStore &store, CoreGroupFn core_group,
                HomeCoreFn home_core, double scan_frac = 0.005);

    /**
     * Use Zipf(@p s) key popularity instead of uniform sampling
     * (YCSB-style skew; hot keys concentrate load on their EREW
     * owner groups).
     */
    void setKeySkew(double s);

    /** Switch between EREW (default) and CREW write semantics. */
    void setMode(ConcurrencyMode mode) { mode_ = mode; }
    ConcurrencyMode mode() const { return mode_; }

    /**
     * Runs the actual operation and rewrites the request's service
     * demand.
     */
    void resolve(net::Rpc &r, cpu::Core &core) override;

    /**
     * Fill the wire-form request @p w with a sampled MICA request:
     * kind, key id, home group and wire sizes. Nominal service
     * demand is set so schedulers relying on it pre-resolution stay
     * sane (injection copies it into the remaining demand).
     */
    void sampleRequest(net::WireRpc &w, Rng &rng) override;

    /**
     * The nominal mix the load generator samples before the handler
     * fills a request (its draws are part of the arrival stream) and
     * the AC model sizes its thresholds on: meanServiceNs() is its
     * mean, truncated.
     */
    std::shared_ptr<workload::ServiceDist> nominalMix() const;

    /** Mean nominal service time of the generated mix. */
    Tick meanServiceNs() const;

    std::uint64_t gets() const { return gets_; }
    std::uint64_t sets() const { return sets_; }
    std::uint64_t scans() const { return scans_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t remoteExecutions() const { return remote_; }

  private:
    MicaStore &store_;
    CoreGroupFn coreGroup_;
    HomeCoreFn homeCore_;
    double scanFrac_;
    ConcurrencyMode mode_ = ConcurrencyMode::Erew;
    std::unique_ptr<workload::ZipfGenerator> zipf_;
    std::uint64_t gets_ = 0;
    std::uint64_t sets_ = 0;
    std::uint64_t scans_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t remote_ = 0;
};

} // namespace altoc::mica

#endif // ALTOC_MICA_HANDLERS_HH
