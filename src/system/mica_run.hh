/**
 * @file
 * End-to-end MICA experiments (Sec. IX): a partitioned MICA store and
 * its RPC handlers behind any scheduler design, run by runExperiment
 * like every other experiment.
 */

#ifndef ALTOC_SYSTEM_MICA_RUN_HH
#define ALTOC_SYSTEM_MICA_RUN_HH

#include "mica/handlers.hh"
#include "mica/kvs.hh"
#include "system/experiment.hh"

namespace altoc::system {

/** The MICA-side settings of one run; the design and the workload
 *  (rate, requests, arrivals, SLO, seed, ...) are runExperiment's. */
struct MicaRunConfig
{
    /** SCAN fraction in the query mix (Sec. IX-D: 0.5%). */
    double scanFrac = 0.005;

    /** Zipf key-popularity skew; 0 keeps uniform sampling. Hot keys
     *  concentrate load on their EREW owner groups. */
    double keySkew = 0.0;

    /** EREW (paper default) vs CREW write semantics. */
    mica::ConcurrencyMode mode = mica::ConcurrencyMode::Erew;

    /** Store geometry; partitions are overridden to match the
     *  design's group count (EREW: one partition per manager). */
    mica::MicaStore::Config store;
};

/** Extra MICA-side counters reported next to the run metrics. */
struct MicaRunResult
{
    RunResult run;
    std::uint64_t gets = 0;
    std::uint64_t sets = 0;
    std::uint64_t scans = 0;
    std::uint64_t misses = 0;
    std::uint64_t remoteExecutions = 0;
};

/**
 * Execute one MICA experiment on a single server: populate the store
 * from @p spec's seed and run @p spec through runExperiment with the
 * MICA handler as its RPC handler and the handler's nominal mix as
 * its service distribution (both replace whatever @p spec carries).
 */
MicaRunResult runMicaExperiment(const DesignConfig &design,
                                const WorkloadSpec &spec,
                                const MicaRunConfig &mica = {});

} // namespace altoc::system

#endif // ALTOC_SYSTEM_MICA_RUN_HH
