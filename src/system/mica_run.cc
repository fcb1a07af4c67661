/**
 * @file
 * MICA experiment runner implementation.
 */

#include "system/mica_run.hh"

#include "common/logging.hh"

namespace altoc::system {

MicaRunResult
runMicaExperiment(const DesignConfig &design, const WorkloadSpec &spec,
                  const MicaRunConfig &mica)
{
    // EREW: one key partition per manager group. Non-AC designs use
    // the same partitioning so remote-access accounting is
    // comparable across schedulers.
    const unsigned groups = std::max(1u, design.groups);
    altoc_assert(design.cores % groups == 0,
                 "cores must divide into groups");
    const unsigned per_group = design.cores / groups;

    mica::MicaStore::Config store_cfg = mica.store;
    store_cfg.partitions = groups;
    mica::MicaStore store(store_cfg);
    Rng pop_rng(spec.seed ^ 0xa11c0ffeeull);
    store.populate(pop_rng);

    mica::MicaHandler handler(
        store, [per_group](unsigned core) { return core / per_group; },
        [per_group](unsigned group) { return group * per_group; },
        mica.scanFrac);
    if (mica.keySkew > 0.0)
        handler.setKeySkew(mica.keySkew);
    handler.setMode(mica.mode);

    WorkloadSpec run = spec;
    run.service = handler.nominalMix();
    run.handler = &handler;

    MicaRunResult out;
    out.run = runExperiment(design, run);
    out.gets = handler.gets();
    out.sets = handler.sets();
    out.scans = handler.scans();
    out.misses = handler.misses();
    out.remoteExecutions = handler.remoteExecutions();
    return out;
}

} // namespace altoc::system
