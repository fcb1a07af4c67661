/**
 * @file
 * MICA handler implementation.
 */

#include "mica/handlers.hh"

#include "common/logging.hh"
#include "cpu/topology.hh"

namespace altoc::mica {

namespace {

/** Nominal (pre-execution) service estimate for GET/SET. */
constexpr Tick kNominalRw = 50;

/** Nominal SCAN estimate derived from the store geometry: each
 *  scanned entry touches the log header plus the value's cache
 *  lines. */
Tick
nominalScanNs(const MicaStore::Config &cfg)
{
    const Tick per_entry =
        cost::kLogTouchNs +
        static_cast<Tick>((cfg.valueLen + 63) / 64) * cost::kPerLineNs;
    return cost::kHashNs + static_cast<Tick>(cfg.scanEntries) * per_entry;
}

} // namespace

MicaHandler::MicaHandler(MicaStore &store, CoreGroupFn core_group,
                         HomeCoreFn home_core, double scan_frac)
    : store_(store), coreGroup_(std::move(core_group)),
      homeCore_(std::move(home_core)), scanFrac_(scan_frac)
{
    altoc_assert(scan_frac >= 0.0 && scan_frac < 1.0,
                 "scan fraction out of range");
}

void
MicaHandler::setKeySkew(double s)
{
    const std::uint64_t total_keys =
        store_.config().keysPerPartition *
        static_cast<std::uint64_t>(store_.partitions());
    zipf_ = std::make_unique<workload::ZipfGenerator>(total_keys, s);
}

void
MicaHandler::sampleRequest(net::WireRpc &w, Rng &rng)
{
    const std::uint64_t total_keys =
        store_.config().keysPerPartition *
        static_cast<std::uint64_t>(store_.partitions());
    w.key = zipf_ ? zipf_->sample(rng) : rng.below(total_keys);
    w.homeGroup =
        static_cast<std::uint16_t>(store_.partitionOf(w.key));

    if (rng.chance(scanFrac_)) {
        w.kind = net::RequestKind::Scan;
        w.service = nominalScanNs(store_.config());
        w.sizeBytes = 64;
    } else if (rng.chance(0.5)) {
        w.kind = net::RequestKind::Get;
        w.service = kNominalRw;
        w.sizeBytes = 64;
    } else {
        w.kind = net::RequestKind::Set;
        w.service = kNominalRw;
        // SET carries the value on the wire.
        w.sizeBytes = 64 + store_.config().valueLen;
    }
}

std::shared_ptr<workload::ServiceDist>
MicaHandler::nominalMix() const
{
    return std::make_shared<workload::MicaMixDist>(
        scanFrac_, kNominalRw, nominalScanNs(store_.config()));
}

Tick
MicaHandler::meanServiceNs() const
{
    return static_cast<Tick>(
        scanFrac_ * static_cast<double>(nominalScanNs(store_.config())) +
        (1.0 - scanFrac_) * kNominalRw);
}

void
MicaHandler::resolve(net::Rpc &r, cpu::Core &core)
{
    OpResult res;
    switch (r.kind) {
      case net::RequestKind::Get:
        ++gets_;
        res = store_.executeGet(r.key);
        break;
      case net::RequestKind::Set:
        ++sets_;
        res = store_.executeSet(r.key, {});
        break;
      case net::RequestKind::Scan:
        ++scans_;
        res = store_.executeScan(r.key);
        break;
      default:
        // Non-MICA request: keep the sampled demand.
        return;
    }
    if (!res.hit)
        ++misses_;

    Tick service = res.serviceNs;

    // Remote-access penalty: a request served outside its key's
    // owner group performs an extra remote cache access to the
    // owner-resident state (QPI-priced when it crosses sockets).
    // Under CREW, reads are served from local replicas for free and
    // only writes touch the owner.
    const bool owner_access =
        mode_ == ConcurrencyMode::Erew ||
        r.kind == net::RequestKind::Set;
    if (coreGroup_ && owner_access) {
        const unsigned group = coreGroup_(core.id());
        if (group != r.homeGroup) {
            ++remote_;
            const unsigned home =
                homeCore_ ? homeCore_(r.homeGroup) : core.id();
            service += cpu::remoteAccessLatency(core.id(), home);
        }
    }

    r.service = service;
    r.remaining = service;
}

} // namespace altoc::mica
