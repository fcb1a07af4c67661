/**
 * @file
 * A rack's observation fan-in: per-server observation logs merged in
 * the kernel's canonical order, batch by batch.
 *
 * Every server of a federation appends its completions and fault
 * events to a log of its own (thread-confined under sharding). The
 * run's digest, latency tracker and per-request capture must see one
 * stream, the same for serial and sharded runs so they agree bit for
 * bit: the merge of the whole logs by (tick, server) of their heads,
 * which is the canonical (tick, region, seq) dispatch order
 * restricted to observation points wherever records carry their
 * event's tick.
 * ObsFold produces that stream, and lets most of the merge run while
 * a sharded run's windows are still going (system/rack.cc).
 */

#ifndef ALTOC_SYSTEM_OBS_FOLD_HH
#define ALTOC_SYSTEM_OBS_FOLD_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.hh"

namespace altoc::system {

/** One observation (completion or fault event) in a server's log. */
struct ObsRec
{
    Tick now = 0;
    std::uint64_t id = 0;   //!< completion: rpc id; fault: arg a
    Tick latency = 0;       //!< completion only
    std::uint32_t aux = 0;  //!< fault: arg b
    std::uint16_t kind = 0; //!< RequestKind / FaultInjector::Kind
    std::uint16_t core = 0; //!< completion: executing core id
    std::uint8_t type = 0;  //!< 0 = completion, 1 = fault event
    bool migrated = false;
    bool predicted = false;
};

/**
 * Per-server live logs plus one handed-over batch, folded into
 * @p Sink -- called as sink(record, server) -- in the whole-log
 * merge order: at each step the smallest-tick log head, the lowest
 * server on a tie (ascending (tick, server, log position) wherever
 * the logs are sorted).
 *
 * handOver(boundary) moves each live log's records up to the first
 * one at or past @p boundary into the batch -- swapping the live log
 * with the batch's recycled, empty buffer -- once the previous batch
 * is fully folded; until then it does nothing and the live logs keep
 * growing. fold() merges up to a budget of batch records. finish()
 * folds everything left: the batch, then the live logs. A sharded
 * rack calls handOver() at window boundaries, where every worker is
 * parked, and fold() from the calling thread while it waits for the
 * workers; a live log never changes while its server's thread
 * appends to it, and the batch only ever meets the calling thread.
 * Two buffers per server circulate, so steady state allocates
 * nothing.
 *
 * Exactness. The stream must equal the merge of the whole logs --
 * the one a serial run folds in finish() alone -- which takes the
 * smallest-tick head across servers (lowest server on a tie) at each
 * step. A record's tick is not its logging event's: a straggle or
 * freeze record carries the tick its slice starts, one dispatch
 * delay after the event that logs it, so it can lie past a window's
 * end while later records in other logs lie before it. handOver()
 * therefore requires only this: every record logged after the call
 * has tick at or above @p boundary. A window boundary with the next
 * window's start as @p boundary satisfies it (no record is logged
 * before its event's tick). Every batch record is then below the
 * boundary and every head left in the logs at or above it, so the
 * whole-log merge takes all batch records first, in the batch's own
 * merge order, and then continues exactly on what stayed live.
 * Records logged at or past the boundary -- and everything after
 * them in their server's log -- wait for a later hand-over.
 */
template <typename Sink>
class ObsFold
{
  public:
    ObsFold(unsigned servers, Sink sink)
        : live_(servers), batch_(servers), pos_(servers, 0),
          sink_(std::move(sink))
    {
    }

    /** Server @p s's live log (its thread's append target). */
    std::vector<ObsRec> *log(unsigned s) { return &live_[s].recs; }

    /** Hand the live logs' records below @p boundary over as the
     *  next batch, unless the previous batch still has records to
     *  fold. Each log's first record at or past @p boundary and
     *  everything after it stay live. */
    void
    handOver(Tick boundary)
    {
        if (left_ != 0)
            return;
        for (std::size_t s = 0; s < live_.size(); ++s) {
            std::vector<ObsRec> &live = live_[s].recs;
            std::vector<ObsRec> &batch = batch_[s];
            batch.clear();
            std::swap(batch, live);
            const auto cut = std::find_if(
                batch.begin(), batch.end(),
                [boundary](const ObsRec &o) { return o.now >= boundary; });
            if (cut != batch.end()) {
                live.assign(cut, batch.end());
                batch.erase(cut, batch.end());
            }
            pos_[s] = 0;
            left_ += batch.size();
        }
    }

    /** Fold up to @p budget batch records; true while some remain. */
    bool
    fold(std::size_t budget)
    {
        const unsigned n = static_cast<unsigned>(batch_.size());
        for (; left_ != 0 && budget != 0; --left_, --budget) {
            unsigned best = n;
            Tick bw = kTickInf;
            for (unsigned s = 0; s < n; ++s) {
                if (pos_[s] < batch_[s].size() &&
                    batch_[s][pos_[s]].now < bw) {
                    bw = batch_[s][pos_[s]].now;
                    best = s;
                }
            }
            sink_(batch_[best][pos_[best]++], best);
        }
        return left_ != 0;
    }

    /** Fold everything left: the batch, then the live logs. */
    void
    finish()
    {
        constexpr std::size_t kAll = ~std::size_t{0};
        fold(kAll);
        handOver(kTickInf);
        fold(kAll);
    }

  private:
    /** A live log alone on its cache line: servers on different
     *  shards append to theirs concurrently. */
    struct alignas(64) LiveLog
    {
        std::vector<ObsRec> recs;
    };

    std::vector<LiveLog> live_;
    std::vector<std::vector<ObsRec>> batch_;
    /** Next unfolded record of each batch log. */
    std::vector<std::size_t> pos_;
    /** Batch records not yet folded. */
    std::size_t left_ = 0;
    Sink sink_;
};

} // namespace altoc::system

#endif // ALTOC_SYSTEM_OBS_FOLD_HH
