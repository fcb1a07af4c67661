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
 * ObsFold produces that stream, folding as the run goes: a serial
 * run every kSerialChunk records, a sharded run while its parallel
 * phase is still going (system/rack.cc).
 */

#ifndef ALTOC_SYSTEM_OBS_FOLD_HH
#define ALTOC_SYSTEM_OBS_FOLD_HH

#include <algorithm>
#include <atomic>
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
 * Per-server live logs, per-server hand-over mailboxes and the
 * folder's cursors, folded into @p Sink -- called as sink(record,
 * server) -- in the whole-log merge order: at each step the
 * smallest-tick log head, the lowest server on a tie (ascending
 * (tick, server, log position) wherever the logs are sorted).
 *
 * Two sides, two threads at a time. The *holder* side of server s
 * -- whichever thread runs s's region, one at a time -- appends to
 * log(s) and calls handOver(s, done) at its region clock: when s's
 * mailbox is empty it moves the live records up to the first one at
 * or past @p done into it, with @p done as the server's bound. The
 * *folder* side (the thread that calls fold() and finish()) takes a
 * mailbox once it has folded the previous one, and folds records
 * while the smallest head is certainly the whole-log merge's next:
 * every server whose handed-over records are all folded must have a
 * bound above that head (or equal to it, past its server). Each
 * mailbox is a single-slot handshake on an atomic flag, so a
 * server's two buffers circulate between its holder and the folder
 * and steady state allocates nothing.
 *
 * Exactness. handOver(s, done) requires that every record s logs
 * after the call has tick at or above @p done; a region clock
 * satisfies it (every later event of the region is at or past it,
 * and no record is logged before its event's tick). A record's tick
 * is not its logging event's -- a straggle or freeze record carries
 * the tick its slice starts, one dispatch delay on -- so a live log
 * is not sorted; the cut therefore keeps the first record at or past
 * @p done and everything after it live. Then every record of s the
 * folder has not seen is at or past its bound, so a head below every
 * such bound is the smallest head of the whole logs, and the fold
 * takes exactly the whole-log merge's steps. finish() (after the run,
 * the holders gone) appends each mailbox and live log to its cursor
 * and folds the rest with no bound.
 *
 * A serial kernel's one thread is every holder and the folder, and
 * at a dispatch tick every record logged later is stamped at or past
 * it: foldSerial() hands every log over at that tick and folds, so a
 * serial run keeps about a chunk of records live instead of its
 * whole log.
 */
template <typename Sink>
class ObsFold
{
  public:
    ObsFold(unsigned servers, Sink sink)
        : live_(servers), box_(servers), cur_(servers), pos_(servers, 0),
          bound_(servers, 0), sink_(std::move(sink))
    {
    }

    /** Live records at which foldSerial() folds. */
    static constexpr std::size_t kSerialChunk = 2048;

    /** Server @p s's live log (its holder's append target). */
    std::vector<ObsRec> *log(unsigned s) { return &live_[s].recs; }

    /** Holder side: hand server @p s's live records below @p done
     *  over, unless its mailbox is still full. The log's first record
     *  at or past @p done and everything after it stay live. */
    void
    handOver(unsigned s, Tick done)
    {
        Mailbox &box = box_[s];
        if (box.full.load(std::memory_order_acquire))
            return;
        std::vector<ObsRec> &live = live_[s].recs;
        box.recs.clear();
        std::swap(box.recs, live);
        const auto cut = std::find_if(
            box.recs.begin(), box.recs.end(),
            [done](const ObsRec &o) { return o.now >= done; });
        if (cut != box.recs.end()) {
            live.assign(cut, box.recs.end());
            box.recs.erase(cut, box.recs.end());
        }
        box.bound = done;
        box.full.store(true, std::memory_order_release);
    }

    /** Folder side: fold up to @p budget records that are certainly
     *  next; true when the budget ran out (more may be foldable). */
    bool
    fold(std::size_t budget)
    {
        const unsigned n = static_cast<unsigned>(cur_.size());
        for (unsigned s = 0; s < n; ++s)
            refill(s);
        for (; budget != 0; --budget) {
            unsigned best = n;
            Tick bw = kTickInf;
            for (unsigned s = 0; s < n; ++s) {
                if (pos_[s] < cur_[s].size() && cur_[s][pos_[s]].now < bw) {
                    bw = cur_[s][pos_[s]].now;
                    best = s;
                }
            }
            if (best == n)
                return false;
            for (unsigned s = 0; s < n; ++s) {
                if (pos_[s] == cur_[s].size() &&
                    (bw > bound_[s] || (bw == bound_[s] && s < best)))
                    return false;
            }
            sink_(cur_[best][pos_[best]++], best);
            if (pos_[best] == cur_[best].size())
                refill(best);
        }
        return true;
    }

    /** Serial kernel only, at dispatch tick @p now: once server @p s
     *  has kSerialChunk live records, hand every server's records
     *  below @p now over and fold them. A record opened at @p now
     *  and everything after the first record at or past it stay
     *  live. */
    void
    foldSerial(unsigned s, Tick now)
    {
        if (live_[s].recs.size() < kSerialChunk)
            return;
        for (unsigned r = 0; r < live_.size(); ++r)
            handOver(r, now);
        fold(~std::size_t{0});
    }

    /** After the run: fold everything left, in the whole-log merge
     *  order. */
    void
    finish()
    {
        for (unsigned s = 0; s < cur_.size(); ++s) {
            std::vector<ObsRec> &cur = cur_[s];
            cur.erase(cur.begin(),
                      cur.begin() + static_cast<std::ptrdiff_t>(pos_[s]));
            pos_[s] = 0;
            Mailbox &box = box_[s];
            if (box.full.load(std::memory_order_acquire)) {
                cur.insert(cur.end(), box.recs.begin(), box.recs.end());
                box.recs.clear();
                box.full.store(false, std::memory_order_relaxed);
            }
            std::vector<ObsRec> &live = live_[s].recs;
            if (cur.empty()) {
                std::swap(cur, live);
            } else {
                cur.insert(cur.end(), live.begin(), live.end());
                live.clear();
            }
            bound_[s] = kTickInf;
        }
        fold(~std::size_t{0});
    }

  private:
    /** A live log alone on its cache line: servers on different
     *  threads append to theirs concurrently. */
    struct alignas(64) LiveLog
    {
        std::vector<ObsRec> recs;
    };

    /** One server's hand-over slot: the holder fills it while full is
     *  false, the folder empties it while full is true. */
    struct alignas(64) Mailbox
    {
        std::atomic<bool> full{false};
        Tick bound = 0;
        std::vector<ObsRec> recs;
    };

    /** Take server @p s's mailbox once its cursor is exhausted. */
    void
    refill(unsigned s)
    {
        Mailbox &box = box_[s];
        if (pos_[s] != cur_[s].size() ||
            !box.full.load(std::memory_order_acquire))
            return;
        std::swap(cur_[s], box.recs);
        pos_[s] = 0;
        bound_[s] = box.bound;
        box.full.store(false, std::memory_order_release);
    }

    std::vector<LiveLog> live_;
    std::vector<Mailbox> box_;
    /** Folder-owned: each server's records taken from its mailbox,
     *  the next unfolded one at pos_, and the bound they came with
     *  (every record of the server not in cur_ is at or past it). */
    std::vector<std::vector<ObsRec>> cur_;
    std::vector<std::size_t> pos_;
    std::vector<Tick> bound_;
    Sink sink_;
};

} // namespace altoc::system

#endif // ALTOC_SYSTEM_OBS_FOLD_HH
