/**
 * @file
 * The host's monotonic clock, for execution profiling only.
 *
 * Simulated components take time from sim::Simulator::now(); this
 * clock measures where the *host* spends its wall time (the sharded
 * kernel's per-shard accounting, a run's build/run/fold phases).
 * Its readings land only in the host-time fields of RunResult and in
 * bench counters -- never in events, fingerprints or stats dumps --
 * so runs stay bit-identical however long they take.
 */

#ifndef ALTOC_COMMON_HOST_CLOCK_HH
#define ALTOC_COMMON_HOST_CLOCK_HH

#include <chrono>
#include <cstdint>

namespace altoc {

/** Nanoseconds on the host's monotonic clock. */
inline std::uint64_t
hostNowNs()
{
    // altoc-analyze:allow(wall-clock) host profiling; never reaches simulated state
    const auto t = std::chrono::steady_clock::now(); // lint:allow wall-clock: host profiling, never simulated state
    // altoc-analyze:allow(wall-clock) host profiling; never reaches simulated state
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>( // lint:allow wall-clock: host profiling, never simulated state
        t.time_since_epoch());
    return static_cast<std::uint64_t>(ns.count());
}

} // namespace altoc

#endif // ALTOC_COMMON_HOST_CLOCK_HH
