/**
 * @file
 * The host's monotonic clock, for execution profiling and pacing
 * only.
 *
 * Simulated components take time from sim::Simulator::now(); this
 * clock measures where the *host* spends its wall time (the sharded
 * kernel's per-thread accounting, a run's build/run/fold phases), and
 * hostNapUs lets a waiting kernel thread give its core away. Readings
 * land only in the host-time fields of RunResult and in bench
 * counters -- never in events, fingerprints or stats dumps -- so runs
 * stay bit-identical however long they take.
 */

#ifndef ALTOC_COMMON_HOST_CLOCK_HH
#define ALTOC_COMMON_HOST_CLOCK_HH

#include <chrono>
#include <cstdint>
#include <thread>

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

/** Sleep the calling thread for about @p us microseconds. */
inline void
hostNapUs(unsigned us)
{
    // altoc-analyze:allow(wall-clock) host pacing; never reaches simulated state
    std::this_thread::sleep_for(std::chrono::microseconds(us)); // lint:allow wall-clock: host pacing, never simulated state
}

} // namespace altoc

#endif // ALTOC_COMMON_HOST_CLOCK_HH
