/**
 * @file
 * Order-sensitive FNV-1a stream digest.
 *
 * The repo's determinism contract reduces a run to a hash of its
 * completion stream: every completion mixes the tuple (tick, event
 * type, core id, request id). Two runs of the same scenario with the
 * same seed must produce identical digests (tests/test_determinism.cc,
 * tests/test_golden_results.cc), and a parallel sweep must reproduce
 * the serial sweep's digests element-wise (tests/test_parallel_run.cc).
 *
 * This is the shared primitive behind bench::RunFingerprint and
 * RunResult::fingerprint; keep the mixing scheme identical in both or
 * the golden files and the bench output stop agreeing.
 */

#ifndef ALTOC_COMMON_FINGERPRINT_HH
#define ALTOC_COMMON_FINGERPRINT_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace altoc {

/** Byte-wise FNV-1a over a stream of 64-bit words. */
class Fnv1a
{
  public:
    /**
     * Mix one 64-bit word (order sensitive): its eight bytes, low
     * byte first, each as h = (h ^ byte) * prime. A zero byte makes
     * the xor a no-op, so the word's zero high bytes collapse into
     * one multiply by prime^k (mod 2^64) -- bit-identical to eight
     * steps, and most mixed words (ticks, ids, core indices) have
     * several.
     */
    void
    mix(std::uint64_t v)
    {
        const int bytes = static_cast<int>((std::bit_width(v) + 7) / 8);
        for (int i = 0; i < bytes; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= kPrime;
        }
        h_ *= kPrimePow[8 - bytes];
    }

    std::uint64_t digest() const { return h_; }

  private:
    static constexpr std::uint64_t kOffset = 14695981039346656037ull; // lint:allow raw-tick-literal: FNV-1a offset basis, not a duration
    static constexpr std::uint64_t kPrime = 1099511628211ull; // lint:allow raw-tick-literal: FNV-1a prime, not a duration

    /** kPrimePow[k] = kPrime^k mod 2^64. */
    static constexpr std::array<std::uint64_t, 9> kPrimePow = [] {
        std::array<std::uint64_t, 9> p{};
        p[0] = 1;
        for (std::size_t k = 1; k < p.size(); ++k)
            p[k] = p[k - 1] * kPrime;
        return p;
    }();

    std::uint64_t h_ = kOffset;
};

} // namespace altoc

#endif // ALTOC_COMMON_FINGERPRINT_HH
