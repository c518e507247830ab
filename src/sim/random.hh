/**
 * @file
 * Deterministic pseudo-random number generation and the distributions the
 * synthetic trace generator needs (uniform, Bernoulli, geometric,
 * exponential, Zipf).
 *
 * The simulator must be bit-reproducible across runs given a seed, so we
 * carry our own xoshiro256** generator rather than relying on unspecified
 * standard-library distribution implementations.
 */

#ifndef VMP_SIM_RANDOM_HH
#define VMP_SIM_RANDOM_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace vmp
{

/**
 * xoshiro256** PRNG seeded via SplitMix64. Fast, high quality, and fully
 * specified here so results do not depend on the host library. The
 * draw core is inline: the trace generator makes several draws per
 * reference.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Re-seed, resetting the stream. */
    void seed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) using rejection-free scaling. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        if (bound == 0) [[unlikely]]
            belowZero();
        // 128-bit multiply-shift scaling: negligible bias for our bounds.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1): the top 53 bits of one raw draw. */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /**
     * True with probability @p p. p <= 0 and p >= 1 decide without a
     * draw. For a fixed p, ChanceDist gives the same answers from the
     * same draws more cheaply.
     */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Geometric number of trials until first success (support {1,2,...})
     * with success probability @p p. Mean 1/p. Used for sequential-run
     * lengths in the trace generator; GeometricDist is the same draw
     * with the logarithm of 1 - p computed once.
     */
    std::uint64_t geometric(double p);

    /** Exponential variate with mean @p mean. */
    double exponential(double mean);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    [[noreturn, gnu::cold]] static void belowZero();

    std::uint64_t s_[4];
};

/**
 * A Bernoulli draw with a fixed probability p: sample() returns what
 * Rng::chance(p) would and consumes the same draws, but decides with
 * one integer compare of the raw draw.
 *
 * chance draws u = (raw >> 11) * 2^-53 and tests u < p. Scaling by a
 * power of two is exact, so that is (raw >> 11) < p * 2^53, and for
 * the integer raw >> 11 this holds exactly when raw >> 11 < T with
 * T = ceil(p * 2^53), that is when raw < T << 11. For p in (0, 1), T
 * is at most 2^53 - 1 (p = nextafter(1, 0)), so the shift cannot
 * overflow; p <= 0 and p >= 1 take no draw, as in chance.
 */
class ChanceDist
{
  public:
    explicit ChanceDist(double p);

    bool
    sample(Rng &rng) const
    {
        if (!draws_)
            return always_;
        return hit(rng.next());
    }

    /** The decision for raw draw @p raw when a draw is taken. */
    bool hit(std::uint64_t raw) const { return raw < threshold_; }

    /** T << 11: raw draws below it succeed. */
    std::uint64_t threshold() const { return threshold_; }

  private:
    std::uint64_t threshold_ = 0;
    bool draws_ = true;
    bool always_ = false;
};

/**
 * The geometric trials formula: floor(log(u) / log(1 - p)) + 1 for a
 * uniform draw @p u and @p log_q = log1p(-p), saturating at the
 * uint64_t range. u = 0 is read as 2^-53 to avoid log(0).
 */
inline std::uint64_t
geometricTrials(double u, double log_q)
{
    if (u <= 0.0)
        u = 0x1.0p-53;
    const double trials = std::floor(std::log(u) / log_q) + 1.0;
    // For tiny p the trial count can exceed 2^64 - 1; converting such
    // a double to uint64_t is undefined behaviour, so saturate first.
    // 0x1p64 is the smallest power of two above the uint64_t range.
    if (trials >= 0x1.0p64)
        return std::numeric_limits<std::uint64_t>::max();
    return static_cast<std::uint64_t>(trials);
}

/**
 * A geometric draw with a fixed success probability p in (0, 1]:
 * sample() returns what Rng::geometric(p) would from the same draws,
 * with log1p(-p) computed once. p = 1 returns 1 without a draw.
 */
class GeometricDist
{
  public:
    explicit GeometricDist(double p);

    std::uint64_t
    sample(Rng &rng) const
    {
        if (certain_)
            return 1;
        return geometricTrials(rng.uniform(), logQ_);
    }

  private:
    double logQ_ = 0.0;
    bool certain_ = false;
};

/**
 * Zipf-distributed integers over [0, n): rank r is drawn with probability
 * proportional to 1/(r+1)^theta. Sampling is by binary search over the
 * precomputed CDF, so construction is O(n) and sampling O(log n).
 *
 * The trace generator uses this to model working sets with a hot core and
 * a long cold tail, the locality structure that makes large cache pages
 * effective (paper Section 5.2).
 */
class ZipfDist
{
  public:
    ZipfDist(std::uint64_t n, double theta);

    /** Draw one rank in [0, n). */
    std::uint64_t sample(Rng &rng) const;

    std::uint64_t domain() const { return cdf_.size(); }
    double theta() const { return theta_; }

  private:
    std::vector<double> cdf_;
    double theta_;
};

} // namespace vmp

#endif // VMP_SIM_RANDOM_HH
