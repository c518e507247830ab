#include "sim/random.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vmp
{

namespace
{

/** SplitMix64 step used for seeding xoshiro state. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(std::uint64_t seed_value)
{
    std::uint64_t x = seed_value;
    for (auto &s : s_)
        s = splitMix64(x);
    // xoshiro must not start in the all-zero state.
    if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0)
        s_[0] = 1;
}

void
Rng::belowZero()
{
    panic("Rng::below called with bound 0");
}

std::uint64_t
Rng::between(std::uint64_t lo, std::uint64_t hi)
{
    if (lo > hi)
        panic("Rng::between: lo > hi");
    return lo + below(hi - lo + 1);
}

std::uint64_t
Rng::geometric(double p)
{
    return GeometricDist(p).sample(*this);
}

ChanceDist::ChanceDist(double p)
{
    if (p <= 0.0 || p >= 1.0) {
        draws_ = false;
        always_ = p >= 1.0;
    } else if (!std::isnan(p)) {
        const double t = std::ceil(std::ldexp(p, 53));
        threshold_ = static_cast<std::uint64_t>(t) << 11;
    }
    // A NaN p leaves threshold_ at 0: chance(NaN) draws and says false.
}

GeometricDist::GeometricDist(double p)
{
    if (!(p > 0.0 && p <= 1.0))
        panic("geometric draw: p out of (0, 1]: ", p);
    certain_ = p == 1.0;
    logQ_ = std::log1p(-p);
}

double
Rng::exponential(double mean)
{
    double u = uniform();
    if (u <= 0.0)
        u = 0x1.0p-53;
    return -mean * std::log(u);
}

ZipfDist::ZipfDist(std::uint64_t n, double theta_value)
    : theta_(theta_value)
{
    if (n == 0)
        panic("ZipfDist over empty domain");
    cdf_.resize(n);
    double sum = 0.0;
    for (std::uint64_t r = 0; r < n; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), theta_);
        cdf_[r] = sum;
    }
    for (auto &c : cdf_)
        c /= sum;
    cdf_.back() = 1.0;
}

std::uint64_t
ZipfDist::sample(Rng &rng) const
{
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint64_t>(it - cdf_.begin());
}

} // namespace vmp
