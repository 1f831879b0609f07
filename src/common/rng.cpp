#include "common/rng.h"

#include <cmath>
#include <numbers>

#include "common/check.h"

namespace pelican {

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  // Expand the seed; xoshiro must not start from all-zero state and
  // splitmix64 guarantees that with overwhelming probability, but we
  // guard anyway.
  for (auto& s : s_) s = SplitMix64(seed);
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng::State Rng::GetState() const {
  State state;
  for (int i = 0; i < 4; ++i) state.s[i] = s_[i];
  state.cached_normal = cached_normal_;
  state.has_cached_normal = has_cached_normal_;
  return state;
}

void Rng::SetState(const State& state) {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  cached_normal_ = state.cached_normal;
  has_cached_normal_ = state.has_cached_normal;
}

Rng Rng::Fork() {
  // A fresh stream seeded from two draws of this one.
  std::uint64_t seed = (*this)() ^ Rotl((*this)(), 31);
  return Rng(seed);
}

double Rng::Uniform(double lo, double hi) {
  // 53-bit mantissa-uniform double in [0, 1).
  double u = static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  return lo + u * (hi - lo);
}

float Rng::UniformF(float lo, float hi) {
  return static_cast<float>(Uniform(lo, hi));
}

double Rng::Normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  const double u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

std::uint64_t Rng::Below(std::uint64_t n) {
  PELICAN_CHECK(n > 0);
  // Lemire's nearly-divisionless bounded draw.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = -n % n;
    while (l < t) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::Int(std::int64_t lo, std::int64_t hi) {
  PELICAN_CHECK(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(Below(span));
}

std::size_t Rng::Categorical(std::span<const double> weights) {
  PELICAN_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    PELICAN_CHECK(w >= 0.0, "categorical weights must be non-negative");
    total += w;
  }
  PELICAN_CHECK(total > 0.0, "categorical weights must not all be zero");
  double r = Uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace pelican
