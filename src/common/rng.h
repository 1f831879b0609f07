// Deterministic, seedable random number generation.
//
// Every stochastic component in the library (weight init, dropout masks,
// shuffles, synthetic data) draws from an explicitly threaded Rng so runs
// are reproducible from a single seed.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace pelican {

// splitmix64: used to expand a single user seed into engine state.
std::uint64_t SplitMix64(std::uint64_t& state);

// xoshiro256** — fast, high-quality 64-bit generator.
// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  // Inline: Dropout draws one per element of every training batch.
  result_type operator()() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Derive an independent child stream (for per-worker or per-layer RNG).
  [[nodiscard]] Rng Fork();

  // Complete generator state, for checkpoint/resume: restoring a saved
  // State reproduces the exact draw sequence (including the cached
  // Box–Muller second normal).
  struct State {
    std::uint64_t s[4] = {0, 0, 0, 0};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };
  [[nodiscard]] State GetState() const;
  void SetState(const State& state);

  // Uniform real in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);
  float UniformF(float lo = 0.0F, float hi = 1.0F);

  // Standard normal via Box–Muller (cached second draw).
  double Normal(double mean = 0.0, double stddev = 1.0);

  // Uniform integer in [0, n). n must be > 0.
  std::uint64_t Below(std::uint64_t n);
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t Int(std::int64_t lo, std::int64_t hi);

  // Bernoulli draw: Uniform() < p, from the same one draw. Uniform()
  // is k·2^-53 for the integer k = next() >> 11, and p·2^53 is exact,
  // so k·2^-53 < p exactly when k < ⌈p·2^53⌉: an integer compare, with
  // no conversion to double per draw. A NaN p draws and fails, as
  // Uniform() < NaN does.
  bool Chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    if (std::isnan(p)) {
      (void)(*this)();
      return false;
    }
    return ChanceUnder(ChanceThreshold(p));
  }
  // Chance(p) for 0 < p < 1 in two halves, so that a loop drawing many
  // at one p computes the threshold once.
  static std::uint64_t ChanceThreshold(double p) {
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }
  bool ChanceUnder(std::uint64_t threshold) {
    return ((*this)() >> 11) < threshold;
  }

  // In-place Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = Below(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    Shuffle(std::span<T>{items});
  }

  // Sample an index from unnormalized non-negative weights.
  std::size_t Categorical(std::span<const double> weights);

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace pelican
