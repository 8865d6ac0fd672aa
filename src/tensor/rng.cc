#include "tensor/rng.h"

#include <cmath>

#include "common/check.h"

namespace cgnp {

namespace {

uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& w : state_) w = SplitMix64(&s);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // Use the top 53 bits for a uniform double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

float Rng::Uniform(float lo, float hi) {
  return lo + static_cast<float>(NextDouble()) * (hi - lo);
}

float Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; guard against log(0).
  double u1 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = static_cast<float>(r * std::sin(theta));
  has_cached_normal_ = true;
  return static_cast<float>(r * std::cos(theta));
}

int64_t Rng::NextInt(int64_t n) {
  CGNP_CHECK_GT(n, 0);
  // Rejection sampling to avoid modulo bias: draws at or above
  // limit = UINT64_MAX - UINT64_MAX % n are redrawn. limit > 2^64 - 1 - n,
  // so only a draw in the top n values can be rejected, and only then is
  // the 64-bit modulo for limit worth paying. Same draws either way.
  const uint64_t un = static_cast<uint64_t>(n);
  uint64_t v = NextU64();
  if (v >= 0 - un) {
    const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
    while (v >= limit) v = NextU64();
  }
  return static_cast<int64_t>(v % un);
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

Rng Rng::Split() { return Rng(NextU64()); }

}  // namespace cgnp
