#include "tensor/rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "gtest/gtest.h"

namespace cgnp {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextIntBoundsAndCoverage) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(7);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(17);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(21);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(33);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(41);
  std::vector<int> pool = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sample = rng.SampleWithoutReplacement(pool, 4);
  EXPECT_EQ(sample.size(), 4u);
  std::set<int> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 4u);
  // Oversampling returns the whole pool.
  auto all = rng.SampleWithoutReplacement(pool, 99);
  EXPECT_EQ(all.size(), pool.size());
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(55);
  Rng child = a.Split();
  // Child and parent should not mirror each other.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == child.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

// NextInt against the textbook rejection formula, which takes the limit
// on every draw: same values, same number of raw draws. The large bounds
// put up to a third of the 64-bit range above the limit, so the redraw
// loop runs; the test checks that it did.
TEST(Rng, NextIntMatchesReferenceRejection) {
  const int64_t bounds[] = {1,
                            2,
                            3,
                            7,
                            200,
                            1000003,
                            (int64_t{1} << 32) + 1,
                            (int64_t{1} << 62) + 1,
                            int64_t{3} << 61,
                            int64_t{6148914691236517207},  // ~2^64 / 3
                            INT64_MAX - 1,
                            INT64_MAX};
  int64_t redraws = 0;
  for (const int64_t n : bounds) {
    Rng got(n), want(n);
    for (int i = 0; i < 4000; ++i) {
      const uint64_t un = static_cast<uint64_t>(n);
      const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
      uint64_t v = want.NextU64();
      while (v >= limit) {
        ++redraws;
        v = want.NextU64();
      }
      ASSERT_EQ(got.NextInt(n), static_cast<int64_t>(v % un))
          << "n " << n << " draw " << i;
    }
    EXPECT_EQ(got.NextU64(), want.NextU64()) << "n " << n;
  }
  EXPECT_GT(redraws, 1000);
}

}  // namespace
}  // namespace cgnp
