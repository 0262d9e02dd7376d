#include "util/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <cmath>
#include <set>
#include <vector>

namespace mmjoin {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (uint64_t n : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Uniform(n), n);
    }
  }
}

TEST(RngTest, UniformOneAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.Uniform(1), 0u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextDouble();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
}

TEST(RngTest, UniformIsRoughlyUnbiased) {
  Rng rng(13);
  const uint64_t n = 10;
  std::vector<uint64_t> counts(n, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.Uniform(n)];
  for (uint64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), trials / double(n),
                5 * std::sqrt(trials / double(n)));
  }
}

TEST(ZipfTest, ThetaZeroIsUniformish) {
  ZipfGenerator gen(100, 0.0, 3);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[gen.Next()];
  const auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
  // Uniform: expect every bucket within a few sigma of 1000.
  EXPECT_GT(*mn, 800);
  EXPECT_LT(*mx, 1200);
}

TEST(ZipfTest, HigherThetaSkewsTowardLowRanks) {
  ZipfGenerator gen(1000, 0.9, 3);
  int low = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    if (gen.Next() < 10) ++low;
  }
  // Under uniform, rank<10 would get ~1% of mass; Zipf 0.9 concentrates
  // far more.
  EXPECT_GT(low, trials / 10);
}

TEST(ZipfTest, ValuesInRange) {
  for (double theta : {0.0, 0.3, 0.6, 0.99, 1.1}) {
    ZipfGenerator gen(37, theta, 17);
    for (int i = 0; i < 2000; ++i) EXPECT_LT(gen.Next(), 37u);
  }
}

TEST(ZipfTest, DrawnCdfTracksExactZipfCdf) {
  // The generator inverts Gray et al.'s closed-form CDF approximation. At
  // every theta the workloads use, on both sides of theta = 1, the drawn
  // P(X < c) stays within a few hundredths of the exact Zipf(theta) CDF
  // H(c, theta) / H(n, theta) at every cut point.
  constexpr int kDraws = 200000;
  for (double theta : {0.5, 0.99, 1.1}) {
    for (uint64_t n : {uint64_t{1000}, uint64_t{2000000}}) {
      SCOPED_TRACE(testing::Message() << "theta=" << theta << " n=" << n);
      const std::vector<uint64_t> cuts = {1,   2,      5,     10,
                                          100, n / 64, n / 8, n / 2};
      std::vector<double> harmonic(n + 1, 0.0);  // harmonic[c] = H(c, theta)
      for (uint64_t k = 1; k <= n; ++k) {
        harmonic[k] =
            harmonic[k - 1] + 1.0 / std::pow(static_cast<double>(k), theta);
      }
      std::vector<uint64_t> below(cuts.size(), 0);
      ZipfGenerator gen(n, theta, 2026);
      for (int i = 0; i < kDraws; ++i) {
        const uint64_t v = gen.Next();
        ASSERT_LT(v, n);
        for (size_t c = 0; c < cuts.size(); ++c) {
          if (v < cuts[c]) ++below[c];
        }
      }
      for (size_t c = 0; c < cuts.size(); ++c) {
        const double drawn = static_cast<double>(below[c]) / kDraws;
        const double exact = harmonic[cuts[c]] / harmonic[n];
        EXPECT_NEAR(drawn, exact, 0.025) << "cut=" << cuts[c];
      }
    }
  }
}

TEST(ZipfTest, Deterministic) {
  ZipfGenerator a(50, 0.5, 99), b(50, 0.5, 99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(ShuffleTest, IsPermutation) {
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  Rng rng(21);
  Shuffle(&v, &rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(ShuffleTest, ActuallyShuffles) {
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  Rng rng(22);
  Shuffle(&v, &rng);
  int fixed = 0;
  for (int i = 0; i < 100; ++i) {
    if (v[i] == i) ++fixed;
  }
  EXPECT_LT(fixed, 15);  // expected ~1 fixed point
}

TEST(ShuffleTest, HandlesDegenerateSizes) {
  Rng rng(23);
  std::vector<int> empty;
  Shuffle(&empty, &rng);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  Shuffle(&one, &rng);
  EXPECT_EQ(one[0], 42);
}

}  // namespace
}  // namespace mmjoin
