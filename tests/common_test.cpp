// Unit tests for src/common: RNG determinism and distributions, thread
// pool, string helpers, logging levels, check macros.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "common/check.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace pelican {
namespace {

TEST(Check, ThrowsOnFailureWithMessage) {
  try {
    PELICAN_CHECK(1 == 2, "one is not two");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(PELICAN_CHECK(2 + 2 == 4));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(99);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(3.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, BelowCoversAndBounds) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.Below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, IntIsInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.Int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Chance(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

// Chance is an integer compare on the draw; it must decide exactly as
// the double formula `Uniform() < p` on the same draw, and leave the
// stream where that formula leaves it. The rates include ones whose
// p·2^53 is not an integer and the float 0.6 Dropout passes.
TEST(Rng, ChanceMatchesUniformFormulaDrawForDraw) {
  const double rates[] = {1e-7, 0.1, 0.25, 0.5, 0.6, 0.999,
                          static_cast<double>(0.6F),
                          std::nextafter(0.5, 0.0),
                          std::nextafter(0.5, 1.0),
                          0x1.0p-53,
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::quiet_NaN()};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    for (const double p : rates) {
      Rng got(seed), want(seed);
      for (int i = 0; i < 256; ++i) {
        ASSERT_EQ(got.Chance(p), want.Uniform() < p)
            << "seed " << seed << " p " << p << " draw " << i;
      }
      ASSERT_EQ(got(), want()) << "seed " << seed << " p " << p;
    }
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);  // overwhelmingly likely
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(21);
  const std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) counts[rng.Categorical(w)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, CategoricalRejectsBadWeights) {
  Rng rng(3);
  EXPECT_THROW(rng.Categorical(std::vector<double>{0.0, 0.0}), CheckError);
  EXPECT_THROW(rng.Categorical(std::vector<double>{-1.0, 2.0}), CheckError);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(0, 100, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool ran = false;
  ParallelFor(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(Strings, JoinWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"one"}, ","), "one");
}

TEST(Strings, ParseDoubleAcceptsValid) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble(" -1e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
}

TEST(Strings, ParseDoubleRejectsInvalid) {
  double v = 0.0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
}

TEST(Strings, Padding) {
  EXPECT_EQ(PadLeft("ab", 5), "   ab");
  EXPECT_EQ(PadRight("ab", 5), "ab   ");
  EXPECT_EQ(PadLeft("abcdef", 3), "abcdef");
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(FormatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(FormatFixed(-0.5, 1), "-0.5");
}

TEST(Strings, ToLower) {
  EXPECT_EQ(ToLower("RMSprop"), "rmsprop");
}

TEST(Logging, LevelFiltering) {
  const auto prior = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below-threshold messages must not crash and are discarded.
  PELICAN_LOG(Info) << "discarded";
  SetLogLevel(prior);
}

TEST(Logging, LevelNames) {
  EXPECT_EQ(LogLevelName(LogLevel::kDebug), "DEBUG");
  EXPECT_EQ(LogLevelName(LogLevel::kError), "ERROR");
}

}  // namespace
}  // namespace pelican
