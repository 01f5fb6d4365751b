// Unit and property tests for the support module: invariant macros,
// deterministic RNG, integer math, and table rendering.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "support/expect.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace congestlb {
namespace {

// ---------------------------------------------------------------- expect --

TEST(Expect, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(CLB_EXPECT(1 + 1 == 2, "arithmetic"));
  EXPECT_NO_THROW(CLB_CHECK(true));
}

TEST(Expect, FailingConditionThrowsInvariantError) {
  EXPECT_THROW(CLB_EXPECT(false, "doom"), InvariantError);
  EXPECT_THROW(CLB_CHECK(false), InvariantError);
}

TEST(Expect, MessageContainsContext) {
  try {
    CLB_EXPECT(2 > 3, "two is not bigger");
    FAIL() << "expected throw";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 > 3"), std::string::npos);
    EXPECT_NE(what.find("two is not bigger"), std::string::npos);
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
  }
}

// ------------------------------------------------------------------- rng --

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  bool all_equal = true, any_diff_c = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    all_equal = all_equal && (va == b.next());
    any_diff_c = any_diff_c || (va != c.next());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_c);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.below(0), InvariantError);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(99);
  constexpr std::uint64_t kBuckets = 8;
  constexpr int kDraws = 80000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) counts[rng.below(kBuckets)]++;
  for (std::uint64_t b = 0; b < kBuckets; ++b) {
    // Expected 10000 per bucket; 4-sigma ~ 380.
    EXPECT_NEAR(counts[b], kDraws / kBuckets, 600) << "bucket " << b;
  }
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, RangeRejectsInverted) {
  Rng rng(11);
  EXPECT_THROW(rng.range(3, 2), InvariantError);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, SampleProducesSortedDistinctSubset) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.below(50);
    const std::size_t m = rng.below(n + 1);
    const auto s = rng.sample(n, m);
    ASSERT_EQ(s.size(), m);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_EQ(std::set<std::size_t>(s.begin(), s.end()).size(), m);
    for (auto v : s) EXPECT_LT(v, n);
  }
}

TEST(Rng, SampleFullRangeIsPermutationOfAll) {
  Rng rng(31);
  const auto s = rng.sample(10, 10);
  ASSERT_EQ(s.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(Rng, SampleRejectsOversized) {
  Rng rng(1);
  EXPECT_THROW(rng.sample(3, 4), InvariantError);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(77);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(123);
  Rng child = a.fork();
  // The child must differ from a fresh parent stream.
  Rng b(123);
  (void)b.next();  // align with the fork() consumption
  bool differ = false;
  for (int i = 0; i < 10; ++i) differ = differ || (child.next() != b.next());
  EXPECT_TRUE(differ);
}

// ------------------------------------------------------------------ math --

TEST(Math, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_EQ(ceil_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1025), 11);
  EXPECT_THROW(ceil_log2(0), InvariantError);
}

TEST(Math, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(4), 2);
  EXPECT_EQ(floor_log2(1023), 9);
  EXPECT_THROW(floor_log2(0), InvariantError);
}

TEST(Math, CeilFloorLog2Agree) {
  for (std::uint64_t x = 1; x < 5000; ++x) {
    const int c = ceil_log2(x);
    const int f = floor_log2(x);
    if ((x & (x - 1)) == 0) {
      EXPECT_EQ(c, f) << x;  // powers of two
    } else {
      EXPECT_EQ(c, f + 1) << x;
    }
  }
}

TEST(Math, CheckedPow) {
  EXPECT_EQ(checked_pow(2, 10).value(), 1024u);
  EXPECT_EQ(checked_pow(7, 0).value(), 1u);
  EXPECT_EQ(checked_pow(0, 5).value(), 0u);
  EXPECT_EQ(checked_pow(10, 19).value(), 10000000000000000000ULL);
  EXPECT_FALSE(checked_pow(10, 20).has_value());
  EXPECT_FALSE(checked_pow(2, 64).has_value());
}

TEST(Math, IsPrime) {
  const std::set<std::uint64_t> primes{2,  3,  5,  7,  11, 13, 17, 19,
                                       23, 29, 31, 37, 41, 43, 47};
  for (std::uint64_t x = 0; x <= 48; ++x) {
    EXPECT_EQ(is_prime(x), primes.count(x) == 1) << x;
  }
  EXPECT_TRUE(is_prime(7919));
  EXPECT_FALSE(is_prime(7917));
}

TEST(Math, NextPrime) {
  EXPECT_EQ(next_prime(2), 2u);
  EXPECT_EQ(next_prime(4), 5u);
  EXPECT_EQ(next_prime(8), 11u);
  EXPECT_EQ(next_prime(14), 17u);
  EXPECT_EQ(next_prime(7908), 7919u);  // 7907 is prime; next after it is 7919
  EXPECT_THROW(next_prime(1), InvariantError);
}

TEST(Math, PaperParamsShape) {
  // ell ~ log k - log k/log log k, alpha ~ log k / log log k; both >= 1 and
  // ell should dominate alpha for large k (the paper needs ell >> alpha).
  for (std::uint64_t k : {16, 256, 1 << 14, 1 << 20}) {
    const auto p = paper_ell_alpha(k);
    EXPECT_GE(p.ell, 1u) << k;
    EXPECT_GE(p.alpha, 1u) << k;
  }
  const auto big = paper_ell_alpha(1ULL << 40);
  EXPECT_GT(big.ell, big.alpha);
  EXPECT_THROW(paper_ell_alpha(1), InvariantError);
}

TEST(Math, PaperParamsSumApproxLog) {
  // ell + alpha == round(log2 k) up to rounding: the paper's identity
  // (ell + alpha) = log k.
  const auto p = paper_ell_alpha(1 << 16);
  EXPECT_NEAR(static_cast<double>(p.ell + p.alpha), 16.0, 1.5);
}

// ----------------------------------------------------------------- table --

TEST(Table, RendersAlignedGrid) {
  Table t({"name", "value"});
  t.row("alpha", 1);
  t.row("beta", 22);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| alpha |"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
  // Three rules (top, under header, bottom) + header + 2 data rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 6);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.row("x,y", "quote\"inside");
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
  EXPECT_NE(os.str().find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Table, RejectsRaggedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvariantError);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), InvariantError);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(Table::cell(true), "yes");
  EXPECT_EQ(Table::cell(false), "no");
  EXPECT_EQ(Table::cell(42), "42");
  EXPECT_EQ(Table::cell(1.5), "1.500");
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
}

}  // namespace
}  // namespace congestlb
