#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bitset.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace scanc::util {
namespace {

TEST(ParseUint, AcceptsPlainDigitsInRange) {
  EXPECT_EQ(parse_uint("--n", "0"), 0u);
  EXPECT_EQ(parse_uint("--n", "007"), 7u);
  EXPECT_EQ(parse_uint("--n", "18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_uint("--n", "256", 1, 256), 256u);
  EXPECT_EQ(parse_uint("--n", "1", 1, 256), 1u);
}

TEST(ParseUint, RejectsHostileStrings) {
  for (const char* bad :
       {"", "abc", "7x", "x7", "-1", "+1", " 1", "1 ", "1.5", "1e3", "0x10",
        "18446744073709551616", "99999999999999999999999", "\t", "1\n"}) {
    EXPECT_THROW((void)parse_uint("--n", bad), std::invalid_argument) << bad;
  }
  EXPECT_THROW((void)parse_uint("--n", "0", 1, 256), std::invalid_argument);
  EXPECT_THROW((void)parse_uint("--n", "257", 1, 256), std::invalid_argument);
}

TEST(ParseUint, ErrorNamesTheFlagAndValue) {
  try {
    (void)parse_uint("--executors", "-1", 1, 256);
    FAIL() << "accepted -1";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--executors"), std::string::npos) << what;
    EXPECT_NE(what.find("-1"), std::string::npos) << what;
  }
}

TEST(ParseSeconds, AcceptsPositiveDecimals) {
  EXPECT_DOUBLE_EQ(parse_seconds("--t", "3600"), 3600.0);
  EXPECT_DOUBLE_EQ(parse_seconds("--t", "0.25"), 0.25);
  EXPECT_DOUBLE_EQ(parse_seconds("--t", ".5"), 0.5);
  EXPECT_DOUBLE_EQ(parse_seconds("--t", "1e2"), 100.0);
  EXPECT_DOUBLE_EQ(parse_seconds("--t", "0", /*allow_zero=*/true), 0.0);
}

TEST(ParseSeconds, RejectsHostileStrings) {
  for (const char* bad : {"", "soon", "5s", "-5", "+5", " 5", "5 ", "inf",
                          "nan", "1e999", "0x", "."}) {
    EXPECT_THROW((void)parse_seconds("--t", bad), std::invalid_argument)
        << bad;
    EXPECT_THROW((void)parse_seconds("--t", bad, /*allow_zero=*/true),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_THROW((void)parse_seconds("--t", "0"), std::invalid_argument);
  EXPECT_THROW((void)parse_seconds("--t", "0.0"), std::invalid_argument);
}

class BitsetSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitsetSizes, SetTestResetRoundTrip) {
  const std::size_t n = GetParam();
  Bitset b(n);
  EXPECT_EQ(b.size(), n);
  EXPECT_TRUE(b.none());
  EXPECT_EQ(b.count(), 0u);
  for (std::size_t i = 0; i < n; i += 3) b.set(i);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(b.test(i), i % 3 == 0) << i;
  }
  EXPECT_EQ(b.count(), (n + 2) / 3);
  for (std::size_t i = 0; i < n; i += 3) b.reset(i);
  EXPECT_TRUE(b.none());
}

TEST_P(BitsetSizes, FillRespectsSize) {
  const std::size_t n = GetParam();
  Bitset b(n);
  b.fill();
  EXPECT_EQ(b.count(), n);
  EXPECT_TRUE(b.all());
  Bitset c(n, true);
  EXPECT_EQ(b, c);
}

TEST_P(BitsetSizes, FindIterationMatchesForEach) {
  const std::size_t n = GetParam();
  if (n == 0) return;
  Bitset b(n);
  Rng rng(n * 31 + 7);
  std::set<std::size_t> expect;
  for (std::size_t k = 0; k < n / 2 + 1; ++k) {
    const std::size_t i = rng.below(n);
    b.set(i);
    expect.insert(i);
  }
  std::vector<std::size_t> via_find;
  for (std::size_t i = b.find_first(); i < n; i = b.find_next(i + 1)) {
    via_find.push_back(i);
  }
  std::vector<std::size_t> via_for_each;
  b.for_each([&](std::size_t i) { via_for_each.push_back(i); });
  const std::vector<std::size_t> want(expect.begin(), expect.end());
  EXPECT_EQ(via_find, want);
  EXPECT_EQ(via_for_each, want);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitsetSizes,
                         ::testing::Values(1, 2, 63, 64, 65, 128, 200,
                                           1000));

TEST(Bitset, SetAlgebra) {
  Bitset a(100);
  Bitset b(100);
  a.set(1);
  a.set(50);
  a.set(99);
  b.set(50);
  b.set(3);
  const Bitset u = a | b;
  EXPECT_EQ(u.count(), 4u);
  const Bitset i = a & b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(50));
  const Bitset d = a - b;
  EXPECT_EQ(d.count(), 2u);
  EXPECT_TRUE(d.test(1));
  EXPECT_FALSE(d.test(50));
  EXPECT_TRUE(u.contains(a));
  EXPECT_TRUE(u.contains(b));
  EXPECT_FALSE(a.contains(b));
}

TEST(Bitset, ContainsReflexiveAndEmpty) {
  Bitset a(77);
  a.set(5);
  EXPECT_TRUE(a.contains(a));
  EXPECT_TRUE(a.contains(Bitset(77)));
}

TEST(Bitset, FindOnEmptyAndPastEnd) {
  Bitset b(70);
  EXPECT_EQ(b.find_first(), 70u);
  EXPECT_EQ(b.find_next(200), 70u);
  b.set(69);
  EXPECT_EQ(b.find_first(), 69u);
  EXPECT_EQ(b.find_next(69), 69u);
  EXPECT_EQ(b.find_next(70), 70u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Rng c(124);
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) differs |= (a2.next() != c.next());
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(9);
  for (const std::uint64_t bound : {1ull, 2ull, 7ull, 64ull, 1000000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(10);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.unit();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, CoinAndChanceAreRoughlyFair) {
  Rng rng(12);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.coin();
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(1, 4);
  EXPECT_GT(hits, 2000);
  EXPECT_LT(hits, 3000);
}

TEST(Rng, SplitmixAdvancesState) {
  std::uint64_t s = 42;
  const std::uint64_t a = splitmix64(s);
  const std::uint64_t b = splitmix64(s);
  EXPECT_NE(a, b);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 200;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, ParallelForIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(10, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [](std::size_t i) {
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives a failed batch.
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, SubmittedTasksRunBeforeJoin) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor drains the queue and joins.
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, ResolveThreadsMapsZeroToHardware) {
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(6), 6u);
}

}  // namespace
}  // namespace scanc::util
