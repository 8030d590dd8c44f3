// Unit tests for the support library.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "support/hash.hpp"
#include "support/intern.hpp"
#include "support/rng.hpp"
#include "support/small_vector.hpp"
#include "support/stats.hpp"

namespace mcsym::support {
namespace {

// --- StateHasher -------------------------------------------------------

TEST(StateHasherTest, DeterministicAndOrderSensitive) {
  StateHasher a;
  a.mix(1);
  a.mix(2);
  StateHasher b;
  b.mix(1);
  b.mix(2);
  EXPECT_EQ(a.digest(), b.digest());

  StateHasher c;
  c.mix(2);
  c.mix(1);
  EXPECT_FALSE(a.digest() == c.digest()) << "mix order must matter";
}

TEST(StateHasherTest, LanesAreIndependent) {
  // A 64-bit collision in one lane must not imply one in the other: check
  // that across many inputs no digest repeats and lo != hi.
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (std::uint64_t v = 0; v < 4096; ++v) {
    StateHasher h;
    h.mix(v);
    const Hash128 d = h.digest();
    EXPECT_NE(d.lo, d.hi) << v;
    EXPECT_TRUE(seen.emplace(d.lo, d.hi).second) << "collision at " << v;
  }
}

TEST(StateHasherTest, UnorderedMixIsCommutative) {
  StateHasher x;
  x.mix(7);
  StateHasher y;
  y.mix(9);

  StateHasher ab;
  ab.mix(1);
  ab.mix_unordered(x.digest());
  ab.mix_unordered(y.digest());
  StateHasher ba;
  ba.mix(1);
  ba.mix_unordered(y.digest());
  ba.mix_unordered(x.digest());
  EXPECT_EQ(ab.digest(), ba.digest());
}

TEST(StateHasherTest, SignedValuesRoundTrip) {
  StateHasher neg;
  neg.mix_signed(-5);
  StateHasher pos;
  pos.mix_signed(5);
  EXPECT_FALSE(neg.digest() == pos.digest());
}

// --- Rng ---------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(RngTest, BelowCoversAllResidues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ReseedResets) {
  Rng rng(5);
  const std::uint64_t first = rng.next_u64();
  rng.next_u64();
  rng.reseed(5);
  EXPECT_EQ(rng.next_u64(), first);
}

// --- SmallVector ----------------------------------------------------------

TEST(SmallVectorTest, StartsEmptyInline) {
  SmallVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 4u);
}

TEST(SmallVectorTest, PushWithinInlineCapacity) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVectorTest, GrowsToHeap) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVectorTest, SwapRemoveIsO1Unordered) {
  SmallVector<int, 4> v{1, 2, 3, 4};
  v.swap_remove(0);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_TRUE(v.contains(4));
  EXPECT_FALSE(v.contains(1));
}

TEST(SmallVectorTest, EraseKeepsOrder) {
  SmallVector<int, 4> v{1, 2, 3, 4};
  v.erase(v.begin() + 1);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 3);
  EXPECT_EQ(v[2], 4);
}

TEST(SmallVectorTest, CopyIndependent) {
  SmallVector<int, 2> a{1, 2, 3};
  SmallVector<int, 2> b = a;
  b.push_back(4);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(b.size(), 4u);
  a[0] = 99;
  EXPECT_EQ(b[0], 1);
}

TEST(SmallVectorTest, MoveStealsHeapBlock) {
  SmallVector<int, 2> a;
  for (int i = 0; i < 50; ++i) a.push_back(i);
  const int* data = a.data();
  SmallVector<int, 2> b = std::move(a);
  EXPECT_EQ(b.data(), data);  // heap block moved, not copied
  EXPECT_EQ(b.size(), 50u);
  EXPECT_TRUE(a.empty());
}

TEST(SmallVectorTest, MoveInlineCopies) {
  SmallVector<int, 8> a{1, 2, 3};
  SmallVector<int, 8> b = std::move(a);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b[2], 3);
}

TEST(SmallVectorTest, ResizeAndClear) {
  SmallVector<int, 2> v;
  v.resize(5, 7);
  EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(v[4], 7);
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(SmallVectorTest, Equality) {
  SmallVector<int, 2> a{1, 2};
  SmallVector<int, 2> b{1, 2};
  SmallVector<int, 2> c{1, 3};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

// --- Interner ----------------------------------------------------------

TEST(InternerTest, SameStringSameSymbol) {
  Interner in;
  EXPECT_EQ(in.intern("abc"), in.intern("abc"));
}

TEST(InternerTest, DifferentStringsDifferentSymbols) {
  Interner in;
  EXPECT_NE(in.intern("abc"), in.intern("abd"));
}

TEST(InternerTest, SpellingRoundTrip) {
  Interner in;
  const Symbol s = in.intern("hello");
  EXPECT_EQ(in.spelling(s), "hello");
}

TEST(InternerTest, FindDoesNotCreate) {
  Interner in;
  EXPECT_FALSE(in.find("missing").valid());
  in.intern("present");
  EXPECT_TRUE(in.find("present").valid());
  EXPECT_EQ(in.size(), 1u);
}

TEST(InternerTest, ManySymbolsStayStable) {
  Interner in;
  std::vector<Symbol> syms;
  for (int i = 0; i < 1000; ++i) syms.push_back(in.intern("sym" + std::to_string(i)));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(in.spelling(syms[static_cast<std::size_t>(i)]),
              "sym" + std::to_string(i));
    EXPECT_EQ(in.find("sym" + std::to_string(i)), syms[static_cast<std::size_t>(i)]);
  }
}

// A copy's index must view the copy's own spellings: copy, destroy the
// source, and every lookup still resolves (under ASan a stale index is a
// heap-use-after-free).
TEST(InternerTest, CopyOutlivesSource) {
  std::vector<std::string> names;
  for (int i = 0; i < 100; ++i) names.push_back("name" + std::to_string(i));
  auto source = std::make_unique<Interner>();
  for (const std::string& n : names) source->intern(n);
  Interner copied(*source);
  Interner assigned;
  assigned.intern("overwritten");
  assigned = *source;
  source.reset();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Symbol want(static_cast<std::uint32_t>(i + 1));
    EXPECT_EQ(copied.find(names[i]), want) << names[i];
    EXPECT_EQ(assigned.find(names[i]), want) << names[i];
    EXPECT_EQ(copied.spelling(want), names[i]);
  }
  EXPECT_FALSE(assigned.find("overwritten").valid());
  // The copies keep interning independently.
  EXPECT_EQ(copied.intern("fresh").raw(), names.size() + 1);
  EXPECT_EQ(copied.find("fresh").raw(), names.size() + 1);
  EXPECT_FALSE(assigned.find("fresh").valid());
}

TEST(InternerTest, InvalidSymbolIsFalsy) {
  Symbol s;
  EXPECT_FALSE(s.valid());
}

// --- RunningStats ----------------------------------------------------------

TEST(StatsTest, EmptyStats) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(StatsTest, MeanMinMax) {
  RunningStats s;
  for (double x : {3.0, 1.0, 2.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
}

TEST(StatsTest, VarianceMatchesTextbook) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  // Sample variance with n-1 denominator: 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(StatsTest, SummaryMentionsCount) {
  RunningStats s;
  s.add(1.5);
  EXPECT_NE(s.summary().find("n=1"), std::string::npos);
}

TEST(StopwatchTest, MonotoneNonNegative) {
  Stopwatch w;
  const double a = w.seconds();
  const double b = w.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

// --- Deadline ----------------------------------------------------------------

TEST(DeadlineTest, UnlimitedNeverExpires) {
  const Stopwatch w;
  const std::function<bool()> none;
  Deadline d(w, 0, none);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(d.expired());
}

TEST(DeadlineTest, HookConsultedOncePer64Polls) {
  const Stopwatch w;
  int calls = 0;
  const std::function<bool()> hook = [&calls] {
    ++calls;
    return calls == 3;
  };
  Deadline d(w, 0, hook);
  int polls = 0;
  while (!d.expired()) ++polls;
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(polls, 3 * 64 - 1);
}

TEST(DeadlineTest, SpentTimeBudgetExpires) {
  const Stopwatch w;
  const std::function<bool()> none;
  Deadline d(w, 1e-9, none);
  int polls = 0;
  while (!d.expired()) ++polls;
  EXPECT_EQ(polls, 63);
}

}  // namespace
}  // namespace mcsym::support
