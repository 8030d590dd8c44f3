// Tests for the Chase–Lev work-stealing deque (src/check/steal_deque.hpp)
// that schedules the optimal-DPOR fleet: the owner's LIFO end and peek,
// the thieves' FIFO end, growth past the initial buffer (including a live
// range that wraps around the ring), and one owner racing three thieves
// with every pushed item delivered exactly once. The concurrent case is
// also a ThreadSanitizer workload (the CI TSan leg runs this suite).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "check/steal_deque.hpp"

namespace mcsym::check::dpor_detail {
namespace {

/// Items are addresses into one vector, so a popped pointer maps back to
/// its push index.
struct Items {
  explicit Items(std::size_t n) : slots(n) {}
  int* at(std::size_t i) { return &slots[i]; }
  std::size_t index(const int* p) const {
    return static_cast<std::size_t>(p - slots.data());
  }
  std::vector<int> slots;
};

TEST(StealDequeTest, OwnerPopsLifo) {
  Items items(5);
  StealDeque<int> dq;
  EXPECT_EQ(dq.pop(), nullptr);
  for (std::size_t i = 0; i < 5; ++i) dq.push(items.at(i));
  for (std::size_t i = 5; i-- > 0;) EXPECT_EQ(dq.pop(), items.at(i));
  EXPECT_EQ(dq.pop(), nullptr);
}

TEST(StealDequeTest, ThiefStealsFifo) {
  Items items(5);
  StealDeque<int> dq;
  bool lost = true;
  EXPECT_EQ(dq.steal(lost), nullptr);
  EXPECT_FALSE(lost);  // empty, not a lost race
  for (std::size_t i = 0; i < 5; ++i) dq.push(items.at(i));
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(dq.steal(lost), items.at(i));
    EXPECT_FALSE(lost);
  }
  EXPECT_EQ(dq.steal(lost), nullptr);
  EXPECT_FALSE(lost);
}

TEST(StealDequeTest, OwnerAndThiefMeetInTheMiddle) {
  Items items(6);
  StealDeque<int> dq;
  for (std::size_t i = 0; i < 6; ++i) dq.push(items.at(i));
  bool lost = false;
  EXPECT_EQ(dq.steal(lost), items.at(0));
  EXPECT_EQ(dq.pop(), items.at(5));
  EXPECT_EQ(dq.steal(lost), items.at(1));
  EXPECT_EQ(dq.pop(), items.at(4));
  EXPECT_EQ(dq.pop(), items.at(3));
  EXPECT_EQ(dq.steal(lost), items.at(2));  // the last entry, taken from the top
  EXPECT_EQ(dq.pop(), nullptr);
  EXPECT_EQ(dq.steal(lost), nullptr);
}

TEST(StealDequeTest, PeekShowsTheBottomWithoutRemovingIt) {
  Items items(3);
  StealDeque<int> dq;
  EXPECT_EQ(dq.peek(), nullptr);
  dq.push(items.at(0));
  dq.push(items.at(1));
  EXPECT_EQ(dq.peek(), items.at(1));
  EXPECT_EQ(dq.peek(), items.at(1));  // still there
  EXPECT_EQ(dq.pop(), items.at(1));
  EXPECT_EQ(dq.peek(), items.at(0));
  bool lost = false;
  EXPECT_EQ(dq.steal(lost), items.at(0));  // a thief takes the peeked entry
  EXPECT_EQ(dq.peek(), nullptr);
  EXPECT_EQ(dq.pop(), nullptr);
  dq.push(items.at(2));
  EXPECT_EQ(dq.peek(), items.at(2));
}

// 64 is the initial capacity; 1000 entries force four doublings.
TEST(StealDequeTest, GrowsPastInitialCapacity) {
  constexpr std::size_t kN = 1000;
  Items items(kN);
  StealDeque<int> dq;
  for (std::size_t i = 0; i < kN; ++i) dq.push(items.at(i));
  EXPECT_EQ(dq.peek(), items.at(kN - 1));
  bool lost = false;
  for (std::size_t i = 0; i < kN / 2; ++i) EXPECT_EQ(dq.steal(lost), items.at(i));
  for (std::size_t i = kN; i-- > kN / 2;) EXPECT_EQ(dq.pop(), items.at(i));
  EXPECT_EQ(dq.pop(), nullptr);
}

// Steals move the live range off index 0 before the buffer fills, so the
// copy into the grown buffer starts mid-ring and wraps.
TEST(StealDequeTest, GrowsWithAWrappedLiveRange) {
  constexpr std::size_t kFirst = 50, kStolen = 40, kSecond = 100;
  Items items(kFirst + kSecond);
  StealDeque<int> dq;
  for (std::size_t i = 0; i < kFirst; ++i) dq.push(items.at(i));
  bool lost = false;
  for (std::size_t i = 0; i < kStolen; ++i) EXPECT_EQ(dq.steal(lost), items.at(i));
  for (std::size_t i = kFirst; i < kFirst + kSecond; ++i) dq.push(items.at(i));
  for (std::size_t i = kStolen; i < kFirst + kSecond; ++i) {
    EXPECT_EQ(dq.steal(lost), items.at(i));
  }
  EXPECT_EQ(dq.steal(lost), nullptr);
}

// One owner pushes every item (popping some of them back along the way,
// as the explorer does), three thieves steal concurrently: each item must
// come out exactly once, through the owner or through exactly one thief.
TEST(StealDequeTest, OwnerAndThreeThievesDeliverEachItemOnce) {
  constexpr std::size_t kN = 20000;
  constexpr int kThieves = 3;
  Items items(kN);
  std::vector<std::atomic<std::uint32_t>> taken(kN);
  StealDeque<int> dq;
  std::atomic<bool> owner_done{false};

  auto take = [&](const int* p) {
    ASSERT_NE(p, nullptr);
    taken[items.index(p)].fetch_add(1, std::memory_order_relaxed);
  };
  std::vector<std::thread> thieves;
  std::atomic<std::uint64_t> stolen{0};
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (true) {
        const bool done = owner_done.load(std::memory_order_acquire);
        bool lost = false;
        if (int* p = dq.steal(lost)) {
          take(p);
          stolen.fetch_add(1, std::memory_order_relaxed);
        } else if (!lost && done) {
          return;  // the owner stopped pushing and the deque is empty
        }
      }
    });
  }

  for (std::size_t i = 0; i < kN; ++i) {
    dq.push(items.at(i));
    // Every third push the owner takes the bottom back, peeking first:
    // the peeked entry is what pop returns unless a thief took it.
    if (i % 3 == 2) {
      int* seen = dq.peek();
      int* p = dq.pop();
      if (p != nullptr) {
        EXPECT_EQ(p, seen);
        take(p);
      }
    }
  }
  while (int* p = dq.pop()) take(p);
  owner_done.store(true, std::memory_order_release);
  for (std::thread& t : thieves) t.join();

  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(taken[i].load(std::memory_order_relaxed), 1u) << "item " << i;
  }
  // Not asserted (thread timing), but a run where no thief ever got an
  // item would not have exercised the races this test is for.
  if (stolen.load() == 0) GTEST_LOG_(INFO) << "no item was stolen this run";
}

}  // namespace
}  // namespace mcsym::check::dpor_detail
