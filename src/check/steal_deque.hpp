// Chase–Lev work-stealing deque (Chase & Lev, SPAA'05; memory orderings
// after Lê, Pop, Cohen & Zappa Nardelli, PPoPP'13) over plain pointers.
//
// One worker OWNS each deque: only the owner calls push()/pop()/peek(), at
// the bottom, so local exploration stays LIFO — the owner keeps descending
// into the subtree it just created, cache- and journal-hot. Any other
// worker may call steal(), which takes from the TOP: the oldest entry,
// which in the exploration tree is the branch closest to the root — a big
// unexplored subtree behind a short prefix replay, exactly what an idle
// worker wants to take.
//
// All synchronization is expressed through atomic operations on `top_`,
// `bottom_`, the buffer pointer and the cells themselves (no standalone
// fences): ThreadSanitizer models every edge, so the TSan CI leg verifies
// the protocol rather than suppressing it. The owner grows the buffer
// (capacity doubling) when full; retired buffers are kept on a chain until
// destruction because a concurrent thief may still be reading a cell of an
// old buffer — its subsequent CAS on `top_` fails and the stale value is
// discarded, but the load itself must stay valid.
//
// Not part of the public check/ surface.
#pragma once

#include <atomic>
#include <cstdint>

#include "support/assert.hpp"

namespace mcsym::check::dpor_detail {

template <typename T>
class StealDeque {
 public:
  StealDeque() : buffer_(new Buffer(kInitialCapacity, nullptr)) {}

  StealDeque(const StealDeque&) = delete;
  StealDeque& operator=(const StealDeque&) = delete;

  ~StealDeque() {
    Buffer* b = buffer_.load(std::memory_order_relaxed);
    while (b != nullptr) {
      Buffer* prev = b->prev;
      delete b;
      b = prev;
    }
  }

  /// Owner only: publish `item` at the bottom.
  void push(T* item) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<std::int64_t>(buf->capacity)) buf = grow(buf, t, b);
    buf->cells[b & buf->mask].store(item, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only: take the most recently pushed entry; nullptr when empty.
  T* pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    // The seq_cst store/load pair orders this reservation against thieves'
    // top_ reads (it replaces the classic algorithm's standalone fence).
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {  // already empty
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    T* item = buf->cells[b & buf->mask].load(std::memory_order_relaxed);
    if (t != b) return item;  // more than one entry: no race possible
    // Exactly one entry: race the thieves for it via the top_ CAS.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      item = nullptr;  // a thief won
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
    return item;
  }

  /// Owner only: the entry pop() would return next, left in place; nullptr
  /// when empty. A thief can still take it (only when it is the last
  /// entry); the following pop() then returns nullptr.
  T* peek() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    if (t >= b) return nullptr;
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    return buf->cells[(b - 1) & buf->mask].load(std::memory_order_relaxed);
  }

  /// Any thread: take the OLDEST entry. Returns nullptr with `lost_race`
  /// false when the deque looked empty, and nullptr with `lost_race` true
  /// when another consumer won the top_ CAS (work existed; retrying is
  /// reasonable).
  T* steal(bool& lost_race) {
    lost_race = false;
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    Buffer* buf = buffer_.load(std::memory_order_acquire);
    T* item = buf->cells[t & buf->mask].load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      lost_race = true;
      return nullptr;
    }
    return item;
  }

 private:
  static constexpr std::uint64_t kInitialCapacity = 64;  // power of two

  struct Buffer {
    Buffer(std::uint64_t cap, Buffer* prev_buf)
        : capacity(cap),
          mask(cap - 1),
          cells(new std::atomic<T*>[cap]),
          prev(prev_buf) {}
    ~Buffer() { delete[] cells; }
    const std::uint64_t capacity;
    const std::uint64_t mask;
    std::atomic<T*>* const cells;
    Buffer* const prev;  // retired predecessor, freed at deque destruction
  };

  /// Owner only (from push): double the capacity, copying the live range
  /// [t, b). The old buffer stays readable for in-flight thieves.
  Buffer* grow(Buffer* old, std::int64_t t, std::int64_t b) {
    Buffer* buf = new Buffer(old->capacity * 2, old);
    for (std::int64_t i = t; i < b; ++i) {
      buf->cells[i & buf->mask].store(
          old->cells[i & old->mask].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    buffer_.store(buf, std::memory_order_release);
    return buf;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Buffer*> buffer_;
};

}  // namespace mcsym::check::dpor_detail
