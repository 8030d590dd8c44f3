// Internals of the optimal-DPOR explorer (dpor_optimal.cpp): the
// happens-before relation over the executed prefix, the weak-initial test,
// the wakeup-tree arena, and the "countable program" scan behind the
// counting feasibility fast path; plus what it shares with the sleep-set
// search (dpor.cpp): the internal-step classifier and the stateful arrival
// rule.
// Not part of the public check/ surface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "check/dpor.hpp"
#include "check/state_space.hpp"
#include "mcapi/system.hpp"
#include "support/assert.hpp"

namespace mcsym::check::dpor_detail {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Transitions an optimal-DPOR worker reserves from max_transitions at a
/// time. A lone worker spends each chunk before it reserves the next, so
/// its truncation points do not depend on the chunk size.
inline constexpr std::uint64_t kBudgetChunk = 64;

/// Happens-before over the events of the executed prefix, as a stack of
/// transitively closed bit rows: row j holds bit k (k < j) iff event k
/// happens before event j. Rows are packed into 64-bit words in one flat
/// arena with a shared stride (words per row); the stride doubles, and
/// every row is re-laid, when the path outgrows 64·stride events.
///
/// push() also keeps two scratch rows describing the newest event n:
/// `direct` (the events it directly depends on) and `mid` (the union of
/// those predecessors' own rows). Because rows are transitively closed,
/// "some m happens between k and n" is exactly mid(k), so the race scan's
/// adjacency test is one bit: adjacent(k) = direct(k) && !mid(k). The
/// scratch rows describe the newest push only; pop() leaves them stale.
class HappensBefore {
 public:
  [[nodiscard]] std::size_t size() const { return n_; }

  /// Appends event n = size(); `depends(k)` says whether event k < n is
  /// directly dependent on it. The new row is direct ∪ mid.
  template <class Depends>
  void push(Depends&& depends) {
    const std::size_t n = n_;
    if (n > kWordBits * stride_) grow();
    direct_.assign(stride_, 0);
    mid_.assign(stride_, 0);
    for (std::size_t k = 0; k < n; ++k) {
      if (!depends(k)) continue;
      direct_[k / kWordBits] |= bit(k);
      const std::uint64_t* below = &rows_[k * stride_];
      for (std::size_t w = 0, words = words_for(k); w < words; ++w) {
        mid_[w] |= below[w];
      }
    }
    rows_.resize((n + 1) * stride_);
    std::uint64_t* row = &rows_[n * stride_];
    for (std::size_t w = 0; w < stride_; ++w) row[w] = direct_[w] | mid_[w];
    n_ = n + 1;
  }

  /// Drops the newest event.
  void pop() {
    MCSYM_ASSERT(n_ > 0);
    --n_;
    rows_.resize(n_ * stride_);
  }

  /// Event k happens before event j (k < j < size()).
  [[nodiscard]] bool before(std::size_t k, std::size_t j) const {
    return (rows_[j * stride_ + k / kWordBits] & bit(k)) != 0;
  }

  /// The newest event directly depends on event k.
  [[nodiscard]] bool direct(std::size_t k) const {
    return (direct_[k / kWordBits] & bit(k)) != 0;
  }

  /// Event k and the newest event are dependent with no event
  /// happening between them: direct(k) && !mid(k).
  [[nodiscard]] bool adjacent(std::size_t k) const {
    return direct(k) && (mid_[k / kWordBits] & bit(k)) == 0;
  }

 private:
  static constexpr std::size_t kWordBits = 64;

  [[nodiscard]] static std::uint64_t bit(std::size_t k) {
    return std::uint64_t{1} << (k % kWordBits);
  }

  /// Words holding row k's bits (every bit of row k is below k).
  [[nodiscard]] static std::size_t words_for(std::size_t k) {
    return (k + kWordBits - 1) / kWordBits;
  }

  void grow() {
    const std::size_t wider = stride_ * 2;
    std::vector<std::uint64_t> rows(n_ * wider, 0);
    for (std::size_t j = 0; j < n_; ++j) {
      for (std::size_t w = 0; w < stride_; ++w) {
        rows[j * wider + w] = rows_[j * stride_ + w];
      }
    }
    rows_ = std::move(rows);
    stride_ = wider;
  }

  std::size_t n_ = 0;
  std::size_t stride_ = 1;
  std::vector<std::uint64_t> rows_;  // row j at [j*stride_, (j+1)*stride_)
  std::vector<std::uint64_t> direct_;
  std::vector<std::uint64_t> mid_;
};

inline bool is_internal_step(const mcapi::System& state, const mcapi::Action& a) {
  if (a.kind != mcapi::Action::Kind::kThreadStep) return false;
  const auto kind = state.next_op_kind(a.thread);
  if (!kind) return false;
  switch (*kind) {
    case mcapi::OpKind::kAssign:
    case mcapi::OpKind::kJmp:
    case mcapi::OpKind::kJmpIf:
    case mcapi::OpKind::kAssert:
    case mcapi::OpKind::kNop:
      return true;
    default:
      return false;
  }
}

/// Position of the first event of process `p` in `w` when that event
/// commutes with everything before it (p is a weak initial of w); kNpos
/// when p does not occur or cannot be brought to the front.
inline std::size_t weak_initial_pos(const mcapi::Action& p,
                                    const std::vector<mcapi::ActionFootprint>& w,
                                    mcapi::DeliveryMode mode) {
  for (std::size_t j = 0; j < w.size(); ++j) {
    if (!(w[j].action == p)) continue;
    for (std::size_t l = 0; l < j; ++l) {
      if (mcapi::dependent(w[l], w[j], mode)) return kNpos;
    }
    return j;
  }
  return kNpos;
}

/// Ordered tree of scheduled revisit sequences (branches are paths from
/// the root), per the POPL'14 wakeup-tree construction: insertion walks
/// existing branches consuming weak initials of the new sequence, returns
/// unchanged when an existing branch is already a weak prefix of it, and
/// otherwise grafts the remainder as a fresh rightmost branch.
class WakeupTree {
 public:
  [[nodiscard]] bool empty() const { return root_kids_.empty(); }

  /// Inserts `w`; returns the number of nodes actually added.
  std::size_t insert(std::vector<mcapi::ActionFootprint> w,
                     mcapi::DeliveryMode mode) {
    std::uint32_t at = kRoot;
    while (true) {
      if (w.empty()) return 0;  // the walked path already covers w
      if (at != kRoot && kids(at).empty()) return 0;  // existing leaf ⊑ w
      bool descended = false;
      for (const std::uint32_t c : kids(at)) {
        const std::size_t j = weak_initial_pos(nodes_[c].ev.action, w, mode);
        if (j == kNpos) continue;
        w.erase(w.begin() + static_cast<std::ptrdiff_t>(j));
        at = c;
        descended = true;
        break;
      }
      if (descended) continue;
      std::size_t added = 0;
      for (mcapi::ActionFootprint& e : w) {
        nodes_.push_back(Node{std::move(e), {}});
        const auto idx = static_cast<std::uint32_t>(nodes_.size() - 1);
        kids(at).push_back(idx);
        at = idx;
        ++added;
      }
      return added;
    }
  }

  /// Detaches the leftmost branch: its first event plus the subtree below
  /// it, which becomes the scheduled tree of the child exploration. Nodes
  /// are moved out (their slots in this arena become unreachable garbage,
  /// reclaimed when the frame's tree dies).
  std::pair<mcapi::ActionFootprint, WakeupTree> pop_first() {
    MCSYM_ASSERT(!root_kids_.empty());
    const std::uint32_t first = root_kids_.front();
    root_kids_.erase(root_kids_.begin());
    WakeupTree sub;
    for (const std::uint32_t c : nodes_[first].kids) {
      const std::uint32_t moved = sub.take_from(*this, c);
      sub.root_kids_.push_back(moved);
    }
    return {std::move(nodes_[first].ev), std::move(sub)};
  }

 private:
  struct Node {
    mcapi::ActionFootprint ev;
    std::vector<std::uint32_t> kids;
  };
  static constexpr std::uint32_t kRoot = static_cast<std::uint32_t>(-1);

  std::vector<std::uint32_t>& kids(std::uint32_t at) {
    return at == kRoot ? root_kids_ : nodes_[at].kids;
  }

  std::uint32_t take_from(WakeupTree& other, std::uint32_t idx) {
    nodes_.push_back(Node{std::move(other.nodes_[idx].ev), {}});
    const auto mine = static_cast<std::uint32_t>(nodes_.size() - 1);
    for (const std::uint32_t c : other.nodes_[idx].kids) {
      const std::uint32_t moved = take_from(other, c);
      nodes_[mine].kids.push_back(moved);
    }
    return mine;
  }

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> root_kids_;
};

/// The stateful arrival rule of both DPOR modes, at a non-maximal state
/// reached by `depth` actions. An on-path revisit cuts the state —
/// regardless of progress, which bounds path length on cyclic programs —
/// and one with no match recorded since the first visit is a realized
/// livelock; the first becomes the lasso witness (`script()` returns the
/// path's actions). Only sleep-free states are roots of complete subtrees,
/// so only they are stored, and a store hit prunes only when no wakeup
/// subtree is scheduled here (reversal sequences are never discarded).
/// Returns false when the state is cut or pruned; otherwise registers it
/// on the cycle stack and returns its fingerprint in `fp`.
template <class Script>
bool enter_state(const mcapi::System& sys, std::size_t depth, bool sleep_free,
                 bool scheduled, VisitedStateStore& store, CycleStack& cycles,
                 DporResult& result, Script&& script,
                 std::optional<std::uint64_t>& fp) {
  const std::uint64_t here = sys.fingerprint();
  if (const auto prev = cycles.find(here)) {
    ++result.stats.state_space.cycles_found;
    if (sys.matches().size() <= prev->progress) {
      ++result.stats.state_space.nonprogressive_cycles;
      if (!result.non_termination_found) {
        result.non_termination_found = true;
        split_lasso(script(), prev->depth, result.lasso_stem,
                    result.lasso_cycle);
      }
    }
    return false;
  }
  if (sleep_free) {
    if (!scheduled) {
      if (store.visit(here)) return false;
    } else if (!store.contains(here)) {
      store.insert(here);
    }
  }
  cycles.push(here, depth, sys.matches().size());
  fp = here;
  return true;
}

/// Whether race-reversal feasibility can be decided by pure integer
/// counting over footprints: a program whose only operations are send /
/// blocking recv / straight-line locals under arbitrary-delay delivery.
/// An action's enabledness then depends solely on a channel or endpoint
/// queue LENGTH, and every footprinted op kind is fixed across replays
/// (no data-dependent branches, no request observations, no asserts that
/// could cut a simulation short).
inline bool countable_program(const mcapi::Program& program,
                              mcapi::DeliveryMode mode) {
  if (mode != mcapi::DeliveryMode::kArbitraryDelay) return false;
  for (mcapi::ThreadRef t = 0; t < program.num_threads(); ++t) {
    for (const mcapi::Instr& i : program.thread(t).code) {
      switch (i.kind) {
        case mcapi::OpKind::kRecvNb:
        case mcapi::OpKind::kWait:
        case mcapi::OpKind::kWaitAny:
        case mcapi::OpKind::kTest:
        case mcapi::OpKind::kAssert:
        case mcapi::OpKind::kJmpIf:
          return false;
        default:
          break;
      }
    }
  }
  return true;
}

}  // namespace mcsym::check::dpor_detail
