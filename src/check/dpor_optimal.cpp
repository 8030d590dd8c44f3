// Optimal DPOR (DporMode::kOptimal) at every worker count: one exploration
// tree, explored by one worker on the calling thread or by a work-stealing
// fleet.
//
// A race found deep in one subtree schedules revisit sequences into
// *ancestor* frames, so sibling subtrees are not independent tasks — a late
// insert may need to graft into a branch another worker is exploring. The
// tree therefore lives in shared memory and is never detached:
//
//  * Node = frame, Branch = wakeup-tree root child. Workers CLAIM branches
//    in place; a claim is a checkpoint recipe — walk parent pointers to
//    recover the prefix schedule, replay it on the worker's own journaling
//    System (rolling back only to the lowest common ancestor of the
//    previous position), then explore the subtree depth-first, claiming
//    each frame's branches in sibling order.
//  * Scheduling is work stealing. Every worker owns a Chase–Lev deque
//    (steal_deque.hpp): branches it creates are pushed at the bottom and
//    popped from the bottom, so local exploration stays LIFO and
//    journal-hot; an idle worker steals from the TOP of a random victim —
//    the branch highest in the tree, a large subtree behind a short
//    navigate() replay. The branch a worker descends into next is never
//    pushed (its local claim is immediate).
//  * Deque entries leave as their branches are claimed. A popper or thief
//    that claims an entry's branch has already removed the entry. A worker
//    that claims a branch through its frame scan then pops every
//    non-pending entry off its own deque's bottom (drop_claimed), which is
//    where its own frames' entries sit by the time it scans them. Entries
//    it cannot reach — under a pending entry, or in another worker's deque
//    (a graft pushes onto the grafting worker's deque) — stay until popped
//    or stolen, and lose the claim there.
//  * Branch claims are lock-free: a claim is one CAS on the branch state
//    (kPending -> kClaimed), so a branch reaches exactly one claimer no
//    matter how many deque entries or frame scans race for it; losers
//    count a claim_conflict. Branch storage is append-only (BranchList),
//    so ev / pick / the sibling prefix below any published index are
//    immutable and the claim path takes no lock.
//  * Node layout: the frame's first branch is stored inside the Node; the
//    BranchList allocates its table of 32 chunk pointers, and chunk c
//    holding branches [2^c, 2^{c+1}), only when a later branch is
//    appended. Most frames hold one branch, so most nodes are one
//    allocation. A branch that reaches a maximal state gets no node: its
//    child is the explorer's shared leaf_.
//  * The max_transitions budget is reserved per worker, in chunks of
//    dpor_detail::kBudgetChunk, so the shared counter is not touched on
//    every apply. The shared atomics (stop_, outstanding_, transitions_)
//    sit on separate cache lines.
//  * Mutation is node-local. Each Node's mutex guards appends to its
//    branch list (grafts from insert_into_node) and the handoff of a
//    branch's scheduled subtree into its child frame when it executes.
//    Workers exploring disjoint subtrees share no locks.
//  * Sleep sets are EAGER and ordered: the sleep of branch b_i is the
//    frame's inherited sleep plus the (non-internal) first actions of the
//    siblings ordered before b_i, footprinted at the frame's own state.
//    Branch order is append-only, so the set is fixed when b_i is created
//    — no waiting for earlier siblings to COMPLETE.
//  * Race scans run once per tree edge, by the edge's first executor;
//    prefix replays rebuild events/happens-before rows but never re-scan.
//  * Termination is steal-round quiescence: `outstanding_` counts branches
//    not yet retired (created before their parent retires, so it reaches
//    zero only when the whole tree is explored). A worker whose deque is
//    empty runs steal rounds; after a failed one it exits if
//    outstanding_ == 0, else backs off (yield, then microsleeps).
//  * Teardown is parallel and owner-local: each worker frees the nodes it
//    allocated, after a barrier every worker reaches once it stops (until
//    then a peer's graft or prefix replay may walk into any node).
//
// One worker (workers == 1, and every stateful run) is the same explorer
// without the fleet: it runs on the calling thread with no deque and no
// quiescence count, and visits the tree in sibling order — the source-set
// DFS of Abdulla et al. (JACM'17). Its inserts only walk branches to the
// right of its own path, all unexecuted, so a finished node is never
// touched again and goes back to a spare-node pool. Stateful exploration
// (check/state_space.hpp) hooks into arrivals and frame pops: an on-path
// revisit cuts the new frame (classified into a non-termination lasso),
// the visited store prunes a sleep-free arrival with nothing scheduled,
// and leaving a frame pops its cycle-stack entry.
//
// Determinism across worker counts: scans inside an earlier sibling's
// subtree graft sequences into later siblings' chains, so concurrent
// siblings can commit a worker to a linearization one worker would have
// folded into a scheduled chain. Such a raced path is always killed by
// its sleep set before it completes (the eager ordered-before entries
// survive filtering until the path would execute them), so on
// violation-free programs the COMPLETED executions are still one
// representative per Mazurkiewicz trace at every worker count
// (parallel_dpor_test pins this across workers ∈ {1,2,4,8}). The argument
// uses only the append-only sibling ORDER, never the claim order. One
// worker counts a killed path as the sequential algorithm does (an
// execution, and redundant); a fleet cannot tell a sleep-set-blocked path
// from a raced duplicate and files both in parallel_duplicates. The
// counter contract is DporOptions::workers; a violation stops all workers
// at the first finder, so counters on violating programs are partial.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "check/dpor.hpp"
#include "check/dpor_internal.hpp"
#include "check/state_space.hpp"
#include "check/steal_deque.hpp"
#include "support/assert.hpp"
#include "support/stats.hpp"

namespace mcsym::check {

using mcapi::Action;
using mcapi::ActionFootprint;
using mcapi::OpKind;
using mcapi::System;

namespace {

using dpor_detail::is_internal_step;
using dpor_detail::kNpos;
using dpor_detail::StealDeque;
using dpor_detail::WakeupTree;
using dpor_detail::weak_initial_pos;

constexpr std::uint32_t kNoBranch = static_cast<std::uint32_t>(-1);

constexpr std::size_t kCacheLine = 64;

constexpr std::uint8_t kStatePending = 0;
constexpr std::uint8_t kStateClaimed = 1;
constexpr std::uint8_t kStateDone = 2;

/// Whether `a` is among the first actions of `sleep`.
bool asleep_in(const std::vector<ActionFootprint>& sleep, const Action& a) {
  return std::any_of(sleep.begin(), sleep.end(),
                     [&a](const ActionFootprint& q) { return q.action == a; });
}

/// The branch a frame with nothing scheduled starts from: an internal step
/// as a singleton ample set, else the first enabled action not asleep;
/// nullptr when every enabled action is asleep.
const Action* initial_pick(const System& sys, const std::vector<Action>& enabled,
                           const std::vector<ActionFootprint>& sleep) {
  for (const Action& a : enabled) {
    if (is_internal_step(sys, a)) return &a;
  }
  for (const Action& a : enabled) {
    if (!asleep_in(sleep, a)) return &a;
  }
  return nullptr;
}

struct Node;

/// One wakeup-tree root child of a frame, live as long as its frame. `ev`,
/// `pick`, `owner` and `index` are written before the branch is published
/// (BranchList::append's release) and immutable afterwards — every reader
/// path (claims, sibling snapshots, sleep coverage) touches only those, so
/// the hot path needs no lock. `state` is the lock-free claim word.
/// `subtree` (scheduled sequences below an unexecuted branch) and the
/// `child` handoff are guarded by the owning node's mutex: execution moves
/// the subtree into the child Node and publishes `child` in one critical
/// section, so concurrent grafts always land somewhere a worker will visit.
struct Branch {
  ActionFootprint ev;  // first event; .action/.internal authoritative, the
                       // rest recomputed at execution
  WakeupTree subtree;           // guarded by owner->mu until child is set
  Node* owner = nullptr;        // frame this branch belongs to
  std::uint32_t index = 0;      // position in owner's branch list
  bool pick = false;            // initial-pick seed, not scheduled material
  std::atomic<std::uint8_t> state{kStatePending};
  std::atomic<Node*> child{nullptr};  // set when the branch executes;
                                      // freed by the worker that created it
};

/// Append-only branch storage. Branch 0 lives inside the list itself (most
/// frames hold one branch); branch i >= 1 lives in chunk c = floor(log2 i),
/// which holds the 2^c indices [2^c, 2^{c+1}). The chunk table is allocated
/// by the second append. Branches never move once constructed — their
/// addresses are the deque entries and their atomics are CASed in place,
/// which a reallocating vector could never support. Appends (under the
/// owning node's mutex) fill the slot, then publish it with a release
/// store of the size; lock-free readers use size_acquire() or an index
/// they obtained from a published branch, so every slot they touch is
/// fully constructed.
class BranchList {
 public:
  BranchList() = default;
  BranchList(const BranchList&) = delete;
  BranchList& operator=(const BranchList&) = delete;

  ~BranchList() {
    std::atomic<Branch*>* table = table_.load(std::memory_order_relaxed);
    if (table == nullptr) return;
    for (std::uint32_t c = 0; c < kMaxChunks; ++c) {
      delete[] table[c].load(std::memory_order_relaxed);
    }
    delete[] table;
  }

  [[nodiscard]] std::uint32_t size_acquire() const {
    return size_.load(std::memory_order_acquire);
  }

  [[nodiscard]] Branch& operator[](std::uint32_t i) const {
    if (i == 0) return first_;
    const std::uint32_t c = chunk_of(i);
    return table_.load(std::memory_order_acquire)[c].load(
        std::memory_order_acquire)[i - (std::uint32_t{1} << c)];
  }

  /// Forgets every branch but keeps the storage, for a recycled node.
  void clear() { size_.store(0, std::memory_order_relaxed); }

  /// Appends and publishes a branch (caller holds the owning node's mutex).
  Branch& append(Node* owner, ActionFootprint ev, WakeupTree subtree,
                 bool pick) {
    const std::uint32_t i = size_.load(std::memory_order_relaxed);
    Branch& b = i == 0 ? first_ : chunk_slot(i);
    b.ev = std::move(ev);
    b.subtree = std::move(subtree);
    b.owner = owner;
    b.index = i;
    b.pick = pick;
    b.state.store(kStatePending, std::memory_order_relaxed);
    b.child.store(nullptr, std::memory_order_relaxed);
    size_.store(i + 1, std::memory_order_release);
    return b;
  }

 private:
  // 32 doublings cover every nonzero 32-bit index.
  static constexpr std::uint32_t kMaxChunks = 32;

  [[nodiscard]] static std::uint32_t chunk_of(std::uint32_t i) {
    return static_cast<std::uint32_t>(std::bit_width(i)) - 1;
  }

  /// The slot of index i >= 1, allocating the table and its chunk on
  /// first use (caller holds the owning node's mutex).
  Branch& chunk_slot(std::uint32_t i) {
    std::atomic<Branch*>* table = table_.load(std::memory_order_relaxed);
    if (table == nullptr) {
      table = new std::atomic<Branch*>[kMaxChunks]();
      table_.store(table, std::memory_order_release);
    }
    const std::uint32_t c = chunk_of(i);
    Branch* chunk = table[c].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Branch[std::size_t{1} << c];
      table[c].store(chunk, std::memory_order_release);
    }
    return chunk[i - (std::uint32_t{1} << c)];
  }

  mutable Branch first_;
  std::atomic<std::atomic<Branch*>*> table_{nullptr};
  std::atomic<std::uint32_t> size_{0};
};

/// One frame of the shared exploration tree. parent/depth/arrival/
/// inherited_sleep/cycle_fp are written before the node is
/// published (via its parent branch's `child` release store) and immutable
/// afterwards; `branches` grows append-only under `mu`, which also
/// serializes grafts into an unexecuted branch's subtree against that
/// branch's execution.
struct Node {
  Node* parent = nullptr;
  std::uint32_t parent_branch = 0;
  std::uint32_t depth = 0;
  ActionFootprint arrival;  // footprint executed from parent (exact identities)
  std::vector<ActionFootprint> inherited_sleep;
  std::mutex mu;
  BranchList branches;
  std::optional<std::uint64_t> cycle_fp;  // stateful: on the cycle stack
};

class OptimalExplorer {
 public:
  /// `store` / `cycles` are the stateful hooks (both null when stateless);
  /// a stateful run always explores with one worker.
  OptimalExplorer(const mcapi::Program& program, const DporOptions& options,
                  const support::Stopwatch& timer, VisitedStateStore* store,
                  CycleStack* cycles)
      : program_(program),
        options_(options),
        timer_(timer),
        mode_(options.mode),
        countable_(dpor_detail::countable_program(program, options.mode)),
        workers_(cycles != nullptr ? 1 : std::max(options.workers, 1u)),
        single_(workers_ == 1),
        store_(store),
        cycles_(cycles),
        teardown_(static_cast<std::ptrdiff_t>(workers_)) {}

  void run(DporResult& result);

 private:
  /// Worker-private exploration state: one journaling System walked up and
  /// down the shared tree, plus the executed prefix's footprints and
  /// happens-before rows (rebuilt on prefix replay, never shared).
  struct Worker {
    Worker(const OptimalExplorer& x, std::uint32_t worker_id)
        : sys(x.program_, x.mode_),
          id(worker_id),
          rng(0x9E3779B97F4A7C15ull * (worker_id + 1)),
          deadline(x.timer_, x.options_.max_seconds, x.options_.interrupted) {
      sys.enable_undo_log();
    }
    System sys;
    std::uint32_t id;
    std::uint64_t rng;  // victim-selection stream (splitmix-style)
    support::Deadline deadline;
    std::vector<Node*> path;  // path[d] = node at depth d; back() = position
    std::vector<ActionFootprint> events;  // events[d] = arrival into path[d+1]
    dpor_detail::HappensBefore hb;        // over events
    std::vector<Action> enabled;
    std::vector<Node*> chain;  // navigate scratch
    // Every Node this worker allocated. The worker frees them itself once
    // all workers have stopped touching the tree (see worker_main).
    std::vector<std::unique_ptr<Node>> nodes;
    std::vector<Node*> spare;  // one worker: finished nodes, ready for reuse
    // Applies reserved from the shared max_transitions budget and not yet
    // spent; `budget_ends` when this reservation holds the budget's last
    // transition.
    std::uint64_t budget = 0;
    bool budget_ends = false;
    DporStats stats;
    // count_feasible scratch
    std::vector<std::pair<mcapi::ChannelId, std::ptrdiff_t>> chan_len;
    std::vector<std::ptrdiff_t> ep_len;
  };

  void worker_main(std::uint32_t id);
  void explore(Worker& w, Node* entry, std::uint32_t entry_branch);
  /// Executes the claimed branch `bi` of `node` (sys must be at node's
  /// state). Returns the child node to descend into, or nullptr when the
  /// branch ended (maximal state, sleep-blocked, cut, pruned, violation,
  /// budget). `abort` is set when the whole search should stop.
  Node* execute_branch(Worker& w, Node* node, std::uint32_t bi, bool& abort);
  void scan_races(Worker& w, const ActionFootprint& ev);
  bool count_feasible(Worker& w, std::size_t k,
                      const std::vector<ActionFootprint>& v);
  void navigate(Worker& w, Node* target);
  void push_event(Worker& w, const ActionFootprint& ev);
  /// Undoes the newest event on the worker's System, events and hb.
  void pop_event(Worker& w);
  /// Inserts `w_` below `f`, walking branches >= min_branch at the top
  /// level and every branch deeper. Locks one node at a time (appends and
  /// subtree grafts only); a fresh branch is pushed onto the calling
  /// worker's deque. Returns nodes added.
  std::size_t insert_into_node(Worker& w, Node* f, std::uint32_t min_branch,
                               std::vector<ActionFootprint> w_);
  /// One steal round: every other worker's deque once, starting at a
  /// random victim. Returns the stolen branch or nullptr (the round
  /// failed; counted in steal_failures).
  Branch* steal_round(Worker& w);
  /// Folds a stopped worker's counters into the result.
  void merge(const Worker& w);

  /// Pops the entries at the bottom of the worker's own deque whose
  /// branches are no longer pending (claimed by a frame scan, or done), so
  /// thieves do not steal them only to lose the claim. Stops at the first
  /// pending entry.
  void drop_claimed(Worker& w) {
    if (single_) return;
    StealDeque<Branch>& dq = *deques_[w.id];
    while (Branch* b = dq.peek()) {
      if (b->state.load(std::memory_order_relaxed) == kStatePending) return;
      (void)dq.pop();
    }
  }

  /// Lock-free claim: exactly one caller wins the pending -> claimed CAS.
  [[nodiscard]] static bool try_claim(Branch& b) {
    std::uint8_t expected = kStatePending;
    return b.state.compare_exchange_strong(expected, kStateClaimed,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed);
  }

  /// A branch's exploration is complete (leaf outcome or subtree
  /// exhausted): mark it done and drop it from the quiescence count. The
  /// release pairs with the idle loop's acquire so a worker that observes
  /// outstanding_ == 0 sees the finished tree.
  void retire(Branch& b) {
    b.state.store(kStateDone, std::memory_order_relaxed);
    if (!single_) outstanding_.fetch_sub(1, std::memory_order_release);
  }

  /// Counts a just-created branch toward quiescence and exposes it to
  /// thieves via the creating worker's deque. Creation always precedes the
  /// creating branch's retire, so outstanding_ can only hit zero when the
  /// whole tree is explored. One worker has no thieves and no quiescence
  /// to detect: its explore loop finds every branch in sibling order.
  void publish_work(Worker& w, Branch& b) {
    if (single_) return;
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    deques_[w.id]->push(&b);
  }

  /// Takes one transition of the max_transitions budget for the next
  /// apply: from the worker's reserved chunk, or by reserving the next
  /// dpor_detail::kBudgetChunk (the last chunk is cut at the budget).
  /// False when the budget is spent. One worker spends the budget exactly;
  /// a fleet may stop with up to (workers - 1) chunks reserved but unspent.
  bool reserve_transition(Worker& w) {
    if (w.budget == 0) {
      const std::uint64_t max = options_.max_transitions;
      const std::uint64_t got = transitions_.fetch_add(
          dpor_detail::kBudgetChunk, std::memory_order_relaxed);
      if (got >= max) return false;
      w.budget = std::min(dpor_detail::kBudgetChunk, max - got);
      w.budget_ends = w.budget == max - got;
    }
    --w.budget;
    return true;
  }

  /// A path its sleep set killed before it completed an execution. One
  /// worker explores in sibling order, so this is the sequential
  /// algorithm's sleep-set-blocked path (an execution, counted redundant);
  /// in a fleet it is indistinguishable from a raced duplicate.
  void count_blocked(Worker& w) const {
    if (single_) {
      ++w.stats.redundant_explorations;
      ++w.stats.executions;
    } else {
      ++w.stats.parallel_duplicates;
    }
  }

  /// A fresh frame: a spare node when one worker has one, else a new one.
  Node* new_node(Worker& w) {
    if (w.spare.empty()) return w.nodes.emplace_back(std::make_unique<Node>()).get();
    Node* n = w.spare.back();
    w.spare.pop_back();
    return n;
  }

  /// The worker is done with frame `n` (its subtree is finished): pop its
  /// cycle-stack entry. One worker never touches the node again — its
  /// inserts walk only unexecuted branches — so it goes back to the pool.
  void leave(Worker& w, Node* n) {
    if (n->cycle_fp) cycles_->pop(*n->cycle_fp);
    if (!single_) return;
    n->parent->branches[n->parent_branch].child.store(
        nullptr, std::memory_order_relaxed);
    n->branches.clear();
    n->cycle_fp.reset();
    w.spare.push_back(n);
  }

  [[nodiscard]] static std::vector<Action> actions_of(
      const std::vector<ActionFootprint>& events) {
    std::vector<Action> script;
    script.reserve(events.size());
    for (const ActionFootprint& e : events) script.push_back(e.action);
    return script;
  }

  const mcapi::Program& program_;
  const DporOptions& options_;
  const support::Stopwatch& timer_;
  const mcapi::DeliveryMode mode_;
  const bool countable_;
  const std::uint32_t workers_;
  const bool single_;
  VisitedStateStore* const store_;
  CycleStack* const cycles_;

  Node root_;
  /// The child of every branch whose execution reached a maximal state
  /// (see execute_branch). It holds no branches and no worker enters it.
  Node leaf_;
  std::vector<std::unique_ptr<StealDeque<Branch>>> deques_;  // one per worker
  // The shared atomics sit on separate cache lines: outstanding_ is
  // written once per branch, stop_ read by every step, transitions_
  // written once per budget chunk.
  /// Branches created but not yet retired; zero <=> exploration complete
  /// (the steal-round quiescence test — see worker_main).
  alignas(kCacheLine) std::atomic<std::uint64_t> outstanding_{0};
  alignas(kCacheLine) std::atomic<bool> stop_{false};
  std::atomic<bool> truncated_{false};
  /// Transitions reserved from max_transitions so far (see
  /// reserve_transition).
  alignas(kCacheLine) std::atomic<std::uint64_t> transitions_{0};
  /// Every worker arrives once it stops exploring (see worker_main).
  alignas(kCacheLine) std::barrier<> teardown_;

  // Result fields (violation / deadlock / stats merge), guarded separately
  // so a finisher never contends with tree traffic.
  std::mutex result_mu_;
  DporResult* result_ = nullptr;
};

void OptimalExplorer::push_event(Worker& w, const ActionFootprint& ev) {
  w.hb.push([&](std::size_t k) {
    return mcapi::dependent(w.events[k], ev, mode_);
  });
  w.events.push_back(ev);
}

void OptimalExplorer::pop_event(Worker& w) {
  w.sys.undo();
  w.events.pop_back();
  w.hb.pop();
}

// Counting feasibility of reversal candidate `v` at race point `k` (only
// valid when countable_; see dpor_detail::countable_program): reconstruct
// channel/endpoint queue lengths at state k by inverting the executed
// suffix against the live state, then run the candidate through the
// counters — a deliver needs its channel non-empty, a recv its endpoint
// queue non-empty, everything else always fires. Exact for countable
// programs because per-thread control is straight-line, so the footprinted
// op kinds replay as-is.
bool OptimalExplorer::count_feasible(Worker& w, std::size_t k,
                                     const std::vector<ActionFootprint>& v) {
  w.chan_len.clear();
  auto chan = [&](mcapi::ChannelId c) -> std::ptrdiff_t& {
    for (auto& [id, len] : w.chan_len) {
      if (id == c) return len;
    }
    w.chan_len.emplace_back(c,
                            static_cast<std::ptrdiff_t>(w.sys.transit_size(c)));
    return w.chan_len.back().second;
  };
  w.ep_len.assign(program_.num_endpoints(), 0);
  for (std::size_t e = 0; e < w.ep_len.size(); ++e) {
    w.ep_len[e] = static_cast<std::ptrdiff_t>(
        w.sys.queue_size(static_cast<mcapi::EndpointRef>(e)));
  }
  for (std::size_t j = w.events.size(); j-- > k;) {
    const ActionFootprint& e = w.events[j];
    if (e.action.kind == Action::Kind::kDeliver) {
      ++chan(e.channel);
      --w.ep_len[e.channel.dst];
    } else if (e.op == OpKind::kSend) {
      --chan(e.channel);
    } else if (e.op == OpKind::kRecv) {
      ++w.ep_len[e.endpoint];
    }
  }
  for (const ActionFootprint& e : v) {
    if (e.action.kind == Action::Kind::kDeliver) {
      std::ptrdiff_t& len = chan(e.channel);
      if (len <= 0) return false;
      --len;
      ++w.ep_len[e.channel.dst];
    } else if (e.op == OpKind::kSend) {
      ++chan(e.channel);
    } else if (e.op == OpKind::kRecv) {
      if (w.ep_len[e.endpoint] <= 0) return false;
      --w.ep_len[e.endpoint];
    }
  }
  return true;
}

std::size_t OptimalExplorer::insert_into_node(Worker& w, Node* f,
                                               std::uint32_t min_branch,
                                               std::vector<ActionFootprint> w_) {
  // The textbook insert walks frame f's own wakeup tree, whose branches
  // are detached as they execute. In the live shared tree a matched branch
  // may already be executed (only in a fleet: one worker walks branches to
  // the right of its own path, all unexecuted); the graft then lands where
  // the detached walk would have put it — the child node's branch list —
  // preserving the lineage of the grafted trace. Below the top frame only
  // scheduled-origin branches are chain structure: a matched initial-pick
  // sibling means the sequence routes through an exploration that
  // re-derives everything it needs itself (the detached walk consumes the
  // pick's event and drops the rest at its empty-chain leaf), and a node
  // with no scheduled-origin branches is the chain's leaf (leaf ⊑ w: drop).
  //
  // Locking is node-local and held one node at a time: the scan + the
  // mutation it decides on (graft into an unexecuted branch's subtree, or
  // append a fresh rightmost branch) happen under the same critical
  // section, so the decision is consistent with every concurrent append
  // and with the branch-execution handoff (which takes the same mutex to
  // move the subtree and set `child`). Descending releases the lock —
  // the child's list is re-scanned under the child's own mutex.
  Node* node = f;
  std::uint32_t start = min_branch;
  bool deeper = false;
  while (true) {
    if (w_.empty()) return 0;     // an explored/scheduled path covers w
    if (node == &leaf_) return 0;  // executed maximal leaf ⊑ w
    std::unique_lock<std::mutex> lock(node->mu);
    bool descended = false;
    bool has_scheduled = false;
    const std::uint32_t n = node->branches.size_acquire();
    for (std::uint32_t i = start; i < n; ++i) {
      Branch& c = node->branches[i];
      if (!c.pick) has_scheduled = true;
      const std::size_t j = weak_initial_pos(c.ev.action, w_, mode_);
      if (j == kNpos) continue;
      if (c.pick) return 0;
      w_.erase(w_.begin() + static_cast<std::ptrdiff_t>(j));
      if (Node* child = c.child.load(std::memory_order_acquire)) {
        lock.unlock();
        node = child;
        start = 0;
        deeper = true;
        descended = true;
        break;
      }
      if (w_.empty()) return 0;
      if (c.subtree.empty()) return 0;  // scheduled leaf ⊑ w
      return c.subtree.insert(std::move(w_), mode_);
    }
    if (descended) continue;
    if (deeper) {
      if (!has_scheduled) return 0;  // chain leaf ⊑ w
      // A deep graft lands rightmost at a LIVE frame; unlike a scheduled
      // chain before execution this node already has a sleep set, and a
      // sequence it covers is explored elsewhere.
      for (const ActionFootprint& q : node->inherited_sleep) {
        if (weak_initial_pos(q.action, w_, mode_) != kNpos) return 0;
      }
    }
    // No weak initial among the live branches: fresh rightmost branch,
    // the first event heading it and the remainder as its scheduled chain.
    std::size_t added = 1;
    WakeupTree rest_tree;
    ActionFootprint head = std::move(w_.front());
    if (w_.size() > 1) {
      std::vector<ActionFootprint> rest(std::make_move_iterator(w_.begin() + 1),
                                        std::make_move_iterator(w_.end()));
      added += rest_tree.insert(std::move(rest), mode_);
    }
    Branch& nb =
        node->branches.append(node, std::move(head), std::move(rest_tree),
                              /*pick=*/false);
    publish_work(w, nb);
    return added;
  }
}

void OptimalExplorer::scan_races(Worker& w, const ActionFootprint& ev) {
  // `ev` is w.events.back() (already pushed, hb row built); n is its index.
  if (ev.internal) return;  // internal steps race with nothing
  const std::size_t n = w.events.size() - 1;
  std::size_t rewound = w.events.size();
  std::vector<ActionFootprint> v;
  for (std::size_t k = n; k-- > 0;) {
    const ActionFootprint& ek = w.events[k];
    if (ek.internal) continue;
    // Dependent with nothing happening between: independent and
    // transitively ordered pairs are not races.
    if (!w.hb.adjacent(k)) continue;
    if (ek.action == ev.action) continue;  // program order, not a race

    // Candidate reversal: everything after ek not causally behind it,
    // then the racing process itself.
    v.clear();
    v.reserve(n - k);
    for (std::size_t j = k + 1; j < n; ++j) {
      if (!w.hb.before(k, j)) v.push_back(w.events[j]);
    }
    v.push_back(ev);

    // Sleep coverage at the target frame: the frame's inherited sleep plus
    // the non-internal first actions of branches ordered before this
    // worker's own branch there (the eager ordered sleep set — for one
    // worker, exactly the completed siblings' sleep). Lock-free:
    // inherited_sleep is immutable and the sibling prefix below our own
    // branch index was published before that branch was.
    Node* f = w.path[k];
    const std::uint32_t anc = w.path[k + 1]->parent_branch;
    auto covers = [&](const ActionFootprint& q) {
      return weak_initial_pos(q.action, v, mode_) != kNpos;
    };
    bool covered = std::any_of(f->inherited_sleep.begin(),
                               f->inherited_sleep.end(), covers);
    for (std::uint32_t i = 0; !covered && i < anc; ++i) {
      const Branch& sib = f->branches[i];
      covered = !sib.ev.internal && covers(sib.ev);  // internal arrivals never sleep
    }
    if (covered) continue;

    // Reversibility check against the real semantics, on this worker's own
    // live System: a purely causal pair (a send vs. the delivery of its own
    // message, a delivery vs. the wait it unblocks) leaves the final action
    // disabled. A reversal that runs into an assertion violation is kept:
    // the exploration must reach that violation. Hot-path exception: two
    // deliveries racing for one endpoint (the only dependent delivery pair
    // under arbitrary delay) are always reversible — the reversal's causal
    // prefix keeps both messages in transit — so they skip the simulation.
    const bool deliver_pair = mode_ == mcapi::DeliveryMode::kArbitraryDelay &&
                              ek.action.kind == Action::Kind::kDeliver &&
                              ev.action.kind == Action::Kind::kDeliver;
    if (!deliver_pair) {
      if (countable_) {
        // Pure integer counting over the footprints; the live System is
        // never touched (and no prefix restore is owed afterwards).
        if (!count_feasible(w, k, v)) continue;
      } else {
        // Apply -> inspect -> undo on the live state: rewind to the frame
        // before the raced event (checkpoint k = k events applied), run
        // the candidate, roll it back. The scan visits race points in
        // decreasing depth, so the rewind is monotone and the executed
        // prefix is replayed once, after the scan.
        w.sys.rollback(k);
        rewound = k;
        bool feasible = true;
        for (const ActionFootprint& e : v) {
          if (w.sys.has_violation()) break;
          if (!w.sys.action_enabled(e.action)) {
            feasible = false;
            break;
          }
          w.sys.apply(e.action);
        }
        w.sys.rollback(k);
        if (!feasible) continue;
      }
    }
    ++w.stats.races_detected;
    w.stats.wakeup_nodes += insert_into_node(w, f, anc + 1, std::move(v));
    v.clear();
  }
  // Replay the executed prefix the simulations rewound.
  for (std::size_t j = rewound; j < w.events.size(); ++j) {
    w.sys.apply(w.events[j].action);
  }
}

Node* OptimalExplorer::execute_branch(Worker& w, Node* node, std::uint32_t bi,
                                      bool& abort) {
  // A spent budget stops every worker.
  auto truncate = [&] {
    truncated_.store(true, std::memory_order_relaxed);
    stop_.store(true, std::memory_order_relaxed);
    abort = true;
    return nullptr;
  };
  if (stop_.load(std::memory_order_relaxed)) {
    abort = true;
    return nullptr;
  }
  if (w.deadline.expired()) return truncate();

  // The hot claim path is lock-free end to end: this branch is ours (the
  // claim CAS already won), its ev is immutable, and the ordered-before
  // sibling prefix [0, bi) was published before this branch was — branch
  // order is append-only, so later concurrent inserts only ever land at
  // indices > bi and cannot change what we read here.
  Branch& b = node->branches[bi];
  const Action action = b.ev.action;
  bool asleep = asleep_in(node->inherited_sleep, action);
  for (std::uint32_t i = 0; i < bi && !asleep; ++i) {
    const Branch& sib = node->branches[i];
    if (!sib.ev.internal && sib.ev.action == action) asleep = true;
  }
  if (asleep || !w.sys.action_enabled(action)) {
    // The sleep set kills this scheduled branch before it runs (in a
    // fleet, typically a concurrent claim committed to a linearization
    // that makes it redundant), so it contributes no completed execution.
    count_blocked(w);
    retire(b);
    return nullptr;
  }

  // Child sleep set, computed against the pre-step state: inherited sleep
  // plus the earlier siblings' footprints (recomputed here at the frame's
  // own state, so exact), minus what depends on the arriving event — of
  // which an internal step has nothing.
  const ActionFootprint fresh = w.sys.footprint(action);
  std::vector<ActionFootprint> child_sleep;
  auto keep = [&](ActionFootprint q) {
    if (fresh.internal || !mcapi::dependent(fresh, q, mode_)) {
      child_sleep.push_back(std::move(q));
    }
  };
  for (const ActionFootprint& q : node->inherited_sleep) keep(q);
  for (std::uint32_t i = 0; i < bi; ++i) {
    const Branch& sib = node->branches[i];
    if (!sib.ev.internal) keep(w.sys.footprint(sib.ev.action));
  }

  // The max_transitions budget counts every fresh apply (honest work
  // bound); stats.transitions is charged arrival-edge-exact at execution
  // completion instead, so killed-path work never inflates it.
  if (!reserve_transition(w)) return truncate();
  w.sys.apply(fresh.action);
  push_event(w, fresh);

  // Every applied edge is race-scanned once, by its first executor (prefix
  // replays skip it); the scan grafts only into frames above `node`. An
  // apply that spends the whole budget stops the search before the arrival
  // counts.
  if (w.budget == 0 && w.budget_ends) {
    scan_races(w, fresh);
    return truncate();
  }

  if (w.sys.has_violation()) {
    // Arrival-edge-exact: the violating execution's full path length
    // (w.events already includes the fresh edge).
    w.stats.transitions += w.events.size();
    ++w.stats.executions;
    {
      std::lock_guard<std::mutex> g(result_mu_);
      if (!result_->violation_found) {
        result_->violation_found = true;
        result_->violation = w.sys.violation();
        result_->counterexample = actions_of(w.events);
      }
    }
    stop_.store(true, std::memory_order_relaxed);
    abort = true;
    return nullptr;
  }

  w.sys.enabled(w.enabled);
  if (w.enabled.empty()) {
    // A maximal state gets no frame of its own: no worker descends into it,
    // and a graft that reaches it only needs to learn that the branch ended
    // in a leaf, which the shared leaf_ tells it. Whatever was grafted into
    // b.subtree is dropped: a maximal state enables none of it.
    b.child.store(&leaf_, std::memory_order_release);
    scan_races(w, fresh);
    // Arrival-edge-exact: this completed execution's full path length.
    // Every linearization of its Mazurkiewicz trace has the same length,
    // so the charge is the same whichever linearization won the claim
    // race.
    w.stats.transitions += w.events.size();
    ++w.stats.executions;
    if (w.sys.all_halted()) {
      ++w.stats.terminal_states;
    } else {
      std::lock_guard<std::mutex> g(result_mu_);
      result_->deadlock_found = true;
      if (result_->deadlock_schedule.empty()) {
        result_->deadlock_schedule = actions_of(w.events);
      }
    }
    retire(b);
    pop_event(w);
    return nullptr;
  }

  // Stateful runs have one worker, so the scheduled subtree and the result
  // are used without locks.
  std::optional<std::uint64_t> fp;
  if (cycles_ != nullptr &&
      !dpor_detail::enter_state(w.sys, w.events.size(), child_sleep.empty(),
                                !b.subtree.empty(), *store_, *cycles_, *result_,
                                [&] { return actions_of(w.events); }, fp)) {
    scan_races(w, fresh);
    retire(b);
    pop_event(w);
    return nullptr;
  }

  std::vector<ActionFootprint> pick_fp;
  if (const Action* pick = initial_pick(w.sys, w.enabled, child_sleep)) {
    pick_fp.push_back(w.sys.footprint(*pick));
  }

  // Create the child frame and — under the node's own mutex — re-route the
  // branch's scheduled subtree into it: grafts before this instant land in
  // b.subtree and are peeled here; grafts after it descend through
  // b.child. Only this handoff locks; the child's branch list is built
  // while the child is still unpublished.
  Node* cp = new_node(w);
  cp->parent = node;
  cp->parent_branch = bi;
  cp->depth = node->depth + 1;
  cp->arrival = fresh;
  cp->inherited_sleep = std::move(child_sleep);
  cp->cycle_fp = fp;
  std::uint32_t child_branches = 0;
  {
    std::lock_guard<std::mutex> g(node->mu);
    WakeupTree scheduled = std::move(b.subtree);
    while (!scheduled.empty()) {
      auto [ev2, sub2] = scheduled.pop_first();
      cp->branches.append(cp, std::move(ev2), std::move(sub2),
                          /*pick=*/false);
    }
    child_branches = cp->branches.size_acquire();
    if (child_branches == 0 && !pick_fp.empty()) {
      cp->branches.append(cp, std::move(pick_fp.front()), WakeupTree{},
                          /*pick=*/true);
      child_branches = 1;
    }
    b.child.store(cp, std::memory_order_release);
  }

  // Expose the new branches to thieves, oldest-last so the deque's TOP
  // (the steal end) holds branch 1 and the bottom pop — were this worker
  // to come back for them — returns them in sibling order. Branch 0 is
  // NOT pushed: this worker claims it directly in the descent loop, so a
  // deque entry for it could only ever be a stale pop.
  for (std::uint32_t i = child_branches; i-- > 1;) {
    publish_work(w, cp->branches[i]);
  }
  if (child_branches > 0 && !single_) {
    outstanding_.fetch_add(1, std::memory_order_relaxed);  // branch 0
  }
  scan_races(w, fresh);  // after publishing: thieves may take the branches

  if (child_branches == 0) {
    // Every enabled action asleep: the trace this path was heading for
    // is (or will be) explored via another linearization, so it charges
    // no transitions.
    count_blocked(w);
    retire(b);
    pop_event(w);
    leave(w, cp);
    return nullptr;
  }

  w.path.push_back(cp);
  return cp;
}

void OptimalExplorer::explore(Worker& w, Node* entry, std::uint32_t entry_branch) {
  Node* node = entry;
  std::uint32_t bi = entry_branch;
  while (true) {
    bool abort = false;
    Node* child = execute_branch(w, node, bi, abort);
    if (abort) return;
    if (child != nullptr) node = child;
    // Claim the next pending branch at the current frame — a lock-free CAS
    // scan in sibling order — ascending (and retiring finished branches)
    // until one is found or the claimed subtree is exhausted. A branch
    // claimed here may still have a deque entry; drop_claimed() removes
    // those at this worker's deque bottom, and any left elsewhere fail
    // their claim CAS at the popper/thief and are skipped.
    while (true) {
      if (stop_.load(std::memory_order_relaxed)) return;
      std::uint32_t next = kNoBranch;
      const std::uint32_t n = node->branches.size_acquire();
      for (std::uint32_t i = 0; i < n; ++i) {
        Branch& c = node->branches[i];
        if (c.state.load(std::memory_order_relaxed) != kStatePending) continue;
        if (try_claim(c)) {
          next = i;
          break;
        }
        ++w.stats.claim_conflicts;  // observed pending, lost the CAS
      }
      if (next != kNoBranch) {
        drop_claimed(w);
        bi = next;
        break;  // execute it (outer loop)
      }
      if (node == entry) return;  // claimed subtree fully explored
      Node* parent = node->parent;
      retire(parent->branches[node->parent_branch]);
      pop_event(w);
      w.path.pop_back();
      leave(w, node);
      node = parent;
    }
  }
}

void OptimalExplorer::navigate(Worker& w, Node* target) {
  w.chain.clear();
  for (Node* n = target; n != nullptr; n = n->parent) w.chain.push_back(n);
  std::reverse(w.chain.begin(), w.chain.end());
  std::size_t common = 0;
  while (common < w.path.size() && common < w.chain.size() &&
         w.path[common] == w.chain[common]) {
    ++common;
  }
  MCSYM_ASSERT(common >= 1);  // the root is always shared
  while (w.path.size() > common) {
    pop_event(w);
    w.path.pop_back();
  }
  const std::uint64_t replayed = w.chain.size() - common;
  w.stats.max_replay_depth = std::max(w.stats.max_replay_depth, replayed);
  for (std::size_t d = common; d < w.chain.size(); ++d) {
    Node* n = w.chain[d];
    // The stored arrival footprint was computed at this exact state by the
    // first executor; replaying rebuilds events/hb but never re-scans.
    w.sys.apply(n->arrival.action);
    push_event(w, n->arrival);
    w.path.push_back(n);
  }
}

Branch* OptimalExplorer::steal_round(Worker& w) {
  const std::uint32_t n = static_cast<std::uint32_t>(deques_.size());
  // splitmix-style advance; the high bits pick the starting victim.
  w.rng = w.rng * 6364136223846793005ull + 1442695040888963407ull;
  const std::uint32_t start = static_cast<std::uint32_t>((w.rng >> 33) % n);
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::uint32_t v = (start + k) % n;
    if (v == w.id) continue;
    bool lost = false;
    do {
      if (Branch* b = deques_[v]->steal(lost)) return b;
    } while (lost);  // lost CAS means work exists: retry this victim
  }
  return nullptr;
}

void OptimalExplorer::worker_main(std::uint32_t id) {
  Worker w(*this, id);
  w.path.push_back(&root_);

  std::uint32_t idle_rounds = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    Branch* b = deques_[id]->pop();
    const bool stolen = b == nullptr;
    if (stolen) {
      b = steal_round(w);
      if (b == nullptr) {
        ++w.stats.steal_failures;
        // Steal-round quiescence: nothing to pop, nothing to steal — if no
        // branch anywhere is live, the exploration is complete. Otherwise
        // a busy worker may still publish work; back off and retry (yield
        // first, short sleeps once the fleet is clearly draining).
        if (outstanding_.load(std::memory_order_acquire) == 0) break;
        if (idle_rounds < 4) {
          std::this_thread::yield();
        } else {
          const std::uint32_t shift = std::min(idle_rounds - 4u, 5u);
          std::this_thread::sleep_for(
              std::chrono::microseconds(std::uint64_t{25} << shift));
        }
        ++idle_rounds;
        continue;
      }
    }
    idle_rounds = 0;
    if (!try_claim(*b)) {
      // Stale deque entry (claimed by a frame scan while the entry sat in
      // a deque) or a genuinely lost race; either way someone else runs
      // it. Own-deque staleness is the uncontended case — only a stolen
      // entry that slips away counts as a conflict.
      if (stolen) ++w.stats.claim_conflicts;
      continue;
    }
    if (stolen) ++w.stats.steals;  // a steal that took work
    navigate(w, b->owner);
    explore(w, b->owner, b->index);
  }

  // Until every worker has stopped, a peer may still walk into any node
  // (a graft descending into a child, a navigate replaying a prefix).
  // Past the barrier nobody does, so the workers free the tree in
  // parallel, each its own allocations.
  teardown_.arrive_and_wait();
  w.nodes.clear();
  merge(w);
}

void OptimalExplorer::merge(const Worker& w) {
  std::lock_guard<std::mutex> g(result_mu_);
  DporStats& st = result_->stats;
  st.transitions += w.stats.transitions;
  st.executions += w.stats.executions;
  st.terminal_states += w.stats.terminal_states;
  st.races_detected += w.stats.races_detected;
  st.wakeup_nodes += w.stats.wakeup_nodes;
  st.redundant_explorations += w.stats.redundant_explorations;
  st.parallel_duplicates += w.stats.parallel_duplicates;
  st.steals += w.stats.steals;
  st.steal_failures += w.stats.steal_failures;
  st.claim_conflicts += w.stats.claim_conflicts;
  st.max_replay_depth = std::max(st.max_replay_depth, w.stats.max_replay_depth);
}

void OptimalExplorer::run(DporResult& result) {
  result_ = &result;
  DporStats& st = result.stats;
  if (options_.max_transitions == 0) {
    result.truncated = true;
    return;
  }

  // Root arrival checks, as execute_branch makes them for every other
  // frame (a fresh System has run nothing, so it holds no violation).
  System sys0(program_, mode_);
  std::vector<Action> enabled;
  sys0.enabled(enabled);
  if (enabled.empty()) {
    ++st.executions;
    if (sys0.all_halted()) {
      ++st.terminal_states;
    } else {
      result.deadlock_found = true;  // schedule stays empty: initial state
    }
    return;
  }
  if (cycles_ != nullptr) {
    // Stores and registers the root (an empty stack and store cut nothing).
    std::optional<std::uint64_t> fp;
    dpor_detail::enter_state(sys0, 0, true, false, *store_, *cycles_, result,
                             [] { return std::vector<Action>{}; }, fp);
  }
  const Action* pick = initial_pick(sys0, enabled, {});
  Branch& seed = root_.branches.append(&root_, sys0.footprint(*pick),
                                       WakeupTree{}, /*pick=*/true);

  if (single_) {
    // One worker explores on the calling thread: no spawn, no deque.
    Worker w(*this, 0);
    w.path.push_back(&root_);
    (void)try_claim(seed);
    explore(w, &root_, 0);
    merge(w);
  } else {
    deques_.reserve(workers_);
    for (std::uint32_t i = 0; i < workers_; ++i) {
      deques_.push_back(std::make_unique<StealDeque<Branch>>());
    }
    outstanding_.store(1, std::memory_order_relaxed);
    deques_[0]->push(&seed);
    std::vector<std::thread> threads;
    threads.reserve(workers_);
    for (std::uint32_t i = 0; i < workers_; ++i) {
      threads.emplace_back([this, i] { worker_main(i); });
    }
    for (std::thread& t : threads) t.join();
  }
  if (truncated_.load(std::memory_order_relaxed)) result.truncated = true;
}

}  // namespace

void DporChecker::explore_optimal(DporResult& result,
                                  const support::Stopwatch& timer) {
  const bool stateful = options_.stateful;
  OptimalExplorer(program_, options_, timer, stateful ? &store_ : nullptr,
                  stateful ? &cycle_stack_ : nullptr)
      .run(result);
}

}  // namespace mcsym::check
