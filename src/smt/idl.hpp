// Integer difference logic theory solver (DPLL(T) plugin).
//
// Atoms have the canonical form `x - y <= k`. Asserting one adds the edge
// (y -> x, k) to a constraint graph; asserting its negation `y - x <= -k-1`
// adds (x -> y, -k-1). The conjunction of asserted atoms is satisfiable iff
// the graph has no negative cycle.
//
// Consistency is the checking half of Cotton & Maler ("Fast and flexible
// difference constraint propagation", SAT'06). We maintain a feasible
// potential function pi: every accepted edge (u -> v, w) keeps the reduced
// cost pi(u) + w - pi(v) >= 0. A new violating edge triggers a Dijkstra-style
// repair over reduced costs; if the repair would improve the potential of
// the new edge's source, the relaxation path plus the new edge form a
// negative cycle, which we report as the conflict explanation. Potential
// updates are buffered and rolled back on conflict so pi always stays
// feasible for the accepted edge set. Backtracking just pops edges; a
// feasible potential for a superset is feasible for any subset, so pi
// survives backjumps untouched (that asymmetry is what makes this solver
// cheap inside CDCL search).
//
// Propagation is the edge-local part of their propagating half. Every atom
// is indexed by the two nodes it touches. Before an edge (u -> v, w) is
// accepted we walk the shorter of the two nodes' atom lists and decide the
// unassigned atoms over {u, v}:
//   - an atom whose true edge is (u -> v, k) with k >= w is implied true;
//   - an atom whose true edge (v -> u, k) would close a negative 2-cycle,
//     k + w < 0, is implied false (its false edge (u -> v, -k-1) is then no
//     tighter than the new one).
// Each implied literal l comes with the theory lemma (l ∨ ¬edge_lit), a
// binary clause the SAT solver stores as its reason; an implied literal that
// is already false is a conflict explained by {edge_lit, ¬l}. So asserting
// `x = 5` fixes every other `x <= c` atom, and one clock order fixes its
// opposite, without a decision. Implications through chains of edges (the
// path-based rest of their propagation, one forward and one backward
// Dijkstra per assignment) are not derived: on our traces those searches
// cost more time than the decisions they saved.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "smt/sat_solver.hpp"
#include "smt/types.hpp"

namespace mcsym::smt {

/// Dense index of an integer theory variable (a graph node).
using IntVarId = std::uint32_t;

struct IdlStats {
  std::uint64_t edges_asserted = 0;
  std::uint64_t repairs = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t relaxations = 0;
};

class IdlTheory final : public TheoryClient {
 public:
  explicit IdlTheory(SatSolver& sat);

  /// Creates a theory variable (graph node). Index 0 is pre-created as the
  /// distinguished origin that stands for the constant 0 in atoms.
  IntVarId new_int_var();
  [[nodiscard]] IntVarId origin() const { return 0; }
  [[nodiscard]] std::uint32_t num_int_vars() const {
    return static_cast<std::uint32_t>(pi_.size());
  }

  /// Returns the positive literal of the (deduplicated) SAT variable that
  /// stands for the atom `x - y <= k`. The variable is registered as
  /// theory-relevant with the SAT solver.
  Lit atom(IntVarId x, IntVarId y, std::int64_t k);

  // TheoryClient interface -----------------------------------------------
  bool theory_assign(Lit lit, std::vector<Lit>& implied) override;
  void theory_backtrack(std::size_t kept) override;
  bool theory_final_check() override;
  void theory_explain(std::vector<Lit>& out) override;

  /// Integer model, valid after the owning solve() returned SAT (snapshotted
  /// by theory_final_check, normalized so the origin maps to 0).
  [[nodiscard]] std::int64_t model_value(IntVarId v) const;

  [[nodiscard]] const IdlStats& stats() const { return stats_; }

 private:
  struct Edge {
    IntVarId from;
    IntVarId to;
    std::int64_t weight;
    Lit lit;  // the true literal this edge came from
  };

  struct AtomKey {
    IntVarId x;
    IntVarId y;
    std::int64_t k;
    bool operator==(const AtomKey&) const = default;
  };
  struct AtomKeyHash {
    std::size_t operator()(const AtomKey& a) const noexcept {
      std::uint64_t h = a.x * 0x9e3779b1u;
      h = (h ^ a.y) * 0x85ebca77c2b2ae63ULL;
      h ^= static_cast<std::uint64_t>(a.k) + (h >> 29);
      return static_cast<std::size_t>(h * 0xc2b2ae3d27d4eb4fULL);
    }
  };
  /// An entry of a node's atom list: the atom's other node and its variable.
  struct NodeAtom {
    IntVarId other;
    Var var;
  };

  /// Adds edge (u -> v, w) for `lit`. Returns false on a negative cycle or
  /// on an implied atom that is already false; the edge is then not
  /// recorded and conflict_ holds the explanation. On success the
  /// unassigned atom literals the edge entails are appended to `implied`.
  bool add_edge(IntVarId u, IntVarId v, std::int64_t w, Lit lit,
                std::vector<Lit>& implied);
  /// Appends the unassigned atoms over {u, v} that edge (u -> v, w) decides
  /// to `implied`. Returns false (with conflict_ set) if one is already false.
  bool collect_implied(IntVarId u, IntVarId v, std::int64_t w, Lit lit,
                       std::vector<Lit>& implied);
  /// Restores feasibility of pi for the new edge (u -> v, w). Returns false
  /// (with conflict_ set and pi rolled back) on a negative cycle.
  bool repair(IntVarId u, IntVarId v, std::int64_t w, Lit lit);

  SatSolver& sat_;

  // Atom registry: (x, y, k) -> SAT var for deduplication; its inverse as a
  // dense Var-indexed table (x == kNoNode for vars that are not atoms); and
  // each node's atoms, for propagation (atoms with x == y are not listed).
  static constexpr IntVarId kNoNode = 0xffffffffu;
  std::unordered_map<AtomKey, Var, AtomKeyHash> atom_vars_;
  std::vector<AtomKey> var_atoms_;
  std::vector<std::vector<NodeAtom>> node_atoms_;

  // Constraint graph. adjacency_[node] holds indices into edges_; edges are
  // pushed/popped in assignment order, so adjacency tails pop in lockstep.
  std::vector<Edge> edges_;
  std::vector<std::vector<std::uint32_t>> adjacency_;

  // Feasible potential and repair scratch (stamped to avoid clearing).
  std::vector<std::int64_t> pi_;
  std::vector<std::int64_t> gamma_;
  std::vector<std::uint32_t> stamp_;      // gamma/parent validity stamp
  std::vector<std::uint32_t> scanned_;    // committed-this-repair stamp
  std::vector<std::uint32_t> parent_edge_;
  std::uint32_t repair_stamp_ = 0;
  std::vector<std::pair<IntVarId, std::int64_t>> pi_undo_;
  std::vector<std::pair<std::int64_t, IntVarId>> heap_;  // (slack, node), min first

  std::vector<Lit> conflict_;

  // Model snapshot taken at final check.
  std::vector<std::int64_t> model_pi_;

  IdlStats stats_;
};

}  // namespace mcsym::smt
