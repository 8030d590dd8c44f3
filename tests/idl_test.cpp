// Tests for the integer-difference-logic theory through the solver facade,
// including randomized cross-checks against a Bellman-Ford ground truth
// (conjunctions) and brute-force enumeration (CNF over atoms), and pinned
// cases for theory propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "smt/solver.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace mcsym::smt {
namespace {

TEST(IdlTest, SimpleChainSat) {
  Solver s;
  auto& tt = s.terms();
  const TermId a = tt.int_var("a");
  const TermId b = tt.int_var("b");
  const TermId c = tt.int_var("c");
  s.assert_term(tt.lt(a, b));
  s.assert_term(tt.lt(b, c));
  ASSERT_EQ(s.check(), SolveResult::kSat);
  EXPECT_LT(s.model_int(a), s.model_int(b));
  EXPECT_LT(s.model_int(b), s.model_int(c));
}

TEST(IdlTest, CycleUnsat) {
  Solver s;
  auto& tt = s.terms();
  const TermId a = tt.int_var("a");
  const TermId b = tt.int_var("b");
  const TermId c = tt.int_var("c");
  s.assert_term(tt.lt(a, b));
  s.assert_term(tt.lt(b, c));
  s.assert_term(tt.lt(c, a));
  EXPECT_EQ(s.check(), SolveResult::kUnsat);
}

TEST(IdlTest, NonStrictCycleSat) {
  Solver s;
  auto& tt = s.terms();
  const TermId a = tt.int_var("a");
  const TermId b = tt.int_var("b");
  s.assert_term(tt.le(a, b));
  s.assert_term(tt.le(b, a));
  ASSERT_EQ(s.check(), SolveResult::kSat);
  EXPECT_EQ(s.model_int(a), s.model_int(b));
}

TEST(IdlTest, EqualityPropagatesValues) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  const TermId y = tt.int_var("y");
  s.assert_term(tt.eq(x, tt.int_const(41)));
  s.assert_term(tt.eq(y, tt.add_const(x, 1)));
  ASSERT_EQ(s.check(), SolveResult::kSat);
  EXPECT_EQ(s.model_int(x), 41);
  EXPECT_EQ(s.model_int(y), 42);
}

TEST(IdlTest, DisequalitySplits) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  s.assert_term(tt.ge(x, tt.int_const(0)));
  s.assert_term(tt.le(x, tt.int_const(1)));
  s.assert_term(tt.ne(x, tt.int_const(0)));
  ASSERT_EQ(s.check(), SolveResult::kSat);
  EXPECT_EQ(s.model_int(x), 1);
}

TEST(IdlTest, WindowTooTightUnsat) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  s.assert_term(tt.ge(x, tt.int_const(0)));
  s.assert_term(tt.le(x, tt.int_const(1)));
  s.assert_term(tt.ne(x, tt.int_const(0)));
  s.assert_term(tt.ne(x, tt.int_const(1)));
  EXPECT_EQ(s.check(), SolveResult::kUnsat);
}

TEST(IdlTest, BooleanStructureOverAtoms) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  const TermId y = tt.int_var("y");
  // (x < y or y < x) and x = 3 and y = 3 is unsat; relaxing y works.
  s.assert_term(tt.or2(tt.lt(x, y), tt.lt(y, x)));
  s.assert_term(tt.eq(x, tt.int_const(3)));
  s.assert_term(tt.or2(tt.eq(y, tt.int_const(3)), tt.eq(y, tt.int_const(4))));
  ASSERT_EQ(s.check(), SolveResult::kSat);
  EXPECT_EQ(s.model_int(x), 3);
  EXPECT_EQ(s.model_int(y), 4);
}

TEST(IdlTest, NegatedAtomSemantics) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  const TermId y = tt.int_var("y");
  // not(x - y <= 2)  ==  x - y >= 3
  s.assert_term(tt.not_(tt.le(x, tt.add_const(y, 2))));
  ASSERT_EQ(s.check(), SolveResult::kSat);
  EXPECT_GE(s.model_int(x) - s.model_int(y), 3);
}

TEST(IdlTest, ManyVariableOrderingChain) {
  Solver s;
  auto& tt = s.terms();
  std::vector<TermId> v;
  for (int i = 0; i < 200; ++i) v.push_back(tt.int_var("v" + std::to_string(i)));
  for (int i = 0; i + 1 < 200; ++i) {
    s.assert_term(tt.lt(v[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(i + 1)]));
  }
  ASSERT_EQ(s.check(), SolveResult::kSat);
  EXPECT_LE(s.model_int(v[0]) + 199, s.model_int(v[199]));
  // Close the loop: now a negative cycle exists.
  s.assert_term(tt.lt(v[199], v[0]));
  EXPECT_EQ(s.check(), SolveResult::kUnsat);
}

TEST(IdlTest, ModelSurvivesViaSnapshot) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  s.assert_term(tt.eq(x, tt.int_const(9)));
  ASSERT_EQ(s.check(), SolveResult::kSat);
  const std::vector<TermId> proj{x};
  const Model m = s.snapshot_ints(proj);
  EXPECT_EQ(m.int_value(x), 9);
}

TEST(IdlTest, TheoryStatsCount) {
  Solver s;
  auto& tt = s.terms();
  const TermId a = tt.int_var("a");
  const TermId b = tt.int_var("b");
  s.assert_term(tt.lt(a, b));
  s.assert_term(tt.lt(b, a));
  EXPECT_EQ(s.check(), SolveResult::kUnsat);
  EXPECT_GE(s.idl_stats().conflicts, 1u);
}

// --- Randomized conjunctions vs Bellman-Ford ----------------------------

struct DiffConstraint {
  unsigned x, y;
  std::int64_t k;  // x - y <= k
};

/// Bellman-Ford negative-cycle detection on the constraint graph
/// (edge y -> x with weight k per constraint).
bool feasible_ground_truth(unsigned n, const std::vector<DiffConstraint>& cs) {
  std::vector<std::int64_t> dist(n, 0);  // virtual source to all: 0
  for (unsigned pass = 0; pass + 1 < n + 1; ++pass) {
    bool changed = false;
    for (const auto& c : cs) {
      if (dist[c.y] + c.k < dist[c.x]) {
        dist[c.x] = dist[c.y] + c.k;
        changed = true;
      }
    }
    if (!changed) return true;
  }
  for (const auto& c : cs) {
    if (dist[c.y] + c.k < dist[c.x]) return false;
  }
  return true;
}

class RandomIdlTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomIdlTest, ConjunctionAgreesWithBellmanFord) {
  support::Rng rng(GetParam());
  const unsigned n = 4 + static_cast<unsigned>(rng.below(5));
  const unsigned m = n * 2 + static_cast<unsigned>(rng.below(n * 2));
  std::vector<DiffConstraint> cs;
  for (unsigned i = 0; i < m; ++i) {
    DiffConstraint c;
    c.x = static_cast<unsigned>(rng.below(n));
    do {
      c.y = static_cast<unsigned>(rng.below(n));
    } while (c.y == c.x);
    c.k = rng.range(-4, 6);
    cs.push_back(c);
  }

  Solver s;
  auto& tt = s.terms();
  std::vector<TermId> vars;
  for (unsigned v = 0; v < n; ++v) vars.push_back(tt.int_var("r" + std::to_string(v)));
  for (const auto& c : cs) {
    s.assert_term(tt.le(vars[c.x], tt.add_const(vars[c.y], c.k)));
  }
  const bool expected = feasible_ground_truth(n, cs);
  const SolveResult got = s.check();
  EXPECT_EQ(got == SolveResult::kSat, expected) << "seed=" << GetParam();
  if (got == SolveResult::kSat) {
    // The arithmetic model must satisfy every constraint literally.
    for (const auto& c : cs) {
      EXPECT_LE(s.model_int(vars[c.x]) - s.model_int(vars[c.y]), c.k);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomIdlTest,
                         ::testing::Range<std::uint64_t>(0, 50));

// --- Theory propagation ------------------------------------------------------

TEST(IdlPropagationTest, EqualityFixesBoundsWithoutDecisions) {
  SatSolver sat;
  IdlTheory idl(sat);
  const IntVarId x = idl.new_int_var();
  const Lit le5 = idl.atom(x, idl.origin(), 5);
  const Lit le4 = idl.atom(x, idl.origin(), 4);
  const Lit le3 = idl.atom(x, idl.origin(), 3);
  const Lit le7 = idl.atom(x, idl.origin(), 7);
  // x = 5 as two atoms: x <= 5 and not(x <= 4).
  ASSERT_TRUE(sat.add_clause({le5}));
  ASSERT_TRUE(sat.add_clause({~le4}));
  ASSERT_EQ(sat.solve(), SolveResult::kSat);
  EXPECT_EQ(sat.stats().decisions, 0u)
      << "x <= 3 and x <= 7 follow from x = 5; nothing is left to decide";
  EXPECT_GE(sat.stats().theory_propagations, 2u);
  EXPECT_FALSE(sat.model_is_true(le3));
  EXPECT_TRUE(sat.model_is_true(le7));
  EXPECT_EQ(idl.model_value(x), 5);
}

TEST(IdlPropagationTest, OppositeOrderIsImplied) {
  SatSolver sat;
  IdlTheory idl(sat);
  const IntVarId a = idl.new_int_var();
  const IntVarId b = idl.new_int_var();
  const Lit a_before_b = idl.atom(a, b, -1);  // a < b
  const Lit b_before_a = idl.atom(b, a, -1);  // b < a
  ASSERT_TRUE(sat.add_clause({a_before_b}));
  ASSERT_EQ(sat.solve(), SolveResult::kSat);
  EXPECT_EQ(sat.stats().decisions, 0u);
  EXPECT_EQ(sat.stats().theory_conflicts, 0u);
  EXPECT_FALSE(sat.model_is_true(b_before_a));
}

TEST(IdlPropagationTest, PropagatedCoreIsMinimal) {
  // x <= 2 implies not(x >= 4) by a theory lemma at decision level 1; the
  // refutation of the third assumption must walk that lemma back to the
  // first one and leave the independent one out.
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  const TermId z = tt.int_var("z");
  const TermId at_most_2 = tt.le(x, tt.int_const(2));
  const TermId harmless = tt.le(z, tt.int_const(3));
  const TermId at_least_4 = tt.ge(x, tt.int_const(4));
  const auto r = s.check_assuming({{at_most_2, harmless, at_least_4}});
  ASSERT_EQ(r.result, SolveResult::kUnsat);
  std::vector<TermId> core = r.core;
  std::sort(core.begin(), core.end());
  std::vector<TermId> expected{at_most_2, at_least_4};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(core, expected);
  EXPECT_GT(s.sat_stats().theory_propagations, 0u);
  EXPECT_EQ(s.check_assuming({{harmless, at_least_4}}).result, SolveResult::kSat);
}

// --- Randomized CNF over atoms vs brute-force enumeration -------------------

/// One literal: `x - y <= k` (positive) or its negation, over node indices
/// where 0 is the origin (the constant 0).
struct DiffLit {
  unsigned x, y;
  std::int64_t k;
  bool positive;
};
using DiffClause = std::vector<DiffLit>;

bool lit_holds(const DiffLit& l, const std::vector<std::int64_t>& val) {
  return (val[l.x] - val[l.y] <= l.k) == l.positive;
}

/// Depth-first search over values in [-bound, bound] for nodes 1..n (node 0
/// is pinned to 0), checking each clause as soon as its last node is set.
bool brute_force_sat(unsigned n, std::int64_t bound,
                     const std::vector<DiffClause>& clauses) {
  std::vector<std::vector<const DiffClause*>> decided_at(n + 1);
  for (const DiffClause& c : clauses) {
    unsigned last = 0;
    for (const DiffLit& l : c) last = std::max({last, l.x, l.y});
    decided_at[last].push_back(&c);
  }
  std::vector<std::int64_t> val(n + 1, 0);
  auto ok_at = [&](unsigned node) {
    for (const DiffClause* c : decided_at[node]) {
      if (std::none_of(c->begin(), c->end(),
                       [&](const DiffLit& l) { return lit_holds(l, val); })) {
        return false;
      }
    }
    return true;
  };
  auto search = [&](auto&& self, unsigned node) -> bool {
    if (node > n) return true;
    for (std::int64_t v = -bound; v <= bound; ++v) {
      val[node] = v;
      if (ok_at(node) && self(self, node + 1)) return true;
    }
    return false;
  };
  return ok_at(0) && search(search, 1);
}

class RandomIdlCnfTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomIdlCnfTest, CnfAgreesWithBruteForce) {
  support::Rng rng(GetParam());
  const unsigned n = 2 + static_cast<unsigned>(rng.below(4));  // 2..5 int vars
  const unsigned m = n + static_cast<unsigned>(rng.below(3 * n + 1));
  std::vector<DiffClause> clauses;
  for (unsigned i = 0; i < m; ++i) {
    DiffClause c;
    const unsigned width = 1 + static_cast<unsigned>(rng.below(3));
    for (unsigned j = 0; j < width; ++j) {
      DiffLit l;
      l.x = static_cast<unsigned>(rng.below(n + 1));
      do {
        l.y = static_cast<unsigned>(rng.below(n + 1));
      } while (l.y == l.x);
      // k in [-2, 1] is closed under negation (-k-1), so every asserted
      // edge weighs at most 2 in magnitude.
      l.k = rng.range(-2, 1);
      l.positive = rng.chance(1, 2);
      c.push_back(l);
    }
    clauses.push_back(c);
  }
  // A satisfiable conjunction of difference constraints over n+1 nodes has a
  // solution whose values are shortest-path distances: simple paths have at
  // most n edges of weight >= -2, so with the origin at 0 every value lies
  // in [-2n, 2n]. Enumerating that box is complete.
  const bool expected = brute_force_sat(n, 2 * static_cast<std::int64_t>(n), clauses);

  Solver s;
  auto& tt = s.terms();
  std::vector<TermId> node{tt.int_const(0)};
  for (unsigned v = 1; v <= n; ++v) node.push_back(tt.int_var("v" + std::to_string(v)));
  auto term_of = [&](const DiffLit& l) {
    const TermId atom = tt.le(node[l.x], tt.add_const(node[l.y], l.k));
    return l.positive ? atom : tt.not_(atom);
  };
  for (const DiffClause& c : clauses) {
    std::vector<TermId> lits;
    for (const DiffLit& l : c) lits.push_back(term_of(l));
    s.assert_term(tt.or_(lits));
  }
  const SolveResult got = s.check();
  ASSERT_EQ(got == SolveResult::kSat, expected) << "seed=" << GetParam();
  if (got == SolveResult::kSat) {
    std::vector<std::int64_t> val{0};
    for (unsigned v = 1; v <= n; ++v) val.push_back(s.model_int(node[v]));
    for (const DiffClause& c : clauses) {
      EXPECT_TRUE(std::any_of(c.begin(), c.end(),
                              [&](const DiffLit& l) { return lit_holds(l, val); }))
          << "model violates a clause, seed=" << GetParam();
    }
  }
}

// Seed count scales with MCSYM_TEST_ITERS.
INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomIdlCnfTest,
    ::testing::Range<std::uint64_t>(
        1000, 1000 + support::env_u64("MCSYM_TEST_ITERS", 300)));

}  // namespace
}  // namespace mcsym::smt
