// Tests for stateful exploration (check/state_space.hpp) and its wiring:
//  * VisitedStateStore LRU/telemetry and CycleStack units;
//  * fingerprint soundness batteries — equal fingerprints must mean equal
//    semantic keys, and undo/rollback must restore bit-identical
//    fingerprints at every checkpoint depth;
//  * stateful-vs-stateless differentials — byte-identical explicit reports
//    on loop-free programs, verdict agreement across engines on seeded
//    loop programs;
//  * non-termination end to end — livelock_pair yields a kNonTermination
//    verdict whose lasso witness replays back to the same semantic state.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/dpor.hpp"
#include "check/explicit_checker.hpp"
#include "check/random_program.hpp"
#include "check/state_space.hpp"
#include "check/verifier.hpp"
#include "check/workloads.hpp"
#include "mcapi/program.hpp"
#include "mcapi/system.hpp"
#include "support/rng.hpp"

namespace mcsym::check {
namespace {

namespace wl = workloads;

// --- VisitedStateStore ----------------------------------------------------

TEST(VisitedStateStoreTest, VisitInsertsThenHits) {
  VisitedStateStore store(0);  // unbounded
  EXPECT_FALSE(store.visit(7));
  EXPECT_FALSE(store.visit(8));
  EXPECT_TRUE(store.visit(7));
  EXPECT_TRUE(store.contains(7));
  EXPECT_FALSE(store.contains(9));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.inserts(), 2u);
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(store.dropped(), 0u);
}

TEST(VisitedStateStoreTest, CapacityEvictsLeastRecentlySeen) {
  VisitedStateStore store(2);
  EXPECT_FALSE(store.visit(1));
  EXPECT_FALSE(store.visit(2));
  EXPECT_TRUE(store.visit(1));   // refresh: 2 is now the LRU entry
  EXPECT_FALSE(store.visit(3));  // evicts 2
  EXPECT_TRUE(store.contains(1));
  EXPECT_TRUE(store.contains(3));
  EXPECT_FALSE(store.contains(2));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.dropped(), 1u);
  // An evicted fingerprint re-inserts as a miss — wasted work, not a wrong
  // answer.
  EXPECT_FALSE(store.visit(2));
  EXPECT_EQ(store.dropped(), 2u);
}

TEST(VisitedStateStoreTest, UnboundedNeverDrops) {
  VisitedStateStore store(0);
  for (std::uint64_t fp = 0; fp < 10'000; ++fp) store.insert(fp);
  EXPECT_EQ(store.size(), 10'000u);
  EXPECT_EQ(store.dropped(), 0u);
}

TEST(VisitedStateStoreTest, ClearEmptiesTheSet) {
  VisitedStateStore store(4);
  store.insert(1);
  store.insert(2);
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.contains(1));
}

// --- CycleStack -----------------------------------------------------------

TEST(CycleStackTest, FindReportsTheOnStackVisit) {
  CycleStack stack;
  EXPECT_FALSE(stack.find(42).has_value());
  stack.push(42, /*depth=*/3, /*progress=*/1);
  const auto visit = stack.find(42);
  ASSERT_TRUE(visit.has_value());
  EXPECT_EQ(visit->depth, 3u);
  EXPECT_EQ(visit->progress, 1u);
  stack.pop(42);
  EXPECT_FALSE(stack.find(42).has_value());
  EXPECT_EQ(stack.size(), 0u);
}

TEST(SplitLassoTest, SplitsScriptAtTheRevisitDepth) {
  const std::vector<int> script{10, 11, 12, 13};
  std::vector<int> stem;
  std::vector<int> cycle;
  split_lasso(script, 1, stem, cycle);
  EXPECT_EQ(stem, (std::vector<int>{10}));
  EXPECT_EQ(cycle, (std::vector<int>{11, 12, 13}));
  split_lasso(script, 0, stem, cycle);  // cycle through the initial state
  EXPECT_TRUE(stem.empty());
  EXPECT_EQ(cycle, script);
}

// --- Fingerprint soundness ------------------------------------------------

RandomProgramOptions battery_options(std::uint64_t seed) {
  RandomProgramOptions o;
  o.threads = 3;
  o.max_sends_per_thread = 2;
  o.allow_nonblocking = true;
  o.allow_test_poll = (seed % 2) == 0;
  o.allow_wait_any = (seed % 3) == 0;
  o.allow_loops = true;
  return o;
}

// Random walks over seeded programs (loops included): any two states of
// the same program with the same fingerprint must serialize to the same
// semantic key — a mismatch is an FNV collision the store would mistake
// for a revisit. (Scoped per program: the store never outlives one
// exploration, so cross-program collisions are meaningless.)
TEST(FingerprintSoundnessTest, EqualFingerprintMeansEqualSemanticKey) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    std::unordered_map<std::uint64_t, std::string> seen;
    const mcapi::Program p = random_program(seed, battery_options(seed));
    mcapi::System sys(p);
    support::Rng rng(seed * 977 + 5);
    std::vector<mcapi::Action> actions;
    const auto probe = [&] {
      const auto [it, fresh] =
          seen.emplace(sys.fingerprint(), sys.semantic_key());
      if (!fresh) {
        EXPECT_EQ(it->second, sys.semantic_key())
            << "fingerprint collision at seed " << seed;
      }
    };
    probe();
    for (int step = 0; step < 200; ++step) {
      sys.enabled(actions);
      if (actions.empty()) break;
      sys.apply(actions[rng.below(actions.size())]);
      probe();
    }
  }
}

// Undo-log rollback must restore bit-identical fingerprints (and semantic
// keys) at every checkpoint depth — otherwise the DFS engines would pollute
// the store with fingerprints of states they never actually revisit.
TEST(FingerprintSoundnessTest, RollbackRestoresFingerprintAtEveryDepth) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const mcapi::Program p = random_program(seed, battery_options(seed));
    mcapi::System sys(p);
    sys.enable_undo_log();
    support::Rng rng(seed * 31 + 7);
    std::vector<mcapi::System::Checkpoint> marks;
    std::vector<std::uint64_t> fps;
    std::vector<std::string> keys;
    std::vector<mcapi::Action> actions;
    marks.push_back(sys.checkpoint());
    fps.push_back(sys.fingerprint());
    keys.push_back(sys.semantic_key());
    for (int step = 0; step < 60; ++step) {
      sys.enabled(actions);
      if (actions.empty()) break;
      sys.apply(actions[rng.below(actions.size())]);
      marks.push_back(sys.checkpoint());
      fps.push_back(sys.fingerprint());
      keys.push_back(sys.semantic_key());
    }
    for (std::size_t i = marks.size(); i-- > 0;) {
      sys.rollback(marks[i]);
      EXPECT_EQ(sys.fingerprint(), fps[i]) << "seed " << seed << " depth " << i;
      EXPECT_EQ(sys.semantic_key(), keys[i])
          << "seed " << seed << " depth " << i;
    }
  }
}

// --- Stateful vs stateless: loop-free programs ----------------------------

// The stateful counters are the only conditionally emitted report fields;
// strip them so loop-free reports can be compared byte for byte.
std::string strip_stateful_counters(std::string json) {
  const std::string needle = ", \"visited_states\"";
  for (auto start = json.find(needle); start != std::string::npos;
       start = json.find(needle)) {
    const auto end = json.find('}', start);
    if (end == std::string::npos) break;
    json.erase(start, end - start);
  }
  return json;
}

TEST(StatefulVsStatelessTest, LoopFreeExplicitRunsAreIdentical) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomProgramOptions o = battery_options(seed);
    o.allow_loops = false;
    o.add_asserts = (seed % 2) == 0;
    o.allow_deadlocks = (seed % 5) == 0;
    const mcapi::Program p = random_program(seed, o);
    ExplicitOptions stateless;
    ExplicitOptions stateful;
    stateful.stateful = true;
    const ExplicitResult a = ExplicitChecker(p, stateless).run();
    const ExplicitResult b = ExplicitChecker(p, stateful).run();
    EXPECT_EQ(a.violation_found, b.violation_found) << "seed " << seed;
    EXPECT_EQ(a.deadlock_found, b.deadlock_found) << "seed " << seed;
    EXPECT_EQ(a.states_expanded, b.states_expanded) << "seed " << seed;
    EXPECT_EQ(a.transitions, b.transitions) << "seed " << seed;
    EXPECT_EQ(a.terminal_states, b.terminal_states) << "seed " << seed;
    EXPECT_EQ(a.counterexample.size(), b.counterexample.size());
    EXPECT_EQ(a.deadlock_schedule.size(), b.deadlock_schedule.size());
    EXPECT_FALSE(b.non_termination_found) << "seed " << seed;
    EXPECT_FALSE(a.truncated);
    EXPECT_FALSE(b.truncated);
    // Loop-free state graphs are acyclic, so the cycle stack never fires.
    EXPECT_EQ(b.state_space.cycles_found, 0u) << "seed " << seed;
  }
}

TEST(StatefulVsStatelessTest, LoopFreeExplicitReportsByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RandomProgramOptions o = battery_options(seed);
    o.allow_loops = false;
    o.add_asserts = (seed % 2) == 0;
    const mcapi::Program p = random_program(seed, o);
    VerifyRequest req;
    req.engine = Engine::kExplicit;
    Verifier verifier;
    VerifyReport stateless = verifier.verify(p, req);
    req.stateful = true;
    VerifyReport stateful = verifier.verify(p, req);
    zero_report_seconds(stateless);
    zero_report_seconds(stateful);
    EXPECT_EQ(report_to_json(stateless),
              strip_stateful_counters(report_to_json(stateful)))
        << "seed " << seed;
  }
}

TEST(StatefulVsStatelessTest, LoopFreeDporVerdictsAgree) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RandomProgramOptions o = battery_options(seed);
    o.allow_loops = false;
    o.add_asserts = (seed % 2) == 0;
    o.allow_deadlocks = (seed % 4) == 0;
    const mcapi::Program p = random_program(seed, o);
    DporOptions stateless;
    DporOptions stateful;
    stateful.stateful = true;
    const DporResult a = DporChecker(p, stateless).run();
    const DporResult b = DporChecker(p, stateful).run();
    EXPECT_EQ(a.violation_found, b.violation_found) << "seed " << seed;
    EXPECT_EQ(a.deadlock_found, b.deadlock_found) << "seed " << seed;
    EXPECT_FALSE(b.non_termination_found) << "seed " << seed;
    EXPECT_EQ(b.stats.state_space.cycles_found, 0u) << "seed " << seed;
  }
}

// --- Loop differential battery --------------------------------------------

// Seeded loop programs are bounded (the counter is part of the state), so
// the stateless explicit engine still terminates and is the ground truth.
// All stateful engines must agree with it: same violation/deadlock flags,
// no non-termination (every cycle candidate differs in the loop counter).
TEST(StatefulVsStatelessTest, LoopDifferentialBatteryHasNoMismatches) {
  int mismatches = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomProgramOptions o = battery_options(seed);
    o.add_asserts = (seed % 3) == 0;
    o.allow_deadlocks = (seed % 4) == 0;
    const mcapi::Program p = random_program(seed, o);
    const ExplicitResult truth = ExplicitChecker(p, {}).run();
    ASSERT_FALSE(truth.truncated) << "seed " << seed;

    ExplicitOptions eo;
    eo.stateful = true;
    const ExplicitResult st = ExplicitChecker(p, eo).run();

    DporOptions opt;
    opt.stateful = true;
    const DporResult dp = DporChecker(p, opt).run();

    DporOptions sleep;
    sleep.stateful = true;
    sleep.algorithm = DporMode::kSleepSet;
    const DporResult sl = DporChecker(p, sleep).run();

    const auto agrees = [&](bool violation, bool deadlock, bool nonterm) {
      return violation == truth.violation_found &&
             deadlock == truth.deadlock_found && !nonterm;
    };
    if (!agrees(st.violation_found, st.deadlock_found,
                st.non_termination_found) ||
        !agrees(dp.violation_found, dp.deadlock_found,
                dp.non_termination_found) ||
        !agrees(sl.violation_found, sl.deadlock_found,
                sl.non_termination_found)) {
      ++mismatches;
      ADD_FAILURE() << "stateful/stateless divergence at seed " << seed;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// Generator invariants for allow_loops: deterministic per (seed, options),
// the loop-free prefix is untouched (the mutation only appends), and the
// mutated program really contains a back-edge.
TEST(RandomLoopsTest, MutationAppendsABackEdgeDeterministically) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomProgramOptions base = battery_options(seed);
    base.allow_loops = false;
    RandomProgramOptions with_loops = base;
    with_loops.allow_loops = true;
    const mcapi::Program plain = random_program(seed, base);
    const mcapi::Program looped = random_program(seed, with_loops);
    const mcapi::Program looped2 = random_program(seed, with_loops);

    bool back_edge = false;
    ASSERT_EQ(plain.num_threads(), looped.num_threads());
    for (std::uint32_t t = 0; t < plain.num_threads(); ++t) {
      const auto& pc = plain.thread(t).code;
      const auto& lc = looped.thread(t).code;
      const auto& lc2 = looped2.thread(t).code;
      ASSERT_EQ(lc.size(), lc2.size()) << "seed " << seed;
      for (std::size_t i = 0; i < lc.size(); ++i) {
        EXPECT_EQ(lc[i].kind, lc2[i].kind) << "seed " << seed;
      }
      // The loop-free program is an instruction-kind prefix of the looped
      // one: all extra rng draws happen inside the allow_loops branch.
      ASSERT_LE(pc.size(), lc.size()) << "seed " << seed;
      for (std::size_t i = 0; i < pc.size(); ++i) {
        EXPECT_EQ(pc[i].kind, lc[i].kind) << "seed " << seed;
      }
      for (std::size_t i = 0; i < lc.size(); ++i) {
        if ((lc[i].kind == mcapi::OpKind::kJmp ||
             lc[i].kind == mcapi::OpKind::kJmpIf) &&
            lc[i].target <= i) {
          back_edge = true;
        }
      }
    }
    EXPECT_TRUE(back_edge) << "seed " << seed;
  }
}

// --- Non-termination: livelock_pair ---------------------------------------

TEST(NonTerminationTest, LivelockPairExplicitFindsAReplayableLasso) {
  const mcapi::Program p = wl::livelock_pair();
  ExplicitOptions o;
  o.stateful = true;
  const ExplicitResult r = ExplicitChecker(p, o).run();
  EXPECT_FALSE(r.violation_found);
  EXPECT_FALSE(r.deadlock_found);
  EXPECT_FALSE(r.truncated);
  ASSERT_TRUE(r.non_termination_found);
  ASSERT_FALSE(r.lasso_cycle.empty());
  EXPECT_GT(r.state_space.cycles_found, 0u);
  EXPECT_GT(r.state_space.nonprogressive_cycles, 0u);

  // Replay the witness: the stem reaches the cycle's entry state; the cycle
  // returns to it — same fingerprint, same semantic key, and crucially no
  // message matched in between (that is what makes the cycle a livelock).
  mcapi::System sys(p);
  for (const mcapi::Action& a : r.lasso_stem) {
    ASSERT_TRUE(sys.action_enabled(a));
    sys.apply(a);
  }
  const std::uint64_t entry_fp = sys.fingerprint();
  const std::string entry_key = sys.semantic_key();
  const std::size_t entry_matches = sys.matches().size();
  for (const mcapi::Action& a : r.lasso_cycle) {
    ASSERT_TRUE(sys.action_enabled(a));
    sys.apply(a);
  }
  EXPECT_EQ(sys.fingerprint(), entry_fp);
  EXPECT_EQ(sys.semantic_key(), entry_key);
  EXPECT_EQ(sys.matches().size(), entry_matches);
}

TEST(NonTerminationTest, LivelockPairDporAgrees) {
  const mcapi::Program p = wl::livelock_pair();
  DporOptions o;
  o.stateful = true;
  const DporResult r = DporChecker(p, o).run();
  EXPECT_FALSE(r.violation_found);
  EXPECT_FALSE(r.deadlock_found);
  EXPECT_FALSE(r.truncated);
  EXPECT_TRUE(r.non_termination_found);
  EXPECT_FALSE(r.lasso_cycle.empty());
}

// The gap stateful mode closes: the stateless explicit engine fingerprint-
// prunes the spin states and reports a vacuous "safe" — no violation, no
// deadlock (the polls stay enabled forever), and no classification of the
// infinite behavior it just discarded.
TEST(NonTerminationTest, StatelessExplicitReportsVacuousSafe) {
  const mcapi::Program p = wl::livelock_pair();
  const ExplicitResult r = ExplicitChecker(p, {}).run();
  EXPECT_FALSE(r.violation_found);
  EXPECT_FALSE(r.deadlock_found);
  EXPECT_FALSE(r.non_termination_found);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.terminal_states, 0u);  // nothing ever finishes or deadlocks
}

TEST(NonTerminationTest, VerifierFacadeReportsTheLasso) {
  const mcapi::Program p = wl::livelock_pair();
  for (const Engine engine : {Engine::kExplicit, Engine::kDporOptimal}) {
    VerifyRequest req;
    req.engine = engine;
    req.stateful = true;
    Verifier verifier;
    const VerifyReport report = verifier.verify(p, req);
    EXPECT_EQ(report.verdict, Verdict::kNonTermination);
    EXPECT_FALSE(report.lasso_cycle.empty());
    const std::string json = report_to_json(report);
    EXPECT_NE(json.find("\"non-termination\""), std::string::npos);
    EXPECT_NE(json.find("\"lasso_cycle\""), std::string::npos);
    EXPECT_NE(json.find("\"cycles_found\""), std::string::npos);
  }
}

// --- Stateful workloads ---------------------------------------------------

TEST(StatefulWorkloadsTest, SelectServerLoopTerminatesSafeWithHits) {
  const mcapi::Program p = wl::select_server_loop(2);
  ExplicitOptions o;
  o.stateful = true;
  const ExplicitResult r = ExplicitChecker(p, o).run();
  EXPECT_FALSE(r.violation_found);
  EXPECT_FALSE(r.deadlock_found);
  EXPECT_FALSE(r.non_termination_found);
  EXPECT_FALSE(r.truncated);
  // The loop re-enters structurally identical states across interleavings;
  // the store must actually collapse them (the bench floor pins this too).
  EXPECT_GT(r.state_space.state_hits, 0u);
  EXPECT_GT(r.state_space.visited_states, 0u);

  const ExplicitResult stateless = ExplicitChecker(p, {}).run();
  EXPECT_EQ(stateless.violation_found, r.violation_found);
  EXPECT_EQ(stateless.deadlock_found, r.deadlock_found);
}

// The store and cycle stack are single-threaded, so a stateful run explores
// with one worker whatever `workers` asks for: same counters, no fleet.
TEST(StatefulWorkloadsTest, SelectServerLoopDporSafe) {
  const mcapi::Program p = wl::select_server_loop(2);
  DporOptions o;
  o.stateful = true;
  const DporResult r = DporChecker(p, o).run();
  EXPECT_FALSE(r.violation_found);
  EXPECT_FALSE(r.deadlock_found);
  EXPECT_FALSE(r.non_termination_found);
  EXPECT_FALSE(r.truncated);

  o.workers = 4;
  const DporResult w4 = DporChecker(p, o).run();
  EXPECT_EQ(w4.stats.executions, r.stats.executions);
  EXPECT_EQ(w4.stats.transitions, r.stats.transitions);
  EXPECT_EQ(w4.stats.races_detected, r.stats.races_detected);
  EXPECT_EQ(w4.stats.state_space.visited_states,
            r.stats.state_space.visited_states);
  EXPECT_EQ(w4.stats.state_space.state_hits, r.stats.state_space.state_hits);
  EXPECT_EQ(w4.stats.steals + w4.stats.steal_failures, 0u);
  EXPECT_EQ(w4.stats.parallel_duplicates, 0u);
}

TEST(StatefulWorkloadsTest, RequestStreamSafeEverywhere) {
  const mcapi::Program p = wl::request_stream(3);
  ExplicitOptions eo;
  eo.stateful = true;
  const ExplicitResult er = ExplicitChecker(p, eo).run();
  EXPECT_FALSE(er.violation_found);
  EXPECT_FALSE(er.deadlock_found);
  EXPECT_FALSE(er.non_termination_found);
  DporOptions dpor_opts;
  dpor_opts.stateful = true;
  const DporResult dr = DporChecker(p, dpor_opts).run();
  EXPECT_FALSE(dr.violation_found);
  EXPECT_FALSE(dr.deadlock_found);
  EXPECT_FALSE(dr.non_termination_found);
}

// A tiny LRU capacity forces evictions: re-exploration, never wrong
// answers, and the drop counter proves the pressure was real.
TEST(StatefulWorkloadsTest, TinyCapacityEvictsButStaysCorrect) {
  const mcapi::Program p = wl::select_server_loop(1);
  ExplicitOptions o;
  o.stateful = true;
  o.state_capacity = 8;
  const ExplicitResult r = ExplicitChecker(p, o).run();
  EXPECT_FALSE(r.violation_found);
  EXPECT_FALSE(r.deadlock_found);
  EXPECT_FALSE(r.non_termination_found);
  EXPECT_FALSE(r.truncated);
  EXPECT_GT(r.state_space.states_dropped, 0u);
}

}  // namespace
}  // namespace mcsym::check
