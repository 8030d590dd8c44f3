// E3 — symbolic vs explicit-state verification cost.
//
// The paper's motivation cites Fusion's SMT-based pruning beating Inspect's
// DPOR-style explicit enumeration. Here: deciding "can the assertion fail?"
// via one SMT query vs exhaustively exploring the interleaving space. The
// expected shape is the paper's: explicit blows up combinatorially with the
// number of racing messages, the symbolic query does not.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "check/dpor.hpp"
#include "check/explicit_checker.hpp"
#include "check/symbolic_checker.hpp"
#include "check/verifier.hpp"
#include "check/workloads.hpp"
#include "mcapi/executor.hpp"
#include "mcapi/program.hpp"
#include "support/stats.hpp"
#include "trace/trace.hpp"

namespace {

using namespace mcsym;
namespace wl = check::workloads;

trace::Trace record_complete(const mcapi::Program& p) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    mcapi::System sys(p);
    trace::Trace tr(p);
    trace::Recorder rec(tr);
    mcapi::RandomScheduler sched(seed);
    if (mcapi::run(sys, sched, &rec).completed()) return tr;
  }
  std::fprintf(stderr, "no completing run found\n");
  std::abort();
}

void print_table() {
  std::printf("== E3: one-query symbolic check vs explicit enumeration ==\n");
  std::printf("%-24s %-10s %-13s %-13s %-13s %-10s\n", "workload", "verdict",
              "symbolic(ms)", "explicit(ms)", "dpor(ms)", "states");
  for (std::uint32_t workers = 2; workers <= 4; ++workers) {
    const mcapi::Program p = wl::scatter_gather(workers);
    const trace::Trace tr = record_complete(p);

    support::Stopwatch t1;
    check::SymbolicChecker sym(tr);
    const auto verdict = sym.check();
    const double sym_ms = t1.millis();

    support::Stopwatch t2;
    check::ExplicitChecker exp(p);
    const auto er = exp.run();
    const double exp_ms = t2.millis();

    support::Stopwatch t3;
    check::DporChecker dpor(p);  // optimal source-set/wakeup-tree mode
    const auto dr = dpor.run();
    const double dpor_ms = t3.millis();

    char name[40];
    std::snprintf(name, sizeof name, "scatter_gather(%u)", workers);
    const bool agree = verdict.violation_possible() == er.violation_found &&
                       er.violation_found == dr.violation_found;
    std::printf("%-24s %-10s %-13.2f %-13.2f %-13.2f %-10llu\n", name,
                agree ? (er.violation_found ? "SAT/bug" : "UNSAT/ok")
                      : "DISAGREE!",
                sym_ms, exp_ms, dpor_ms,
                static_cast<unsigned long long>(er.states_expanded));
  }
  std::printf("paper expectation: agreement on the verdict; explicit state "
              "count (and time) grows combinatorially while the SMT query "
              "does not. DPOR here is the optimal source-set/wakeup-tree "
              "mode (one execution per Mazurkiewicz trace).\n\n");
}

// The two DPOR strengths head to head on the racing-senders family: the
// sleep-set baseline explores (and abandons, sleep-blocked) combinatorially
// many redundant paths; optimal mode explores exactly one execution per
// trace with zero redundancy.
void print_dpor_table() {
  std::printf("== DPOR: sleep-set baseline vs optimal (message_race) ==\n");
  std::printf("%-20s %-10s %-12s %-12s %-12s %-12s %-10s\n", "workload", "mode",
              "executions", "transitions", "redundant", "races", "time(ms)");
  for (std::uint32_t senders = 2; senders <= 3; ++senders) {
    const mcapi::Program p = wl::message_race(senders, 2);
    char name[40];
    std::snprintf(name, sizeof name, "message_race(%u,2)", senders);
    for (const auto mode : {check::DporMode::kSleepSet, check::DporMode::kOptimal}) {
      check::DporOptions opts;
      opts.algorithm = mode;
      support::Stopwatch timer;
      check::DporChecker checker(p, opts);
      const auto r = checker.run();
      const double ms = timer.millis();
      std::printf(
          "%-20s %-10s %-12llu %-12llu %-12llu %-12llu %-10.2f\n", name,
          mode == check::DporMode::kOptimal ? "optimal" : "sleep-set",
          static_cast<unsigned long long>(r.stats.executions),
          static_cast<unsigned long long>(r.stats.transitions),
          static_cast<unsigned long long>(r.stats.redundant_explorations),
          static_cast<unsigned long long>(r.stats.races_detected), ms);
    }
  }
  std::printf("optimal mode must report redundant == 0; the executions gap "
              "is the cost of sleep-set-blocked paths.\n\n");
}

void BM_Symbolic_ScatterGather(benchmark::State& state) {
  const auto workers = static_cast<std::uint32_t>(state.range(0));
  const mcapi::Program p = wl::scatter_gather(workers);
  const trace::Trace tr = record_complete(p);
  for (auto _ : state) {
    check::SymbolicChecker checker(tr);
    benchmark::DoNotOptimize(checker.check().result);
  }
}
BENCHMARK(BM_Symbolic_ScatterGather)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void BM_Explicit_ScatterGather(benchmark::State& state) {
  const auto workers = static_cast<std::uint32_t>(state.range(0));
  const mcapi::Program p = wl::scatter_gather(workers);
  std::uint64_t states = 0;
  for (auto _ : state) {
    check::ExplicitChecker checker(p);
    const auto r = checker.run();
    states = r.states_expanded;
    benchmark::DoNotOptimize(r.violation_found);
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_Explicit_ScatterGather)->Arg(2)->Arg(3)->Arg(4);

void BM_Symbolic_MessageRaceUnsat(benchmark::State& state) {
  // No property: enumeration-free single check on a clean workload would be
  // trivially SAT; instead verify the deterministic pipeline (UNSAT case).
  const auto stages = static_cast<std::uint32_t>(state.range(0));
  const mcapi::Program p = wl::pipeline(stages, 3);
  const trace::Trace tr = record_complete(p);
  for (auto _ : state) {
    check::SymbolicChecker checker(tr);
    benchmark::DoNotOptimize(checker.check().result);
  }
}
BENCHMARK(BM_Symbolic_MessageRaceUnsat)->Arg(3)->Arg(5)->Arg(7);

void BM_Explicit_PipelineUnsat(benchmark::State& state) {
  const auto stages = static_cast<std::uint32_t>(state.range(0));
  const mcapi::Program p = wl::pipeline(stages, 3);
  for (auto _ : state) {
    check::ExplicitChecker checker(p);
    benchmark::DoNotOptimize(checker.run().violation_found);
  }
}
BENCHMARK(BM_Explicit_PipelineUnsat)->Arg(3)->Arg(5);

void BM_Dpor_ScatterGather(benchmark::State& state) {
  const auto workers = static_cast<std::uint32_t>(state.range(0));
  const mcapi::Program p = wl::scatter_gather(workers);
  std::uint64_t transitions = 0;
  for (auto _ : state) {
    check::DporChecker checker(p);
    const auto r = checker.run();
    transitions = r.stats.transitions;
    benchmark::DoNotOptimize(r.violation_found);
  }
  state.counters["transitions"] = static_cast<double>(transitions);
}
BENCHMARK(BM_Dpor_ScatterGather)->Arg(2)->Arg(3)->Arg(4);

// Both reduction modes over the racing-senders family; the *_SleepSet
// series is the old BM_Dpor_MessageRace baseline, the *_Optimal series is
// the source-set/wakeup-tree mode. Acceptance gates (ISSUE 4): optimal /3
// wall clock strictly below sleep-set /3, and /4 completing 2520
// executions (the exact trace count, 8!/(2!)^4) with redundant == 0 while
// the sleep-set baseline burns ~10^5 executions getting there — the
// checkpoint/undo execution core is what makes the asymptotic gap show up
// in wall clock. The sleep-set /4 instance runs under a wall-clock budget
// (DporOptions::max_seconds) so a regression degrades into a truncated
// data point instead of hanging the bench.
void dpor_message_race(benchmark::State& state, check::DporMode mode) {
  const auto senders = static_cast<std::uint32_t>(state.range(0));
  const mcapi::Program p = wl::message_race(senders, 2);
  check::DporOptions opts;
  opts.algorithm = mode;
  if (mode == check::DporMode::kSleepSet && senders >= 4) {
    opts.max_seconds = 10.0;  // time budget: truncate, don't hang
  }
  check::DporStats stats;
  bool truncated = false;
  for (auto _ : state) {
    check::DporChecker checker(p, opts);
    const auto r = checker.run();
    stats = r.stats;
    truncated = r.truncated;
    benchmark::DoNotOptimize(r.stats.terminal_states);
  }
  state.counters["executions"] = static_cast<double>(stats.executions);
  state.counters["transitions"] = static_cast<double>(stats.transitions);
  state.counters["redundant"] = static_cast<double>(stats.redundant_explorations);
  state.counters["truncated"] = truncated ? 1 : 0;
  if (mode == check::DporMode::kSleepSet) {
    state.counters["sleep_prunes"] = static_cast<double>(stats.sleep_prunes);
  } else {
    state.counters["races"] = static_cast<double>(stats.races_detected);
    state.counters["wakeup_nodes"] = static_cast<double>(stats.wakeup_nodes);
  }
}

void BM_Dpor_MessageRace(benchmark::State& state) {
  dpor_message_race(state, check::DporMode::kOptimal);
}
BENCHMARK(BM_Dpor_MessageRace)->Arg(2)->Arg(3)->Arg(4);

void BM_Dpor_MessageRace_SleepSet(benchmark::State& state) {
  dpor_message_race(state, check::DporMode::kSleepSet);
}
BENCHMARK(BM_Dpor_MessageRace_SleepSet)->Arg(2)->Arg(3)->Arg(4);

// The sharded symbolic stage on its worker axis: one Verifier symbolic run
// (record every trace, solve one per distinct projection, replay every SAT
// witness) with each phase's work claimed from a queue by N workers. Real
// time is the honest metric — cpu_time sums the fleet. The verdict and
// every counter are byte-identical across the axis (pinned by
// verifier_test).
//
// BM_Symbolic_Sharded runs message_race(4,2), whose 16 traces share one
// projection: one solve answers all of them, so this series tracks the
// cost of a request with nothing left to shard, and `solver_calls` pins
// the deduplication (the nightly ceiling is 1). `decisions` and
// `conflicts` are the SAT search effort of that request: the nightly
// ceiling on `decisions` catches a solver change that loses theory
// propagation without changing any verdict.
//
// BM_Symbolic_Sharded_Distinct runs branching_race(): the receiver branches
// on which sender's message came first, so its 16 traces fall into up to 4
// projections, i.e. 4 solves a fleet can share out. This series carries the
// nightly 4-vs-1 worker floor.
void symbolic_sharded(benchmark::State& state, const mcapi::Program& p) {
  const auto workers = static_cast<std::uint32_t>(state.range(0));
  check::VerifyRequest req;
  req.engine = check::Engine::kSymbolic;
  req.traces = 16;
  req.workers = workers;
  check::Verdict verdict = check::Verdict::kUnknown;
  std::uint64_t decisions = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t solver_calls = 0;
  for (auto _ : state) {
    check::Verifier verifier;
    const check::VerifyReport report = verifier.verify(p, req);
    verdict = report.verdict;
    for (const auto& [name, value] : report.engines.back().counters) {
      if (name == "decisions") decisions = value;
      if (name == "conflicts") conflicts = value;
      if (name == "solver_calls") solver_calls = value;
    }
    benchmark::DoNotOptimize(&report);
  }
  state.counters["safe"] = verdict == check::Verdict::kSafe ? 1 : 0;
  state.counters["decisions"] = static_cast<double>(decisions);
  state.counters["conflicts"] = static_cast<double>(conflicts);
  state.counters["solver_calls"] = static_cast<double>(solver_calls);
}

void BM_Symbolic_Sharded(benchmark::State& state) {
  symbolic_sharded(state, wl::message_race(4, 2));
}
BENCHMARK(BM_Symbolic_Sharded)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// message_race(4,2) whose receiver branches on the sender of the first
/// message it gets (by FIFO, sequence 0 of some sender), records that
/// sender, then drains the other 7 messages. Each winner pins a different
/// branch path, so traces split by projection on who won the race.
mcapi::Program branching_race() {
  constexpr std::uint32_t kSenders = 4;
  constexpr std::uint32_t kMsgsEach = 2;
  mcapi::Program p;
  auto rx = p.add_thread("rx");
  const mcapi::EndpointRef sink = p.add_endpoint("sink", rx.ref());
  for (std::uint32_t s = 0; s < kSenders; ++s) {
    auto tx = p.add_thread("tx" + std::to_string(s));
    const mcapi::EndpointRef out =
        p.add_endpoint("out" + std::to_string(s), tx.ref());
    for (std::uint32_t k = 0; k < kMsgsEach; ++k) {
      tx.send(out, sink, 100 * (s + 1) + k);
    }
  }
  rx.recv(sink, "m0");
  for (std::uint32_t s = 0; s + 1 < kSenders; ++s) {
    const std::string won = "won" + std::to_string(s);
    rx.jump_if(mcapi::Cond{rx.v("m0"), mcapi::Rel::kEq,
                           mcapi::ThreadBuilder::c(100 * (s + 1))},
               won);
  }
  rx.assign("first", mcapi::ThreadBuilder::c(kSenders - 1)).jump("drain");
  for (std::uint32_t s = 0; s + 1 < kSenders; ++s) {
    rx.label("won" + std::to_string(s))
        .assign("first", mcapi::ThreadBuilder::c(s))
        .jump("drain");
  }
  rx.label("drain");
  for (std::uint32_t m = 1; m < kSenders * kMsgsEach; ++m) {
    rx.recv(sink, "m" + std::to_string(m));
  }
  p.finalize();
  return p;
}

void BM_Symbolic_Sharded_Distinct(benchmark::State& state) {
  symbolic_sharded(state, branching_race());
}
BENCHMARK(BM_Symbolic_Sharded_Distinct)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// The state-fork micro-bench behind the whole refactor: forking the
// execution state mid-exploration by copy-the-world (what every frame of
// the old checkers paid, per branch and per race simulation) vs by
// checkpoint -> apply -> rollback on a journaling System. Measured on a
// mid-execution message_race(3,2) state with populated transit/endpoint
// queues — the shape the DPOR stack actually forks.
mcapi::System mid_race_state(const mcapi::Program& p) {
  mcapi::System sys(p);
  std::vector<mcapi::Action> enabled;
  for (int step = 0; step < 9; ++step) {  // half of the 18-action execution
    sys.enabled(enabled);
    if (enabled.empty()) break;
    sys.apply(enabled.front());
  }
  return sys;
}

void BM_Dpor_StateFork_Copy(benchmark::State& state) {
  const mcapi::Program p = wl::message_race(3, 2);
  const mcapi::System mid = mid_race_state(p);
  std::vector<mcapi::Action> enabled;
  mid.enabled(enabled);
  const mcapi::Action a = enabled.front();
  for (auto _ : state) {
    mcapi::System fork = mid;  // copy-the-world
    fork.apply(a);
    benchmark::DoNotOptimize(&fork);
  }
}
BENCHMARK(BM_Dpor_StateFork_Copy);

void BM_Dpor_StateFork_Undo(benchmark::State& state) {
  const mcapi::Program p = wl::message_race(3, 2);
  mcapi::System sys = mid_race_state(p);
  sys.enable_undo_log();
  std::vector<mcapi::Action> enabled;
  sys.enabled(enabled);
  const mcapi::Action a = enabled.front();
  for (auto _ : state) {
    const mcapi::System::Checkpoint here = sys.checkpoint();
    sys.apply(a);
    sys.rollback(here);
    benchmark::DoNotOptimize(&sys);
  }
}
BENCHMARK(BM_Dpor_StateFork_Undo);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  print_dpor_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
