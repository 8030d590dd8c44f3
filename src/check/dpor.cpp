#include "check/dpor.hpp"

#include <algorithm>
#include <utility>

#include "check/dpor_internal.hpp"
#include "support/stats.hpp"

namespace mcsym::check {

using mcapi::Action;
using mcapi::System;

DporChecker::DporChecker(const mcapi::Program& program, DporOptions options)
    : program_(program), options_(options) {}

bool DporChecker::independent(const System& state, const Action& a,
                              const Action& b) const {
  if (a == b) return false;
  return !mcapi::dependent(state.footprint(a), state.footprint(b),
                           options_.mode);
}

namespace {

using dpor_detail::is_internal_step;

/// One state on the sleep-set search's explicit stack: the actions to try
/// here, in order, and the sleep set it arrived with. The non-sleeping
/// actions before `next` are the explored siblings that put later ones to
/// sleep.
struct SleepFrame {
  std::vector<Action> enabled;  // or just the internal step taken alone
  std::vector<Action> sleep;
  std::size_t next = 0;           // next index into `enabled`
  bool internal = false;          // singleton ample set: one internal step
  System::Checkpoint entry = 0;   // state to roll back to when the frame pops
  std::optional<std::uint64_t> fp;  // stateful: registered on the cycle stack
};

}  // namespace

void DporChecker::explore_sleepset(DporResult& result,
                                   const support::Stopwatch& timer) {
  // Depth-first over the one live journaling System, with an explicit stack
  // (one frame per transition of the current path, so a long or cyclic
  // path cannot overflow the call stack). The visit order and every counter
  // are those of the textbook recursion.
  System sys(program_, options_.mode);
  sys.enable_undo_log();
  support::Deadline deadline(timer, options_.max_seconds, options_.interrupted);
  DporStats& st = result.stats;
  // Raw apply count driving max_transitions; the reported stats.transitions
  // is charged at execution completion instead (see DporStats::transitions).
  std::uint64_t applied = 0;
  std::vector<Action> script;
  std::vector<SleepFrame> stack;
  std::vector<Action> enabled;

  // Arrival at the current state carrying `sleep`: records a leaf outcome
  // or pushes a frame. Returns whether a frame was pushed.
  auto enter = [&](std::vector<Action> sleep, System::Checkpoint entry) {
    if (applied >= options_.max_transitions || deadline.expired()) {
      result.truncated = true;
      return false;
    }
    if (sys.has_violation()) {
      result.violation_found = true;
      result.violation = sys.violation();
      result.counterexample = script;
      ++st.executions;
      st.transitions += script.size();
      return false;
    }
    sys.enabled(enabled);
    if (enabled.empty()) {
      ++st.executions;
      st.transitions += script.size();
      if (sys.all_halted()) {
        ++st.terminal_states;
      } else {
        result.deadlock_found = true;
        if (result.deadlock_schedule.empty()) result.deadlock_schedule = script;
      }
      return false;
    }
    // Stateful: the optimal-mode rule, with nothing ever scheduled.
    SleepFrame f;
    if (options_.stateful &&
        !dpor_detail::enter_state(sys, script.size(), sleep.empty(),
                                  /*scheduled=*/false, store_, cycle_stack_,
                                  result, [&] { return script; }, f.fp)) {
      return false;
    }
    // Local-first ample set: an internal step is independent of everything
    // and never disabled, so exploring it alone is sound — and the sleep set
    // is unchanged (no sleeping action depends on it).
    const auto step = std::find_if(enabled.begin(), enabled.end(),
                                   [&](const Action& a) { return is_internal_step(sys, a); });
    f.internal = step != enabled.end();
    f.enabled = f.internal ? std::vector<Action>{*step} : enabled;
    f.sleep = std::move(sleep);
    f.entry = entry;
    stack.push_back(std::move(f));
    return true;
  };

  auto asleep = [](const SleepFrame& f, const Action& a) {
    return std::find(f.sleep.begin(), f.sleep.end(), a) != f.sleep.end();
  };

  enter({}, sys.checkpoint());
  while (!stack.empty() && !result.truncated && !result.violation_found) {
    SleepFrame& f = stack.back();
    // Next branch: the internal step once, else the next enabled action
    // that is not asleep here.
    const Action* pick = nullptr;
    if (f.internal) {
      if (f.next == 0) pick = &f.enabled[f.next++];
    } else {
      while (pick == nullptr && f.next < f.enabled.size()) {
        const Action& a = f.enabled[f.next++];
        if (asleep(f, a)) {
          ++st.sleep_prunes;
        } else {
          pick = &a;
        }
      }
    }
    if (pick == nullptr) {
      if (!f.internal && std::all_of(f.enabled.begin(), f.enabled.end(),
                                     [&](const Action& b) { return asleep(f, b); })) {
        // Every enabled action was asleep: a sleep-set-blocked maximal
        // path, the redundancy optimal mode eliminates.
        ++st.redundant_explorations;
        ++st.executions;
      }
      // Pop the frame, undoing the action that reached it.
      if (f.fp) cycle_stack_.pop(*f.fp);
      const System::Checkpoint entry = f.entry;
      stack.pop_back();
      if (!stack.empty()) {
        script.pop_back();
        sys.rollback(entry);
      }
      continue;
    }
    const Action a = *pick;

    // Child's sleep set: previously slept or already-explored actions that
    // are independent of `a` stay asleep. Computed against the pre-step
    // state, so it precedes the apply.
    std::vector<Action> child_sleep;
    if (f.internal) {
      child_sleep = f.sleep;
    } else {
      for (const Action& b : f.sleep) {
        if (independent(sys, a, b)) child_sleep.push_back(b);
      }
      for (std::size_t i = 0; i + 1 < f.next; ++i) {
        const Action& b = f.enabled[i];
        if (!asleep(f, b) && independent(sys, a, b)) child_sleep.push_back(b);
      }
    }

    const System::Checkpoint here = sys.checkpoint();
    sys.apply(a);
    ++applied;
    script.push_back(a);
    if (!enter(std::move(child_sleep), here)) {
      script.pop_back();
      sys.rollback(here);
    }
  }
}

DporResult DporChecker::run() {
  const support::Stopwatch timer;
  DporResult result;
  if (options_.stateful) {
    store_ = VisitedStateStore(options_.state_capacity);
    cycle_stack_.clear();
  }
  if (options_.algorithm == DporMode::kSleepSet) {
    explore_sleepset(result, timer);
  } else {
    explore_optimal(result, timer);
  }
  if (options_.stateful) {
    result.stats.state_space.visited_states = store_.inserts();
    result.stats.state_space.state_hits = store_.hits();
    result.stats.state_space.states_dropped = store_.dropped();
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace mcsym::check
