#include "check/dpor.hpp"

#include <algorithm>
#include <utility>

#include "check/dpor_internal.hpp"
#include "support/assert.hpp"
#include "support/stats.hpp"

namespace mcsym::check {

using mcapi::Action;
using mcapi::ActionFootprint;
using mcapi::OpKind;
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
using dpor_detail::kNpos;
using dpor_detail::WakeupTree;
using dpor_detail::weak_initial_pos;

/// One node of the exploration stack: reduction bookkeeping only — the
/// revisit sequences still scheduled here and the sibling actions whose
/// subtrees were already explored (asleep until woken by a dependent
/// step). The state itself lives in the single journaling System the
/// search walks up and down; a frame's checkpoint is its depth, since
/// apply() journals exactly one undo record per action.
struct Frame {
  WakeupTree wut;
  std::vector<ActionFootprint> sleep;
  ActionFootprint chosen;
  bool chosen_internal = false;
  bool started = false;
};

/// Unregisters a CycleStack entry on scope exit (the sleep-set DFS has
/// several early returns between registration and unwind).
struct PopOnExit {
  CycleStack* cs = nullptr;
  std::uint64_t fp = 0;
  ~PopOnExit() {
    if (cs != nullptr) cs->pop(fp);
  }
};

}  // namespace

bool DporChecker::over_time_budget(const support::Stopwatch& timer) const {
  // Amortize the clock read over the *calls* (one per exploration-loop
  // iteration / DFS entry), not over transitions: an iteration's race scan
  // and feasibility simulations do unbounded work without advancing the
  // transition counter, so a transition-keyed probe could overshoot the
  // budget arbitrarily.
  if (options_.max_seconds <= 0 && !options_.interrupted) return false;
  if ((++budget_probe_ & 63u) != 0) return false;
  if (options_.max_seconds > 0 && timer.seconds() > options_.max_seconds) {
    return true;
  }
  return options_.interrupted && options_.interrupted();
}

void DporChecker::run_optimal(DporResult& result,
                              const support::Stopwatch& timer) {
  const mcapi::DeliveryMode mode = options_.mode;
  DporStats& st = result.stats;

  // The one live System of the whole exploration: applied forward when a
  // branch is taken, undone when a frame pops or a race simulation rewinds.
  System sys(program_, mode);
  sys.enable_undo_log();

  // Counting fast path for race-reversal feasibility: in a program whose
  // only operations are send / blocking recv / straight-line locals, an
  // action's enabledness depends solely on a channel or endpoint queue
  // LENGTH (sends always run, deliver needs a non-empty channel, recv a
  // non-empty endpoint queue), and every footprinted op kind is fixed
  // across replays (no data-dependent branches, no request observations,
  // no asserts that could cut a simulation short). Candidate sequences can
  // then be validated with pure integer counters over the footprints —
  // no state mutation, no prefix restore. Anything richer (recv_i/wait,
  // polls, wait_any, branches, asserts) or global-FIFO delivery falls back
  // to the live-System simulation.
  const bool countable = dpor_detail::countable_program(program_, mode);
  // Scratch counters reused across candidates: per-channel in-transit and
  // per-endpoint delivered-queue lengths reconstructed at the race point.
  std::vector<std::pair<mcapi::ChannelId, std::ptrdiff_t>> chan_len;
  std::vector<std::ptrdiff_t> ep_len(program_.num_endpoints(), 0);

  std::vector<Frame> stack;
  stack.emplace_back();
  // Stateful mode: each frame's registered on-path fingerprint (nullopt for
  // frames cut before registration), parallel to `stack`.
  std::vector<std::optional<std::uint64_t>> frame_fp;
  if (options_.stateful) frame_fp.emplace_back();
  std::vector<ActionFootprint> events;  // E: footprints of the executed prefix
  dpor_detail::HappensBefore hb;        // over E
  std::vector<Action> enabled;
  // Raw apply count for the budget check only. The reported
  // stats.transitions is charged arrival-edge-exact — each execution's full
  // path length at the moment it completes — which is invariant across
  // exploration order (see DporStats::transitions).
  std::uint64_t applied = 0;

  auto actions_of_prefix = [&events] {
    std::vector<Action> script;
    script.reserve(events.size());
    for (const ActionFootprint& e : events) script.push_back(e.action);
    return script;
  };

  // Counting-based feasibility of a reversal candidate `v` at race point
  // `k` (only valid when `countable`): reconstruct channel/endpoint queue
  // lengths at state k by inverting the executed suffix against the live
  // state, then run the candidate through the counters — a deliver needs
  // its channel non-empty, a recv its endpoint queue non-empty, everything
  // else always fires. Exact for countable programs because per-thread
  // control is straight-line, so the footprinted op kinds replay as-is.
  auto count_feasible = [&](std::size_t k,
                            const std::vector<ActionFootprint>& v) {
    chan_len.clear();
    auto chan = [&](mcapi::ChannelId c) -> std::ptrdiff_t& {
      for (auto& [id, len] : chan_len) {
        if (id == c) return len;
      }
      chan_len.emplace_back(c, static_cast<std::ptrdiff_t>(sys.transit_size(c)));
      return chan_len.back().second;
    };
    for (std::size_t e = 0; e < ep_len.size(); ++e) {
      ep_len[e] = static_cast<std::ptrdiff_t>(
          sys.queue_size(static_cast<mcapi::EndpointRef>(e)));
    }
    for (std::size_t j = events.size(); j-- > k;) {
      const ActionFootprint& e = events[j];
      if (e.action.kind == Action::Kind::kDeliver) {
        ++chan(e.channel);
        --ep_len[e.channel.dst];
      } else if (e.op == OpKind::kSend) {
        --chan(e.channel);
      } else if (e.op == OpKind::kRecv) {
        ++ep_len[e.endpoint];
      }
    }
    for (const ActionFootprint& e : v) {
      if (e.action.kind == Action::Kind::kDeliver) {
        std::ptrdiff_t& len = chan(e.channel);
        if (len <= 0) return false;
        --len;
        ++ep_len[e.channel.dst];
      } else if (e.op == OpKind::kSend) {
        ++chan(e.channel);
      } else if (e.op == OpKind::kRecv) {
        if (ep_len[e.endpoint] <= 0) return false;
        --ep_len[e.endpoint];
      }
    }
    return true;
  };

  // Pops the completed top frame, undoing its arrival action so the live
  // System is back at the parent's state; the parent's chosen action falls
  // asleep for the parent's remaining branches.
  auto pop_frame = [&] {
    if (options_.stateful) {
      if (frame_fp.back()) cycle_stack_.pop(*frame_fp.back());
      frame_fp.pop_back();
    }
    stack.pop_back();
    if (stack.empty()) return;
    Frame& parent = stack.back();
    events.pop_back();
    hb.pop();
    sys.undo();
    if (!parent.chosen_internal) parent.sleep.push_back(parent.chosen);
  };

  // Appends ev's happens-before row, then scans the prefix for reversible
  // races ending in ev and schedules their reversal sequences
  // (notdep(e,E)·proc(ev)) at the frame before the raced event.
  auto append_event = [&](const ActionFootprint& ev) {
    const std::size_t n = events.size();
    hb.push([&](std::size_t k) {
      return mcapi::dependent(events[k], ev, mode);
    });
    events.push_back(ev);
    if (ev.internal) return;  // internal steps race with nothing

    // Feasibility simulations rewind the live System; the scan visits
    // race points in decreasing depth, so the rewind is monotone and the
    // executed prefix is restored once at the end instead of per race.
    std::size_t rewound = events.size();
    for (std::size_t k = n; k-- > 0;) {
      const ActionFootprint& ek = events[k];
      if (ek.internal) continue;
      // Dependent with nothing happening between: independent and
      // transitively ordered pairs are not races.
      if (!hb.adjacent(k)) continue;
      if (ek.action == ev.action) continue;  // program order, not a race

      // Candidate reversal: everything after ek not causally behind it,
      // then the racing process itself.
      std::vector<ActionFootprint> v;
      v.reserve(n - k);
      for (std::size_t j = k + 1; j < n; ++j) {
        if (!hb.before(k, j)) v.push_back(events[j]);
      }
      v.push_back(ev);

      // Skip when an explored sibling still asleep at the target already
      // covers the class (q is a weak initial of v: the q-subtree explored
      // v's trace). Checked before the feasibility simulation: coverage is
      // a few integer comparisons, the simulation replays the candidate.
      bool covered = false;
      for (const ActionFootprint& q : stack[k].sleep) {
        if (weak_initial_pos(q.action, v, mode) != kNpos) {
          covered = true;
          break;
        }
      }
      if (covered) continue;

      // Reversibility check against the real semantics: a purely causal
      // pair (a send vs. the delivery of its own message, a delivery vs.
      // the wait it unblocks) leaves the final action disabled. A reversal
      // that runs into an assertion violation is kept: the exploration
      // must reach that violation. Hot-path exception: two deliveries
      // racing for one endpoint (the only dependent delivery pair under
      // arbitrary delay) are always reversible — the reversal's causal
      // prefix keeps both messages in transit — so they skip the
      // simulation.
      const bool deliver_pair =
          mode == mcapi::DeliveryMode::kArbitraryDelay &&
          ek.action.kind == Action::Kind::kDeliver &&
          ev.action.kind == Action::Kind::kDeliver;
      if (!deliver_pair) {
        if (countable) {
          // Pure integer counting over the footprints; the live System is
          // never touched (and no prefix restore is owed afterwards).
          if (!count_feasible(k, v)) continue;
        } else {
          // Apply -> inspect -> undo on the live state: rewind to the
          // frame before the raced event (checkpoint k = k events
          // applied), run the candidate sequence, roll it back — all
          // O(changed) queue motions, never a copy of the world.
          sys.rollback(k);
          rewound = k;
          bool feasible = true;
          for (const ActionFootprint& e : v) {
            if (sys.has_violation()) break;
            if (!sys.action_enabled(e.action)) {
              feasible = false;
              break;
            }
            sys.apply(e.action);
          }
          sys.rollback(k);
          if (!feasible) continue;
        }
      }
      ++st.races_detected;
      st.wakeup_nodes += stack[k].wut.insert(std::move(v), mode);
    }
    // Replay the executed prefix the simulations rewound.
    for (std::size_t j = rewound; j < events.size(); ++j) {
      sys.apply(events[j].action);
    }
  };

  while (!stack.empty()) {
    if (applied >= options_.max_transitions ||
        over_time_budget(timer)) {
      result.truncated = true;
      break;
    }
    const std::size_t top = stack.size() - 1;

    if (!stack[top].started) {
      if (sys.has_violation()) {
        result.violation_found = true;
        result.violation = sys.violation();
        result.counterexample = actions_of_prefix();
        ++st.executions;
        st.transitions += events.size();
        break;
      }
      sys.enabled(enabled);
      if (enabled.empty()) {
        ++st.executions;
        st.transitions += events.size();
        if (sys.all_halted()) {
          ++st.terminal_states;
        } else {
          result.deadlock_found = true;
          if (result.deadlock_schedule.empty()) {
            result.deadlock_schedule = actions_of_prefix();
          }
        }
        pop_frame();
        continue;
      }
      if (options_.stateful) {
        const std::uint64_t fp = sys.fingerprint();
        if (const auto prev = cycle_stack_.find(fp)) {
          // On-path revisit: cut regardless of progress (this is what
          // bounds path length on cyclic programs), and classify — no
          // match recorded between the visits means a realized livelock.
          ++st.state_space.cycles_found;
          if (sys.matches().size() <= prev->progress) {
            ++st.state_space.nonprogressive_cycles;
            if (!result.non_termination_found) {
              result.non_termination_found = true;
              const std::vector<Action> script = actions_of_prefix();
              split_lasso(script, prev->depth, result.lasso_stem,
                          result.lasso_cycle);
            }
          }
          pop_frame();
          continue;
        }
        if (stack[top].sleep.empty()) {
          // Only sleep-free nodes are roots of complete subtrees, so only
          // they are stored; a hit prunes only when no wakeup subtree is
          // scheduled here (reversal sequences must never be discarded).
          if (stack[top].wut.empty()) {
            if (store_.visit(fp)) {
              pop_frame();
              continue;
            }
          } else if (!store_.contains(fp)) {
            store_.insert(fp);
          }
        }
        frame_fp.back() = fp;
        cycle_stack_.push(fp, events.size(), sys.matches().size());
      }
    }

    if (!stack[top].wut.empty()) {
      // Follow the next scheduled branch: a wakeup sequence, or the
      // initial pick. Descendants keep consuming the detached subtree.
      auto [ev, subtree] = stack[top].wut.pop_first();
      stack[top].started = true;
      bool asleep = false;
      for (const ActionFootprint& q : stack[top].sleep) {
        if (q.action == ev.action) {
          asleep = true;
          break;
        }
      }
      const bool runnable = sys.action_enabled(ev.action);
      if (asleep || !runnable) {
        // Impossible for a faithful optimal construction; counted instead
        // of asserted so tests pin the invariant (redundant == 0).
        ++st.redundant_explorations;
        ++st.executions;
        continue;
      }
      // Recompute the footprint at the actual state so happens-before and
      // race bookkeeping always see exact message identities.
      const ActionFootprint fresh = sys.footprint(ev.action);
      sys.apply(fresh.action);
      ++applied;
      append_event(fresh);
      stack[top].chosen = fresh;
      stack[top].chosen_internal = fresh.internal;
      Frame child;
      child.wut = std::move(subtree);
      if (fresh.internal) {
        child.sleep = stack[top].sleep;  // nothing asleep depends on it
      } else {
        for (const ActionFootprint& q : stack[top].sleep) {
          if (!mcapi::dependent(fresh, q, mode)) child.sleep.push_back(q);
        }
      }
      stack.push_back(std::move(child));
      if (options_.stateful) frame_fp.emplace_back();
      continue;
    }

    if (stack[top].started) {
      pop_frame();  // every scheduled branch explored
      continue;
    }

    // Fresh node, nothing scheduled: take an internal step as a singleton
    // ample set, else seed the wakeup tree with one arbitrary non-sleeping
    // action — every other sibling will arrive via race reversals.
    sys.enabled(enabled);
    const Action* pick = nullptr;
    for (const Action& a : enabled) {
      if (is_internal_step(sys, a)) {
        pick = &a;
        break;
      }
    }
    if (pick == nullptr) {
      for (const Action& a : enabled) {
        bool asleep = false;
        for (const ActionFootprint& q : stack[top].sleep) {
          if (q.action == a) {
            asleep = true;
            break;
          }
        }
        if (!asleep) {
          pick = &a;
          break;
        }
      }
    }
    if (pick == nullptr) {
      // Every enabled action is asleep: a sleep-set-blocked maximal path.
      ++st.redundant_explorations;
      ++st.executions;
      stack[top].started = true;
      pop_frame();
      continue;
    }
    stack[top].wut.insert({sys.footprint(*pick)}, mode);
    // The arrival checks (violation/terminal) ran this visit; marking the
    // node started keeps the next iteration from redoing them before the
    // branch executes.
    stack[top].started = true;
  }
}

void DporChecker::explore_sleepset(System& sys, std::vector<Action>& sleep,
                                   std::vector<Action>& script,
                                   DporResult& result,
                                   const support::Stopwatch& timer) {
  if (result.truncated || result.violation_found) return;
  if (sleepset_applied_ >= options_.max_transitions ||
      over_time_budget(timer)) {
    result.truncated = true;
    return;
  }

  if (sys.has_violation()) {
    result.violation_found = true;
    result.violation = sys.violation();
    result.counterexample = script;
    ++result.stats.executions;
    result.stats.transitions += script.size();
    return;
  }

  std::vector<Action> enabled;
  sys.enabled(enabled);
  if (enabled.empty()) {
    ++result.stats.executions;
    result.stats.transitions += script.size();
    if (sys.all_halted()) {
      ++result.stats.terminal_states;
    } else {
      result.deadlock_found = true;
      if (result.deadlock_schedule.empty()) result.deadlock_schedule = script;
    }
    return;
  }

  PopOnExit pop_guard;
  if (options_.stateful) {
    const std::uint64_t fp = sys.fingerprint();
    if (const auto prev = cycle_stack_.find(fp)) {
      ++result.stats.state_space.cycles_found;
      if (sys.matches().size() <= prev->progress) {
        ++result.stats.state_space.nonprogressive_cycles;
        if (!result.non_termination_found) {
          result.non_termination_found = true;
          split_lasso(script, prev->depth, result.lasso_stem,
                      result.lasso_cycle);
        }
      }
      return;  // cut at any on-path revisit: bounds depth on cyclic programs
    }
    // Same conservative rule as optimal mode: only sleep-free nodes are
    // stored, and only they prune on a hit — a node with a non-empty sleep
    // set deliberately skips behaviors covered elsewhere, so its subtree
    // is not a complete representative of this state's futures.
    if (sleep.empty() && store_.visit(fp)) return;
    cycle_stack_.push(fp, script.size(), sys.matches().size());
    pop_guard.cs = &cycle_stack_;
    pop_guard.fp = fp;
  }

  // Local-first ample set: an internal step is independent of everything
  // and never disabled, so exploring it alone is sound — and the sleep set
  // is unchanged (no sleeping action depends on it).
  for (const Action& a : enabled) {
    if (!is_internal_step(sys, a)) continue;
    const System::Checkpoint here = sys.checkpoint();
    sys.apply(a);
    ++sleepset_applied_;
    script.push_back(a);
    explore_sleepset(sys, sleep, script, result, timer);
    script.pop_back();
    sys.rollback(here);
    return;
  }

  // Sleep-set exploration of the visible actions.
  std::vector<Action> done;
  bool advanced = false;
  for (const Action& a : enabled) {
    if (std::find(sleep.begin(), sleep.end(), a) != sleep.end()) {
      ++result.stats.sleep_prunes;
      continue;
    }
    advanced = true;

    // Child's sleep set: previously slept or already-explored actions that
    // are independent of `a` stay asleep. Computed against the pre-step
    // state, so it precedes the apply.
    std::vector<Action> child_sleep;
    for (const Action& b : sleep) {
      if (independent(sys, a, b)) child_sleep.push_back(b);
    }
    for (const Action& b : done) {
      if (independent(sys, a, b)) child_sleep.push_back(b);
    }

    const System::Checkpoint here = sys.checkpoint();
    sys.apply(a);
    ++sleepset_applied_;
    script.push_back(a);
    explore_sleepset(sys, child_sleep, script, result, timer);
    script.pop_back();
    sys.rollback(here);
    if (result.truncated || result.violation_found) return;
    done.push_back(a);
  }
  if (!advanced) {
    // Every enabled action was asleep: a sleep-set-blocked maximal path,
    // the redundancy optimal mode eliminates.
    ++result.stats.redundant_explorations;
    ++result.stats.executions;
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
    System sys(program_, options_.mode);
    sys.enable_undo_log();
    sleepset_applied_ = 0;
    std::vector<Action> sleep;
    std::vector<Action> script;
    explore_sleepset(sys, sleep, script, result, timer);
  } else if (options_.workers > 1 && !options_.stateful) {
    // Stateful exploration shares one store and one cycle stack across the
    // whole search; it runs the serial optimal path regardless of workers.
    run_parallel(result, timer);
  } else {
    run_optimal(result, timer);
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
