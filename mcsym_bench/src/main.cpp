// mcsym-bench: time to a verdict and verdict throughput, end to end and per
// layer. See ../README.md for the workloads, the metrics and how to cite
// them.
//
//   mcsym_bench --workload W --seed N --seconds S --trace 0|1
//               --examples DIR --table FILE [--trace-out FILE]
//               [--commit SHA] [--source-digest HEX]
//   mcsym_bench --make-table FILE
//
// One client, closed loop: the next request is sent when the previous one
// returns. --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// seed untraced and then traced, and prints the per-layer metrics. The last
// stdout line is the result object.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.hpp"
#include "check/service.hpp"
#include "check/symbolic_checker.hpp"
#include "check/verifier.hpp"
#include "check/witness_replay.hpp"
#include "inputs.hpp"
#include "mcapi/canonical.hpp"
#include "mcapi/executor.hpp"
#include "mcapi/scheduler.hpp"
#include "mcapi/system.hpp"
#include "oracle.hpp"
#include "span_trace.hpp"
#include "text/program_text.hpp"
#include "trace/trace.hpp"

namespace {

using namespace mcsym_bench;
using mcsym::check::EngineRun;
using mcsym::check::VerifierService;
using mcsym::check::VerifyReport;
using mcsym::check::VerifyRequest;

constexpr int kSetupReps = 5;
constexpr std::size_t kStreamDigestRequests = 256;
/// Generated programs per generator variant in the expected-verdict table.
constexpr std::uint32_t kTablePerVariant = 50;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string examples = "examples";
  std::string table = "mcsym_bench/expected_verdicts.tsv";
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string make_table;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::strtoull(value.c_str(), &end, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(value.c_str(), &end);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--examples") a.examples = value;
    else if (flag == "--table") a.table = value;
    else if (flag == "--trace-out") a.trace_out = value;
    else if (flag == "--commit") a.commit = value;
    else if (flag == "--source-digest") a.source_digest = value;
    else if (flag == "--make-table") a.make_table = value;
    else return false;
    if (end != nullptr && (*end != '\0' || errno != 0)) return false;
  }
  return a.seconds > 0 && a.seconds <= 600;
}

// --------------------------------------------------------------------------
// One request
// --------------------------------------------------------------------------

/// Engine rows of an mcsym.verify/1 document: the top-level seconds and each
/// engine's name and seconds (the schema is golden-pinned, one row a line).
struct ReportTimes {
  double seconds = 0;
  std::vector<std::pair<std::string, double>> engines;
  [[nodiscard]] double engine_seconds() const {
    double s = 0;
    for (const auto& e : engines) s += e.second;
    return s;
  }
};

ReportTimes report_times(const std::string& json) {
  ReportTimes t;
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t eol = json.find('\n', pos);
    if (eol == std::string::npos) eol = json.size();
    const std::string_view line(json.data() + pos, eol - pos);
    if (line.rfind("  \"seconds\": ", 0) == 0) {
      t.seconds = std::strtod(std::string(line.substr(13)).c_str(), nullptr);
    } else if (line.rfind("    {\"engine\": \"", 0) == 0) {
      const std::size_t name_end = line.find('"', 16);
      const std::size_t sec = line.find("\"seconds\": ");
      if (name_end != std::string_view::npos && sec != std::string_view::npos) {
        t.engines.emplace_back(std::string(line.substr(16, name_end - 16)),
                               std::strtod(std::string(line.substr(sec + 11)).c_str(), nullptr));
      }
    }
    pos = eol + 1;
  }
  return t;
}

std::uint64_t counter(const EngineRun& run, std::string_view name) {
  for (const auto& [k, v] : run.counters) {
    if (k == name) return v;
  }
  return 0;
}

struct Executed {
  Verdict verdict = Verdict::kUnknown;
  bool failed = false;
  bool verdict_error = false;
  bool cache_hit = false;
  double wall = 0;
  double cpu = 0;
  std::optional<VerifyReport> report;  // Verifier::verify requests
  std::string json;                    // service requests
  std::string error;
};

/// Sends requests the way the workload's client does and checks each answer
/// against the oracle.
class Client {
 public:
  explicit Client(const WorkloadInputs& w) : w_(w) {}

  Executed send(const Request& r) {
    const Input& in = w_.inputs[r.input];
    const VerifyRequest q = verify_request(w_, r);
    Executed e;
    Outcome outcome;
    const double c0 = cpu_now();
    const double t0 = wall_now();
    if (w_.workload == Workload::kServiceSerial) {
      auto reply = service_.verify_source(r.renamed ? in.renamed : in.text, q);
      e.wall = wall_now() - t0;
      e.cpu = cpu_now() - c0;
      e.cache_hit = reply.cache_hit;
      e.verdict = reply.ok ? reply.verdict : Verdict::kUnknown;
      e.failed = !reply.ok || reply.cancelled || !definitive(e.verdict) ||
                 reply.report_json.find("\"agreed\": false") != std::string::npos;
      e.error = reply.error;
      e.json = std::move(reply.report_json);
    } else {
      VerifyReport rep = verifier_.verify(in.program, q);
      e.wall = wall_now() - t0;
      e.cpu = cpu_now() - c0;
      e.verdict = rep.verdict;
      e.failed = rep.cancelled || !definitive(rep.verdict) || !rep.agreed();
      for (const EngineRun& run : rep.engines) {
        if (run.engine == Engine::kDporOptimal) outcome.dpor_executions = counter(run, "executions");
      }
      e.report = std::move(rep);
    }
    outcome.verdict = e.verdict;
    e.verdict_error = !outcome_matches(in.expect, r.engine, outcome);
    if (e.verdict_error && e.error.empty()) {
      e.error = std::string("expected ") +
                mcsym::check::verdict_name(expected_verdict(in.expect, r.engine)) +
                ", got " + mcsym::check::verdict_name(e.verdict);
      if (outcome.dpor_executions) {
        e.error += " (" + std::to_string(*outcome.dpor_executions) + " executions, expected " +
                   std::to_string(in.expect.dpor_executions) + ")";
      }
    }
    return e;
  }

  /// Called at each session start: a session's cache starts empty.
  void begin_session() { service_.clear_cache(); }
  [[nodiscard]] VerifierService& service() { return service_; }

 private:
  const WorkloadInputs& w_;
  mcsym::check::Verifier verifier_;
  VerifierService service_;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t verdict_errors = 0;
  std::vector<std::string> errors;  // first few, for the log

  void count(const Executed& e, const Input& in, Engine engine) {
    ++attempted;
    if (e.failed) ++failed;
    if (e.verdict_error) {
      ++verdict_errors;
      if (errors.size() < 5) {
        errors.push_back(in.name + " [" + mcsym::check::engine_name(engine) + "]: " + e.error);
      }
    }
  }
};

// --------------------------------------------------------------------------
// Set-up
// --------------------------------------------------------------------------

/// Builds the inputs and warms every one of them once (untimed requests on
/// a throwaway client). Returns the seconds it took.
double set_up(Workload workload, const InputPaths& paths, WorkloadInputs& out, Tally& tally) {
  const double t0 = wall_now();
  out = make_inputs(workload, paths);
  Client warm(out);
  for (std::uint32_t i = 0; i < out.inputs.size(); ++i) {
    Request r;
    r.input = i;
    r.engine = out.inputs[i].engines.front();
    const Executed e = warm.send(r);
    if (e.verdict_error) tally.count(e, out.inputs[i], r.engine);
  }
  return wall_now() - t0;
}

// --------------------------------------------------------------------------
// Untraced run: the end-to-end metrics
// --------------------------------------------------------------------------

/// Requests a window holds at least, so that its p90 has ten samples beyond.
constexpr std::size_t kWindowRequests = 100;
constexpr std::size_t kMinWindows = 3;

/// A run of whole passes; the end-to-end figures are medians over windows,
/// so a burst of load on the host moves a few windows, not the result.
struct Window {
  std::size_t first = 0;  // index of its first latency
  std::size_t count = 0;
  double wall = 0;
  double cpu = 0;
};

struct LoopResult {
  std::vector<double> latencies;  // seconds
  std::vector<Window> windows;
  Tally tally;
};

/// Runs the seeded stream for `seconds` and records each request's wall
/// time. A trailing window shorter than kWindowRequests is left out of the
/// figures (its requests still count as attempted).
LoopResult run_loop(const WorkloadInputs& w, std::uint64_t seed, double seconds) {
  LoopResult out;
  Client client(w);
  RequestStream stream(w, seed);
  Window open;
  double c0 = cpu_now();
  double t0 = wall_now();
  const double deadline = t0 + seconds;
  while (wall_now() < deadline) {
    if (out.latencies.size() - open.first >= kWindowRequests) {
      const double t = wall_now();
      const double c = cpu_now();
      open.count = out.latencies.size() - open.first;
      open.wall = t - t0;
      open.cpu = c - c0;
      out.windows.push_back(open);
      open = Window{out.latencies.size()};
      t0 = t;
      c0 = c;
    }
    client.begin_session();
    for (const Request& r : stream.next_pass()) {
      if (wall_now() >= deadline) break;
      const Executed e = client.send(r);
      out.latencies.push_back(e.wall);
      out.tally.count(e, w.inputs[r.input], r.engine);
    }
  }
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --------------------------------------------------------------------------
// Traced run: the per-layer metrics
// --------------------------------------------------------------------------

/// Events of one kind and the seconds they took.
struct Timed {
  std::uint64_t n = 0;
  double seconds = 0;
  void add(double s) {
    ++n;
    seconds += s;
  }
  [[nodiscard]] double mean() const { return ratio(seconds, static_cast<double>(n)); }
};

struct DporFigures {
  std::uint64_t runs = 0;
  double seconds = 0;
  std::uint64_t transitions = 0, executions = 0, races = 0, wakeup_nodes = 0,
                steals = 0, steal_failures = 0, claim_conflicts = 0,
                max_replay_depth = 0, duplicates = 0, redundant = 0;
  double cpu = 0, capacity = 0;  // CPU seconds, wall x workers of DPOR requests
};

struct ExplicitFigures {
  std::uint64_t runs = 0;
  double seconds = 0;
  std::uint64_t states = 0;
};

struct StateFigures {
  std::uint64_t runs = 0, visited = 0, hits = 0, dropped = 0, cycles = 0;
};

struct SymbolicFigures {
  std::uint64_t runs = 0;
  std::uint64_t witnesses_replayed = 0;
  std::uint64_t traces = 0;  // checked traces
  double matchgen = 0, encode = 0, solve = 0;
  std::uint64_t pairs = 0, constraints = 0, conflicts = 0, decisions = 0;
  double cpu = 0, capacity = 0;  // of sharded symbolic requests
};

/// Counters and seconds the layers report, accumulated over a traced run.
struct Layers {
  std::uint64_t requests = 0;
  std::uint64_t sessions = 0;
  Timed hits;                // check.service: cache hits
  Timed miss_overhead;       // check.service: miss wall - engine seconds
  Timed portfolio_overhead;  // check.verifier: portfolio wall - engine seconds
  std::uint64_t evictions = 0;
  double cache_hit_share = 0;  // of the stream's own requests
  DporFigures dpor;
  ExplicitFigures explicit_engine;
  StateFigures state;
  SymbolicFigures symbolic;
  double apply_rollback_ns = 0;
  double parallel_speedup = 0;
  double trace_overhead_share = 0;

  /// Takes from `probe` every group of figures this run's requests left
  /// empty, so each per-layer time is measured on every workload.
  void fill_unreached(const Layers& probe) {
    if (hits.n == 0) hits = probe.hits;
    if (miss_overhead.n == 0) miss_overhead = probe.miss_overhead;
    if (portfolio_overhead.n == 0) portfolio_overhead = probe.portfolio_overhead;
    if (dpor.runs == 0) dpor = probe.dpor;
    if (explicit_engine.runs == 0) explicit_engine = probe.explicit_engine;
    if (symbolic.runs == 0) symbolic = probe.symbolic;
  }

  void absorb(const VerifyReport& rep) {
    for (const EngineRun& run : rep.engines) {
      switch (run.engine) {
        case Engine::kDporOptimal:
        case Engine::kDporSleepSet:
          ++dpor.runs;
          dpor.seconds += run.seconds;
          dpor.transitions += counter(run, "transitions");
          dpor.executions += counter(run, "executions");
          dpor.races += counter(run, "races_detected");
          dpor.wakeup_nodes += counter(run, "wakeup_nodes");
          dpor.steals += counter(run, "steals");
          dpor.steal_failures += counter(run, "steal_failures");
          dpor.claim_conflicts += counter(run, "claim_conflicts");
          dpor.max_replay_depth = std::max(dpor.max_replay_depth, counter(run, "max_replay_depth"));
          dpor.duplicates += counter(run, "parallel_duplicates");
          dpor.redundant += counter(run, "redundant_explorations");
          break;
        case Engine::kExplicit:
          ++explicit_engine.runs;
          explicit_engine.seconds += run.seconds;
          explicit_engine.states += counter(run, "states_expanded");
          break;
        case Engine::kSymbolic:
          ++symbolic.runs;
          symbolic.witnesses_replayed += counter(run, "witnesses_replayed");
          break;
        case Engine::kPortfolio:
          break;
      }
      // Explorer rows carry state-store counters on stateful requests only.
      if (std::any_of(run.counters.begin(), run.counters.end(),
                      [](const auto& c) { return c.first == "visited_states"; })) {
        ++state.runs;
        state.visited += counter(run, "visited_states");
        state.hits += counter(run, "state_hits");
        state.dropped += counter(run, "states_dropped");
        state.cycles += counter(run, "cycles_found");
      }
    }
    for (const auto& tc : rep.trace_checks) {
      if (!tc.checked) continue;
      ++symbolic.traces;
      const auto& v = tc.verdict;
      symbolic.matchgen += v.matchgen_seconds;
      symbolic.encode += v.encode_seconds;
      symbolic.solve += v.solve_seconds;
      symbolic.conflicts += v.sat_conflicts;
      symbolic.decisions += v.sat_decisions;
      const auto& s = v.encode_stats;
      symbolic.pairs += s.match_disjuncts;
      symbolic.constraints += s.order_constraints + s.unique_constraints + s.fifo_constraints +
                              s.delay_constraints + s.completion_order_constraints +
                              s.test_constraints + s.event_constraints;
    }
  }
};

const char* engine_span(std::string_view engine) {
  if (engine == "explicit") return "check.explicit";
  if (engine == "symbolic") return "check.symbolic";
  return "check.dpor";
}

/// Places the engines' reported seconds as derived children of `call`, one
/// after another, and the per-trace symbolic stages under the symbolic one.
void derive_engine_spans(Tracer& tracer, int call, std::uint64_t id,
                         const std::vector<std::pair<std::string, double>>& engines,
                         const VerifyReport* rep) {
  double at = tracer.spans()[call].start;
  for (const auto& [name, seconds] : engines) {
    const int span = tracer.add(engine_span(name), at, at + seconds, id, call, true);
    if (name == "symbolic" && rep != nullptr) {
      double t = at;
      for (const auto& tc : rep->trace_checks) {
        if (!tc.checked) continue;
        const auto& v = tc.verdict;
        tracer.add("match.generate", t, t + v.matchgen_seconds, id, span, true);
        t += v.matchgen_seconds;
        tracer.add("encode.encode", t, t + v.encode_seconds, id, span, true);
        t += v.encode_seconds;
        tracer.add("smt.solve", t, t + v.solve_seconds, id, span, true);
        t += v.solve_seconds;
      }
    }
    at += seconds;
  }
}

std::vector<std::pair<std::string, double>> engine_rows(const VerifyReport& rep) {
  std::vector<std::pair<std::string, double>> rows;
  for (const EngineRun& run : rep.engines) {
    rows.emplace_back(mcsym::check::engine_name(run.engine), run.seconds);
  }
  return rows;
}

/// Replays every SAT witness of a report once, each under its own span.
void replay_probe(Tracer& tracer, std::uint64_t id, const mcsym::mcapi::Program& program,
                  const VerifyReport& rep) {
  for (const auto& tc : rep.trace_checks) {
    if (!tc.checked || !tc.verdict.witness) continue;
    const int s = tracer.open("check.witness_replay", id);
    const auto replayed = mcsym::check::schedule_from_witness(program, tc.trace, *tc.verdict.witness);
    tracer.close(s);
    (void)replayed;
  }
}

/// apply + rollback of every enabled action, on states sampled by seeded
/// random walks through each program. Returns ns per apply+rollback pair.
double apply_rollback_probe(Tracer& tracer, const WorkloadInputs& w, std::uint64_t seed) {
  constexpr std::uint64_t kMinPairs = 50000;
  constexpr std::size_t kMaxWalk = 256;
  mcsym::support::Rng rng(seed);
  std::uint64_t pairs = 0;
  double seconds = 0;
  std::vector<mcsym::mcapi::Action> enabled;
  for (int round = 0; pairs < kMinPairs && round < 1000; ++round) {
    for (const Input& in : w.inputs) {
      mcsym::mcapi::System sys(in.program);
      sys.enable_undo_log();
      const int span = tracer.open("mcapi.apply_rollback", 0);
      for (std::size_t step = 0; step < kMaxWalk; ++step) {
        enabled.clear();
        sys.enabled(enabled);
        if (enabled.empty() || sys.has_violation()) break;
        const double t0 = wall_now();
        for (const auto& a : enabled) {
          const auto mark = sys.checkpoint();
          sys.apply(a);
          sys.rollback(mark);
        }
        seconds += wall_now() - t0;
        pairs += enabled.size();
        sys.apply(enabled[rng.below(enabled.size())]);
      }
      tracer.close(span);
    }
  }
  return pairs == 0 ? 0 : seconds * 1e9 / static_cast<double>(pairs);
}

/// Records one trace of every terminating program under a seeded scheduler.
void record_probe(Tracer& tracer, const WorkloadInputs& w, std::uint64_t seed) {
  for (const Input& in : w.inputs) {
    if (!in.terminates) continue;
    mcsym::mcapi::System sys(in.program);
    mcsym::trace::Trace tr(in.program);
    mcsym::trace::Recorder rec(tr);
    mcsym::mcapi::RandomScheduler sched(seed);
    const int span = tracer.open("mcapi.record", 0);
    (void)mcsym::mcapi::run(sys, sched, &rec);
    tracer.close(span);
  }
}

/// The same programs at workers=1 and at the workload's worker count,
/// interleaved; sum of per-program medians, serial over parallel.
double parallel_speedup_probe(const WorkloadInputs& w) {
  constexpr int kReps = 3;
  mcsym::check::Verifier verifier;
  double serial = 0;
  double parallel = 0;
  for (std::uint32_t i = 0; i < w.inputs.size(); ++i) {
    std::vector<double> one;
    std::vector<double> many;
    Request r;
    r.input = i;
    r.engine = w.inputs[i].engines.front();
    for (int rep = 0; rep < kReps; ++rep) {
      VerifyRequest q = verify_request(w, r);
      q.workers = 1;
      double t0 = wall_now();
      (void)verifier.verify(w.inputs[i].program, q);
      one.push_back(wall_now() - t0);
      q.workers = w.workers;
      t0 = wall_now();
      (void)verifier.verify(w.inputs[i].program, q);
      many.push_back(wall_now() - t0);
    }
    serial += median(one);
    parallel += median(many);
  }
  return parallel > 0 ? serial / parallel : 0;
}

/// Sends one request inside spans, then probes the layers it went through.
void traced_request(const WorkloadInputs& w, Client& client,
                    mcsym::check::Verifier& probe_verifier, const Request& r,
                    std::uint64_t id, Tracer& tracer, Layers& L, Tally& tally,
                    double& request_seconds) {
  const Input& in = w.inputs[r.input];
  const bool service = w.workload == Workload::kServiceSerial;
  const int root = tracer.open("request", id);
  const int call = tracer.open(service ? "check.service" : "check.verifier", id, root);
  Executed e = client.send(r);
  tracer.close(call);
  tracer.close(root);
  request_seconds += tracer.duration(root);
  tally.count(e, in, r.engine);
  ++L.requests;

  const VerifyRequest q = verify_request(w, r);
  const bool ran_engines = !e.cache_hit;
  if (ran_engines && (r.engine == Engine::kDporOptimal || r.engine == Engine::kDporSleepSet)) {
    L.dpor.cpu += e.cpu;
    L.dpor.capacity += e.wall * w.workers;
  }
  if (ran_engines && r.engine == Engine::kSymbolic) {
    L.symbolic.cpu += e.cpu;
    L.symbolic.capacity += e.wall * w.workers;
  }

  if (!service) {
    derive_engine_spans(tracer, call, id, engine_rows(*e.report), &*e.report);
    L.absorb(*e.report);
    int s = tracer.open("mcapi.fingerprint", id);
    (void)mcsym::mcapi::canonical_fingerprint(in.program);
    tracer.close(s);
    s = tracer.open("check.verifier.serialize", id);
    (void)mcsym::check::report_to_json(*e.report);
    tracer.close(s);
    replay_probe(tracer, id, in.program, *e.report);
    return;
  }

  const std::string& text = r.renamed ? in.renamed : in.text;
  int s = tracer.open("text.parse", id);
  const auto parsed = mcsym::text::parse_program(text);
  tracer.close(s);
  s = tracer.open("mcapi.fingerprint", id);
  (void)mcsym::mcapi::canonical_fingerprint(parsed.parsed->program);
  tracer.close(s);
  s = tracer.open("check.service.key", id);
  (void)client.service().cache_key(text, q);
  tracer.close(s);
  if (e.cache_hit) {
    L.hits.add(e.wall);
    return;
  }
  const ReportTimes times = report_times(e.json);
  derive_engine_spans(tracer, call, id, times.engines, nullptr);
  L.miss_overhead.add(e.wall - times.engine_seconds());
  if (r.engine == Engine::kPortfolio) {
    L.portfolio_overhead.add(times.seconds - times.engine_seconds());
  }
  // The service returns only the serialized report; the layers' own
  // counters come from the same request re-run through the facade (its
  // engine time is already placed under the request's span).
  s = tracer.open("check.verifier", id);
  const VerifyReport rep = probe_verifier.verify(in.program, q);
  tracer.close(s);
  L.absorb(rep);
  s = tracer.open("check.verifier.serialize", id);
  (void)mcsym::check::report_to_json(rep);
  tracer.close(s);
  replay_probe(tracer, id, in.program, rep);
}

/// Runs the seeded stream pass by pass for `seconds`; every pass is sent
/// twice, untraced and traced, alternating which goes first, so the two
/// halves see the same requests and the same warm-up.
Layers traced_run(const WorkloadInputs& w, std::uint64_t seed, double seconds,
                  Tracer& tracer, Tally& tally) {
  Layers L;
  Client client(w);
  mcsym::check::Verifier probe_verifier;
  RequestStream stream(w, seed);
  double untraced_seconds = 0;
  double traced_seconds = 0;
  std::uint64_t id = 0;
  const double deadline = wall_now() + seconds;
  for (int pass = 0; wall_now() < deadline; ++pass) {
    const std::vector<Request>& requests = stream.next_pass();
    for (int half = 0; half < 2; ++half) {
      const bool traced = (half == 0) == (pass % 2 == 1);
      client.begin_session();
      ++L.sessions;
      for (const Request& r : requests) {
        if (traced) {
          traced_request(w, client, probe_verifier, r, ++id, tracer, L, tally, traced_seconds);
        } else {
          const Executed e = client.send(r);
          untraced_seconds += e.wall;
          tally.count(e, w.inputs[r.input], r.engine);
        }
      }
    }
  }
  L.evictions = client.service().stats().cache_evictions;
  L.cache_hit_share = ratio(static_cast<double>(L.hits.n), static_cast<double>(L.requests));
  L.trace_overhead_share = ratio(traced_seconds - untraced_seconds, untraced_seconds);
  std::printf("traced %llu requests (the same requests untraced: %.3f s, traced: %.3f s)\n",
              static_cast<unsigned long long>(L.requests), untraced_seconds, traced_seconds);
  return L;
}

/// Measures, on the workload's own programs, the layers its requests do not
/// reach (the service path on in-memory workloads, the explorers and the
/// symbolic pipeline where the engine is another one), so that every
/// per-layer time is a measurement on every workload. Engines run serial
/// and capped: the figures are per state, per transition and per trace.
Layers coverage_probe(const WorkloadInputs& w, Tracer& tracer) {
  constexpr int kHitProbes = 20;
  Layers P;
  mcsym::check::Verifier verifier;
  VerifierService service;
  for (std::uint32_t i = 0; i < w.inputs.size(); ++i) {
    const Input& in = w.inputs[i];
    Request r;
    r.input = i;
    r.engine = in.engines.front();
    const VerifyRequest q = verify_request(w, r);
    const std::string text = in.text.empty()
        ? mcsym::text::program_to_text(in.program, in.properties, "probe")
        : in.text;
    int s = tracer.open("text.parse", 0);
    (void)mcsym::text::parse_program(text);
    tracer.close(s);
    s = tracer.open("check.service.key", 0);
    (void)service.cache_key(text, q);
    tracer.close(s);
    double t0 = wall_now();
    const auto miss = service.verify_source(text, q);
    P.miss_overhead.add(wall_now() - t0 - report_times(miss.report_json).engine_seconds());
    for (int k = 0; k < kHitProbes; ++k) {
      t0 = wall_now();
      (void)service.verify_source(text, q);
      P.hits.add(wall_now() - t0);
    }
    // Livelocks keep the symbolic engine recording to its step limit; the
    // other inputs cover the engines.
    if (!in.terminates) continue;
    VerifyRequest capped = q;
    capped.workers = 1;
    capped.traces = 1;
    capped.budget.max_states = 5000;
    capped.budget.max_transitions = 50000;
    std::optional<VerifyReport> symbolic;
    for (Engine e : {Engine::kExplicit, Engine::kDporOptimal, Engine::kSymbolic,
                     Engine::kPortfolio}) {
      capped.engine = e;
      s = tracer.open("check.verifier", 0);
      VerifyReport rep = verifier.verify(in.program, capped);
      tracer.close(s);
      if (e == Engine::kPortfolio) {
        double engines = 0;
        for (const EngineRun& run : rep.engines) engines += run.seconds;
        P.portfolio_overhead.add(rep.seconds - engines);
        s = tracer.open("check.verifier.serialize", 0);
        (void)mcsym::check::report_to_json(rep);
        tracer.close(s);
        continue;
      }
      P.absorb(rep);
      if (e == Engine::kSymbolic) symbolic = std::move(rep);
    }
    // A witness to replay: the report's, or else the feasibility witness of
    // its recorded trace (a property-free query is SAT on any real trace).
    for (const auto& tc : symbolic->trace_checks) {
      if (!tc.checked) continue;
      std::optional<mcsym::encode::Witness> witness = tc.verdict.witness;
      if (!witness) {
        mcsym::check::SymbolicChecker feasibility(tc.trace);
        witness = feasibility.check().witness;
      }
      if (!witness) continue;
      s = tracer.open("check.witness_replay", 0);
      (void)mcsym::check::schedule_from_witness(in.program, tc.trace, *witness);
      tracer.close(s);
    }
  }
  return P;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Mean microseconds per span of each name: from the run's own spans, or
/// from the coverage probe's where the run has none of that name.
std::vector<Metric> layer_metrics(const Layers& L, const Tracer& tracer, const Tracer& probe) {
  std::map<std::string, std::pair<double, std::uint64_t>> own;    // seconds, spans
  std::map<std::string, std::pair<double, std::uint64_t>> probed;
  for (const auto& [spans, into] : {std::pair{&tracer, &own}, std::pair{&probe, &probed}}) {
    for (const Span& s : spans->spans()) {
      auto& [sec, calls] = (*into)[s.name];
      sec += s.end - s.start;
      ++calls;
    }
  }
  auto mean_us = [&](const std::string& name) {
    auto it = own.find(name);
    if (it == own.end()) it = probed.find(name);
    if (it == probed.end()) return 0.0;
    return ratio(it->second.first * 1e6, static_cast<double>(it->second.second));
  };
  const DporFigures& d = L.dpor;
  const ExplicitFigures& x = L.explicit_engine;
  const StateFigures& st = L.state;
  const SymbolicFigures& sy = L.symbolic;
  auto per = [](auto total, std::uint64_t n) {
    return ratio(static_cast<double>(total), static_cast<double>(n));
  };
  return {
      {"text.parse_us", mean_us("text.parse"), "us"},
      {"service.key_us", mean_us("check.service.key"), "us"},
      {"service.hit_us", L.hits.mean() * 1e6, "us"},
      {"service.miss_overhead_us", L.miss_overhead.mean() * 1e6, "us"},
      {"service.cache_hit_share", L.cache_hit_share, "ratio"},
      {"service.evictions", per(L.evictions, L.sessions), "count"},
      {"mcapi.fingerprint_us", mean_us("mcapi.fingerprint"), "us"},
      {"mcapi.apply_rollback_ns", L.apply_rollback_ns, "ns"},
      {"mcapi.record_us", mean_us("mcapi.record"), "us"},
      {"match.matchgen_us", per(sy.matchgen * 1e6, sy.traces), "us"},
      {"match.pairs", per(sy.pairs, sy.traces), "count"},
      {"encode.encode_us", per(sy.encode * 1e6, sy.traces), "us"},
      {"encode.constraints", per(sy.constraints, sy.traces), "count"},
      {"smt.solve_us", per(sy.solve * 1e6, sy.traces), "us"},
      {"smt.conflicts", per(sy.conflicts, sy.traces), "count"},
      {"smt.decisions", per(sy.decisions, sy.traces), "count"},
      {"replay.us", mean_us("check.witness_replay"), "us"},
      {"replay.witnesses", per(sy.witnesses_replayed, sy.runs), "count"},
      {"symbolic.busy_share", ratio(sy.cpu, sy.capacity), "ratio"},
      {"dpor.explore_s", per(d.seconds, d.runs), "s"},
      {"dpor.transitions", per(d.transitions, d.runs), "count"},
      {"dpor.executions", per(d.executions, d.runs), "count"},
      {"dpor.ns_per_transition", per(d.seconds * 1e9, d.transitions), "ns"},
      {"dpor.races", per(d.races, d.runs), "count"},
      {"dpor.wakeup_nodes", per(d.wakeup_nodes, d.runs), "count"},
      {"dpor.steals", per(d.steals, d.runs), "count"},
      {"dpor.steal_failures", per(d.steal_failures, d.runs), "count"},
      {"dpor.claim_conflicts", per(d.claim_conflicts, d.runs), "count"},
      {"dpor.max_replay_depth", static_cast<double>(d.max_replay_depth), "count"},
      {"dpor.duplicates", per(d.duplicates, d.runs), "count"},
      {"dpor.useful_share", per(d.executions, d.executions + d.duplicates + d.redundant), "ratio"},
      {"dpor.busy_share", ratio(d.cpu, d.capacity), "ratio"},
      {"dpor.parallel_speedup", L.parallel_speedup, "x"},
      {"explicit.explore_s", per(x.seconds, x.runs), "s"},
      {"explicit.states_expanded", per(x.states, x.runs), "count"},
      {"explicit.ns_per_state", per(x.seconds * 1e9, x.states), "ns"},
      {"state.visited", per(st.visited, st.runs), "count"},
      {"state.hits", per(st.hits, st.runs), "count"},
      {"state.hit_share", per(st.hits, st.hits + st.visited), "ratio"},
      {"state.dropped", per(st.dropped, st.runs), "count"},
      {"state.cycles", per(st.cycles, st.runs), "count"},
      {"verifier.serialize_us", mean_us("check.verifier.serialize"), "us"},
      {"verifier.portfolio_overhead_s", L.portfolio_overhead.mean(), "s"},
      {"bench.trace_overhead_share", L.trace_overhead_share, "ratio"},
  };
}

void print_self_times(const Tracer& tracer) {
  const auto self = self_times(tracer.spans());
  struct Row {
    std::uint64_t spans = 0;
    double total = 0;
    double self = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < self.size(); ++i) {
    const Span& s = tracer.spans()[i];
    Row& row = rows[span_layer(s.name)];
    ++row.spans;
    row.total += s.end - s.start;
    row.self += self[i];
  }
  std::printf("%-22s %10s %12s %12s\n", "layer", "spans", "total_ms", "self_ms");
  for (const auto& [layer, row] : rows) {
    std::printf("%-22s %10llu %12.3f %12.3f\n", layer.c_str(),
                static_cast<unsigned long long>(row.spans), row.total * 1e3, row.self * 1e3);
  }
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v, metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-30s %16llu %s\n", "verdict_errors",
              static_cast<unsigned long long>(tally.verdict_errors), "count");
  std::printf("%-30s %16.6f %s\n", "failed_share",
              ratio(static_cast<double>(tally.failed), static_cast<double>(tally.attempted)),
              "ratio");
  for (const auto& e : tally.errors) std::printf("verdict error: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              tally.verdict_errors == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), metrics_json(metrics).c_str());
  std::fflush(stdout);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr, "usage: mcsym_bench --workload W --seed N --seconds S --trace 0|1 "
                         "[--examples DIR] [--table FILE] [--trace-out FILE]\n"
                         "       mcsym_bench --make-table FILE\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "mcsym_bench: refusing to measure an assert-enabled build (NDEBUG unset)\n");
  return 2;
#endif
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "mcsym_bench: refusing to measure an unoptimised build\n");
  return 2;
#endif

  if (!args.make_table.empty()) {
    const auto rows = make_table(kTablePerVariant);
    std::ofstream out(args.make_table, std::ios::binary);
    out << format_table(rows);
    return out ? 0 : 1;
  }

  const auto workload = workload_from_name(args.workload);
  if (!workload) {
    std::fprintf(stderr, "mcsym_bench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const InputPaths paths{args.examples, args.table};

  WorkloadInputs w;
  Tally setup_tally;
  std::vector<double> setups;
  try {
    for (int rep = 0; rep < kSetupReps; ++rep) setups.push_back(set_up(*workload, paths, w, setup_tally));
  } catch (const InputError& e) {
    std::fprintf(stderr, "mcsym_bench: %s\n", e.what());
    return 1;
  }
  const double setup_s = median(setups);

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("mcsym-bench workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("why: %s\n", workload_why(*workload));
  std::printf("meta {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"flags\": \"%s\", \"ndebug\": true, \"commit\": \"%s\", \"source_digest\": \"%s\", "
              "\"workers\": %u, \"clients\": 1, \"loop\": \"closed\"}\n",
              nproc, json_escape(__VERSION__).c_str(), MCSYM_BENCH_BUILD_TYPE,
              json_escape(MCSYM_BENCH_FLAGS).c_str(), json_escape(args.commit).c_str(),
              json_escape(args.source_digest).c_str(), w.workers);
  std::printf("inputs %zu, input set digest %s, stream digest (first %zu requests) %s\n",
              w.inputs.size(), input_set_digest(w).c_str(), kStreamDigestRequests,
              stream_digest(w, args.seed, kStreamDigestRequests).c_str());
  if (w.workers > nproc) {
    std::fprintf(stderr, "mcsym_bench: workload needs %u threads, host has %u\n", w.workers, nproc);
    return 1;
  }
  if (setup_tally.verdict_errors != 0) {
    for (const auto& e : setup_tally.errors) std::fprintf(stderr, "set-up verdict error: %s\n", e.c_str());
    std::fprintf(stderr, "mcsym_bench: wrong verdicts during set-up\n");
    return 1;
  }

  if (!args.trace) {
    const LoopResult loop = run_loop(w, args.seed, args.seconds);
    if (loop.windows.size() < kMinWindows) {
      std::fprintf(stderr, "mcsym_bench: %zu windows of >= %zu requests; run longer\n",
                   loop.windows.size(), kWindowRequests);
      return 1;
    }
    std::vector<double> p50;
    std::vector<double> p90;
    std::vector<double> rps;
    std::vector<double> cpu;
    std::size_t fewest_beyond = loop.latencies.size();
    for (const Window& win : loop.windows) {
      const std::vector<double> lat(loop.latencies.begin() + win.first,
                                    loop.latencies.begin() + win.first + win.count);
      if (!percentile_supported(lat.size(), 0.9)) {
        std::fprintf(stderr, "mcsym_bench: a window leaves fewer than %zu samples beyond p90\n",
                     kMinSamplesBeyond);
        return 1;
      }
      fewest_beyond = std::min(fewest_beyond, samples_beyond(lat.size(), 0.9));
      p50.push_back(nearest_rank(lat, 0.5));
      p90.push_back(nearest_rank(lat, 0.9));
      rps.push_back(static_cast<double>(win.count) / win.wall);
      cpu.push_back(win.cpu / static_cast<double>(win.count));
    }
    std::printf("requests %zu; figures are medians over %zu windows of whole passes, "
                "each of >= %zu requests (p90 has >= %zu samples beyond it in every window)\n",
                loop.latencies.size(), loop.windows.size(), kWindowRequests, fewest_beyond);
    const std::vector<Metric> metrics = {
        {"latency_p50_ms", median(p50) * 1e3, "ms"},
        {"latency_p90_ms", median(p90) * 1e3, "ms"},
        {"throughput_rps", median(rps), "1/s"},
        {"cpu_ms_per_request", median(cpu) * 1e3, "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"setup_s", setup_s, "s"},
    };
    print_result(loop.tally, metrics);
    return loop.tally.verdict_errors == 0 ? 0 : 1;
  }

  // Traced: the per-layer metrics, then the probes that need their own timing.
  Tracer tracer;
  Tally tally;
  Layers L = traced_run(w, args.seed, args.seconds, tracer, tally);
  Tracer probe_tracer;
  L.fill_unreached(coverage_probe(w, probe_tracer));
  L.apply_rollback_ns = apply_rollback_probe(tracer, w, args.seed);
  record_probe(tracer, w, args.seed);
  if (w.workload == Workload::kDporParallel) L.parallel_speedup = parallel_speedup_probe(w);

  print_self_times(tracer);
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out, std::ios::binary);
    out << chrome_trace_json(tracer.spans());
    std::printf("trace events: %s (%zu spans)\n", args.trace_out.c_str(), tracer.spans().size());
  }
  print_result(tally, layer_metrics(L, tracer, probe_tracer));
  return tally.verdict_errors == 0 ? 0 : 1;
}
