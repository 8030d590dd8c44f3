// mcsym — command-line front end for the full pipeline of the paper:
//
//   run one execution of an MCAPI program, record its trace, generate the
//   match-pair sets, encode P = POrder ∧ PMatchPairs ∧ PUnique ∧ ¬PProp ∧
//   PEvents, hand it to the SMT solver, and read the verdict / witness /
//   full pairing enumeration back out.
//
// Programs come in as `.mcp` text (see src/text/program_text.hpp for the
// grammar). Subcommands:
//
//   mcsym run FILE        execute once on the simulated runtime
//   mcsym trace FILE      print the recorded trace, one event per line
//   mcsym verify FILE     one-stop verification through the Verifier facade
//                         (--engine selects symbolic/explicit/dpor/portfolio)
//   mcsym verify --batch MANIFEST
//                         verify every .mcp listed in MANIFEST through one
//                         VerifierService (shared verdict cache), emitting a
//                         JSON envelope line per entry
//   mcsym serve           long-running stdio request loop over the same
//                         service (see the protocol note above cmd_serve)
//   mcsym check FILE      verify safety properties symbolically
//   mcsym enumerate FILE  enumerate every feasible send/receive pairing
//   mcsym smt FILE        emit the SMT problem as SMT-LIB2 text
//   mcsym fmt FILE        reprint the program in canonical form
//
// `check` and `enumerate` are thin wrappers over the same
// check::Verifier facade `verify` drives; the facade owns trace
// recording, engine plumbing, witness replay, and cross-checking.
//
// Exit codes: 0 = success / verified safe; 1 = a violation or deadlock is
// reachable; 2 = usage or input error; 3 = budget exhausted / no verdict;
// 4 = non-termination (--stateful: a non-progressive cycle is realized).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/diagnose.hpp"
#include "check/service.hpp"
#include "check/verifier.hpp"
#include "mcapi/executor.hpp"
#include "smt/smtlib.hpp"
#include "smt/smtlib_parser.hpp"
#include "text/program_text.hpp"
#include "trace/trace.hpp"

namespace {

using mcsym::check::SymbolicOptions;
using mcsym::check::Verifier;
using mcsym::check::VerifierService;
using mcsym::text::ParseOutcome;

/// Maps a --workers value to a thread count: "auto" or "0" resolve to the
/// machine's hardware concurrency (1 when the runtime can't report it),
/// anything else parses as a number. Clamped to [1, 64] — the schedulers
/// degrade, not break, beyond physical cores, and the cap keeps a stray
/// huge value from oversubscribing the host. The resolved count is what the
/// Verifier request carries, so the parallel EngineRun row echoes it.
std::uint32_t resolve_workers(const std::string& value) {
  std::uint32_t n = 0;
  if (value != "auto") {
    n = static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
  }
  if (n == 0) n = std::thread::hardware_concurrency();  // "auto"/"0"/garbage
  return std::clamp(n, 1u, 64u);
}

constexpr const char* kUsage = R"(usage: mcsym COMMAND FILE.mcp [options]
       mcsym verify --batch MANIFEST [options]
       mcsym serve [options]

commands:
  run        execute the program once on the simulated MCAPI runtime
  trace      record one execution and print its trace text
  verify     answer "can any execution violate a property or deadlock?"
             with a selectable engine (see --engine) and budgets
  serve      read verification requests from stdin in a loop, sharing one
             verdict cache across them; replies are JSON envelope lines
             (protocol: `verify [k=v ...]` then program text then `.`;
             also `stats` and `quit`)
  check      decide whether any execution consistent with the recorded
             trace violates a property (the paper's SMT pipeline)
  enumerate  enumerate every feasible send/receive pairing of the trace
  diagnose   explain whether proposed --pair bindings are jointly feasible
  smt        print the SMT problem (SMT-LIB2) for the recorded trace
  solve      run the built-in CDCL+IDL solver on an SMT-LIB2 file
  fmt        parse and reprint the program in canonical form

verify options:
  --engine NAME        symbolic | explicit | dpor | dpor-sleepset | portfolio
                       (default dpor; --engine=NAME also accepted)
  --json               print the machine-readable report (mcsym.verify/1)
  --batch              FILE is a manifest of .mcp paths (one per line, `#`
                       comments); every entry is verified through one
                       shared service and emits a mcsym.batch/1 envelope
                       line (with --json followed by the full report);
                       exit is the worst entry (2 > 1 > 4 > 3 > 0)
  --cache N            verdict-cache capacity for --batch / serve
                       (default 256); --no-cache disables caching
  --max-seconds S      joint wall-clock budget across all engines (default off)
  --max-states N       explicit-state budget (states expanded)
  --max-transitions N  DPOR budget (transitions executed)
  --conflicts N        CDCL conflict budget per solver query (default off)
  --traces N           traces to record and check (symbolic/portfolio, default 1)
  --stateful           visited-state matching + cycle detection for the
                       explicit/DPOR engines: looping programs terminate
                       with a definitive verdict, and a realized
                       non-progressive cycle reports non-termination
                       (exit 4) with a replayable lasso witness
  --state-capacity N   visited-store capacity in states for --stateful
                       (default 1048576; 0 = unbounded; eviction trades
                       re-exploration for bounded memory)
  --workers N          worker threads: work-stealing DPOR exploration,
                       sharded symbolic per-trace checks, concurrent
                       portfolio engines (default 1 = serial; verdicts are
                       identical at every worker count). N may be `auto`
                       or `0` to use all hardware threads (clamped to 64);
                       the resolved count is echoed in the parallel
                       engine row's counters

common options:
  --seed N             scheduler seed for the recorded execution (default 1)
  --round-robin        use the deterministic round-robin scheduler instead
  --property EXPR      extra end-of-run property, e.g. 't0.A == 20'
                       (repeatable; conjoined with in-program asserts)
  --precise            generate match pairs by precise DFS instead of the
                       endpoint over-approximation
  --no-fifo            drop MCAPI per-channel FIFO constraints (ablation)
  --delay-ignorant     Elwakil-Yang-style baseline encoding (delivery order
                       = issue order; misses Figure-4b behaviors)
  --assert-props       assert PProp instead of its negation (SAT = a fully
                       correct execution exists)
  --witness            print the decoded witness on SAT (check)
  --replay             re-execute the witness on the runtime and report the
                       outcome (check)
  --explicit           also run the explicit-state ground truth (enumerate)
  --mcc                also run the MCC-style global-FIFO baseline (enumerate)
  --pair 'tS:send#K -> tR:recv#J'
                       propose that thread tR's J-th receive takes thread
                       tS's K-th send (repeatable; ordinals as printed by
                       enumerate) (diagnose)
  -o FILE              write primary output to FILE instead of stdout

exit codes: 0 ok / verified safe; 1 violation or deadlock reachable
            (check: SAT); 2 usage or input error; 3 budget exhausted /
            no verdict (verify); 4 non-termination (verify --stateful)
)";

struct Options {
  std::string command;
  std::string file;
  std::uint64_t seed = 1;
  bool round_robin = false;
  std::vector<std::string> properties;
  bool precise = false;
  bool no_fifo = false;
  bool delay_ignorant = false;
  bool assert_props = false;
  bool witness = false;
  bool replay = false;
  bool with_explicit = false;
  bool with_mcc = false;
  std::vector<std::string> pairs;
  std::string out_path;
  // verify
  std::string engine = "dpor";
  bool json = false;
  double max_seconds = 0;
  std::uint64_t max_states = 0;       // 0 = facade default
  std::uint64_t max_transitions = 0;  // 0 = facade default
  std::uint64_t conflicts = 0;
  std::uint32_t traces = 1;
  std::uint32_t workers = 1;
  bool stateful = false;
  std::uint64_t state_capacity =
      mcsym::check::VisitedStateStore::kDefaultCapacity;  // 0 = unbounded
  bool batch = false;
  std::size_t cache_capacity = 256;  // --batch / serve verdict cache
  // serve per-request only (set from `k=v` header options, not flags):
  double timeout = 0;      // wall-clock seconds; cancels via the progress hook
  std::string request_id;  // echoed back in the reply envelope
};

int fail(const std::string& message) {
  std::cerr << "mcsym: " << message << "\n";
  return 2;
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  if (argc < 2) return std::nullopt;
  o.command = argv[1];
  // `serve` reads programs from stdin and takes no FILE operand; every
  // other command requires one.
  int first = 2;
  if (o.command != "serve") {
    if (argc < 3) return std::nullopt;
    o.file = argv[2];
    first = 3;
  }
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--seed") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--round-robin") {
      o.round_robin = true;
    } else if (a == "--property") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      o.properties.emplace_back(v);
    } else if (a == "--precise") {
      o.precise = true;
    } else if (a == "--no-fifo") {
      o.no_fifo = true;
    } else if (a == "--delay-ignorant") {
      o.delay_ignorant = true;
    } else if (a == "--assert-props") {
      o.assert_props = true;
    } else if (a == "--witness") {
      o.witness = true;
    } else if (a == "--replay") {
      o.replay = true;
    } else if (a == "--explicit") {
      o.with_explicit = true;
    } else if (a == "--mcc") {
      o.with_mcc = true;
    } else if (a == "--pair") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      o.pairs.emplace_back(v);
    } else if (a == "--engine") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      o.engine = v;
    } else if (a.rfind("--engine=", 0) == 0) {
      o.engine = a.substr(9);
    } else if (a == "--json") {
      o.json = true;
    } else if (a == "--batch") {
      o.batch = true;
    } else if (a == "--cache") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      o.cache_capacity = std::strtoull(v, nullptr, 10);
    } else if (a == "--no-cache") {
      o.cache_capacity = 0;
    } else if (a == "--max-seconds") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      o.max_seconds = std::strtod(v, nullptr);
    } else if (a == "--max-states") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      o.max_states = std::strtoull(v, nullptr, 10);
    } else if (a == "--max-transitions") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      o.max_transitions = std::strtoull(v, nullptr, 10);
    } else if (a == "--conflicts") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      o.conflicts = std::strtoull(v, nullptr, 10);
    } else if (a == "--traces") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      o.traces = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--workers") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      o.workers = resolve_workers(v);
    } else if (a == "--stateful") {
      o.stateful = true;
    } else if (a == "--state-capacity") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      o.stateful = true;  // capacity only means anything stateful
      o.state_capacity = std::strtoull(v, nullptr, 10);
    } else if (a == "-o") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      o.out_path = v;
    } else {
      std::cerr << "mcsym: unknown option '" << a << "'\n";
      return std::nullopt;
    }
  }
  return o;
}

/// Reads the whole file; nullopt (with message on stderr) when unreadable.
std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "mcsym: cannot open '" << path << "'\n";
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

int write_output(const Options& o, const std::string& content) {
  if (o.out_path.empty()) {
    std::cout << content;
    return 0;
  }
  std::ofstream out(o.out_path, std::ios::binary);
  if (!out) return fail("cannot write '" + o.out_path + "'");
  out << content;
  return 0;
}

struct LoadedProgram {
  mcsym::text::ParsedProgram unit;
  std::vector<mcsym::encode::Property> properties;  // unit's + --property's
};

std::optional<LoadedProgram> load(const Options& o) {
  const auto source = slurp(o.file);
  if (!source) return std::nullopt;
  ParseOutcome out = mcsym::text::parse_program(*source);
  if (!out.ok()) {
    std::cerr << "mcsym: " << o.file << " has errors:\n" << out.error_text() << "\n";
    return std::nullopt;
  }
  LoadedProgram lp{std::move(*out.parsed), {}};
  lp.properties = lp.unit.properties;
  for (const std::string& text : o.properties) {
    auto prop = mcsym::text::parse_property(lp.unit.program, text);
    if (!prop.ok()) {
      std::cerr << "mcsym: bad --property '" << text << "':";
      for (const auto& d : prop.diagnostics) std::cerr << " " << d.message;
      std::cerr << "\n";
      return std::nullopt;
    }
    lp.properties.push_back(std::move(*prop.property));
  }
  return lp;
}

/// Executes once under the selected scheduler, recording into `trace`.
mcsym::mcapi::RunResult record(const Options& o, const mcsym::mcapi::Program& program,
                               mcsym::trace::Trace& trace) {
  mcsym::mcapi::System sys(program);
  mcsym::trace::Recorder rec(trace);
  if (o.round_robin) {
    mcsym::mcapi::RoundRobinScheduler sched;
    return mcsym::mcapi::run(sys, sched, &rec);
  }
  mcsym::mcapi::RandomScheduler sched(o.seed);
  return mcsym::mcapi::run(sys, sched, &rec);
}

const char* outcome_name(mcsym::mcapi::RunResult::Outcome oc) {
  using Outcome = mcsym::mcapi::RunResult::Outcome;
  switch (oc) {
    case Outcome::kHalted: return "halted";
    case Outcome::kViolation: return "assertion violation";
    case Outcome::kDeadlock: return "deadlock";
    case Outcome::kStepLimit: return "step limit";
  }
  return "?";
}

SymbolicOptions symbolic_options(const Options& o) {
  SymbolicOptions so;
  so.match_gen = o.precise ? mcsym::check::MatchGen::kPrecise
                           : mcsym::check::MatchGen::kOverapprox;
  so.encode.fifo_non_overtaking = !o.no_fifo;
  so.encode.delay_ignorant = o.delay_ignorant;
  if (o.assert_props) {
    so.encode.property_mode = mcsym::encode::PropertyMode::kAssert;
  }
  return so;
}

int cmd_run(const Options& o) {
  const auto lp = load(o);
  if (!lp) return 2;
  mcsym::trace::Trace trace(lp->unit.program);
  const auto result = record(o, lp->unit.program, trace);
  std::ostringstream report;
  report << "outcome: " << outcome_name(result.outcome) << " after " << result.steps
         << " steps; " << trace.size() << " events, " << trace.sends().size()
         << " sends, " << trace.receives().size() << " receives\n";
  const int rc = write_output(o, report.str());
  if (rc != 0) return rc;
  return result.outcome == mcsym::mcapi::RunResult::Outcome::kViolation ? 1 : 0;
}

int cmd_trace(const Options& o) {
  const auto lp = load(o);
  if (!lp) return 2;
  mcsym::trace::Trace trace(lp->unit.program);
  const auto result = record(o, lp->unit.program, trace);
  if (!result.completed() &&
      result.outcome != mcsym::mcapi::RunResult::Outcome::kViolation) {
    std::cerr << "mcsym: recorded execution did not complete ("
              << outcome_name(result.outcome) << ")\n";
  }
  return write_output(o, trace.to_text());
}

/// Maps a facade verdict to the documented exit-code contract:
/// 0 safe, 1 violation or deadlock, 3 budget exhausted / no verdict,
/// 4 non-termination (stateful mode).
int verdict_exit_code(mcsym::check::Verdict verdict) {
  switch (verdict) {
    case mcsym::check::Verdict::kSafe: return 0;
    case mcsym::check::Verdict::kViolation:
    case mcsym::check::Verdict::kDeadlock: return 1;
    case mcsym::check::Verdict::kNonTermination: return 4;
    case mcsym::check::Verdict::kBudgetExhausted:
    case mcsym::check::Verdict::kUnknown: return 3;
  }
  return 3;
}

/// Builds the VerifyRequest every verify-shaped command shares (engine,
/// budgets, trace plan, encoding knobs) from parsed options. Properties are
/// NOT set here — the single-file path resolves them against the loaded
/// program, the service paths pass them as source text. nullopt (with the
/// reason in *error) when the engine name is unknown.
std::optional<mcsym::check::VerifyRequest> request_from_options(
    const Options& o, std::string* error) {
  const auto engine = mcsym::check::engine_from_name(o.engine);
  if (!engine.has_value()) {
    *error = "unknown engine '" + o.engine +
             "' (symbolic, explicit, dpor, dpor-sleepset, portfolio)";
    return std::nullopt;
  }
  mcsym::check::VerifyRequest req;
  req.engine = *engine;
  req.budget.max_seconds = o.max_seconds;
  if (o.max_states != 0) req.budget.max_states = o.max_states;
  if (o.max_transitions != 0) req.budget.max_transitions = o.max_transitions;
  req.budget.solver_conflicts = o.conflicts;
  req.trace_seed = o.seed;
  req.round_robin = o.round_robin;
  req.traces = o.traces;
  req.workers = o.workers;
  req.stateful = o.stateful;
  req.state_capacity = static_cast<std::size_t>(o.state_capacity);
  req.symbolic = symbolic_options(o);
  if (o.timeout > 0) {
    // The per-request wall-clock limit rides the existing cancellation
    // path: the progress callback returns false once the limit passes and
    // the engines unwind to a kBudgetExhausted reply.
    req.progress = [limit = o.timeout](const mcsym::check::Progress& p) {
      return p.seconds <= limit;
    };
  }
  return req;
}

int cmd_verify(const Options& o) {
  std::string engine_error;
  auto maybe_req = request_from_options(o, &engine_error);
  if (!maybe_req) return fail(engine_error);
  const auto lp = load(o);
  if (!lp) return 2;

  mcsym::check::VerifyRequest req = std::move(*maybe_req);
  req.properties = lp->properties;

  Verifier verifier;
  const auto vr = verifier.verify(lp->unit.program, req);

  if (o.json) {
    const int rc = write_output(o, mcsym::check::report_to_json(vr));
    if (rc != 0) return rc;
    return verdict_exit_code(vr.verdict);
  }

  std::ostringstream report;
  report << "verdict: " << mcsym::check::verdict_name(vr.verdict);
  if (vr.cancelled) report << " (cancelled)";
  report << "\n";
  const auto& names = lp->unit.program.interner();
  for (const auto& v : vr.violations) {
    report << "violation: " << lp->unit.program.thread(v.thread).name << " op#"
           << v.op_index << ": " << mcsym::text::cond_to_text(v.cond, names)
           << "\n";
  }
  if (!vr.witness_schedule.empty()) {
    report << "witness schedule: " << vr.witness_schedule.size()
           << " actions (replayable)\n";
  }
  if (vr.verdict == mcsym::check::Verdict::kDeadlock ||
      !vr.deadlock_schedule.empty()) {
    report << "deadlock schedule: " << vr.deadlock_schedule.size()
           << " actions (replayable; 0 = the initial state deadlocks)\n";
  }
  if (vr.verdict == mcsym::check::Verdict::kNonTermination) {
    report << "non-termination lasso: " << vr.lasso_stem.size()
           << " stem + " << vr.lasso_cycle.size()
           << " cycle actions (replay the stem, then the cycle returns to "
              "the same state with no message matched)\n";
  }
  for (const auto& run : vr.engines) {
    report << "engine " << mcsym::check::engine_name(run.engine) << ": "
           << mcsym::check::verdict_name(run.verdict)
           << (run.truncated ? " (truncated)" : "") << ";";
    for (const auto& [key, value] : run.counters) {
      report << " " << key << "=" << value;
    }
    report << "\n";
  }
  for (const auto& d : vr.disagreements) {
    report << "disagreement: " << d << "\n";
  }
  const int rc = write_output(o, report.str());
  if (rc != 0) return rc;
  return verdict_exit_code(vr.verdict);
}

/// `s` as a JSON string literal, quotes included.
std::string json_quoted(std::string_view s) {
  std::string out = "\"";
  mcsym::check::json_escape_into(out, s);
  out += '"';
  return out;
}

std::string format_seconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", seconds);
  return buf;
}

/// The shared tail of a batch/serve reply envelope: request outcome plus
/// the service's cumulative cache counters. The envelope is service-level
/// bookkeeping; the mcsym.verify/1 report (when requested) follows
/// separately and is byte-identical across cache hits.
void append_reply_fields(std::ostringstream& os,
                         const VerifierService::Reply& reply,
                         const VerifierService::Stats& stats) {
  os << "\"ok\":" << (reply.ok ? "true" : "false");
  if (!reply.ok) {
    os << ",\"error\":" << json_quoted(reply.error);
  } else {
    os << ",\"name\":" << json_quoted(reply.name)
       << ",\"verdict\":\"" << mcsym::check::verdict_name(reply.verdict)
       << "\"";
    if (reply.cancelled) os << ",\"cancelled\":true";
  }
  os << ",\"exit\":" << reply.exit_code
     << ",\"cache_hit\":" << (reply.cache_hit ? "true" : "false")
     << ",\"cache_hits\":" << stats.cache_hits
     << ",\"cache_misses\":" << stats.cache_misses
     << ",\"seconds\":" << format_seconds(reply.seconds);
}

/// Worst-exit precedence for batch mode: usage/input errors dominate, then
/// findings (violations/deadlocks, then non-termination), then exhausted
/// budgets, then clean safes.
int combine_exit(int a, int b) {
  auto rank = [](int code) {
    switch (code) {
      case 2: return 4;
      case 1: return 3;
      case 4: return 2;
      case 3: return 1;
      default: return 0;
    }
  };
  return rank(a) >= rank(b) ? a : b;
}

int cmd_verify_batch(const Options& o) {
  std::string engine_error;
  const auto maybe_req = request_from_options(o, &engine_error);
  if (!maybe_req) return fail(engine_error);
  const auto manifest = slurp(o.file);
  if (!manifest) return 2;

  VerifierService service({o.cache_capacity});
  std::ostringstream out;
  int exit_code = 0;
  std::size_t entries = 0;
  std::istringstream lines(*manifest);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const auto start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    const auto stop = line.find_last_not_of(" \t");
    const std::string path = line.substr(start, stop - start + 1);
    if (path.front() == '#') continue;
    ++entries;

    std::ostringstream env;
    env << "{\"schema\":\"mcsym.batch/1\",\"file\":" << json_quoted(path)
        << ",";
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      VerifierService::Reply unreadable;
      unreadable.error = "cannot open '" + path + "'";
      append_reply_fields(env, unreadable, service.stats());
      env << "}\n";
      out << env.str();
      exit_code = combine_exit(exit_code, 2);
      continue;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const VerifierService::Reply reply =
        service.verify_source(ss.str(), *maybe_req, o.properties);
    append_reply_fields(env, reply, service.stats());
    env << "}\n";
    out << env.str();
    if (o.json && !reply.report_json.empty()) {
      out << reply.report_json;
      if (reply.report_json.back() != '\n') out << "\n";
    }
    exit_code = combine_exit(exit_code, reply.exit_code);
  }

  const VerifierService::Stats& stats = service.stats();
  out << "{\"schema\":\"mcsym.batch/1\",\"summary\":true,\"entries\":"
      << entries << ",\"requests\":" << stats.requests
      << ",\"parse_errors\":" << stats.parse_errors
      << ",\"cache_hits\":" << stats.cache_hits
      << ",\"cache_misses\":" << stats.cache_misses
      << ",\"exit\":" << exit_code << "}\n";
  const int rc = write_output(o, out.str());
  if (rc != 0) return rc;
  return exit_code;
}

// Serve protocol (line-oriented over stdio, one service for the whole
// session so the verdict cache accumulates across requests):
//
//   verify [k=v ...]      header; the program text follows, terminated by a
//     <.mcp lines>        line containing only "."
//     .
//   stats                 report cumulative service counters
//   quit                  exit 0 (as does EOF)
//
// Header options override this process's command-line defaults per request:
// engine, seed, traces, workers, round-robin (0/1), stateful (0/1),
// state-capacity, max-seconds, max-states, max-transitions, conflicts,
// timeout (wall-clock seconds, cancels via the progress callback), json
// (0/1: append the mcsym.verify/1 report), and id (echoed in the reply).
// Values cannot contain spaces; properties belong in the program text.
//
// Every reply is one mcsym.serve/1 envelope line, then (json=1, ok) the
// report document, then a line containing only ".". Malformed headers,
// unparseable programs, and exhausted budgets all produce an error or
// exit=3 reply and the loop continues — the server only exits on EOF/quit.
int cmd_serve(const Options& o) {
  VerifierService service({o.cache_capacity});
  std::string line;
  while (std::getline(std::cin, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::istringstream header(line);
    std::string command;
    header >> command;
    if (command.empty()) continue;
    if (command == "quit") return 0;

    if (command == "stats") {
      const VerifierService::Stats& s = service.stats();
      std::cout << "{\"schema\":\"mcsym.serve/1\",\"stats\":true,\"requests\":"
                << s.requests << ",\"parse_errors\":" << s.parse_errors
                << ",\"cache_hits\":" << s.cache_hits
                << ",\"cache_misses\":" << s.cache_misses
                << ",\"cache_stores\":" << s.cache_stores
                << ",\"cache_evictions\":" << s.cache_evictions
                << ",\"cache_size\":" << service.cache_size() << "}\n.\n"
                << std::flush;
      continue;
    }

    auto error_reply = [&](const std::string& id, const std::string& message) {
      std::cout << "{\"schema\":\"mcsym.serve/1\",";
      if (!id.empty()) std::cout << "\"id\":" << json_quoted(id) << ",";
      std::cout << "\"ok\":false,\"error\":" << json_quoted(message)
                << ",\"exit\":2}\n.\n"
                << std::flush;
    };

    if (command != "verify") {
      error_reply("", "unknown command '" + command + "'");
      continue;
    }

    // Per-request options start from this process's defaults.
    Options ro = o;
    std::string opt_error;
    std::string token;
    while (header >> token) {
      const auto eq = token.find('=');
      if (eq == std::string::npos) {
        opt_error = "malformed option '" + token + "' (expected k=v)";
        break;
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "engine") {
        ro.engine = value;
      } else if (key == "seed") {
        ro.seed = std::strtoull(value.c_str(), nullptr, 10);
      } else if (key == "traces") {
        ro.traces = static_cast<std::uint32_t>(
            std::strtoul(value.c_str(), nullptr, 10));
      } else if (key == "workers") {
        ro.workers = resolve_workers(value);
      } else if (key == "round-robin") {
        ro.round_robin = value != "0";
      } else if (key == "stateful") {
        ro.stateful = value != "0";
      } else if (key == "state-capacity") {
        ro.stateful = true;
        ro.state_capacity = std::strtoull(value.c_str(), nullptr, 10);
      } else if (key == "max-seconds") {
        ro.max_seconds = std::strtod(value.c_str(), nullptr);
      } else if (key == "max-states") {
        ro.max_states = std::strtoull(value.c_str(), nullptr, 10);
      } else if (key == "max-transitions") {
        ro.max_transitions = std::strtoull(value.c_str(), nullptr, 10);
      } else if (key == "conflicts") {
        ro.conflicts = std::strtoull(value.c_str(), nullptr, 10);
      } else if (key == "timeout") {
        ro.timeout = std::strtod(value.c_str(), nullptr);
      } else if (key == "json") {
        ro.json = value != "0";
      } else if (key == "id") {
        ro.request_id = value;
      } else {
        opt_error = "unknown option '" + key + "'";
        break;
      }
    }

    // Consume the program body even when the header was bad, so the stream
    // stays framed on the next request.
    std::string body;
    bool terminated = false;
    while (std::getline(std::cin, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line == ".") {
        terminated = true;
        break;
      }
      body += line;
      body += '\n';
    }
    if (!terminated) {
      error_reply(ro.request_id, "unexpected EOF inside a request body");
      return 0;
    }
    if (!opt_error.empty()) {
      error_reply(ro.request_id, opt_error);
      continue;
    }
    std::string engine_error;
    const auto req = request_from_options(ro, &engine_error);
    if (!req) {
      error_reply(ro.request_id, engine_error);
      continue;
    }

    const VerifierService::Reply reply =
        service.verify_source(body, *req, ro.properties);
    std::ostringstream env;
    env << "{\"schema\":\"mcsym.serve/1\",";
    if (!ro.request_id.empty()) {
      env << "\"id\":" << json_quoted(ro.request_id) << ",";
    }
    append_reply_fields(env, reply, service.stats());
    env << "}\n";
    std::cout << env.str();
    if (ro.json && reply.ok && !reply.report_json.empty()) {
      std::cout << reply.report_json;
      if (reply.report_json.back() != '\n') std::cout << "\n";
    }
    std::cout << ".\n" << std::flush;
  }
  return 0;
}

int cmd_check(const Options& o) {
  const auto lp = load(o);
  if (!lp) return 2;

  // Thin wrapper over the Verifier facade's symbolic engine: the facade
  // records the trace, runs the SMT pipeline, and (with --replay) replays
  // the witness; this command just formats the raw per-trace result.
  mcsym::check::VerifyRequest req;
  req.engine = mcsym::check::Engine::kSymbolic;
  req.trace_seed = o.seed;
  req.round_robin = o.round_robin;
  req.symbolic = symbolic_options(o);
  req.properties = lp->properties;
  req.replay_witnesses = o.replay;

  Verifier verifier;
  const auto vr = verifier.verify(lp->unit.program, req);
  if (vr.trace_checks.empty()) {
    return fail("recorded execution did not produce a trace");
  }
  const auto& tc = vr.trace_checks.front();
  if (!tc.checked) {
    // The recording itself ended the story before a symbolic query made
    // sense; report what happened instead of a bogus verdict.
    using Outcome = mcsym::mcapi::RunResult::Outcome;
    if (tc.recorded == Outcome::kDeadlock) {
      const int rc = write_output(
          o, "deadlock: the recorded execution deadlocked; its trace is a "
             "prefix artifact, not a checkable one (use `mcsym verify` for "
             "a whole-program verdict)\n");
      return rc != 0 ? rc : 1;
    }
    if (tc.recorded == Outcome::kStepLimit) {
      return fail("recorded execution hit the step limit");
    }
    return fail("recorded execution left a structurally incomplete trace "
                "(the violation stopped it mid-request); try another --seed");
  }
  const auto& verdict = tc.verdict;
  const auto& trace = tc.trace;

  std::ostringstream report;
  switch (verdict.result) {
    case mcsym::smt::SolveResult::kSat:
      report << (o.assert_props ? "SAT: a fully correct execution exists"
                                : "SAT: a property violation is reachable")
             << "\n";
      break;
    case mcsym::smt::SolveResult::kUnsat:
      report << (o.assert_props ? "UNSAT: no fully correct execution"
                                : "UNSAT: no execution of this trace violates the "
                                  "properties")
             << "\n";
      break;
    case mcsym::smt::SolveResult::kUnknown:
      report << "UNKNOWN: solver budget exhausted\n";
      break;
  }
  report << "stats: " << verdict.encode_stats.clock_vars << " clocks, "
         << verdict.encode_stats.id_vars << " match ids, "
         << verdict.encode_stats.match_disjuncts << " match disjuncts, "
         << verdict.sat_conflicts << " conflicts, " << verdict.sat_decisions
         << " decisions\n";

  if (verdict.witness.has_value() && o.witness) {
    report << "\n" << verdict.witness->to_string(trace);
  }
  if (verdict.witness.has_value() && o.replay) {
    // The facade already replayed the witness (continue-past-violation, so
    // the whole modeled execution was realized, not just the prefix).
    if (!tc.replay.has_value()) {
      report << "replay: FAILED to realize the witness (encoding bug?)\n";
    } else {
      report << "replay: witness realized in " << tc.replay->script.size()
             << " steps; in-program asserts "
             << (tc.replay->violation ? "fired" : "held");
      if (tc.replay->violations.size() > 1) {
        report << " (" << tc.replay->violations.size()
               << " violations along this execution)";
      }
      if (!verdict.witness->violated.empty()) {
        report << "; end-of-run properties violated as listed above";
      }
      report << "\n";
    }
  }
  const int rc = write_output(o, report.str());
  if (rc != 0) return rc;
  return verdict.result == mcsym::smt::SolveResult::kSat ? 1 : 0;
}

int cmd_enumerate(const Options& o) {
  const auto lp = load(o);
  if (!lp) return 2;

  // Thin wrapper over the Verifier facade's enumeration: trace recording,
  // the symbolic Figure-4 pipeline, and the optional explicit / MCC
  // cross-checks all live there now.
  mcsym::check::EnumerateRequest er;
  er.trace_seed = o.seed;
  er.round_robin = o.round_robin;
  er.symbolic = symbolic_options(o);
  er.with_explicit = o.with_explicit;
  er.with_mcc = o.with_mcc;

  Verifier verifier;
  const auto en = verifier.enumerate(lp->unit.program, er);
  const auto& enumeration = en.symbolic;
  const auto& trace = en.trace;

  std::ostringstream report;
  report << enumeration.matchings.size() << " feasible pairing(s)"
         << (enumeration.truncated ? " (truncated)" : "") << ", "
         << enumeration.solver_calls << " solver calls\n";
  std::size_t index = 1;
  for (const auto& matching : enumeration.matchings) {
    report << "pairing " << index++ << ":\n";
    for (const auto& [recv, send] : matching) {
      const auto& r = trace.event(recv).ev;
      const auto& s = trace.event(send).ev;
      report << "  " << lp->unit.program.thread(s.thread).name << ":send#"
             << s.op_index << " (value " << s.value << ") -> "
             << lp->unit.program.thread(r.thread).name << ":recv#" << r.op_index
             << "\n";
    }
  }

  if (en.explicit_truth.has_value()) {
    const auto& truth = *en.explicit_truth;
    report << "explicit-state ground truth: " << truth.matchings.size()
           << " pairing(s)" << (truth.truncated ? " (truncated)" : "")
           << (truth.matchings == enumeration.matchings ? " — agrees"
                                                        : " — MISMATCH")
           << "\n";
  }
  if (en.mcc.has_value()) {
    const auto& restricted = *en.mcc;
    report << "MCC-style baseline (no delay nondeterminism): "
           << restricted.matchings.size() << " pairing(s)";
    if (restricted.matchings.size() < enumeration.matchings.size()) {
      report << " — misses "
             << enumeration.matchings.size() - restricted.matchings.size()
             << " behavior(s) (the Figure-4b gap)";
    }
    report << "\n";
  }
  return write_output(o, report.str());
}

/// Parses "tS:send#K -> tR:recv#J" (or the reversed "tR:recv#J <- tS:send#K")
/// into trace event indices.
std::optional<mcsym::check::PairProposal> parse_pair(
    const std::string& text, const mcsym::mcapi::Program& program,
    const mcsym::trace::Trace& trace) {
  auto bad = [&](const std::string& why) -> std::optional<mcsym::check::PairProposal> {
    std::cerr << "mcsym: bad --pair '" << text << "': " << why << "\n";
    return std::nullopt;
  };

  std::string lhs;
  std::string rhs;
  bool lhs_is_send = true;
  if (const auto arrow = text.find("->"); arrow != std::string::npos) {
    lhs = text.substr(0, arrow);
    rhs = text.substr(arrow + 2);
  } else if (const auto rev = text.find("<-"); rev != std::string::npos) {
    lhs = text.substr(0, rev);
    rhs = text.substr(rev + 2);
    lhs_is_send = false;
  } else {
    return bad("expected 'tS:send#K -> tR:recv#J'");
  }

  // "thread:kind#ordinal"
  auto parse_ref = [&](std::string s, bool expect_send,
                       mcsym::trace::EventIndex& out) -> bool {
    // Trim.
    while (!s.empty() && s.front() == ' ') s.erase(s.begin());
    while (!s.empty() && s.back() == ' ') s.pop_back();
    const auto colon = s.find(':');
    const auto hash = s.find('#');
    if (colon == std::string::npos || hash == std::string::npos || hash < colon) {
      std::cerr << "mcsym: bad --pair '" << text << "': malformed endpoint '" << s
                << "'\n";
      return false;
    }
    const std::string thread_name = s.substr(0, colon);
    const std::string kind = s.substr(colon + 1, hash - colon - 1);
    const std::uint32_t ordinal =
        static_cast<std::uint32_t>(std::strtoul(s.c_str() + hash + 1, nullptr, 10));
    if (kind != (expect_send ? "send" : "recv")) {
      std::cerr << "mcsym: bad --pair '" << text << "': expected '"
                << (expect_send ? "send" : "recv") << "', got '" << kind << "'\n";
      return false;
    }
    for (mcsym::mcapi::ThreadRef t = 0; t < program.num_threads(); ++t) {
      if (program.thread(t).name != thread_name) continue;
      const mcsym::trace::EventIndex ev = trace.find(t, ordinal);
      if (ev == mcsym::trace::kNoEvent) {
        std::cerr << "mcsym: bad --pair '" << text << "': no event '" << s
                  << "' in the trace\n";
        return false;
      }
      using Kind = mcsym::mcapi::ExecEvent::Kind;
      const Kind k = trace.event(ev).ev.kind;
      const bool ok_kind = expect_send
                               ? k == Kind::kSend
                               : (k == Kind::kRecv || k == Kind::kRecvIssue);
      if (!ok_kind) {
        std::cerr << "mcsym: bad --pair '" << text << "': '" << s << "' is not a "
                  << (expect_send ? "send" : "receive") << " event\n";
        return false;
      }
      out = ev;
      return true;
    }
    std::cerr << "mcsym: bad --pair '" << text << "': unknown thread '"
              << thread_name << "'\n";
    return false;
  };

  mcsym::check::PairProposal p;
  const std::string& send_text = lhs_is_send ? lhs : rhs;
  const std::string& recv_text = lhs_is_send ? rhs : lhs;
  if (!parse_ref(send_text, /*expect_send=*/true, p.send)) return std::nullopt;
  if (!parse_ref(recv_text, /*expect_send=*/false, p.recv)) return std::nullopt;
  return p;
}

int cmd_diagnose(const Options& o) {
  const auto lp = load(o);
  if (!lp) return 2;
  if (o.pairs.empty()) return fail("diagnose needs at least one --pair");
  mcsym::trace::Trace trace(lp->unit.program);
  (void)record(o, lp->unit.program, trace);

  std::vector<mcsym::check::PairProposal> proposals;
  for (const std::string& text : o.pairs) {
    const auto p = parse_pair(text, lp->unit.program, trace);
    if (!p) return 2;
    proposals.push_back(*p);
  }

  mcsym::check::DiagnoseOptions dopts;
  dopts.encode = symbolic_options(o).encode;
  const mcsym::check::Diagnosis d =
      mcsym::check::diagnose_pairing(trace, proposals, dopts);

  std::ostringstream report;
  auto pair_name = [&](const mcsym::check::PairProposal& p) {
    const auto& s = trace.event(p.send).ev;
    const auto& r = trace.event(p.recv).ev;
    return lp->unit.program.thread(s.thread).name + ":send#" +
           std::to_string(s.op_index) + " -> " +
           lp->unit.program.thread(r.thread).name + ":recv#" +
           std::to_string(r.op_index);
  };
  if (d.feasible) {
    report << "feasible: some execution realizes every proposed pair\n";
    if (d.witness) report << "\n" << d.witness->to_string(trace);
  } else {
    report << "infeasible: no execution realizes the proposed pairs together\n";
    if (!d.blamed_pairs.empty()) {
      report << "conflicting pairs:\n";
      for (const auto& p : d.blamed_pairs) report << "  " << pair_name(p) << "\n";
    }
    if (!d.blamed_groups.empty()) {
      report << "violated constraint groups:";
      for (const auto& g : d.blamed_groups) report << " " << g;
      report << "\n";
    }
  }
  const int rc = write_output(o, report.str());
  if (rc != 0) return rc;
  return d.feasible ? 0 : 1;
}

int cmd_smt(const Options& o) {
  const auto lp = load(o);
  if (!lp) return 2;
  mcsym::trace::Trace trace(lp->unit.program);
  (void)record(o, lp->unit.program, trace);

  // Build the encoding exactly as `check` would, then print the assertions.
  const SymbolicOptions so = symbolic_options(o);
  const mcsym::match::MatchSet matches =
      so.match_gen == mcsym::check::MatchGen::kPrecise
          ? mcsym::match::enumerate_feasible(trace).precise
          : mcsym::match::generate_overapprox(trace);
  mcsym::smt::Solver solver;
  mcsym::encode::Encoder encoder(solver, trace, matches, so.encode);
  (void)encoder.encode(lp->properties);
  return write_output(o, mcsym::smt::to_smtlib(solver.terms(), solver.assertions()));
}

int cmd_solve(const Options& o) {
  const auto source = slurp(o.file);
  if (!source) return 2;
  mcsym::smt::Solver solver;
  const auto parsed = mcsym::smt::parse_smtlib(solver.terms(), *source);
  if (!parsed.ok()) {
    std::cerr << "mcsym: " << o.file << ": " << parsed.error << "\n";
    return 2;
  }
  for (const mcsym::smt::TermId t : parsed.script->assertions) {
    solver.assert_term(t);
  }
  const mcsym::smt::SolveResult result = solver.check();
  std::ostringstream report;
  switch (result) {
    case mcsym::smt::SolveResult::kSat: {
      report << "sat\n";
      // Mirror (get-model) for the declared integers, which is what the
      // encoder's problems quantify over.
      for (const mcsym::smt::TermId t : parsed.script->declared_ints) {
        report << "  " << solver.terms().var_name(t) << " = "
               << solver.model_int(t) << "\n";
      }
      break;
    }
    case mcsym::smt::SolveResult::kUnsat: report << "unsat\n"; break;
    case mcsym::smt::SolveResult::kUnknown: report << "unknown\n"; break;
  }
  const int rc = write_output(o, report.str());
  if (rc != 0) return rc;
  return result == mcsym::smt::SolveResult::kSat ? 1 : 0;
}

int cmd_fmt(const Options& o) {
  const auto source = slurp(o.file);
  if (!source) return 2;
  ParseOutcome out = mcsym::text::parse_program(*source);
  if (!out.ok()) {
    std::cerr << "mcsym: " << o.file << " has errors:\n" << out.error_text() << "\n";
    return 2;
  }
  return write_output(o, mcsym::text::program_to_text(
                             out.parsed->program, out.parsed->properties,
                             out.parsed->name));
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse_args(argc, argv);
  if (!options) {
    std::cerr << kUsage;
    return 2;
  }
  if (options->command == "run") return cmd_run(*options);
  if (options->command == "trace") return cmd_trace(*options);
  if (options->command == "verify") {
    return options->batch ? cmd_verify_batch(*options) : cmd_verify(*options);
  }
  if (options->command == "serve") return cmd_serve(*options);
  if (options->command == "check") return cmd_check(*options);
  if (options->command == "enumerate") return cmd_enumerate(*options);
  if (options->command == "diagnose") return cmd_diagnose(*options);
  if (options->command == "smt") return cmd_smt(*options);
  if (options->command == "solve") return cmd_solve(*options);
  if (options->command == "fmt") return cmd_fmt(*options);
  return fail("unknown command '" + options->command + "'");
}
