#include "inputs.hpp"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "check/random_program.hpp"
#include "check/workloads.hpp"
#include "mcapi/canonical.hpp"
#include "text/program_text.hpp"

namespace mcsym_bench {

namespace wl = mcsym::check::workloads;
using mcsym::check::VerifyRequest;
using mcsym::mcapi::Program;

namespace {

constexpr std::uint32_t kParallelWorkers = 4;
constexpr std::uint32_t kSymbolicTraces = 16;
/// Safety net only: every input finishes far inside it (see make_table).
constexpr double kRequestBudgetSeconds = 30;
/// Generated programs enter the table only when the explicit engine expands
/// at most this many states: the pool stays made of small requests.
constexpr std::uint64_t kMaxTableStates = 4000;

const std::vector<Engine> kServiceEngines = {
    Engine::kExplicit, Engine::kDporOptimal, Engine::kDporSleepSet,
    Engine::kPortfolio};
/// Livelocks: the portfolio's symbolic leg records until its step limit
/// (hundreds of ms) before the explorers' non-termination verdict lands, so
/// they are sent only to the explorers.
const std::vector<Engine> kLivelockEngines = {
    Engine::kExplicit, Engine::kDporOptimal, Engine::kDporSleepSet};

const char* const kVariants[] = {"plain", "deadlock", "loop"};

mcsym::check::RandomProgramOptions random_options(std::string_view variant) {
  mcsym::check::RandomProgramOptions o;
  o.threads = 3;
  o.add_asserts = true;
  o.allow_nonblocking = true;
  o.allow_test_poll = true;
  o.allow_wait_any = true;
  o.allow_deadlocks = variant == "deadlock";
  o.allow_loops = variant == "loop";
  return o;
}

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

Input in_memory(std::string name, Program program, Verdict verdict,
                std::uint64_t dpor_executions, Engine engine) {
  Input in;
  in.name = std::move(name);
  in.program = std::move(program);
  in.fingerprint = mcsym::mcapi::canonical_fingerprint(in.program);
  in.expect = {verdict, verdict, dpor_executions};
  in.engines = {engine};
  return in;
}

/// A service input: `text` is what is sent; the program is its parse, so the
/// fingerprint is the one the service computes.
Input from_text(std::string name, std::string text, Expectation expect,
                bool stateful, bool terminates) {
  Input in;
  in.name = std::move(name);
  auto parsed = mcsym::text::parse_program(text);
  if (!parsed.ok()) {
    throw InputError(in.name + ": does not parse: " + parsed.error_text());
  }
  in.program = std::move(parsed.parsed->program);
  in.properties = std::move(parsed.parsed->properties);
  in.fingerprint = mcsym::mcapi::canonical_fingerprint(in.program);
  in.renamed = alpha_rename(text);
  auto renamed = mcsym::text::parse_program(in.renamed);
  if (in.renamed == text || !renamed.ok() ||
      !(mcsym::mcapi::canonical_fingerprint(renamed.parsed->program) ==
        in.fingerprint)) {
    throw InputError(in.name + ": alpha-renamed spelling is not equivalent");
  }
  in.text = std::move(text);
  in.expect = expect;
  in.stateful = stateful;
  in.terminates = terminates;
  in.engines = terminates ? kServiceEngines : kLivelockEngines;
  return in;
}

/// An .mcp `program` header name for a zoo label ("relay_race(2)" ->
/// "relay_race_2_").
std::string unit_name(std::string_view label) {
  std::string out(label);
  for (char& c : out) {
    if (!ident_char(c)) c = '_';
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw InputError("cannot read " + path);
  std::stringstream s;
  s << f.rdbuf();
  return s.str();
}

void add_dpor_parallel(WorkloadInputs& w) {
  const Verdict safe = Verdict::kSafe;
  const Engine e = Engine::kDporOptimal;
  w.inputs.push_back(in_memory("scatter_gather_safe(6)", wl::scatter_gather_safe(6),
                               safe, factorial(6), e));
  w.inputs.push_back(in_memory("scatter_gather_safe(7)", wl::scatter_gather_safe(7),
                               safe, factorial(7), e));
  w.inputs.push_back(in_memory("token_fanout(6)", wl::token_fanout(6), safe,
                               factorial(6), e));
  w.inputs.push_back(in_memory("message_race(4,2)", wl::message_race(4, 2), safe,
                               message_race_executions(4, 2), e));
  w.inputs.push_back(in_memory("message_race(3,3)", wl::message_race(3, 3), safe,
                               message_race_executions(3, 3), e));
}

void add_symbolic_sharded(WorkloadInputs& w) {
  const Engine e = Engine::kSymbolic;
  // Verdicts by construction (see check/workloads.hpp): message_race,
  // pipeline, relay_race, select_server and polling_race assert nothing that
  // can fail; scatter_gather and nonblocking_gather assert an arrival order
  // that another order violates.
  w.inputs.push_back(in_memory("message_race(4,2)", wl::message_race(4, 2),
                               Verdict::kSafe, 0, e));
  w.inputs.push_back(in_memory("pipeline(4,4)", wl::pipeline(4, 4), Verdict::kSafe, 0, e));
  w.inputs.push_back(in_memory("relay_race(3)", wl::relay_race(3), Verdict::kSafe, 0, e));
  w.inputs.push_back(in_memory("scatter_gather(5)", wl::scatter_gather(5),
                               Verdict::kViolation, 0, e));
  w.inputs.push_back(in_memory("nonblocking_gather(4)", wl::nonblocking_gather(4),
                               Verdict::kViolation, 0, e));
  w.inputs.push_back(in_memory("select_server(2)", wl::select_server(2),
                               Verdict::kSafe, 0, e));
  w.inputs.push_back(in_memory("polling_race(3)", wl::polling_race(3),
                               Verdict::kSafe, 0, e));
}

void add_service_serial(WorkloadInputs& w, const InputPaths& paths) {
  const Expectation safe{Verdict::kSafe, Verdict::kSafe, 0};
  const Expectation violation{Verdict::kViolation, Verdict::kViolation, 0};
  const Expectation livelock{Verdict::kNonTermination, Verdict::kNonTermination, 0};

  // The shipped examples. figure1.mcp states its bug as an end-of-run
  // `property` line, which only the symbolic engine (alone or inside the
  // portfolio) checks: explicit and both DPORs check in-program asserts, so
  // they answer safe; symbolic and portfolio answer violation.
  w.inputs.push_back(from_text("examples/figure1.mcp",
                               read_file(paths.examples_dir + "/figure1.mcp"),
                               {Verdict::kSafe, Verdict::kViolation, 0}, false, true));
  // select_server.mcp's property ("client A won") holds on the recorded
  // trace of the default trace seed, so every engine answers safe.
  w.inputs.push_back(from_text("examples/select_server.mcp",
                               read_file(paths.examples_dir + "/select_server.mcp"),
                               safe, false, true));
  w.inputs.push_back(from_text("examples/livelock.mcp",
                               read_file(paths.examples_dir + "/livelock.mcp"),
                               livelock, true, false));

  auto zoo = [&w](const char* name, const Program& program, Expectation expect,
                  bool stateful = false, bool terminates = true) {
    w.inputs.push_back(from_text(name, mcsym::text::program_to_text(program, {}, unit_name(name)),
                                 expect, stateful, terminates));
  };
  const auto f1 = wl::figure1_with_property();
  w.inputs.push_back(from_text(
      "figure1_with_property",
      mcsym::text::program_to_text(f1.program, f1.properties, "figure1_with_property"),
      violation, false, true));
  zoo("relay_race(2)", wl::relay_race(2), safe);
  zoo("pipeline(3,2)", wl::pipeline(3, 2), safe);
  zoo("scatter_gather(3)", wl::scatter_gather(3), violation);
  zoo("scatter_gather_safe(3)", wl::scatter_gather_safe(3), safe);
  zoo("nonblocking_gather(3)", wl::nonblocking_gather(3), violation);
  zoo("polling_race(2)", wl::polling_race(2), safe);
  zoo("select_server(1)", wl::select_server(1), safe);
  zoo("select_server(2)", wl::select_server(2), safe);
  zoo("branchy_race", wl::branchy_race(), violation);
  zoo("reversed_waits", wl::reversed_waits(), safe);
  zoo("poll_window", wl::poll_window(), safe);
  zoo("nonblocking_window", wl::nonblocking_window(), safe);
  zoo("ring(4)", wl::ring(4), safe);
  zoo("message_race(2,2)", wl::message_race(2, 2), safe);
  zoo("token_fanout(3)", wl::token_fanout(3), safe);
  zoo("select_server_loop(2)", wl::select_server_loop(2), safe, true);
  zoo("select_server_loop(3)", wl::select_server_loop(3), safe, true);
  zoo("request_stream(3)", wl::request_stream(3), safe, true);
  zoo("livelock_pair", wl::livelock_pair(), livelock, true, false);

  // Generated programs, pinned by the committed table.
  std::string error;
  const auto rows = parse_table(read_file(paths.table_path), error);
  if (!rows) throw InputError(paths.table_path + ": " + error);
  for (const TableRow& row : *rows) {
    const std::string name = "random/" + row.variant + "/" + std::to_string(row.gen_seed);
    const Program p = mcsym::check::random_program(row.gen_seed, random_options(row.variant));
    Input in = from_text(name, mcsym::text::program_to_text(p, {}, "random"),
                         {row.verdict, row.verdict, 0}, row.stateful, true);
    if (fingerprint_hex(in.fingerprint) != row.fingerprint) {
      throw InputError(name + ": fingerprint " + fingerprint_hex(in.fingerprint) +
                       " differs from the table's " + row.fingerprint +
                       " (the generator changed; regenerate the table)");
    }
    w.inputs.push_back(std::move(in));
  }
}

template <typename T>
void shuffle(std::vector<T>& v, mcsym::support::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

std::string hex_digest(const mcsym::support::StateHasher& h) {
  return fingerprint_hex(h.digest());
}

}  // namespace

std::optional<Workload> workload_from_name(std::string_view name) {
  for (Workload w : {Workload::kDporParallel, Workload::kSymbolicSharded,
                     Workload::kServiceSerial}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kDporParallel: return "dpor_parallel";
    case Workload::kSymbolicSharded: return "symbolic_sharded";
    case Workload::kServiceSerial: return "service_serial";
  }
  return "?";
}

const char* workload_why(Workload workload) {
  switch (workload) {
    case Workload::kDporParallel:
      return "optimal DPOR at 4 workers: exploration, stealing and prefix replay "
             "dominate; parse, cache and the symbolic pipeline do no work";
    case Workload::kSymbolicSharded:
      return "symbolic engine, 16 traces over 4 workers: record, matchgen, encode, "
             "solve and replay, with solve-bound and encode-bound programs side by side";
    case Workload::kServiceSerial:
      return "one VerifierService fed .mcp text, serial engines: parse, fingerprint, "
             "cache hits beside misses, explicit and stateful explorers, small requests";
  }
  return "?";
}

WorkloadInputs make_inputs(Workload workload, const InputPaths& paths) {
  WorkloadInputs w;
  w.workload = workload;
  switch (workload) {
    case Workload::kDporParallel:
      w.workers = kParallelWorkers;
      add_dpor_parallel(w);
      break;
    case Workload::kSymbolicSharded:
      w.workers = kParallelWorkers;
      add_symbolic_sharded(w);
      break;
    case Workload::kServiceSerial:
      w.workers = 1;
      add_service_serial(w, paths);
      break;
  }
  return w;
}

VerifyRequest verify_request(const WorkloadInputs& w, const Request& r) {
  const Input& in = w.inputs[r.input];
  VerifyRequest q;
  q.engine = r.engine;
  q.workers = w.workers;
  q.budget.max_seconds = kRequestBudgetSeconds;
  q.stateful = in.stateful;
  q.properties = in.properties;
  if (w.workload == Workload::kSymbolicSharded) q.traces = kSymbolicTraces;
  return q;
}

RequestStream::RequestStream(const WorkloadInputs& inputs, std::uint64_t seed)
    : w_(&inputs), rng_(seed) {}

const std::vector<Request>& RequestStream::next_pass() {
  pass_.clear();
  std::vector<std::uint32_t> order(w_->inputs.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  shuffle(order, rng_);

  const bool service = w_->workload == Workload::kServiceSerial;
  std::vector<Request> originals;
  for (std::uint32_t i : order) {
    const auto& engines = w_->inputs[i].engines;
    Request r;
    r.input = i;
    r.engine = engines[rng_.below(engines.size())];
    pass_.push_back(r);
    originals.push_back(r);
    // About a third of a session's requests resubmit an earlier one (one
    // resubmission per two originals), half of them alpha-renamed.
    if (service && rng_.below(2) == 0) {
      Request again = originals[rng_.below(originals.size())];
      again.resubmit = true;
      again.renamed = rng_.below(2) == 0;
      pass_.push_back(again);
    }
  }
  return pass_;
}

std::string input_set_digest(const WorkloadInputs& w) {
  mcsym::support::StateHasher h;
  for (const Input& in : w.inputs) {
    h.mix(in.fingerprint.lo);
    h.mix(in.fingerprint.hi);
    h.mix(in.stateful ? 1 : 0);
  }
  return hex_digest(h);
}

std::string stream_digest(const WorkloadInputs& w, std::uint64_t seed, std::size_t n) {
  RequestStream stream(w, seed);
  mcsym::support::StateHasher h;
  for (std::size_t taken = 0; taken < n;) {
    for (const Request& r : stream.next_pass()) {
      if (taken == n) break;
      ++taken;
      const Input& in = w.inputs[r.input];
      h.mix(in.fingerprint.lo);
      h.mix(in.fingerprint.hi);
      h.mix(static_cast<std::uint64_t>(r.engine));
      h.mix((r.resubmit ? 2u : 0u) | (r.renamed ? 1u : 0u));
    }
  }
  return hex_digest(h);
}

std::string alpha_rename(std::string_view text) {
  // Names a line declares: `thread X`, `endpoint X`, `label X`, `assign X`,
  // and the local after `->`.
  std::set<std::string> names;
  std::istringstream lines{std::string(text)};
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream tokens(line);
    std::string tok;
    std::string prev;
    while (tokens >> tok) {
      if (prev == "thread" || prev == "endpoint" || prev == "label" ||
          prev == "assign" || prev == "->") {
        std::string name;
        for (char c : tok) {
          if (!ident_char(c)) break;
          name += c;
        }
        if (!name.empty() && ident_start(name[0])) names.insert(name);
      }
      prev = tok;
    }
  }
  std::string out;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size();) {
    const char c = text[i];
    if (c == '#' && !quoted) {  // comment to end of line
      const std::size_t eol = text.find('\n', i);
      const std::size_t end = eol == std::string_view::npos ? text.size() : eol;
      out.append(text.substr(i, end - i));
      i = end;
      continue;
    }
    if (c == '"') quoted = !quoted;
    if (!quoted && ident_start(c) && (i == 0 || !ident_char(text[i - 1]))) {
      std::size_t j = i;
      while (j < text.size() && ident_char(text[j])) ++j;
      const std::string word(text.substr(i, j - i));
      out += names.count(word) != 0 ? word + "_a" : word;
      i = j;
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

std::vector<TableRow> make_table(std::uint32_t per_variant) {
  std::vector<TableRow> rows;
  mcsym::check::Verifier verifier;
  for (std::size_t v = 0; v < std::size(kVariants); ++v) {
    const std::string variant = kVariants[v];
    const bool stateful = variant == "loop";
    std::uint32_t accepted = 0;
    std::uint32_t too_big = 0;
    std::uint32_t disagreed = 0;
    for (std::uint64_t seed = 1000 * (v + 1); accepted < per_variant; ++seed) {
      const Program p = mcsym::check::random_program(seed, random_options(variant));
      const auto parsed = mcsym::text::parse_program(mcsym::text::program_to_text(p, {}, "random"));
      const Program& program = parsed.parsed->program;
      VerifyRequest q;
      q.stateful = stateful;
      q.budget.max_seconds = 10;
      q.budget.max_states = kMaxTableStates + 1;
      q.engine = Engine::kExplicit;
      const auto truth = verifier.verify(program, q);
      std::uint64_t states = 0;
      for (const auto& [k, c] : truth.engines.at(0).counters) {
        if (k == "states_expanded") states = c;
      }
      if (!definitive(truth.verdict) || states > kMaxTableStates) {
        ++too_big;
        continue;
      }
      bool agree = true;
      for (Engine e : {Engine::kDporOptimal, Engine::kDporSleepSet, Engine::kPortfolio}) {
        q.engine = e;
        const auto other = verifier.verify(program, q);
        agree = agree && other.verdict == truth.verdict && other.agreed();
      }
      // The symbolic engine checks recorded traces only, so it may miss a
      // bug; any bug it reports must be one the explicit engine also found.
      q.engine = Engine::kSymbolic;
      const auto sym = verifier.verify(program, q);
      const bool sym_bug = sym.verdict == Verdict::kViolation || sym.verdict == Verdict::kDeadlock;
      const bool bug = truth.verdict == Verdict::kViolation || truth.verdict == Verdict::kDeadlock;
      agree = agree && (!sym_bug || bug);
      if (!agree) {
        ++disagreed;
        continue;
      }
      TableRow row;
      row.fingerprint = fingerprint_hex(mcsym::mcapi::canonical_fingerprint(program));
      row.variant = variant;
      row.gen_seed = seed;
      row.stateful = stateful;
      row.explicit_states = states;
      row.verdict = truth.verdict;
      rows.push_back(std::move(row));
      ++accepted;
    }
    std::fprintf(stderr, "table %-8s accepted %u, over the size limit %u, engines disagreed %u\n",
                 variant.c_str(), accepted, too_big, disagreed);
  }
  return rows;
}

}  // namespace mcsym_bench
