#include "oracle.hpp"

#include <cstdio>
#include <sstream>

namespace mcsym_bench {

Verdict expected_verdict(const Expectation& expect, Engine engine) {
  const bool sees_properties =
      engine == Engine::kSymbolic || engine == Engine::kPortfolio;
  return sees_properties ? expect.property_verdict : expect.verdict;
}

bool outcome_matches(const Expectation& expect, Engine engine,
                     const Outcome& outcome) {
  if (outcome.verdict != expected_verdict(expect, engine)) return false;
  if (expect.dpor_executions != 0 && engine == Engine::kDporOptimal) {
    return outcome.dpor_executions == expect.dpor_executions;
  }
  return true;
}

bool definitive(Verdict verdict) {
  return verdict != Verdict::kBudgetExhausted && verdict != Verdict::kUnknown;
}

std::optional<Verdict> verdict_from_name(std::string_view name) {
  for (Verdict v : {Verdict::kSafe, Verdict::kViolation, Verdict::kDeadlock,
                    Verdict::kNonTermination, Verdict::kBudgetExhausted,
                    Verdict::kUnknown}) {
    if (name == mcsym::check::verdict_name(v)) return v;
  }
  return std::nullopt;
}

std::uint64_t factorial(std::uint32_t n) {
  std::uint64_t f = 1;
  for (std::uint32_t i = 2; i <= n; ++i) f *= i;
  return f;
}

std::uint64_t message_race_executions(std::uint32_t senders,
                                      std::uint32_t msgs_each) {
  std::uint64_t denominator = 1;
  for (std::uint32_t s = 0; s < senders; ++s) denominator *= factorial(msgs_each);
  return factorial(senders * msgs_each) / denominator;
}

std::string fingerprint_hex(const mcsym::support::Hash128& h) {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(h.hi),
                static_cast<unsigned long long>(h.lo));
  return buf;
}

std::optional<std::vector<TableRow>> parse_table(std::string_view text,
                                                 std::string& error) {
  std::vector<TableRow> rows;
  std::istringstream in{std::string(text)};
  std::string line;
  for (int number = 1; std::getline(in, line); ++number) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    TableRow row;
    std::string stateful;
    std::string verdict;
    if (!(fields >> row.fingerprint >> row.variant >> row.gen_seed >> stateful >>
          row.explicit_states >> verdict) ||
        row.fingerprint.size() != 32 || (stateful != "0" && stateful != "1")) {
      error = "line " + std::to_string(number) + ": malformed row";
      return std::nullopt;
    }
    const auto v = verdict_from_name(verdict);
    if (!v || !definitive(*v)) {
      error = "line " + std::to_string(number) + ": bad verdict '" + verdict + "'";
      return std::nullopt;
    }
    row.stateful = stateful == "1";
    row.verdict = *v;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string format_table(const std::vector<TableRow>& rows) {
  std::string out =
      "# mcsym-bench expected verdicts for generated inputs; regenerate with\n"
      "# `mcsym_bench --make-table`. Columns: canonical fingerprint, generator\n"
      "# variant, generator seed, stateful, explicit states_expanded, verdict.\n";
  for (const TableRow& r : rows) {
    out += r.fingerprint + "\t" + r.variant + "\t" + std::to_string(r.gen_seed) +
           "\t" + (r.stateful ? "1" : "0") + "\t" +
           std::to_string(r.explicit_states) + "\t" +
           mcsym::check::verdict_name(r.verdict) + "\n";
  }
  return out;
}

}  // namespace mcsym_bench
