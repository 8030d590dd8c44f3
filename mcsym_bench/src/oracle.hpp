// The correctness oracle behind `verdict_errors`.
//
// Zoo programs carry answers known by construction (their verdicts, and the
// closed-form optimal-DPOR execution counts of the racing workloads).
// Generated programs are checked against a committed expected-verdict table,
// one line per input keyed by mcapi::canonical_fingerprint; the table is
// produced by `mcsym_bench --make-table`, which derives each verdict from
// the explicit engine and keeps only inputs every other engine agrees on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/verifier.hpp"
#include "support/hash.hpp"

namespace mcsym_bench {

using mcsym::check::Engine;
using mcsym::check::Verdict;

/// What a correct engine answers on one input.
struct Expectation {
  /// Engines that check in-program assertions only (explicit, both DPORs).
  Verdict verdict = Verdict::kSafe;
  /// Engines that also check the source's end-of-run `property` lines
  /// (symbolic, portfolio). Equal to `verdict` unless the input has any.
  Verdict property_verdict = Verdict::kSafe;
  /// Optimal-DPOR executions (a closed form); 0 = not pinned.
  std::uint64_t dpor_executions = 0;
};

[[nodiscard]] Verdict expected_verdict(const Expectation& expect, Engine engine);

/// What one request answered.
struct Outcome {
  Verdict verdict = Verdict::kUnknown;
  std::optional<std::uint64_t> dpor_executions;  // optimal-DPOR row, if run
};

/// True when `outcome` is what a correct `engine` answers.
[[nodiscard]] bool outcome_matches(const Expectation& expect, Engine engine,
                                   const Outcome& outcome);

/// A verdict that answers the question (not budget-exhausted / unknown).
[[nodiscard]] bool definitive(Verdict verdict);

[[nodiscard]] std::optional<Verdict> verdict_from_name(std::string_view name);

[[nodiscard]] std::uint64_t factorial(std::uint32_t n);
/// message_race(s, m): (s*m)! / (m!)^s channel-FIFO-respecting orders.
[[nodiscard]] std::uint64_t message_race_executions(std::uint32_t senders,
                                                    std::uint32_t msgs_each);

[[nodiscard]] std::string fingerprint_hex(const mcsym::support::Hash128& h);

/// One generated input of the committed table.
struct TableRow {
  std::string fingerprint;  // fingerprint_hex(canonical_fingerprint(program))
  std::string variant;      // generator variant (see inputs.hpp)
  std::uint64_t gen_seed = 0;
  bool stateful = false;
  std::uint64_t explicit_states = 0;  // explicit engine's states_expanded
  Verdict verdict = Verdict::kSafe;
};

/// Parses the table (tab-separated, '#' comments). Returns nullopt and sets
/// `error` on a malformed line.
[[nodiscard]] std::optional<std::vector<TableRow>> parse_table(
    std::string_view text, std::string& error);
[[nodiscard]] std::string format_table(const std::vector<TableRow>& rows);

}  // namespace mcsym_bench
