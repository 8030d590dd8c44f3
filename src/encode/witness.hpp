// Witness decoding: turn a satisfying assignment back into an execution a
// human (or the replayer) can follow — the paper's "simple analysis of the
// set of satisfying assignments provides a description of the path to the
// error state".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "encode/encoder.hpp"

namespace mcsym::encode {

struct Witness {
  /// recv anchor -> matched send event, sorted by receive index.
  match::Matching matching;
  /// Communication events ordered by their model clock values: one concrete
  /// linearization realizing the matching.
  std::vector<EventIndex> linearization;
  /// Value each receive obtained in this execution.
  std::vector<std::pair<EventIndex, std::int64_t>> recv_values;
  /// Labels of the properties that are false under the model.
  std::vector<std::string> violated;
  /// Raw model clock per communication event and model bind time per receive
  /// anchor — enough to reconstruct a concrete runtime schedule (see
  /// check::schedule_from_witness).
  std::vector<std::pair<EventIndex, std::int64_t>> clock_values;
  std::vector<std::pair<EventIndex, std::int64_t>> bind_values;

  [[nodiscard]] std::string to_string(const trace::Trace& trace) const;
};

/// Reads the current model out of `solver` (which must have just returned
/// kSat for this encoding).
[[nodiscard]] Witness decode_witness(const smt::Solver& solver, const Encoding& enc,
                                     const trace::Trace& trace);

/// Rewrites a witness of `from` into the event indices of `to`, a trace with
/// the same per-thread event sequences (check::same_projection): the k-th
/// event of thread t in `from` becomes the k-th event of thread t in `to`,
/// i.e. the event with the same (thread, op_index). Index-sorted lists are
/// re-sorted; the clock order is kept, since its ties break on
/// (thread, op_index).
[[nodiscard]] Witness translate_witness(const Witness& witness,
                                        const trace::Trace& from,
                                        const trace::Trace& to);

}  // namespace mcsym::encode
