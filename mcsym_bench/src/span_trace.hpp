// In-memory spans for the traced run.
//
// The benchmark records a span around each call it makes into a layer's
// public function ("measured"), and places child spans for the time a call
// reports about its own inside ("derived": engine seconds of a report, the
// match/encode/solve seconds of a symbolic trace check). Spans stay in memory
// and are written once, as Chrome trace-event JSON, when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mcsym_bench {

struct Span {
  std::string name;   // "<layer>.<what>", e.g. "check.dpor", "text.parse"
  double start = 0;   // seconds since the tracer's epoch
  double end = 0;
  int parent = -1;    // index into the tracer's spans; -1 = root
  std::uint64_t request = 0;
  bool derived = false;  // placed from reported seconds, not timed here
};

/// The layer a span belongs to: "text.parse" is "text", "check.service.key"
/// is "check.service", and an undotted name ("request") is "bench".
std::string span_layer(const std::string& name);

class Tracer {
 public:
  Tracer();

  [[nodiscard]] double now() const;

  /// Opens a measured span; close it with `close`.
  int open(std::string name, std::uint64_t request, int parent = -1);
  void close(int span);
  /// Adds a finished span with explicit bounds (derived spans).
  int add(std::string name, double start, double end, std::uint64_t request,
          int parent, bool derived);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double duration(int span) const {
    return spans_[span].end - spans_[span].start;
  }

 private:
  double epoch_ = 0;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval that
/// the union of its children's intervals covers (children clipped to it).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events, one lane per request).
std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace mcsym_bench
