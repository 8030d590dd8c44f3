#include "span_trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace mcsym_bench {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string span_layer(const std::string& name) {
  // Layers are the source modules: src/<module>, and src/check/<file>.
  const std::size_t skip = name.rfind("check.", 0) == 0 ? 6 : 0;
  const std::size_t dot = name.find('.', skip);
  if (skip == 0 && dot == std::string::npos) return "bench";
  return name.substr(0, dot);
}

Tracer::Tracer() : epoch_(steady_seconds()) {}

double Tracer::now() const { return steady_seconds() - epoch_; }

int Tracer::open(std::string name, std::uint64_t request, int parent) {
  const double t = now();
  return add(std::move(name), t, t, request, parent, false);
}

void Tracer::close(int span) { spans_[span].end = now(); }

int Tracer::add(std::string name, double start, double end,
                std::uint64_t request, int parent, bool derived) {
  spans_.push_back(Span{std::move(name), start, end, parent, request, derived});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[s.parent];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) children[s.parent].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double run_lo = 0;
    double run_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (run_hi < run_lo || lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = std::max(0.0, (spans[i].end - spans[i].start) - covered);
  }
  return self;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %llu, "
                  "\"args\": {\"id\": %zu, \"parent\": %d, \"derived\": %s}}",
                  i == 0 ? "" : ",\n", s.name.c_str(), span_layer(s.name).c_str(),
                  s.start * 1e6, (s.end - s.start) * 1e6,
                  static_cast<unsigned long long>(s.request), i, s.parent,
                  s.derived ? "true" : "false");
    out += buf;
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

}  // namespace mcsym_bench
