// Running statistics and wall-clock timing used by checkers and benches.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

namespace mcsym::support {

/// Welford online mean/variance. Numerically stable for long benchmark runs.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double sum() const { return sum_; }

  /// "n=5 mean=1.2 min=0.9 max=1.5" — for log lines and bench labels.
  [[nodiscard]] std::string summary() const;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Monotonic stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}
  void restart() { start_ = clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Amortized budget probe for search loops: a wall-clock limit (0 =
/// unlimited) plus an optional cooperative cancellation hook, consulted on
/// one poll in 64. Amortize over loop iterations, not over transitions: an
/// iteration can do unbounded work (race scans, feasibility simulations)
/// without advancing a transition counter. Holds references to `timer` and
/// `interrupted`, which must outlive it; one instance per searching thread.
class Deadline {
 public:
  Deadline(const Stopwatch& timer, double max_seconds,
           const std::function<bool()>& interrupted)
      : timer_(&timer), max_seconds_(max_seconds), interrupted_(&interrupted) {}

  /// True once the time budget is spent or the hook asks to stop.
  [[nodiscard]] bool expired() {
    if (max_seconds_ <= 0 && !*interrupted_) return false;
    if ((++polls_ & 63u) != 0) return false;
    if (max_seconds_ > 0 && timer_->seconds() > max_seconds_) return true;
    return *interrupted_ && (*interrupted_)();
  }

 private:
  const Stopwatch* timer_;
  double max_seconds_;
  const std::function<bool()>* interrupted_;
  std::uint64_t polls_ = 0;
};

}  // namespace mcsym::support
