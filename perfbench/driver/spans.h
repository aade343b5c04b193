// spans.h — the traced run's span log.
//
// Every call the driver makes into a layer can be wrapped in a span: name,
// start, end and the span that was open when it began (its parent). Spans
// stay in memory and are written out once, at exit. A span's self time is
// its duration minus the part of it that its children cover.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_seconds();

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  ///< index into the log; -1 for a root span.

  [[nodiscard]] double duration() const { return end_s - start_s; }
};

/// Length of the union of `intervals`, each clipped to [lo, hi].
[[nodiscard]] double covered_seconds(
    double lo, double hi, std::vector<std::pair<double, double>> intervals);

class SpanLog {
 public:
  /// Opens a span whose parent is the innermost span still open.
  int open(std::string name);
  /// Closes span `id` (must be the innermost open span).
  void close(int id);

  /// Adds a finished span directly (for tests and for replayed timings).
  int add(std::string name, double start_s, double end_s, int parent);

  /// Appends every span of `other` (which must have none open).
  void append(const SpanLog& other);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double self_seconds(std::size_t index) const;

  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    long count = 0;
  };
  /// Per-name sums of duration and self time.
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  [[nodiscard]] Totals totals(const std::string& name) const;

  /// The spans as a JSON array (one object per span, with self time).
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span on construction and closes it on destruction. A null log
/// makes it a plain timer, so one code path serves traced and untraced runs.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Seconds since the span opened.
  [[nodiscard]] double elapsed() const { return now_seconds() - start_s_; }

 private:
  SpanLog* log_;
  int id_ = -1;
  double start_s_;
};

/// Calls `fn` inside a span named `name` and returns its result; `seconds`
/// receives the call's duration.
template <class Fn>
auto timed_call(SpanLog* log, std::string name, double& seconds, Fn&& fn) {
  ScopedSpan span(log, std::move(name));
  auto result = fn();
  seconds = span.elapsed();
  return result;
}

}  // namespace perfbench
