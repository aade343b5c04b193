// report.h — what every workload shares: configuration, metrics, output
// checks, timing loops and the final JSON line.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "spans.h"
#include "util/stats.h"

namespace perfbench {

struct Config {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test sizes: every code path runs, in well under a second.
  bool tiny = false;
  /// Where the traced run writes its span log (empty: not written).
  std::string spans_path;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, emitted by every untraced run.
[[nodiscard]] std::span<const MetricDef> end_to_end_metrics();
/// The per-layer metrics, emitted by every traced run. A layer the workload
/// does not reach reports 0.
[[nodiscard]] std::span<const MetricDef> per_layer_metrics();

/// Fills `values` (name → value) into the full list `defs`, in list order;
/// names absent from `values` report 0. Throws on a name not in `defs`.
[[nodiscard]] std::vector<Metric> collect(
    std::span<const MetricDef> defs,
    const std::vector<std::pair<std::string, double>>& values);

/// 64-bit FNV-1a, fed incrementally.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void f64(double v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64s(std::span<const double> v) { bytes(v.data(), v.size_bytes()); }
  void text(std::string_view s) { bytes(s.data(), s.size()); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Cut points dividing `v` into `n` groups, by the same "exclusive" method
/// as Python's statistics.quantiles(v, n=n). Needs at least two values.
[[nodiscard]] std::vector<double> quantiles(std::vector<double> v, int n);

/// Peak resident set size of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mib();

/// One operation of a pass: its output digest and whether it failed on its
/// own (threw past its layer's contract, returned a short trace, or yielded
/// a NaN or out-of-domain metric).
struct OpResult {
  std::uint64_t digest = 0;
  bool failed = false;
};

struct PassOutput {
  std::vector<OpResult> ops;
  /// Units of work the pass did (packet events, sender-steps or execs).
  double work = 0.0;
};

/// Counts attempted and failed operations. Passes are compared with the
/// first pass: an operation whose digest differs from its counterpart there
/// fails, and so does every operation of a pass with a different op count.
class Tally {
 public:
  void add_pass(const PassOutput& pass);
  void add_op(bool failed);

  [[nodiscard]] long attempted() const { return attempted_; }
  [[nodiscard]] long failed() const { return failed_; }
  /// Digest over the first pass's op digests.
  [[nodiscard]] std::uint64_t reference_digest() const;

 private:
  std::vector<std::uint64_t> reference_;
  bool have_reference_ = false;
  long attempted_ = 0;
  long failed_ = 0;
};

/// Times a workload's set-up. Each call of sample() runs `fn` repeatedly for
/// a short window and records one sample, the mean time per call, so the
/// clock's own cost and jitter stay small next to set-ups of a few
/// microseconds. Windows are spread over the run (before the passes and
/// between them) and the median window is reported, as wall_s reports the
/// median pass.
template <class Fn>
class SetupSampler {
 public:
  explicit SetupSampler(Fn fn) : fn_(std::move(fn)) {}

  /// Runs `fn` for at least `window_s` seconds (at least once) and records
  /// the mean time per call.
  void sample(double window_s) {
    const double start = now_seconds();
    long calls = 0;
    double elapsed = 0.0;
    do {
      fn_();
      ++calls;
      elapsed = now_seconds() - start;
    } while (elapsed < window_s);
    samples_.push_back(elapsed / static_cast<double>(calls));
  }

  [[nodiscard]] double median_seconds() const { return axiomcc::median_of(samples_); }

 private:
  Fn fn_;
  std::vector<double> samples_;
};

struct PassTimes {
  std::vector<double> seconds;  ///< timed passes (the warm-up excluded).
  double work = 0.0;            ///< work of one pass (the first).
};

/// Runs one warm-up pass, then timed passes until `seconds` have passed
/// since the first began, with at least `min_timed` timed passes. Every
/// pass goes through `tally`; `between()` runs after each pass, untimed.
template <class Fn, class Between>
PassTimes timed_passes(double seconds, int min_timed, Tally& tally, Fn&& pass,
                       Between&& between) {
  PassTimes out;
  const double start = now_seconds();
  for (int i = 0;; ++i) {
    const double t0 = now_seconds();
    const PassOutput p = pass();
    const double dt = now_seconds() - t0;
    tally.add_pass(p);
    between();
    if (i == 0) {
      out.work = p.work;
    } else {
      out.seconds.push_back(dt);
    }
    if (static_cast<int>(out.seconds.size()) >= min_timed &&
        now_seconds() - start >= seconds) {
      break;
    }
  }
  return out;
}

/// The traced run's passes: a warm-up, then untraced and traced passes in
/// turn until `seconds` have passed (at least two of each). Only the last
/// traced pass records into `log`; it is returned. `overhead` receives the
/// median traced pass over the median untraced pass, minus one.
template <class Fn>
auto overhead_passes(double seconds, SpanLog& log, Tally& tally,
                     double& overhead, Fn&& pass) {
  tally.add_pass(pass(nullptr).out);
  std::vector<double> untraced;
  std::vector<double> traced;
  decltype(pass(nullptr)) last;
  const double start = now_seconds();
  for (;;) {
    const double t0 = now_seconds();
    tally.add_pass(pass(nullptr).out);
    untraced.push_back(now_seconds() - t0);
    SpanLog scratch;
    {
      ScopedSpan span(&scratch, "pass");
      last = pass(&scratch);
      traced.push_back(span.elapsed());
    }
    tally.add_pass(last.out);
    if (traced.size() >= 2 && now_seconds() - start >= seconds) {
      log.append(scratch);
      break;
    }
  }
  overhead = axiomcc::median_of(traced) / axiomcc::median_of(untraced) - 1.0;
  return last;
}

/// The end-to-end metrics of an untraced run: the median set-up, the median
/// timed pass, `work` per median pass, and the peak RSS read by the caller.
[[nodiscard]] std::vector<Metric> end_to_end(double setup_s,
                                             const PassTimes& passes,
                                             double work, double rss_mib);

/// "passes: n=…, median …, q1 …, q3 … s" for the timed passes.
[[nodiscard]] std::string pass_note(const PassTimes& passes);

struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON line.
  std::vector<std::string> notes;

  [[nodiscard]] bool correct() const { return attempted > 0 && failed == 0; }
};

/// Prints the notes, one line per metric, and the final JSON line.
void print_outcome(const Outcome& outcome);

/// Renders a number with all its digits (%.17g).
[[nodiscard]] std::string full_digits(double v);

}  // namespace perfbench
