// trace.h — the recorded evolution of a simulation run.
//
// A Trace is the common currency between the simulators (fluid and
// packet-level) and the axiomatic metric estimators in src/core: per step it
// stores every sender's window, the step's RTT, the congestion loss rate, and
// each sender's observed (congestion + injected) loss rate.
//
// Two detail levels exist. kFull (the default) keeps every sender's series —
// O(n·steps) memory, what the estimators consume. kAggregate keeps per-step
// population statistics (sum/min/max/mean over active senders plus the
// active-sender count) and full series for only a small tracked subset, so a
// million-sender run costs O(steps + k·steps) trace memory. Per-sender
// accessors in aggregate mode resolve tracked sender ids and reject the rest.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "util/check.h"

namespace axiomcc::fluid {

/// How much of a run a Trace retains.
enum class TraceDetail {
  kFull,       ///< every sender's window/loss series (the default).
  kAggregate,  ///< per-step population stats + k tracked sender series.
};

/// The deterministic tracked-sender selection for aggregate traces: k ids
/// spread evenly across [0, n) (id floor(j·n/k)), always including sender 0.
/// Independent of execution mode and job count.
[[nodiscard]] inline std::vector<int> default_tracked_senders(int n, int k) {
  AXIOMCC_EXPECTS(n > 0);
  AXIOMCC_EXPECTS(k > 0);
  if (k >= n) {
    std::vector<int> all(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) all[static_cast<std::size_t>(i)] = i;
    return all;
  }
  std::vector<int> ids(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    ids[static_cast<std::size_t>(j)] =
        static_cast<int>(static_cast<long>(j) * n / k);
  }
  return ids;
}

class Trace {
 public:
  /// Full-detail trace (every sender's series).
  Trace(int num_senders, double link_capacity_mss, double min_rtt_seconds)
      : Trace(num_senders, link_capacity_mss, min_rtt_seconds,
              TraceDetail::kFull, {}) {}

  /// Detail-selecting constructor. `tracked` (aggregate mode only) is the
  /// strictly ascending list of sender ids whose full series are kept;
  /// empty tracked in aggregate mode keeps statistics only.
  Trace(int num_senders, double link_capacity_mss, double min_rtt_seconds,
        TraceDetail detail, std::vector<int> tracked)
      : num_senders_(num_senders),
        link_capacity_mss_(link_capacity_mss),
        min_rtt_seconds_(min_rtt_seconds),
        detail_(detail),
        tracked_(std::move(tracked)) {
    AXIOMCC_EXPECTS(num_senders > 0);
    if (detail_ == TraceDetail::kFull) {
      AXIOMCC_EXPECTS(tracked_.empty());
      tracked_.resize(static_cast<std::size_t>(num_senders));
      for (int i = 0; i < num_senders; ++i) {
        tracked_[static_cast<std::size_t>(i)] = i;
      }
    } else {
      int prev = -1;
      for (const int id : tracked_) {
        AXIOMCC_EXPECTS_MSG(id > prev && id < num_senders,
                            "tracked sender ids must ascend within [0, n)");
        prev = id;
      }
    }
    window_series_.resize(tracked_.size());
    observed_loss_series_.resize(tracked_.size());
  }

  /// Appends one step. `windows` and `observed_loss` are per-sender (full
  /// population in either mode); aggregate mode reduces them here.
  void add_step(std::span<const double> windows, double rtt_seconds,
                double congestion_loss, std::span<const double> observed_loss) {
    AXIOMCC_EXPECTS(windows.size() == static_cast<std::size_t>(num_senders_));
    AXIOMCC_EXPECTS(observed_loss.size() ==
                    static_cast<std::size_t>(num_senders_));
    if (detail_ == TraceDetail::kFull) {
      double total = 0.0;
      for (int i = 0; i < num_senders_; ++i) {
        window_series_[static_cast<std::size_t>(i)].push_back(windows[i]);
        observed_loss_series_[static_cast<std::size_t>(i)].push_back(
            observed_loss[i]);
        total += windows[i];
      }
      total_window_.push_back(total);
      rtt_seconds_.push_back(rtt_seconds);
      congestion_loss_.push_back(congestion_loss);
      return;
    }
    // One ascending pass; the serial left-fold for the total matches the
    // simulator's own aggregate-window fold bit for bit, and min/max/count
    // are exactly associative, so a batch execution that reduces in fixed
    // shard order reproduces these values exactly.
    double total = 0.0;
    double wmin = std::numeric_limits<double>::infinity();
    double wmax = -std::numeric_limits<double>::infinity();
    long active = 0;
    for (int i = 0; i < num_senders_; ++i) {
      const double w = windows[i];
      total += w;
      if (w > 0.0) {
        ++active;
        if (w < wmin) wmin = w;
        if (w > wmax) wmax = w;
      }
    }
    add_step_aggregate(total, wmin, wmax, active, rtt_seconds, congestion_loss,
                       windows, observed_loss);
  }

  /// Aggregate-mode append with precomputed population statistics (the batch
  /// simulator folds them inside its sharded loops). `window_min`/`max` are
  /// over active (window > 0) senders and may be ±inf when none is active;
  /// `full_windows`/`full_observed` still span the whole population — only
  /// the tracked ids are read from them.
  void add_step_aggregate(double total_window, double window_min,
                          double window_max, long active_senders,
                          double rtt_seconds, double congestion_loss,
                          std::span<const double> full_windows,
                          std::span<const double> full_observed) {
    AXIOMCC_EXPECTS(detail_ == TraceDetail::kAggregate);
    AXIOMCC_EXPECTS(full_windows.size() ==
                    static_cast<std::size_t>(num_senders_));
    AXIOMCC_EXPECTS(full_observed.size() ==
                    static_cast<std::size_t>(num_senders_));
    for (std::size_t j = 0; j < tracked_.size(); ++j) {
      const auto id = static_cast<std::size_t>(tracked_[j]);
      window_series_[j].push_back(full_windows[id]);
      observed_loss_series_[j].push_back(full_observed[id]);
    }
    push_aggregate_stats(total_window, window_min, window_max, active_senders,
                         rtt_seconds, congestion_loss);
  }

  /// Aggregate-mode append when the caller has already gathered the tracked
  /// senders' values (the uniform-cohort loop never materializes
  /// per-sender arrays). `tracked_windows`/`tracked_observed` are in
  /// tracked_senders() order.
  void add_step_aggregate_tracked(double total_window, double window_min,
                                  double window_max, long active_senders,
                                  double rtt_seconds, double congestion_loss,
                                  std::span<const double> tracked_windows,
                                  std::span<const double> tracked_observed) {
    AXIOMCC_EXPECTS(detail_ == TraceDetail::kAggregate);
    AXIOMCC_EXPECTS(tracked_windows.size() == tracked_.size());
    AXIOMCC_EXPECTS(tracked_observed.size() == tracked_.size());
    for (std::size_t j = 0; j < tracked_.size(); ++j) {
      window_series_[j].push_back(tracked_windows[j]);
      observed_loss_series_[j].push_back(tracked_observed[j]);
    }
    push_aggregate_stats(total_window, window_min, window_max, active_senders,
                         rtt_seconds, congestion_loss);
  }

  /// Reserves storage for `steps` steps (optional).
  void reserve(std::size_t steps) {
    for (auto& s : window_series_) s.reserve(steps);
    for (auto& s : observed_loss_series_) s.reserve(steps);
    total_window_.reserve(steps);
    rtt_seconds_.reserve(steps);
    congestion_loss_.reserve(steps);
    if (detail_ == TraceDetail::kAggregate) {
      window_min_.reserve(steps);
      window_max_.reserve(steps);
      window_mean_.reserve(steps);
      active_senders_.reserve(steps);
    }
  }

  [[nodiscard]] int num_senders() const { return num_senders_; }
  [[nodiscard]] std::size_t num_steps() const { return total_window_.size(); }
  [[nodiscard]] TraceDetail detail() const { return detail_; }

  /// The sender ids whose full series this trace retains (all of them in
  /// full mode), ascending.
  [[nodiscard]] std::span<const int> tracked_senders() const {
    return tracked_;
  }
  [[nodiscard]] bool tracks(int sender) const {
    return tracked_slot(sender) >= 0;
  }

  /// The link capacity C the run used (for efficiency scores).
  [[nodiscard]] double link_capacity_mss() const { return link_capacity_mss_; }
  /// The link's minimum RTT 2Θ (for latency scores).
  [[nodiscard]] double min_rtt_seconds() const { return min_rtt_seconds_; }

  /// Per-sender series, addressed by GLOBAL sender id. In aggregate mode the
  /// id must be one of tracked_senders().
  [[nodiscard]] std::span<const double> windows(int sender) const {
    return window_series_[slot_or_die(sender)];
  }
  [[nodiscard]] std::span<const double> observed_loss(int sender) const {
    return observed_loss_series_[slot_or_die(sender)];
  }
  [[nodiscard]] std::span<const double> total_window() const {
    return total_window_;
  }
  [[nodiscard]] std::span<const double> rtt_seconds() const {
    return rtt_seconds_;
  }
  [[nodiscard]] std::span<const double> congestion_loss() const {
    return congestion_loss_;
  }

  /// Per-step population statistics over active (window > 0) senders;
  /// aggregate mode only. Steps with no active sender record 0 for all three.
  [[nodiscard]] std::span<const double> window_min() const {
    AXIOMCC_EXPECTS(detail_ == TraceDetail::kAggregate);
    return window_min_;
  }
  [[nodiscard]] std::span<const double> window_max() const {
    AXIOMCC_EXPECTS(detail_ == TraceDetail::kAggregate);
    return window_max_;
  }
  [[nodiscard]] std::span<const double> window_mean() const {
    AXIOMCC_EXPECTS(detail_ == TraceDetail::kAggregate);
    return window_mean_;
  }
  [[nodiscard]] std::span<const long> active_senders() const {
    AXIOMCC_EXPECTS(detail_ == TraceDetail::kAggregate);
    return active_senders_;
  }

  /// Post-hoc reduction of a full trace to aggregate detail (used by the
  /// packet backend, whose experiment records full traces internally).
  [[nodiscard]] static Trace aggregated(const Trace& full,
                                        std::vector<int> tracked) {
    AXIOMCC_EXPECTS(full.detail() == TraceDetail::kFull);
    Trace out(full.num_senders(), full.link_capacity_mss(),
              full.min_rtt_seconds(), TraceDetail::kAggregate,
              std::move(tracked));
    out.reserve(full.num_steps());
    const int n = full.num_senders();
    std::vector<double> w(static_cast<std::size_t>(n));
    std::vector<double> l(static_cast<std::size_t>(n));
    for (std::size_t t = 0; t < full.num_steps(); ++t) {
      for (int i = 0; i < n; ++i) {
        w[static_cast<std::size_t>(i)] = full.windows(i)[t];
        l[static_cast<std::size_t>(i)] = full.observed_loss(i)[t];
      }
      out.add_step(w, full.rtt_seconds()[t], full.congestion_loss()[t], l);
    }
    return out;
  }

 private:
  void push_aggregate_stats(double total_window, double window_min,
                            double window_max, long active_senders,
                            double rtt_seconds, double congestion_loss) {
    const bool any = active_senders > 0;
    total_window_.push_back(total_window);
    window_min_.push_back(any ? window_min : 0.0);
    window_max_.push_back(any ? window_max : 0.0);
    window_mean_.push_back(
        any ? total_window / static_cast<double>(active_senders) : 0.0);
    active_senders_.push_back(active_senders);
    rtt_seconds_.push_back(rtt_seconds);
    congestion_loss_.push_back(congestion_loss);
  }

  /// Index into the series arrays for a global sender id, or -1.
  [[nodiscard]] long tracked_slot(int sender) const {
    if (sender < 0 || sender >= num_senders_) return -1;
    if (detail_ == TraceDetail::kFull) return sender;
    // Tracked ids ascend; binary search keeps k-tracked lookups cheap.
    long lo = 0;
    long hi = static_cast<long>(tracked_.size()) - 1;
    while (lo <= hi) {
      const long mid = lo + (hi - lo) / 2;
      const int id = tracked_[static_cast<std::size_t>(mid)];
      if (id == sender) return mid;
      if (id < sender) {
        lo = mid + 1;
      } else {
        hi = mid - 1;
      }
    }
    return -1;
  }

  [[nodiscard]] std::size_t slot_or_die(int sender) const {
    const long slot = tracked_slot(sender);
    AXIOMCC_EXPECTS_MSG(slot >= 0,
                        "sender series not retained at this trace detail");
    return static_cast<std::size_t>(slot);
  }

  int num_senders_;
  double link_capacity_mss_;
  double min_rtt_seconds_;
  TraceDetail detail_;
  std::vector<int> tracked_;  ///< global ids behind the series arrays.
  std::vector<std::vector<double>> window_series_;
  std::vector<std::vector<double>> observed_loss_series_;
  std::vector<double> total_window_;
  std::vector<double> window_min_;       ///< aggregate mode only.
  std::vector<double> window_max_;       ///< aggregate mode only.
  std::vector<double> window_mean_;      ///< aggregate mode only.
  std::vector<long> active_senders_;     ///< aggregate mode only.
  std::vector<double> rtt_seconds_;
  std::vector<double> congestion_loss_;
};

}  // namespace axiomcc::fluid
