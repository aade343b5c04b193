// network.h — the fluid engine: flows over a network of droptail links.
//
// The paper's Section 2 model is n senders on one droptail link; its
// Section 6 lists "generalizing our model to capture network-wide protocol
// interaction" as future work. FluidNetwork is that generalization, and the
// single-link model is its one-link case (fluid::FluidSimulation, sim.h, is
// the builder for it). A network has links L and flows F, each flow f
// traversing an ordered route R(f) ⊆ L. Time advances in steps of one RTT:
//
//   * every link l computes its droptail loss from the aggregate window of
//     the flows crossing it; when some route has more than one hop the
//     links iterate to a consistent carried load (upstream loss thins
//     downstream arrival);
//   * a flow's observed loss composes across its route,
//     L_f = 1 − Π_{l ∈ R(f)} (1 − L_l), plus any injected non-congestion
//     loss; its RTT adds propagation and queueing across the route;
//   * every flow picks its next window via its Protocol.
//
// Flows are added in cohorts: `count` flows sharing one spec and ONE
// protocol prototype (add_flow adds a cohort of one). One tick loop runs
// over slots; each cohort owns a contiguous slot range and each slot stands
// for `weight` flows. run() picks one of two slot layouts, bit-identical to
// each other:
//  - materialized: one slot per flow (weight 1). Kernel cohorts advance
//    through SoA kernels (cc::BatchProtocol) in one pass per cohort, other
//    cohorts dispatch per flow. Elementwise passes are sharded across
//    util/task_pool in fixed-size chunks (`jobs`);
//  - representative: one slot per cohort (weight = count), for runs with an
//    aggregate trace, no step monitor and a stateless loss injector. Every
//    member of a cohort then sees the same inputs every step and stays
//    bitwise identical, so one slot advances for the cohort; only the folds
//    stay O(flows), adding each slot's value `weight` times.
// Determinism: the arrival folds, the total-window fold and stateful loss
// sampling stay serial in ascending flow order, and sharded loops are pure
// elementwise writes over fixed ranges, so any jobs count yields the same
// bytes. Flight-recorder and scope emission happen in the serial sections.
//
// The classic "parking lot" topology (one long flow crossing k bottlenecks,
// k short cross-flows) is provided as a builder; it exposes the beat-down of
// multi-hop flows that single-link analysis cannot see.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cc/protocol.h"
#include "fluid/link.h"
#include "fluid/loss_model.h"
#include "fluid/trace.h"
#include "recorder/recorder.h"
#include "scope/scope.h"

namespace axiomcc::fluid {

/// One flow (or, through add_flows / add_senders, a cohort of flows): a
/// protocol plus its initial window and route.
///
/// `update_period`/`update_phase` model UNSYNCHRONIZED feedback (a paper
/// future-work item): the flow consults its protocol only at steps t with
/// t ≡ phase (mod period), holding its window in between. The default
/// (period 1) is the paper's synchronized model. The observation delivered
/// at an update step aggregates the steps since the previous update: worst
/// (max) loss, mean RTT.
///
/// `start_step`/`stop_step` model flow churn: the flow is active on steps t
/// with start ≤ t < stop (negative stop → forever). While inactive its
/// window is exactly 0 — it contributes nothing to any link and its
/// protocol is not consulted; on joining it starts from
/// `initial_window_mss` like a fresh connection. Rejoining is not modeled.
struct SenderSpec {
  std::unique_ptr<cc::Protocol> protocol;
  double initial_window_mss = 1.0;
  long update_period = 1;
  long update_phase = 0;
  long start_step = 0;
  long stop_step = -1;
  /// Ordered link ids, loop-free. FluidSimulation fills in its one link
  /// when left empty.
  std::vector<int> route = {};
};

/// Run-wide options.
struct SimOptions {
  long steps = 2000;             ///< number of RTT steps to simulate.
  double min_window_mss = 1.0;   ///< window floor (avoids x^-k singularities).
  double max_window_mss = 1e9;   ///< the paper's M (1 << M).
  /// Trace retention: kFull keeps every flow's series; kAggregate keeps
  /// per-step population statistics plus `tracked_senders` full series, so
  /// trace memory is independent of the population size.
  TraceDetail trace_detail = TraceDetail::kFull;
  int tracked_senders = 8;       ///< k for kAggregate (clamped to n).
  /// Shard count for the materialized layout's elementwise passes: >0
  /// explicit, 0 = resolve_jobs (AXIOMCC_JOBS / hardware). Traces are
  /// identical at any value; this is purely a throughput knob.
  long jobs = 1;
  /// Non-owning flight-recorder sink (null = no recording): churn,
  /// schedule and loss transitions plus stride-sampled windows.
  recorder::Recorder* record_sink = nullptr;
  /// Non-owning streaming-metric scope (null = no scope). Observes every
  /// cohort as a scope class and, on networks built link by link, every
  /// link. When `record_sink` is also installed, closed metric windows are
  /// forwarded to it as kMetric events.
  scope::MetricScope* scope_sink = nullptr;
};
using NetworkOptions = SimOptions;

class FluidNetwork {
 public:
  using Options = SimOptions;
  using FlowSpec = SenderSpec;
  /// Per-step observer, called at the end of each step (after the step is
  /// recorded) with that step's index, the per-flow windows the protocols
  /// just chose for the NEXT step, the step RTT, and the congestion-loss
  /// rate. Returning false stops the run early (the trace keeps the steps
  /// recorded so far) — the hook the guarded stress runner uses to catch
  /// divergence (NaN, blowup) before the links' preconditions explode on it.
  using StepMonitor = std::function<bool(
      long step, std::span<const double> windows, double rtt_seconds,
      double congestion_loss)>;

  /// An empty network; add links, then flows.
  explicit FluidNetwork(Options options = {});
  /// The paper's single-link model: one link (id 0) that IS the run, so a
  /// scope sees it through its run channels and gets no per-link channels.
  FluidNetwork(const LinkParams& link, Options options);

  /// Adds a link; returns its id.
  int add_link(const LinkParams& params);

  /// Adds a flow with the given route (ordered link ids); returns its id.
  int add_flow(std::unique_ptr<cc::Protocol> protocol,
               std::vector<int> route, double initial_window_mss = 1.0);
  /// Adds a flow with full control; returns its id.
  int add_flow(FlowSpec spec);
  /// Adds a cohort of `count` flows sharing one spec; returns the first
  /// flow's id (the cohort's ids are consecutive). The cohort keeps ONE
  /// prototype whatever the count — kernel cohorts run without per-flow
  /// clones, and the representative layout advances one slot per cohort —
  /// so a million-flow population costs O(1) protocol allocations.
  int add_flows(FlowSpec spec, long count);

  /// Injected (non-congestion) loss, composed into every active flow's
  /// observed loss. Default: none.
  void set_loss_injector(std::unique_ptr<LossInjector> injector);
  /// Network-wide multiplicative schedules: every link's bandwidth (or
  /// propagation delay) is scaled by the returned factor at each step.
  /// Scaling the delay Θ also scales the capacity C = B·2Θ, as it does
  /// physically.
  void set_bandwidth_schedule(std::function<double(long)> scale);
  void set_rtt_schedule(std::function<double(long)> scale);
  void set_step_monitor(StepMonitor monitor);

  [[nodiscard]] int num_links() const {
    return static_cast<int>(links_.size());
  }
  [[nodiscard]] int num_flows() const { return static_cast<int>(num_flows_); }

  [[nodiscard]] const FluidLink& link(int id) const;
  [[nodiscard]] const Options& options() const { return options_; }

  /// Runs the dynamics and returns the per-flow trace; may be called once.
  /// The Trace's "congestion loss" series records the MAXIMUM per-link
  /// loss each step (the binding bottleneck) and its RTT series the mean
  /// route RTT over active flows (exactly the common value when all are
  /// equal); its capacity is the MINIMUM link capacity on any route, and
  /// its min-RTT the smallest route RTT.
  [[nodiscard]] Trace run();

  /// Per-link MEAN utilization of the last run (diagnostics): the average of
  /// min(1, arrivals/capacity) over EVERY executed step — the full horizon,
  /// no tail window is applied. When a step monitor stops the run early,
  /// the mean covers only the steps actually run.
  [[nodiscard]] const std::vector<double>& link_mean_utilization() const {
    return link_mean_utilization_;
  }

 private:
  /// `count` consecutive flows from `begin` sharing one spec.
  struct Cohort {
    FlowSpec spec;
    long begin = 0;
    long count = 1;
  };
  struct RunContext;

  /// The tick loop over slots: one per flow, or one per cohort when
  /// `representative`.
  void tick_loop(RunContext& ctx, bool representative);

  Options options_;
  std::vector<FluidLink> links_;
  std::vector<Cohort> cohorts_;
  long num_flows_ = 0;
  bool link_channels_ = true;
  std::unique_ptr<LossInjector> injector_;
  std::function<double(long)> bandwidth_scale_;
  std::function<double(long)> rtt_scale_;
  StepMonitor step_monitor_;
  std::vector<double> link_mean_utilization_;
  bool ran_ = false;
};

/// Builds the k-bottleneck parking lot: one long flow over links 0..k−1 and
/// one short flow per link, all running clones of `prototype`. Flow 0 is the
/// long flow. All links share the same parameters.
struct ParkingLot {
  FluidNetwork network;
  int long_flow = 0;
  std::vector<int> short_flows;
};
[[nodiscard]] ParkingLot make_parking_lot(const LinkParams& per_link,
                                          int bottlenecks,
                                          const cc::Protocol& prototype,
                                          FluidNetwork::Options options = {});

}  // namespace axiomcc::fluid
