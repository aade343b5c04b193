// scenario.h — a backend-neutral description of one simulation run.
//
// The repository has two simulators of the same physical situation: the
// paper's discrete-time fluid model (src/fluid, fluid::FluidNetwork, 1 step
// = 1 RTT) and a packet-level discrete-event network (src/sim,
// sim::MultiHopNetwork). Each backend runs every scenario, single-link or
// routed, on its one network substrate. A
// ScenarioSpec captures everything both need — the link or topology, the
// senders, the horizon, injected loss, perturbation schedules, and a seed —
// in the fluid model's units (steps, MSS), and a SimBackend (backend.h)
// turns it into a run. The packet backend converts steps to wall-clock time
// via the smallest route RTT (the link RTT for a single-link spec).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cc/protocol.h"
#include "fluid/link.h"
#include "fluid/loss_model.h"
#include "fluid/trace.h"
#include "recorder/recorder.h"
#include "scope/scope.h"
#include "sim/network.h"
#include "util/check.h"

namespace axiomcc::engine {

/// Which simulator executes a ScenarioSpec.
enum class BackendKind { kFluid, kPacket };

[[nodiscard]] constexpr const char* backend_name(BackendKind kind) {
  return kind == BackendKind::kFluid ? "fluid" : "packet";
}

/// Parses a backend name ("fluid" or "packet"); throws std::invalid_argument
/// with the accepted values on anything else.
[[nodiscard]] inline BackendKind parse_backend(std::string_view name) {
  if (name == "fluid") return BackendKind::kFluid;
  if (name == "packet") return BackendKind::kPacket;
  throw std::invalid_argument("unknown backend '" + std::string(name) +
                              "' (expected fluid|packet)");
}

/// Typed error for an invalid ScenarioSpec (bad routes, topology/field
/// mismatches). Thrown by engine::validate_scenario (topology.h) and by the
/// backends before executing a topology scenario, so callers can distinguish
/// a malformed spec from a programming-contract violation.
class ScenarioError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// A multi-bottleneck topology: links addressed by index, traversed by the
/// per-slot routes below. Empty (the default) selects the degenerate
/// single-link mode in which `ScenarioSpec::link` is the whole network and
/// routes must stay empty — every pre-topology caller is in this mode and
/// produces byte-identical traces. Builders for the standard shapes
/// (dumbbell, parking lot, leaf-spine fat-tree with ECMP) live in
/// engine/topology.h.
struct TopologySpec {
  std::vector<fluid::LinkParams> links;

  [[nodiscard]] bool empty() const { return links.empty(); }
  [[nodiscard]] int num_links() const {
    return static_cast<int>(links.size());
  }
};

/// Workload generators: expand the sender slots into a concrete arrival
/// pattern, deterministically seeded from the scenario seed (both backends
/// run the SAME expansion, so the generated churn is backend-neutral).
enum class WorkloadKind {
  kNone,            ///< slots run exactly as written (the default).
  kIncast,          ///< fan-in: each slot becomes `flows` arrivals spread
                    ///< uniformly over [start, start + spread_steps).
  kOnOffHeavyTail,  ///< each slot becomes `flows` on-off sources with
                    ///< bounded-Pareto on-periods and exponential off-gaps.
};

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kNone;
  /// Generated flows per template slot.
  long flows = 8;
  /// Incast: arrival spread in steps (uniform over [0, spread)).
  double spread_steps = 32.0;
  /// On-off: mean on/off durations in steps. On-periods draw from a bounded
  /// Pareto with shape `alpha` (heavy-tailed flow sizes); off-gaps are
  /// exponential.
  double mean_on_steps = 60.0;
  double mean_off_steps = 60.0;
  double alpha = 1.5;

  [[nodiscard]] bool empty() const { return kind == WorkloadKind::kNone; }
};

/// One sender slot. The protocol prototype is NOT owned — it must outlive
/// the backend run, which clones it (so one prototype can seed many slots,
/// exactly like fluid::FluidSimulation::add_sender).
///
/// `start_step`/`stop_step` are fractional steps: the fluid backend rounds
/// them to whole steps, the packet backend multiplies by the RTT to get a
/// wall-clock time (sub-step staggered starts, as the emulab grid uses).
/// A negative stop means "forever".
struct SenderSlot {
  const cc::Protocol* prototype = nullptr;
  double initial_window_mss = 1.0;
  double start_step = 0.0;
  double stop_step = -1.0;
  /// Senders this slot expands to (a homogeneous cohort sharing the
  /// prototype). On a single link the fluid backend keeps the cohort intact
  /// — one prototype, O(1) allocations; on a topology it adds `count`
  /// routed flows, as the packet backend does.
  long count = 1;
  /// Topology mode only: the ordered link ids this slot's flows traverse.
  /// Must be empty when `ScenarioSpec::topology` is empty (single-link
  /// mode), non-empty — with every id in range and no repeats — otherwise;
  /// engine::validate_scenario enforces this with a ScenarioError.
  std::vector<int> route;
};

/// Multiplicative perturbation schedule: scale factor as a function of the
/// step index (stress::StepSchedule has the same shape).
using StepSchedule = std::function<double(long)>;

/// Builds a loss injector from a seed. Scenarios carry a factory rather than
/// an injector instance so that each run (and each backend) gets a fresh,
/// independently seeded loss process.
using LossFactory =
    std::function<std::unique_ptr<fluid::LossInjector>(std::uint64_t seed)>;

/// Per-step observer with the same shape as fluid::FluidNetwork's
/// StepMonitor and sim::MultiHopNetwork's StepMonitorFn: called after each
/// recorded step with (step, windows, rtt_seconds, congestion_loss);
/// returning false ends the run early, keeping the steps recorded so far.
using StepMonitor = std::function<bool(
    long step, std::span<const double> windows, double rtt_seconds,
    double congestion_loss)>;

/// Everything a backend needs to execute one run.
struct ScenarioSpec {
  fluid::LinkParams link = fluid::make_link_mbps(30.0, 42.0, 100.0);
  /// Multi-bottleneck topology (empty = single-link mode over `link`). When
  /// non-empty, `link` is ignored and every sender slot must carry a route
  /// over `topology.links`; both backends execute the routed network
  /// (fluid::FluidNetwork / sim::MultiHopNetwork).
  TopologySpec topology;
  /// Workload generator applied to the sender slots before the backend runs
  /// them (kNone = slots run verbatim). Seeded from `seed`; see
  /// engine/workload.h.
  WorkloadSpec workload;
  long steps = 2000;
  /// Window floor/cap. The floor is honoured only by the fluid model (the
  /// packet sender's floor is 1 packet); the cap applies to both, though the
  /// packet backend may clamp it further (event count scales with cwnd).
  double min_window_mss = 1.0;
  double max_window_mss = 1e9;
  std::vector<SenderSlot> senders;
  /// Non-congestion loss (null = none). Called with `seed` at run time.
  LossFactory loss;
  /// Link perturbation schedules (null = constant 1).
  StepSchedule bandwidth_scale;
  StepSchedule rtt_scale;
  std::uint64_t seed = 42;
  StepMonitor step_monitor;
  /// Scoring-tail fraction for the packet backend's per-flow reports (the
  /// fluid model computes tails in the estimators instead, so it ignores
  /// this).
  double tail_fraction = 0.5;
  /// Trace retention: kAggregate keeps per-step population statistics plus
  /// `tracked_senders` full series instead of every sender's series (the
  /// packet backend reduces its full trace post-hoc).
  fluid::TraceDetail trace_detail = fluid::TraceDetail::kFull;
  int tracked_senders = 8;
  /// Selects nothing: every fluid run takes the cohort engine. The field
  /// stays because the benchmark's workload code (perfbench/driver/) sets
  /// and reads it; removing it waits for a change to the benchmark.
  bool batch = false;
  /// Fluid backend only: shard count for the cohort loops (0 = hardware).
  long jobs = 1;
  /// Flight-recorder capture options (event classes, ring depth, sample
  /// stride). `record.enabled` is the master switch; the sink below must
  /// also be installed for a backend to emit anything.
  recorder::RecordOptions record;
  /// Non-owning event sink for this run (one Recorder per run; emission
  /// happens from the serial sections of the backend loops). Callers build
  /// one with `make_recorder(spec)` and attach it here.
  recorder::Recorder* record_sink = nullptr;
  /// Streaming axiom-scope options (windowed online metric estimates; see
  /// scope/scope.h). `scope.enabled` is the master switch; the sink below
  /// must also be installed. Backends fill the link-derived normalization
  /// fields the caller left unset (capacity, min RTT, warmup, window cap).
  scope::ScopeConfig scope;
  /// Non-owning metric-scope sink for this run (one MetricScope per run,
  /// fed from the same serial sections as the recorder). Callers build one
  /// with `make_scope(spec)` and attach it here; when `record_sink` is also
  /// installed, the backend forwards closed windows to it as kMetric
  /// events.
  scope::MetricScope* scope_sink = nullptr;

  /// Convenience: appends a sender slot.
  void add_sender(const cc::Protocol& prototype, double initial_window_mss,
                  double start_step = 0.0, double stop_step = -1.0) {
    AXIOMCC_EXPECTS(initial_window_mss >= 0.0);
    AXIOMCC_EXPECTS(start_step >= 0.0);
    senders.push_back(
        SenderSlot{&prototype, initial_window_mss, start_step, stop_step, 1,
                   {}});
  }

  /// Convenience: appends a homogeneous cohort of `count` senders.
  void add_senders(const cc::Protocol& prototype, long count,
                   double initial_window_mss, double start_step = 0.0,
                   double stop_step = -1.0) {
    AXIOMCC_EXPECTS(count >= 1);
    AXIOMCC_EXPECTS(initial_window_mss >= 0.0);
    AXIOMCC_EXPECTS(start_step >= 0.0);
    senders.push_back(SenderSlot{&prototype, initial_window_mss, start_step,
                                 stop_step, count, {}});
  }

  /// Convenience: appends a sender slot routed over `route` (topology mode).
  void add_routed_sender(const cc::Protocol& prototype, std::vector<int> route,
                         double initial_window_mss = 1.0,
                         double start_step = 0.0, double stop_step = -1.0) {
    AXIOMCC_EXPECTS(initial_window_mss >= 0.0);
    AXIOMCC_EXPECTS(start_step >= 0.0);
    senders.push_back(SenderSlot{&prototype, initial_window_mss, start_step,
                                 stop_step, 1, std::move(route)});
  }

  /// Total senders across all slots (slots expand by their cohort count).
  [[nodiscard]] long total_senders() const {
    long total = 0;
    for (const SenderSlot& slot : senders) total += slot.count;
    return total;
  }
};

/// Builds the recorder a spec asks for, or null when recording is off (or
/// the capture path is compiled out). The caller owns the recorder and
/// attaches it: `auto rec = make_recorder(spec); spec.record_sink = rec.get();`
[[nodiscard]] inline std::unique_ptr<recorder::Recorder> make_recorder(
    const ScenarioSpec& spec) {
  if (!spec.record.enabled || !recorder::compiled_in()) return nullptr;
  recorder::RecordOptions options = spec.record;
  return std::make_unique<recorder::Recorder>(options);
}

/// Builds the metric scope a spec asks for, or null when the scope is off.
/// The caller owns the scope and attaches it:
///   `auto scope = make_scope(spec); spec.scope_sink = scope.get();`
[[nodiscard]] inline std::unique_ptr<scope::MetricScope> make_scope(
    const ScenarioSpec& spec) {
  if (!spec.scope.enabled) return nullptr;
  return std::make_unique<scope::MetricScope>(spec.scope);
}

/// What a backend run produces. The Trace is the common currency the metric
/// estimators in src/core consume; the packet backend additionally reports
/// per-flow tail summaries and the measured bottleneck utilization (the
/// fluid model has no per-packet counters, so those stay empty/-1 there).
struct RunTrace {
  fluid::Trace trace;
  BackendKind backend = BackendKind::kFluid;
  /// Packet backend only: per-flow tail-of-run reports (empty for fluid).
  std::vector<sim::FlowReport> flows;
  /// Packet backend only: delivered bits / capacity·duration (-1 for fluid).
  double bottleneck_utilization = -1.0;
};

}  // namespace axiomcc::engine
