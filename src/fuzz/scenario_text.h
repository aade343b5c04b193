// scenario_text.h — the fuzzer's data-level scenario and its text format.
//
// engine::ScenarioSpec carries std::functions (schedules, loss factories),
// which cannot be mutated structurally or written to disk. ScenarioDesc is
// the pure-data mirror the fuzzer operates on: every axis is a value
// (piecewise-constant schedules, a tagged loss descriptor, protocol spec
// strings), so a scenario can be serialized to a deterministic one-per-file
// text format, parsed back exactly, mutated field-by-field, and compiled
// down to a ScenarioSpec for either backend. The contract the corpus relies
// on: serialize(parse(text)) == text for any text serialize produced
// (byte-identical round-trip — doubles are printed in shortest exact form).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cc/protocol.h"
#include "engine/scenario.h"

namespace axiomcc::fuzz {

/// One breakpoint of a piecewise-constant schedule: `scale` applies from
/// step `at` (inclusive) until the next breakpoint. Steps before the first
/// breakpoint scale by 1.
struct SchedulePoint {
  long at = 0;
  double scale = 1.0;

  friend bool operator==(const SchedulePoint&, const SchedulePoint&) = default;
};

/// A piecewise-constant step schedule. Breakpoints are kept sorted with
/// strictly increasing `at`; the parser rejects out-of-order or duplicate
/// timestamps. Empty means "no schedule" (identity).
struct ScheduleDesc {
  std::vector<SchedulePoint> points;

  [[nodiscard]] bool empty() const { return points.empty(); }

  /// The scale at `step` (1 before the first breakpoint).
  [[nodiscard]] double eval(long step) const;

  friend bool operator==(const ScheduleDesc&, const ScheduleDesc&) = default;
};

/// Tagged non-congestion loss descriptor (mirrors fluid/loss_model.h plus
/// the gauntlet's windowed storm).
struct LossDesc {
  enum class Kind : int {
    kNone = 0,
    kConstant,        ///< rate
    kBernoulli,       ///< prob, rate
    kGilbertElliott,  ///< p_good_to_bad, p_bad_to_good, good_rate, bad_rate
    kStorm,  ///< window [start, end) + the four Gilbert-Elliott parameters
  };

  Kind kind = Kind::kNone;
  double rate = 0.0;       ///< kConstant / kBernoulli episode rate.
  double prob = 0.0;       ///< kBernoulli episode probability.
  double p_gb = 0.0;       ///< Gilbert-Elliott / storm transition.
  double p_bg = 0.0;
  double good_rate = 0.0;
  double bad_rate = 0.0;
  long start = 0;          ///< storm window.
  long end = 0;

  friend bool operator==(const LossDesc&, const LossDesc&) = default;
};

/// One sender slot, with the protocol as a cc::make_protocol spec string.
/// `count` > 1 makes the slot a homogeneous cohort (engine::SenderSlot's
/// cohort expansion — the fluid backend keeps it as one cohort, the
/// packet backend adds `count` flows).
struct SenderDesc {
  std::string protocol = "reno";
  double initial_window_mss = 1.0;
  double start_step = 0.0;
  double stop_step = -1.0;  ///< negative: stays until the end of the run.
  long count = 1;

  friend bool operator==(const SenderDesc&, const SenderDesc&) = default;
};

/// Workload-generator axis (mirrors engine::WorkloadSpec). Non-none kinds
/// expand every sender slot into generated flows seeded from the scenario
/// seed before the run (see engine::expand_workload).
struct WorkloadDesc {
  enum class Kind : int {
    kNone = 0,
    kIncast,  ///< flows copies per slot, arrivals spread over spread_steps.
    kOnOff,   ///< flows on-off trains per slot: bounded-Pareto on, exp off.
  };

  Kind kind = Kind::kNone;
  long flows = 8;
  double spread_steps = 32.0;   ///< incast arrival spread.
  double mean_on_steps = 60.0;  ///< on-off mean burst length.
  double mean_off_steps = 60.0;
  double alpha = 1.5;  ///< Pareto shape for on-period lengths.

  [[nodiscard]] bool empty() const { return kind == Kind::kNone; }

  friend bool operator==(const WorkloadDesc&, const WorkloadDesc&) = default;
};

/// A finding classification carried by triaged corpus entries: replaying
/// the scenario must reproduce this outcome, so a behavior change surfaces
/// as a test failure instead of silently passing.
struct ExpectDesc {
  std::string outcome;  ///< OutcomeKind name, e.g. "divergence"; "" = unset.
  std::string detail;   ///< fault kind name for fault outcomes; "" = any.

  [[nodiscard]] bool empty() const { return outcome.empty(); }

  friend bool operator==(const ExpectDesc&, const ExpectDesc&) = default;
};

/// Everything a fuzz input describes. Defaults are the paper's standard
/// link with one Reno sender — the smallest valid scenario.
struct ScenarioDesc {
  double bandwidth_mbps = 30.0;
  double rtt_ms = 42.0;
  double buffer_mss = 100.0;
  long steps = 400;
  double min_window_mss = 1.0;
  double max_window_mss = 1e9;
  double tail_fraction = 0.5;
  std::uint64_t seed = 42;
  /// Execution axes: an aggregate trace (per-step population statistics
  /// plus tracked series), which moves fluid runs onto the uniform-cohort
  /// loop and is byte-identity-preserving by contract, so it changes which
  /// code runs, never the expected outcome class. `batch` (`exec batch`)
  /// selects nothing: every fluid run takes the cohort engine. It stays a
  /// mutation, minimizer and novelty axis so the fuzzer's draws, corpus
  /// text and coverage keys are unchanged, and because the benchmark's
  /// workload code (perfbench/driver/) reads it.
  bool aggregate_trace = false;
  bool batch = false;
  /// 0 = the classic single shared link (`link` directive only). k >= 1
  /// compiles to a k-bottleneck parking lot (`link` replicated per hop):
  /// sender slot 0 routes over every bottleneck, slot i >= 1 crosses
  /// bottleneck (i-1) mod k. Routes are derived, not stored, so the text
  /// format stays one scalar axis the mutator can walk.
  int topology_bottlenecks = 0;
  WorkloadDesc workload;
  std::vector<SenderDesc> senders{SenderDesc{}};
  LossDesc loss;
  ScheduleDesc bandwidth_scale;
  ScheduleDesc rtt_scale;
  ExpectDesc expect;

  friend bool operator==(const ScenarioDesc&, const ScenarioDesc&) = default;
};

/// Renders `v` in the shortest "%.Ng" form that strtod parses back to
/// exactly `v` — what makes the scenario round-trip byte-identical.
[[nodiscard]] std::string format_double(double v);

/// Serializes `desc` in the canonical field order. Output always ends with
/// a newline; the first line is the format header ("axiomcc-scenario v1").
[[nodiscard]] std::string serialize_scenario(const ScenarioDesc& desc);

/// Parses a scenario file. Throws std::invalid_argument on a missing or
/// wrong header, an unknown directive, a malformed or non-finite number,
/// out-of-order or duplicate schedule timestamps, a scenario with no
/// senders, or domain violations (non-positive link parameters or steps,
/// loss rates outside [0, 1), tail fraction outside (0, 1]).
[[nodiscard]] ScenarioDesc parse_scenario(const std::string& text);

/// Validates the domain constraints parse_scenario enforces (mutators call
/// this on freshly generated descs). Throws std::invalid_argument.
void validate_scenario(const ScenarioDesc& desc);

/// A ScenarioSpec plus the protocol prototypes it points into. Movable, not
/// copyable: the spec's sender slots hold raw pointers to the prototypes.
struct CompiledScenario {
  std::vector<std::unique_ptr<cc::Protocol>> prototypes;
  engine::ScenarioSpec spec;
};

/// Compiles `desc` into a runnable spec: builds each sender's protocol via
/// cc::make_protocol, turns the schedule descs into StepSchedules and the
/// loss desc into a LossFactory. Throws std::invalid_argument on an invalid
/// protocol spec or domain violation (validate_scenario is applied first).
[[nodiscard]] CompiledScenario compile_scenario(const ScenarioDesc& desc);

}  // namespace axiomcc::fuzz
