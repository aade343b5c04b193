// fluid_backend.cc — executes a ScenarioSpec on the fluid model.
//
// Every scenario runs on fluid::FluidNetwork through one construction
// sequence (options, links, flows in slot order, loss injector, schedules,
// monitor) that mirrors the direct fluid API, so a scenario run through this
// backend is bit-identical with the same scenario built against
// fluid::FluidSimulation or fluid::FluidNetwork by hand. A single-link spec
// is the one-link network with each sender slot one cohort routed over
// link 0; a topology spec flattens its slots to one routed flow per cohort
// member, so cohort ids line up with the packet backend's flow ids.
#include <cmath>
#include <utility>

#include "engine/backend.h"
#include "engine/topology.h"
#include "engine/workload.h"
#include "fluid/network.h"
#include "telemetry/telemetry.h"
#include "util/check.h"

namespace axiomcc::engine {

RunTrace FluidBackend::run(const ScenarioSpec& spec) const {
  AXIOMCC_EXPECTS_MSG(!spec.senders.empty(),
                      "scenario needs at least one sender");
  TELEMETRY_SPAN("engine", "fluid.run");

  validate_scenario(spec);
  const std::vector<SenderSlot> slots = expand_workload(spec);
  if (slots.empty()) {
    throw ScenarioError("workload expansion produced no senders");
  }
  // Resolve the scope's warmup from the scenario's tail fraction (the fluid
  // layer does not know it) and chain the recorder so closed windows emit as
  // kMetric events. Link-derived fields are filled by the fluid layer.
  if (spec.scope_sink != nullptr) {
    spec.scope_sink->resolve(spec.steps, spec.tail_fraction, 0.0, 0.0, 0.0);
    spec.scope_sink->set_recorder(spec.record_sink);
  }

  fluid::SimOptions options;
  options.steps = spec.steps;
  options.min_window_mss = spec.min_window_mss;
  options.max_window_mss = spec.max_window_mss;
  options.trace_detail = spec.trace_detail;
  options.tracked_senders = spec.tracked_senders;
  options.jobs = spec.jobs;
  options.record_sink = spec.record_sink;
  options.scope_sink = spec.scope_sink;

  const bool single_link = spec.topology.empty();
  fluid::FluidNetwork net = single_link
                                ? fluid::FluidNetwork(spec.link, options)
                                : fluid::FluidNetwork(options);
  for (const fluid::LinkParams& params : spec.topology.links) {
    net.add_link(params);
  }
  for (const SenderSlot& slot : slots) {
    AXIOMCC_EXPECTS(slot.prototype != nullptr);
    const auto flow = [&] {
      fluid::SenderSpec fs;
      fs.protocol = slot.prototype->clone();
      fs.initial_window_mss = slot.initial_window_mss;
      // Fractional slot steps (the packet backend's sub-step staggered
      // starts) round to the nearest whole fluid step.
      fs.start_step = std::lround(slot.start_step);
      fs.stop_step = slot.stop_step < 0.0 ? -1 : std::lround(slot.stop_step);
      fs.route = single_link ? std::vector<int>{0} : slot.route;
      return fs;
    };
    if (single_link) {
      // A slot is one cohort: count senders share the single clone.
      net.add_flows(flow(), slot.count);
    } else {
      for (long j = 0; j < slot.count; ++j) net.add_flow(flow());
    }
  }
  if (spec.loss) net.set_loss_injector(spec.loss(spec.seed));
  if (spec.bandwidth_scale) net.set_bandwidth_schedule(spec.bandwidth_scale);
  if (spec.rtt_scale) net.set_rtt_schedule(spec.rtt_scale);
  if (spec.step_monitor) net.set_step_monitor(spec.step_monitor);

  TELEMETRY_COUNT("engine.fluid_runs", 1);
  return RunTrace{net.run(), BackendKind::kFluid, {}, -1.0};
}

const SimBackend& backend_for(BackendKind kind) {
  static const FluidBackend fluid_backend;
  static const PacketBackend packet_backend;
  if (kind == BackendKind::kFluid) return fluid_backend;
  return packet_backend;
}

}  // namespace axiomcc::engine
