// emulab_grid — the paper's §5.1 grid (Reno, CUBIC, Scalable; homogeneous
// and mixed-with-Reno runs) on the packet backend.
//
// Timed pass: exp::run_emulab_grid over the 8-cell grid at jobs=2, then
// exp::check_hierarchies on every cell. Its packet events are counted by an
// isolated replay of the grid's 48 scenarios on sim::DumbbellExperiment.
//
// Traced run: each scenario once through engine::PacketBackend and once
// straight into sim::DumbbellExperiment (whose trace must match the
// engine's byte for byte), with the core estimators on the engine's trace.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "cc/presets.h"
#include "core/metrics.h"
#include "engine/backend.h"
#include "exp/emulab.h"
#include "fluid/link.h"
#include "sim/dumbbell.h"
#include "util/task_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace axiomcc;

constexpr long kJobs = 2;
constexpr int kProtocols = 3;  // Reno, CUBIC, Scalable: run_emulab_grid's order

/// One packet run of the grid, rebuilt from the grid's public recipe.
struct Scenario {
  std::size_t cell = 0;
  bool mixed = false;  ///< (n−1) protocol senders + 1 Reno.
  engine::ScenarioSpec spec;
};

struct Inputs {
  exp::EmulabGridConfig grid;
  std::vector<std::unique_ptr<cc::Protocol>> protocols;  ///< prototypes.
  std::vector<Scenario> scenarios;
  std::size_t cells = 0;
};

Inputs setup(const Config& config) {
  Inputs in;
  in.grid.sender_counts = {2, 4};
  in.grid.bandwidths_mbps = {20.0, 60.0};
  in.grid.buffers_packets = {10, 100};
  in.grid.duration_seconds = 30.0;
  if (config.tiny) {
    in.grid.sender_counts = {2};
    in.grid.bandwidths_mbps = {20.0};
    in.grid.buffers_packets = {10};
    in.grid.duration_seconds = 2.0;
  }
  in.grid.jobs = kJobs;
  in.grid.seed = derived_seed(config.seed, 0);

  in.protocols.push_back(cc::presets::reno());
  in.protocols.push_back(cc::presets::cubic_linux());
  in.protocols.push_back(cc::presets::scalable());
  const cc::Protocol& reno = *in.protocols[0];

  const exp::EmulabGridConfig& g = in.grid;
  const double step_s = g.rtt_ms / 1e3;
  const auto stagger = [&](int i) { return 0.05 * i / step_s; };
  // Cells in run_emulab_grid's order: n outermost, buffer innermost.
  for (const int n : g.sender_counts) {
    for (const double bw : g.bandwidths_mbps) {
      for (const std::size_t buffer : g.buffers_packets) {
        engine::ScenarioSpec base;
        base.link = fluid::make_link_mbps(bw, g.rtt_ms,
                                          static_cast<double>(buffer));
        base.steps = std::lround(g.duration_seconds / step_s);
        base.seed = g.seed;
        base.tail_fraction = g.tail_fraction;
        const double capacity = fluid::FluidLink(base.link).capacity_mss();
        for (const auto& proto : in.protocols) {
          Scenario homog{in.cells, false, base};
          for (int i = 0; i < n; ++i) {
            homog.spec.add_sender(
                *proto,
                std::max(2.0, capacity * i / (2.0 * static_cast<double>(n))),
                stagger(i));
          }
          Scenario mixed{in.cells, true, base};
          for (int i = 0; i + 1 < n; ++i) {
            mixed.spec.add_sender(*proto, 2.0, stagger(i));
          }
          mixed.spec.add_sender(reno, 2.0, stagger(n - 1));
          in.scenarios.push_back(std::move(homog));
          in.scenarios.push_back(std::move(mixed));
        }
        ++in.cells;
      }
    }
  }
  return in;
}

struct GridPass {
  PassOutput out;
  long matching = 0;
  long checked = 0;
};

/// One timed pass: the grid, then the hierarchy check on every cell. One
/// operation per (cell, protocol) score tuple; the cell's verdicts are part
/// of each of its tuples' digests.
GridPass grid_pass(const Inputs& in, SpanLog* log) {
  GridPass pass;
  try {
    std::vector<exp::EmulabCell> cells;
    {
      ScopedSpan span(log, "exp.run_emulab_grid");
      cells = exp::run_emulab_grid(in.grid);
    }
    ScopedSpan span(log, "exp.check_hierarchies");
    for (const exp::EmulabCell& cell : cells) {
      Digest verdicts;
      for (const exp::HierarchyVerdict& v : exp::check_hierarchies(cell)) {
        verdicts.u64(v.matches ? 1 : 0);
        verdicts.text(v.measured_order);
        ++pass.checked;
        if (v.matches) ++pass.matching;
      }
      for (const exp::EmulabScores& s : cell.protocols) {
        Digest d;
        d.u64(verdicts.value());
        d.text(s.protocol);
        for (const double v : {s.efficiency, s.loss_rate, s.fairness,
                               s.convergence, s.tcp_friendliness}) {
          d.f64(v);
        }
        const bool ok = in_domain(s.efficiency, 0.0, 1.0) &&
                        in_domain(s.loss_rate, 0.0, 1.0) &&
                        in_domain(s.fairness, 0.0, 1.0) &&
                        in_domain(s.convergence, 0.0, 1.0) &&
                        in_domain(s.tcp_friendliness, 0.0, 1e9);
        pass.out.ops.push_back(OpResult{d.value(), !ok});
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "emulab_grid: pass failed: %s\n", e.what());
    pass.out.ops.assign(in.cells * kProtocols, OpResult{0, true});
  }
  return pass;
}

struct SimReplay {
  std::uint64_t digest = 0;
  std::size_t events = 0;
  std::uint64_t allocations = 0;
  std::size_t steps = 0;
};

/// The scenario straight into the packet simulator, built the way
/// engine::PacketBackend builds a single-link scenario. The "sim.run" span
/// covers construction and the run, not the digest.
SimReplay replay_on_sim(const engine::ScenarioSpec& spec, SpanLog* log) {
  sim::DumbbellConfig dc = sim::dumbbell_config_from_link(spec.link);
  const double step_s = dc.rtt_ms / 1e3;
  dc.duration_seconds = step_s * static_cast<double>(spec.steps);
  dc.seed = spec.seed;
  dc.tail_fraction = spec.tail_fraction;
  dc.max_window_mss = std::min(spec.max_window_mss,
                               engine::PacketBackend::Options{}.max_window_mss);
  SimReplay r;
  std::optional<ScopedSpan> span(std::in_place, log, "sim.run");
  const std::uint64_t allocs_before = thread_allocations();
  sim::DumbbellExperiment experiment(dc);
  for (const engine::SenderSlot& slot : spec.senders) {
    experiment.add_flow(slot.prototype->clone(), slot.start_step * step_s,
                        std::clamp(slot.initial_window_mss, 1.0,
                                   dc.max_window_mss));
  }
  experiment.run();
  r.allocations = thread_allocations() - allocs_before;
  span.reset();
  r.events = experiment.simulator().events_processed();
  r.steps = experiment.trace().num_steps();
  r.digest = trace_digest(experiment.trace());
  return r;
}

bool short_trace(const engine::ScenarioSpec& spec, std::size_t steps) {
  return steps != static_cast<std::size_t>(spec.steps);
}

Outcome timed(const Config& config) {
  Inputs in;
  SetupSampler sampler([&] { in = setup(config); });
  sampler.sample(0.02);
  Tally tally;
  long matching = 0;
  long checked = 0;
  const PassTimes times = timed_passes(
      config.seconds, 3, tally,
      [&] {
        GridPass p = grid_pass(in, nullptr);
        matching = p.matching;
        checked = p.checked;
        return std::move(p.out);
      },
      [&] { sampler.sample(0.02); });
  const double rss = peak_rss_mib();

  // Work of one pass: the packet events of its scenarios.
  const auto replays = parallel_map(
      in.scenarios,
      [](const Scenario& s) {
        try {
          return replay_on_sim(s.spec, nullptr);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "emulab_grid: replay failed: %s\n", e.what());
          return SimReplay{};
        }
      },
      kJobs);
  double events = 0.0;
  for (std::size_t i = 0; i < replays.size(); ++i) {
    events += static_cast<double>(replays[i].events);
    tally.add_op(replays[i].events == 0 ||
                 short_trace(in.scenarios[i].spec, replays[i].steps));
  }

  Outcome o;
  o.attempted = tally.attempted();
  o.failed = tally.failed();
  o.notes.push_back(pass_note(times));
  o.metrics = end_to_end(sampler.median_seconds(), times, events, rss);
  const double wall = axiomcc::median_of(times.seconds);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "emulab_grid: %zu cells x %d protocols, jobs=%ld, %zu timed "
                "passes, digest %016llx",
                in.cells, kProtocols, kJobs, times.seconds.size(),
                static_cast<unsigned long long>(tally.reference_digest()));
  o.notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf,
                "ops_per_s counts packet events: packet_events_per_s = %s "
                "(%.0f events per pass)",
                full_digits(events / wall).c_str(), events);
  o.notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf,
                "theory_agreement = %ld / %ld = %s (exp::check_hierarchies)",
                matching, checked,
                full_digits(checked > 0 ? static_cast<double>(matching) /
                                              static_cast<double>(checked)
                                        : 0.0)
                    .c_str());
  o.notes.emplace_back(buf);
  return o;
}

Outcome traced(const Config& config) {
  SpanLog log;
  Inputs in;
  {
    ScopedSpan span(&log, "setup");
    in = setup(config);
  }
  Tally tally;
  double overhead = 0.0;
  const GridPass traced_pass =
      overhead_passes(config.seconds, log, tally, overhead,
                      [&](SpanLog* l) { return grid_pass(in, l); });

  // Isolated replays, serial, one "exp.cell" span per grid cell.
  const engine::SimBackend& packet =
      engine::backend_for(engine::BackendKind::kPacket);
  double events = 0.0;
  double allocations = 0.0;
  double estimator_steps = 0.0;
  {
    ScopedSpan replay_span(&log, "replay");
    std::size_t i = 0;
    while (i < in.scenarios.size()) {
      const std::size_t cell = in.scenarios[i].cell;
      ScopedSpan cell_span(&log, "exp.cell");
      for (; i < in.scenarios.size() && in.scenarios[i].cell == cell; ++i) {
        const Scenario& s = in.scenarios[i];
        bool failed = false;
        try {
          double seconds = 0.0;
          const engine::RunTrace rt = timed_call(
              &log, "engine.packet.run", seconds,
              [&] { return packet.run(s.spec); });
          const SimReplay r = replay_on_sim(s.spec, &log);
          events += static_cast<double>(r.events);
          allocations += static_cast<double>(r.allocations);
          failed = r.digest != trace_digest(rt.trace) ||
                   short_trace(s.spec, rt.trace.num_steps());

          ScopedSpan span(&log, "core.measure");
          core::EstimatorConfig est{in.grid.tail_fraction};
          const auto steps = static_cast<double>(rt.trace.num_steps());
          if (s.mixed) {
            const int n = rt.trace.num_senders();
            std::vector<int> p(static_cast<std::size_t>(n - 1));
            for (int k = 0; k + 1 < n; ++k) p[static_cast<std::size_t>(k)] = k;
            const int q[] = {n - 1};
            failed |= !in_domain(core::measure_friendliness(rt.trace, p, q, est),
                                 0.0, 1e9);
            estimator_steps += steps;
          } else {
            est.outlier_fraction = 0.02;
            for (const double v : {core::measure_efficiency(rt.trace, est),
                                   core::measure_fairness(rt.trace, est),
                                   core::measure_convergence(rt.trace, est)}) {
              failed |= !in_domain(v, 0.0, 1.0);
            }
            estimator_steps += 3.0 * steps;
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "emulab_grid: replay failed: %s\n", e.what());
          failed = true;
        }
        tally.add_op(failed);
      }
    }
  }

  // Straggler: the slowest cell's engine + estimator time over the mean.
  std::vector<double> cell_work;
  const auto& spans = log.spans();
  for (std::size_t c = 0; c < spans.size(); ++c) {
    if (spans[c].name != "exp.cell") continue;
    double work = 0.0;
    for (const Span& s : spans) {
      if (s.parent == static_cast<int>(c) &&
          (s.name == "engine.packet.run" || s.name == "core.measure")) {
        work += s.duration();
      }
    }
    cell_work.push_back(work);
  }
  double mean_cell = 0.0;
  for (const double w : cell_work) mean_cell += w;
  mean_cell /= static_cast<double>(std::max<std::size_t>(cell_work.size(), 1));
  const double slowest =
      cell_work.empty() ? 0.0
                        : *std::max_element(cell_work.begin(), cell_work.end());

  const auto engine_t = log.totals("engine.packet.run");
  const auto sim_t = log.totals("sim.run");
  const auto core_t = log.totals("core.measure");
  Outcome o;
  o.attempted = tally.attempted();
  o.failed = tally.failed();
  o.metrics = collect(
      per_layer_metrics(),
      {{"sim.events", events},
       {"sim.ns_per_event", events > 0 ? 1e9 * sim_t.self_s / events : 0.0},
       {"sim.allocs_per_event", events > 0 ? allocations / events : 0.0},
       {"sim.share",
        engine_t.total_s > 0 ? sim_t.total_s / engine_t.total_s : 0.0},
       {"core.estimator_ns_per_step",
        estimator_steps > 0 ? 1e9 * core_t.self_s / estimator_steps : 0.0},
       {"core.share", core_t.total_s / (core_t.total_s + engine_t.total_s)},
       {"engine.packet.us_per_run",
        engine_t.count > 0 ? 1e6 * engine_t.total_s /
                                 static_cast<double>(engine_t.count)
                           : 0.0},
       {"exp.straggler_ratio", mean_cell > 0 ? slowest / mean_cell : 0.0},
       {"exp.theory_agreement",
        traced_pass.checked > 0
            ? static_cast<double>(traced_pass.matching) /
                  static_cast<double>(traced_pass.checked)
            : 0.0},
       {"trace.overhead_frac", overhead}});
  o.notes.push_back("emulab_grid traced: " + std::to_string(in.scenarios.size()) +
                    " scenarios replayed on engine::PacketBackend and "
                    "sim::DumbbellExperiment");
  write_spans(config, log);
  return o;
}

}  // namespace

Outcome run_emulab_grid(const Config& config) {
  return config.trace ? traced(config) : timed(config);
}

}  // namespace perfbench
