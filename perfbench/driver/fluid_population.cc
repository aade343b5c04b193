// fluid_population — two fluid runs of one layer.
//
//  (a) 1M AIMD senders x 1k steps on the uniform-cohort path, with an
//      aggregate trace, a windowed MetricScope and a Recorder attached.
//  (b) Robust-AIMD under seeded BernoulliLoss (the paper's Metric VI
//      setting): the stateful injector forces the materialized batch path.
//
// Both go through engine::FluidBackend at jobs=4. The traced run adds
// differential runs of (a) (bare, scope only, recorder only) and an
// isolated replay of (a)'s aggregate trace into MetricScope.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>

#include "cc/registry.h"
#include "core/metrics.h"
#include "engine/backend.h"
#include "fluid/link.h"
#include "fluid/loss_model.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace axiomcc;

constexpr long kJobs = 4;

struct Inputs {
  std::unique_ptr<cc::Protocol> aimd;
  std::unique_ptr<cc::Protocol> robust;
  engine::ScenarioSpec uniform;  ///< (a), sinks attached per run.
  engine::ScenarioSpec lossy;    ///< (b).
};

Inputs setup(const Config& config) {
  const long uniform_n = config.tiny ? 1000 : 1000000;
  const long lossy_n = config.tiny ? 200 : 25000;
  const long steps = config.tiny ? 100 : 1000;
  // Per-sender bandwidth is held near 30 kbit/s, so the dynamics do not
  // depend on the population size.
  const auto population_link = [](long n, double per_sender_mbps) {
    return fluid::make_link_mbps(
        std::max(30.0, per_sender_mbps * static_cast<double>(n)), 42.0, 100.0);
  };

  Inputs in;
  in.aimd = cc::make_protocol("aimd(1,0.5)");
  in.robust = cc::make_protocol("robust_aimd(1,0.8,0.01)");

  engine::ScenarioSpec& a = in.uniform;
  a.link = population_link(uniform_n,
                           0.02 + 0.02 * derived_unit(config.seed, 1));
  a.steps = steps;
  a.add_senders(*in.aimd, uniform_n, 1.0 + 3.0 * derived_unit(config.seed, 2));
  a.trace_detail = fluid::TraceDetail::kAggregate;
  a.batch = true;
  a.jobs = kJobs;
  a.seed = derived_seed(config.seed, 3);
  a.scope.enabled = true;
  a.scope.window_steps = steps / 10;
  a.record.enabled = true;

  engine::ScenarioSpec& b = in.lossy;
  b.link = population_link(lossy_n,
                           0.02 + 0.02 * derived_unit(config.seed, 4));
  b.steps = steps;
  b.add_senders(*in.robust, lossy_n, 1.0 + 3.0 * derived_unit(config.seed, 5));
  b.trace_detail = fluid::TraceDetail::kAggregate;
  b.batch = true;
  b.jobs = kJobs;
  b.seed = derived_seed(config.seed, 6);
  b.loss = [](std::uint64_t seed) {
    return std::make_unique<fluid::BernoulliLoss>(0.2, 0.005, seed);
  };
  return in;
}

struct Sinks {
  bool scope = false;
  bool recorder = false;
};

struct FluidRun {
  engine::RunTrace rt;
  std::unique_ptr<scope::MetricScope> scope;
  std::unique_ptr<recorder::Recorder> recorder;
  double seconds = 0.0;
};

FluidRun run_fluid(const engine::ScenarioSpec& spec, Sinks sinks,
                   SpanLog* log, const char* span_name) {
  engine::ScenarioSpec s = spec;
  if (!sinks.scope) s.scope.enabled = false;
  if (!sinks.recorder) s.record.enabled = false;
  auto scope = engine::make_scope(s);
  auto rec = engine::make_recorder(s);
  s.scope_sink = scope.get();
  s.record_sink = rec.get();
  double seconds = 0.0;
  engine::RunTrace rt = timed_call(log, span_name, seconds, [&] {
    return engine::backend_for(engine::BackendKind::kFluid).run(s);
  });
  return FluidRun{std::move(rt), std::move(scope), std::move(rec), seconds};
}

/// Total events a recorder was handed (kept plus evicted).
double recorder_events(const recorder::Recorder* rec) {
  if (rec == nullptr) return 0.0;
  const recorder::Recording snap = rec->snapshot();
  return static_cast<double>(snap.events.size()) +
         static_cast<double>(snap.dropped);
}

/// The estimators that read an aggregate trace. Returns false on a NaN or
/// out-of-domain value.
bool measure(const fluid::Trace& trace, Digest& d, double& estimator_steps) {
  const core::EstimatorConfig est;
  const double eff = core::measure_efficiency(trace, est);
  const double loss = core::measure_loss_avoidance(trace, est);
  const double mean_loss = core::measure_mean_loss(trace, est);
  const double latency = core::measure_latency_avoidance(trace, est);
  for (const double v : {eff, loss, mean_loss, latency}) d.f64(v);
  estimator_steps += 4.0 * static_cast<double>(trace.num_steps());
  return in_domain(eff, 0.0, 1.0) && in_domain(loss, 0.0, 1.0) &&
         in_domain(mean_loss, 0.0, 1.0) && in_domain(latency, 0.0, 1e9);
}

struct FluidPass {
  PassOutput out;
  double engine_s = 0.0;
  double uniform_s = 0.0;  ///< (a) with scope and recorder.
  double lossy_s = 0.0;    ///< (b).
  double recorder_events = 0.0;
  double estimator_steps = 0.0;
};

/// One operation: one fluid run, its estimators and its output digest.
OpResult run_op(const engine::ScenarioSpec& spec, Sinks sinks, SpanLog* log,
                FluidPass& pass, double& seconds) {
  try {
    const FluidRun run = run_fluid(spec, sinks, log, "engine.fluid.run");
    seconds = run.seconds;
    pass.engine_s += run.seconds;
    const fluid::Trace& trace = run.rt.trace;
    pass.out.work += static_cast<double>(trace.num_steps()) *
                     static_cast<double>(trace.num_senders());
    Digest d;
    d.u64(trace_digest(trace));
    bool ok = trace.num_steps() == static_cast<std::size_t>(spec.steps);
    if (run.scope != nullptr) {
      for (const scope::Channel& c : run.scope->series().channels) {
        for (const scope::WindowSample& w : c.samples) {
          d.f64(w.value);
          ok &= std::isfinite(w.value);
        }
      }
    }
    const double events = recorder_events(run.recorder.get());
    pass.recorder_events += events;
    d.f64(events);
    ScopedSpan span(log, "core.measure");
    ok &= measure(trace, d, pass.estimator_steps);
    return OpResult{d.value(), !ok};
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fluid_population: run failed: %s\n", e.what());
    return OpResult{0, true};
  }
}

FluidPass fluid_pass(const Inputs& in, SpanLog* log) {
  FluidPass pass;
  pass.out.ops.push_back(
      run_op(in.uniform, Sinks{true, true}, log, pass, pass.uniform_s));
  pass.out.ops.push_back(
      run_op(in.lossy, Sinks{false, false}, log, pass, pass.lossy_s));
  return pass;
}

Outcome timed(const Config& config) {
  Inputs in;
  SetupSampler sampler([&] { in = setup(config); });
  sampler.sample(0.02);
  Tally tally;
  const PassTimes times = timed_passes(
      config.seconds, 3, tally, [&] { return fluid_pass(in, nullptr).out; },
      [&] { sampler.sample(0.02); });
  Outcome o;
  o.attempted = tally.attempted();
  o.failed = tally.failed();
  o.notes.push_back(pass_note(times));
  o.metrics =
      end_to_end(sampler.median_seconds(), times, times.work, peak_rss_mib());
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "fluid_population: (a) %ld AIMD senders + (b) %ld Robust-AIMD "
                "senders x %ld steps, jobs=%ld, %zu timed passes, digest "
                "%016llx",
                in.uniform.total_senders(), in.lossy.total_senders(),
                in.uniform.steps, kJobs, times.seconds.size(),
                static_cast<unsigned long long>(tally.reference_digest()));
  o.notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf,
                "ops_per_s counts sender-steps: sender_steps_per_s = %s "
                "(%.0f sender-steps per pass)",
                full_digits(times.work / axiomcc::median_of(times.seconds)).c_str(),
                times.work);
  o.notes.emplace_back(buf);
  return o;
}

/// Feeds (a)'s aggregate trace into a fresh MetricScope through its public
/// API, as the uniform path does: one counted observe per step. Returns the
/// number of sender windows observed.
double replay_scope(const engine::ScenarioSpec& spec, const fluid::Trace& trace,
                    SpanLog* log) {
  ScopedSpan span(log, "scope.replay");
  scope::MetricScope scope(spec.scope);
  const fluid::FluidLink link(spec.link);
  scope.resolve(spec.steps, spec.tail_fraction, link.capacity_mss(),
                link.min_rtt().value(), spec.max_window_mss);
  scope.begin_run(1, 0);
  double observed = 0.0;
  const auto total = trace.total_window();
  const auto rtt = trace.rtt_seconds();
  const auto loss = trace.congestion_loss();
  const auto mean = trace.window_mean();
  const auto active = trace.active_senders();
  for (std::size_t t = 0; t < trace.num_steps(); ++t) {
    scope.step_begin(static_cast<long>(t), total[t], rtt[t], loss[t]);
    if (active[t] > 0) {
      scope.observe_class(0, mean[t], loss[t], active[t]);
      observed += static_cast<double>(active[t]);
    }
    scope.step_end();
  }
  scope.finish();
  return observed;
}

/// Re-emits a run's recorded events into fresh Recorders through their
/// public API, for at least `budget_s` seconds. Returns the events emitted.
double replay_recorder(const recorder::Recorder& source,
                       const recorder::RecordOptions& options, double budget_s,
                       SpanLog* log) {
  const recorder::Recording recording = source.snapshot();
  if (recording.events.empty()) return 0.0;
  ScopedSpan span(log, "recorder.replay");
  double emitted = 0.0;
  while (emitted == 0.0 || span.elapsed() < budget_s) {
    recorder::Recorder rec(options);
    for (const recorder::Event& e : recording.events) rec.emit(e);
    emitted += static_cast<double>(recording.events.size());
  }
  return emitted;
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
  const FluidPass pass =
      overhead_passes(config.seconds, log, tally, overhead,
                      [&](SpanLog* l) { return fluid_pass(in, l); });

  // Differential runs of (a): the sinks attached one at a time.
  double bare_s = 0.0;
  double scope_s = 0.0;
  double recorder_s = 0.0;
  double replayed_events = 0.0;
  double observed = 0.0;
  {
    ScopedSpan span(&log, "differential");
    try {
      const FluidRun bare =
          run_fluid(in.uniform, Sinks{false, false}, &log, "fluid.uniform.bare");
      bare_s = bare.seconds;
      scope_s = run_fluid(in.uniform, Sinks{true, false}, &log,
                          "fluid.uniform.scope")
                    .seconds;
      const FluidRun rec = run_fluid(in.uniform, Sinks{false, true}, &log,
                                     "fluid.uniform.recorder");
      recorder_s = rec.seconds;
      replayed_events =
          replay_recorder(*rec.recorder, in.uniform.record, 0.05, &log);
      tally.add_op(trace_digest(bare.rt.trace) != trace_digest(rec.rt.trace));
      observed = replay_scope(in.uniform, bare.rt.trace, &log);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fluid_population: differential run failed: %s\n",
                   e.what());
      tally.add_op(true);
    }
  }

  const double uniform_steps = static_cast<double>(in.uniform.steps) *
                               static_cast<double>(in.uniform.total_senders());
  const double lossy_steps = static_cast<double>(in.lossy.steps) *
                             static_cast<double>(in.lossy.total_senders());
  const auto engine_t = log.totals("engine.fluid.run");
  const auto core_t = log.totals("core.measure");
  const auto scope_t = log.totals("scope.replay");
  Outcome o;
  o.attempted = tally.attempted();
  o.failed = tally.failed();
  o.metrics = collect(
      per_layer_metrics(),
      {{"fluid.sender_steps", pass.out.work},
       {"fluid.uniform.ns_per_sender_step", 1e9 * bare_s / uniform_steps},
       {"fluid.batch.ns_per_sender_step", 1e9 * pass.lossy_s / lossy_steps},
       {"scope.overhead_frac", bare_s > 0 ? scope_s / bare_s - 1.0 : 0.0},
       {"scope.ns_per_observe",
        observed > 0 ? 1e9 * scope_t.total_s / observed : 0.0},
       {"recorder.events", pass.recorder_events},
       {"recorder.overhead_frac",
        bare_s > 0 ? recorder_s / bare_s - 1.0 : 0.0},
       {"recorder.ns_per_event",
        replayed_events > 0
            ? 1e9 * log.totals("recorder.replay").total_s / replayed_events
            : 0.0},
       {"core.estimator_ns_per_step",
        pass.estimator_steps > 0
            ? 1e9 * core_t.total_s / pass.estimator_steps
            : 0.0},
       {"core.share", core_t.total_s / (core_t.total_s + engine_t.total_s)},
       {"engine.fluid.us_per_run",
        engine_t.count > 0
            ? 1e6 * engine_t.total_s / static_cast<double>(engine_t.count)
            : 0.0},
       {"trace.overhead_frac", overhead}});
  o.notes.emplace_back(
      "fluid_population traced: differential runs of (a) bare / scope only / "
      "recorder only, a MetricScope replay of its aggregate trace and a "
      "Recorder replay of its events");
  write_spans(config, log);
  return o;
}

}  // namespace

Outcome run_fluid_population(const Config& config) {
  return config.trace ? traced(config) : timed(config);
}

}  // namespace perfbench
