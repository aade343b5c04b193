// fuzz_campaign — fuzz::run_fuzz at a fixed seed and exec budget, jobs=4.
//
// Hundreds of tiny scenarios on both backends (parking lots, incast and
// on-off workloads included), so per-run fixed cost dominates: validation,
// workload expansion, simulator construction and .scn text.
//
// Traced run: the campaign once more under a span, then isolated replays
// over its final corpus: serialize/parse, fuzz::run_scenario (the guarded
// dual-backend oracle), each clean scenario on both engine backends with the
// core estimators, and fuzz::minimize_finding on every finding.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "engine/backend.h"
#include "fuzz/fuzzer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace axiomcc;

constexpr long kJobs = 4;

struct Inputs {
  fuzz::FuzzConfig fuzz;
  std::vector<fuzz::ScenarioDesc> seeds;
};

Inputs setup(const Config& config) {
  Inputs in;
  in.fuzz.runs = config.tiny ? 4 : 100;
  // The campaign is fixed: it does not follow the run's seed. A campaign's
  // cost depends on its seed by a factor of two to four (mutation lineages
  // reach very different packet-event counts), which no run length
  // averages out; reseeding only the seed corpus diverges just as far.
  in.fuzz.seed = 1;
  in.fuzz.jobs = kJobs;
  // The seed corpus, round-tripped through its text form as a campaign
  // loaded from disk would be.
  for (const fuzz::ScenarioDesc& desc : fuzz::Mutator::seed_corpus()) {
    in.seeds.push_back(fuzz::parse_scenario(fuzz::serialize_scenario(desc)));
  }
  if (config.tiny) in.seeds.resize(2);
  return in;
}

bool metrics_finite(const fuzz::TraceMetrics& m) {
  return std::isfinite(m.efficiency) && std::isfinite(m.mean_loss) &&
         std::isfinite(m.fairness) && std::isfinite(m.convergence) &&
         std::isfinite(m.latency);
}

std::uint64_t outcome_digest(const fuzz::RunOutcome& o) {
  Digest d;
  d.u64(static_cast<std::uint64_t>(o.kind));
  d.u64(o.novelty_key);
  d.f64(o.divergence);
  for (const fuzz::TraceMetrics* m : {&o.fluid, &o.packet}) {
    for (const double v : {m->efficiency, m->mean_loss, m->fairness,
                           m->convergence, m->latency}) {
      d.f64(v);
    }
    d.u64(static_cast<std::uint64_t>(m->steps));
  }
  d.u64(static_cast<std::uint64_t>(o.fluid_fault.kind));
  d.u64(static_cast<std::uint64_t>(o.packet_fault.kind));
  return d.value();
}

/// A clean outcome must carry finite metrics on both sides; a guarded
/// fault or a divergence is a reported output, not a failure.
bool outcome_failed(const fuzz::RunOutcome& o) {
  return o.kind == fuzz::OutcomeKind::kClean &&
         !(metrics_finite(o.fluid) && metrics_finite(o.packet));
}

struct CampaignPass {
  PassOutput out;
  fuzz::FuzzResult result;
};

/// One pass: the campaign. One operation per corpus entry and per finding,
/// plus one for the campaign's counters.
CampaignPass campaign_pass(const Inputs& in, SpanLog* log) {
  CampaignPass pass;
  try {
    {
      ScopedSpan span(log, "fuzz.run_fuzz");
      pass.result = fuzz::run_fuzz(in.fuzz, in.seeds);
    }
    const fuzz::FuzzResult& r = pass.result;
    for (const fuzz::CorpusEntry& e : r.corpus) {
      Digest d;
      d.text(fuzz::serialize_scenario(e.desc));
      d.u64(outcome_digest(e.outcome));
      pass.out.ops.push_back(OpResult{d.value(), outcome_failed(e.outcome)});
    }
    for (const fuzz::Finding& f : r.findings) {
      Digest d;
      d.text(fuzz::serialize_scenario(f.original));
      d.text(fuzz::serialize_scenario(f.minimized.desc));
      d.u64(outcome_digest(f.minimized.outcome));
      pass.out.ops.push_back(OpResult{d.value(), false});
    }
    Digest d;
    for (const long v : {r.stats.executed, r.stats.retained,
                         r.stats.raw_findings, r.stats.findings,
                         r.stats.minimize_attempts}) {
      d.u64(static_cast<std::uint64_t>(v));
    }
    pass.out.ops.push_back(OpResult{d.value(), r.stats.executed <= 0});
    pass.out.work = static_cast<double>(r.stats.executed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz_campaign: pass failed: %s\n", e.what());
    pass.out.ops.assign(1, OpResult{0, true});
  }
  return pass;
}

Outcome timed(const Config& config) {
  Inputs in;
  SetupSampler sampler([&] { in = setup(config); });
  sampler.sample(0.02);
  Tally tally;
  fuzz::FuzzStats stats;
  const PassTimes times = timed_passes(
      config.seconds, 3, tally,
      [&] {
        CampaignPass p = campaign_pass(in, nullptr);
        stats = p.result.stats;
        return std::move(p.out);
      },
      [&] { sampler.sample(0.02); });
  Outcome o;
  o.attempted = tally.attempted();
  o.failed = tally.failed();
  o.notes.push_back(pass_note(times));
  o.metrics =
      end_to_end(sampler.median_seconds(), times, times.work, peak_rss_mib());
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "fuzz_campaign: %ld mutant runs, jobs=%ld, %zu timed passes, "
                "digest %016llx",
                in.fuzz.runs, kJobs, times.seconds.size(),
                static_cast<unsigned long long>(tally.reference_digest()));
  o.notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf,
                "ops_per_s counts execs: execs_per_s = %s (%ld execs, %ld "
                "findings per pass)",
                full_digits(times.work / axiomcc::median_of(times.seconds)).c_str(),
                stats.executed, stats.findings);
  o.notes.emplace_back(buf);
  return o;
}

struct EngineTotals {
  double scalar_s = 0.0;
  double scalar_steps = 0.0;
  double sender_steps = 0.0;
  double estimator_steps = 0.0;
};

/// A clean corpus scenario straight into both engine backends (configured
/// as the runner configures them, without the guard), with the estimators
/// on each trace. Returns true on failure.
bool replay_on_engines(const fuzz::ScenarioDesc& desc,
                       const fuzz::RunnerConfig& runner, SpanLog* log,
                       EngineTotals& totals) {
  bool failed = false;
  const auto estimate = [&](const fluid::Trace& trace) {
    ScopedSpan span(log, "core.measure");
    const core::EstimatorConfig est{desc.tail_fraction};
    for (const double v : {core::measure_efficiency(trace, est),
                           core::measure_mean_loss(trace, est),
                           core::measure_latency_avoidance(trace, est)}) {
      failed |= !std::isfinite(v);
    }
    totals.estimator_steps += 3.0 * static_cast<double>(trace.num_steps());
  };
  const auto full_length = [](const engine::ScenarioSpec& spec,
                              const fluid::Trace& trace) {
    return trace.num_steps() == static_cast<std::size_t>(spec.steps);
  };

  {
    const fuzz::CompiledScenario c = fuzz::compile_scenario(desc);
    double seconds = 0.0;
    const engine::RunTrace rt = timed_call(log, "engine.fluid.run", seconds, [&] {
      return engine::backend_for(engine::BackendKind::kFluid).run(c.spec);
    });
    const double steps = static_cast<double>(rt.trace.num_steps()) *
                         static_cast<double>(rt.trace.num_senders());
    totals.sender_steps += steps;
    if (!desc.batch && desc.topology_bottlenecks == 0) {
      totals.scalar_s += seconds;
      totals.scalar_steps += steps;
    }
    failed |= !full_length(c.spec, rt.trace);
    estimate(rt.trace);
  }
  {
    fuzz::CompiledScenario c = fuzz::compile_scenario(desc);
    c.spec.max_window_mss =
        std::min(c.spec.max_window_mss, runner.packet_max_window_mss);
    const engine::PacketBackend backend(
        engine::PacketBackend::Options{1500, runner.packet_max_window_mss});
    double seconds = 0.0;
    const engine::RunTrace rt = timed_call(
        log, "engine.packet.run", seconds, [&] { return backend.run(c.spec); });
    failed |= !full_length(c.spec, rt.trace);
    estimate(rt.trace);
  }
  return failed;
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
  const CampaignPass pass =
      overhead_passes(config.seconds, log, tally, overhead,
                      [&](SpanLog* l) { return campaign_pass(in, l); });
  const double traced_s = log.totals("fuzz.run_fuzz").total_s;
  const fuzz::FuzzResult& result = pass.result;
  const fuzz::RunnerConfig& runner = in.fuzz.runner;

  double guarded_runs = 0.0;
  double faults = 0.0;
  EngineTotals engines;
  {
    ScopedSpan replay_span(&log, "replay");
    for (const fuzz::CorpusEntry& e : result.corpus) {
      bool failed = false;
      try {
        {
          ScopedSpan span(&log, "fuzz.text");
          failed |= fuzz::parse_scenario(fuzz::serialize_scenario(e.desc)) !=
                    e.desc;
        }
        fuzz::RunOutcome outcome;
        {
          ScopedSpan span(&log, "fuzz.run_scenario");
          outcome = fuzz::run_scenario(e.desc, runner);
        }
        guarded_runs += 2.0;
        faults += (outcome.fluid_fault.ok() ? 0.0 : 1.0) +
                  (outcome.packet_fault.ok() ? 0.0 : 1.0);
        failed |= outcome_digest(outcome) != outcome_digest(e.outcome);
        if (outcome.kind == fuzz::OutcomeKind::kClean) {
          failed |= replay_on_engines(e.desc, runner, &log, engines);
        }
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "fuzz_campaign: replay failed: %s\n", ex.what());
        failed = true;
      }
      tally.add_op(failed);
    }
    for (const fuzz::Finding& f : result.findings) {
      bool failed = false;
      try {
        ScopedSpan span(&log, "fuzz.minimize");
        const fuzz::MinimizeResult m = fuzz::minimize_finding(
            f.original, f.expect, runner, in.fuzz.minimize_options);
        failed = m.desc != f.minimized.desc;
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "fuzz_campaign: minimize failed: %s\n",
                     ex.what());
        failed = true;
      }
      tally.add_op(failed);
    }
  }

  const auto text_t = log.totals("fuzz.text");
  const auto fluid_t = log.totals("engine.fluid.run");
  const auto packet_t = log.totals("engine.packet.run");
  const auto core_t = log.totals("core.measure");
  const auto min_t = log.totals("fuzz.minimize");
  const double execs = static_cast<double>(result.stats.executed);
  const auto per_run_us = [](const SpanLog::Totals& t) {
    return t.count > 0 ? 1e6 * t.total_s / static_cast<double>(t.count) : 0.0;
  };
  Outcome o;
  o.attempted = tally.attempted();
  o.failed = tally.failed();
  o.metrics = collect(
      per_layer_metrics(),
      {{"fluid.sender_steps", engines.sender_steps},
       {"fluid.scalar.ns_per_sender_step",
        engines.scalar_steps > 0 ? 1e9 * engines.scalar_s / engines.scalar_steps
                                 : 0.0},
       {"core.estimator_ns_per_step",
        engines.estimator_steps > 0
            ? 1e9 * core_t.total_s / engines.estimator_steps
            : 0.0},
       {"core.share", core_t.total_s / (core_t.total_s + fluid_t.total_s +
                                        packet_t.total_s)},
       {"engine.fluid.us_per_run", per_run_us(fluid_t)},
       {"engine.packet.us_per_run", per_run_us(packet_t)},
       {"stress.guarded_runs", guarded_runs},
       {"stress.faults", faults},
       {"fuzz.execs", execs},
       {"fuzz.findings", static_cast<double>(result.stats.findings)},
       {"fuzz.novel_frac",
        execs > 0 ? static_cast<double>(result.stats.retained) / execs : 0.0},
       {"fuzz.minimize_share", traced_s > 0 ? min_t.total_s / traced_s : 0.0},
       {"fuzz.text_us_per_scenario", per_run_us(text_t)},
       {"trace.overhead_frac", overhead}});
  o.notes.push_back("fuzz_campaign traced: " +
                    std::to_string(result.corpus.size()) +
                    " corpus scenarios and " +
                    std::to_string(result.findings.size()) +
                    " findings replayed");
  write_spans(config, log);
  return o;
}

}  // namespace

Outcome run_fuzz_campaign(const Config& config) {
  return config.trace ? traced(config) : timed(config);
}

}  // namespace perfbench
