// Golden fluid digests: pins the exact bytes each fluid scenario produces, so
// a change to the fluid substrate (src/fluid, the fluid backend) that alters
// behaviour shows up as a digest mismatch instead of a shifted score
// somewhere downstream.
//
// Per scenario the test pins an FNV-1a 64 digest of
//   * the trace: total window, congestion loss, every tracked window and
//     observed-loss series and, at aggregate detail, the population stats;
//   * the trace's RTT series, pinned on its own so a move there is told
//     apart from a move in the dynamics;
//   * the streaming scope's series (when a scope is attached);
//   * the flight recorder's JSONL timeline with every event class captured,
//     minus the kCohort execution-mode events (which the aligner masks by
//     default: they describe how the engine ran, not what it simulated);
//   * those kCohort events on their own, for runs that request the cohort
//     path (ScenarioSpec::batch) — other runs leave them unpinned;
//   * FluidNetwork::link_mean_utilization for networks built directly.
//
// The families, the update-period, churn, schedule, injector and monitor
// scenarios are the configurations the scalar-vs-batch equivalence suites
// (fluid_batch_test, scope_test, fluid_record_test) compared, each pinned
// on both values of ScenarioSpec::batch and at jobs 1 and 4.
//
// A pinned value may change only with an intended behaviour change; the
// commit that moves it says which scenarios moved and why. On a mismatch
// the failure message prints the full replacement row.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cc/aimd.h"
#include "cc/registry.h"
#include "cc/slow_start.h"
#include "engine/backend.h"
#include "engine/topology.h"
#include "fluid/link.h"
#include "fluid/loss_model.h"
#include "fluid/network.h"
#include "fluid/sim.h"
#include "fuzz/fuzzer.h"
#include "fuzz/scenario_text.h"
#include "recorder/io.h"
#include "util/check.h"

namespace axiomcc {
namespace {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void f64s(std::span<const double> vs) {
    u64(vs.size());
    for (const double v : vs) f64(v);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t trace_digest(const fluid::Trace& trace) {
  Fnv1a d;
  d.u64(static_cast<std::uint64_t>(trace.num_senders()));
  d.f64(trace.link_capacity_mss());
  d.f64(trace.min_rtt_seconds());
  d.f64s(trace.total_window());
  d.f64s(trace.congestion_loss());
  if (trace.detail() == fluid::TraceDetail::kAggregate) {
    d.f64s(trace.window_min());
    d.f64s(trace.window_max());
    d.f64s(trace.window_mean());
    for (const long active : trace.active_senders()) {
      d.u64(static_cast<std::uint64_t>(active));
    }
  }
  for (const int id : trace.tracked_senders()) {
    d.u64(static_cast<std::uint64_t>(id));
    d.f64s(trace.windows(id));
    d.f64s(trace.observed_loss(id));
  }
  return d.value();
}

std::uint64_t rtt_digest(const fluid::Trace& trace) {
  Fnv1a d;
  d.f64s(trace.rtt_seconds());
  return d.value();
}

std::uint64_t scope_digest(const scope::ScopeSeries& series) {
  Fnv1a d;
  const auto samples = [&d](const std::vector<scope::WindowSample>& ws) {
    d.u64(ws.size());
    for (const scope::WindowSample& w : ws) {
      d.u64(static_cast<std::uint64_t>(w.start_step));
      d.u64(static_cast<std::uint64_t>(w.end_step));
      d.f64(w.value);
    }
  };
  for (const scope::Channel& c : series.channels) {
    d.u64(static_cast<std::uint64_t>(c.kind));
    d.u64(static_cast<std::uint64_t>(c.subject));
    d.u64(static_cast<std::uint64_t>(c.axis));
    samples(c.samples);
  }
  samples(series.jain);
  return d.value();
}

/// What one scenario pins. Zero marks a part the scenario does not produce
/// (no scope, no recorder, unpinned execution-mode events, or no direct
/// network).
struct Digests {
  std::uint64_t trace = 0;
  std::uint64_t rtt = 0;
  std::uint64_t scope = 0;
  std::uint64_t recorder = 0;
  std::uint64_t cohort = 0;
  std::uint64_t utilization = 0;
};

/// The trace digest recorded for a scenario whose run raises a
/// ContractViolation.
constexpr std::uint64_t kContractViolation = 0xc0de'dead'0000'0001ULL;

/// Splits a recording into its kCohort events and everything else and
/// digests both JSONL renderings.
void digest_recording(const recorder::Recording& rec, bool pin_cohort,
                      Digests& d) {
  recorder::Recording rest = rec;
  recorder::Recording cohort = rec;
  rest.events.clear();
  cohort.events.clear();
  for (const recorder::Event& e : rec.events) {
    recorder::Recording& part =
        e.cls == recorder::EventClass::kCohort ? cohort : rest;
    part.events.push_back(e);
  }
  d.recorder = fuzz::fnv1a64(recorder::recording_to_jsonl(rest));
  if (pin_cohort) {
    d.cohort = fuzz::fnv1a64(recorder::recording_to_jsonl(cohort));
  }
}

/// Recorder options capturing every class, with lanes deep enough that no
/// event is ever evicted.
recorder::RecordOptions record_everything() {
  recorder::RecordOptions options;
  options.enabled = true;
  options.ring_depth = 1L << 20;
  options.sample_stride = 4;
  return options;
}

scope::ScopeConfig scope_windows() {
  scope::ScopeConfig config;
  config.enabled = true;
  config.window_steps = 16;
  return config;
}

/// Attaches a 16-step windowed scope and a recorder capturing every class.
void observe(engine::ScenarioSpec& spec) {
  spec.scope = scope_windows();
  spec.record = record_everything();
}

/// Runs `spec` on the fluid backend, attaching a scope and a recorder when
/// the spec enables them.
Digests run_backend(engine::ScenarioSpec spec) {
  const std::unique_ptr<recorder::Recorder> rec = engine::make_recorder(spec);
  const std::unique_ptr<scope::MetricScope> sc = engine::make_scope(spec);
  spec.record_sink = rec.get();
  spec.scope_sink = sc.get();
  const engine::RunTrace rt =
      engine::backend_for(engine::BackendKind::kFluid).run(spec);
  Digests d;
  d.trace = trace_digest(rt.trace);
  d.rtt = rtt_digest(rt.trace);
  if (sc != nullptr) d.scope = scope_digest(sc->series());
  if (rec != nullptr) digest_recording(rec->snapshot(), spec.batch, d);
  return d;
}

/// Sinks for a simulation built directly on the fluid API.
struct DirectSinks {
  recorder::Recorder rec{record_everything()};
  scope::MetricScope scope{scope_windows()};

  void attach(fluid::SimOptions& options) {
    options.record_sink = &rec;
    options.scope_sink = &scope;
  }
  Digests digests(const fluid::Trace& trace) const {
    Digests d;
    d.trace = trace_digest(trace);
    d.rtt = rtt_digest(trace);
    d.scope = scope_digest(scope.series());
    digest_recording(rec.snapshot(), false, d);
    return d;
  }
};

std::uint64_t utilization_digest(const std::vector<double>& utilization) {
  Fnv1a d;
  d.f64s(utilization);
  return d.value();
}

// Small link so windows hit droptail loss quickly at any population size.
fluid::LinkParams test_link() {
  return fluid::make_link_mbps(24.0, 40.0, 60.0);
}

engine::ScenarioSpec link_spec(const fluid::LinkParams& link, long steps) {
  engine::ScenarioSpec spec;
  spec.link = link;
  spec.steps = steps;
  spec.seed = 7;
  return spec;
}

// All 13 registry families (kernel families first, then the stateful
// fallbacks that take per-member dispatch inside their cohorts).
const std::vector<std::string>& family_specs() {
  static const std::vector<std::string> specs{
      "aimd(1,0.5)",  "mimd(1.01,0.875)", "bin(1,1,1,0.5)",
      "robust_aimd(1,0.8,0.01)", "highspeed", "cubic(0.4,0.8)",
      "vegas(2,4)",   "veno",             "illinois",
      "westwood",     "bbr",              "pcc",
      "cautious",
  };
  return specs;
}

std::string sanitized(std::string name) {
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

/// Execution settings a family scenario is pinned under.
struct Exec {
  const char* tag;
  bool batch;
  long jobs;
};
constexpr Exec kExecs[] = {{"scalar_j1", false, 1},
                           {"scalar_j4", false, 4},
                           {"batch_j1", true, 1},
                           {"batch_j4", true, 4}};

/// One family's scenario: three cohorts (always on, joins then leaves, late
/// joiner) under Bernoulli loss episodes, full detail.
Digests family_churn_lossy(const std::string& family, const Exec& exec) {
  const auto proto = cc::make_protocol(family);
  engine::ScenarioSpec spec = link_spec(test_link(), 120);
  spec.add_senders(*proto, 13, 2.0);
  spec.add_senders(*proto, 13, 1.0, 10.0, 100.0);
  spec.add_senders(*proto, 14, 4.0, 60.0);
  spec.loss = [](std::uint64_t seed) {
    return std::make_unique<fluid::BernoulliLoss>(0.1, 0.05, seed);
  };
  spec.batch = exec.batch;
  spec.jobs = exec.jobs;
  observe(spec);
  return run_backend(spec);
}

/// One family at aggregate detail under a constant (stateless) injector:
/// the run the representative slot layout serves.
Digests family_aggregate(const std::string& family, bool batch) {
  const auto proto = cc::make_protocol(family);
  engine::ScenarioSpec spec = link_spec(test_link(), 120);
  spec.add_senders(*proto, 21, 2.0);
  spec.add_senders(*proto, 21, 1.0, 10.0, 100.0);
  spec.add_senders(*proto, 22, 4.0, 60.0);
  spec.loss = [](std::uint64_t) {
    return std::make_unique<fluid::ConstantLoss>(0.01);
  };
  spec.trace_detail = fluid::TraceDetail::kAggregate;
  spec.tracked_senders = 5;
  spec.batch = batch;
  spec.jobs = batch ? 4 : 1;
  observe(spec);
  return run_backend(spec);
}

/// Unsynchronized feedback on the direct FluidSimulation API (the engine
/// has no update-period knob): mixed periods and phases, churn included.
Digests unsync(fluid::TraceDetail detail) {
  DirectSinks sinks;
  fluid::SimOptions options;
  options.steps = 150;
  options.trace_detail = detail;
  options.tracked_senders = 4;
  sinks.attach(options);
  fluid::FluidSimulation sim(test_link(), options);
  const auto aimd = cc::make_protocol("aimd(1,0.5)");
  const auto cubic = cc::make_protocol("cubic(0.4,0.8)");
  sim.add_senders(fluid::SenderSpec{aimd->clone(), 2.0, 3, 1}, 7);
  sim.add_senders(fluid::SenderSpec{cubic->clone(), 2.0, 5, 0, 20, 120}, 5);
  sim.add_senders(fluid::SenderSpec{aimd->clone(), 4.0, 2, 1, 40, -1}, 3);
  const cc::SlowStartWrapper slow(std::make_unique<cc::Aimd>(1.0, 0.5), 48.0);
  sim.add_senders(fluid::SenderSpec{slow.clone(), 1.0, 2, 0}, 4);
  const fluid::Trace trace = sim.run();
  return sinks.digests(trace);
}

engine::ScenarioSpec parking_lot_spec() {
  engine::ScenarioSpec spec =
      link_spec(fluid::make_link_mbps(20.0, 30.0, 40.0), 300);
  static const auto reno = cc::make_protocol("aimd(1,0.5)");
  engine::apply_parking_lot(spec, spec.link, /*bottlenecks=*/2, *reno,
                            /*cross_flows_per_link=*/1,
                            /*initial_window_mss=*/2.0);
  return spec;
}

using Runner = Digests (*)();

std::map<std::string, Runner> named_runners() {
  std::map<std::string, Runner> r;
  r["unsync_full"] = [] { return unsync(fluid::TraceDetail::kFull); };
  r["unsync_aggregate"] = [] { return unsync(fluid::TraceDetail::kAggregate); };
  r["churn_fractional_starts"] = [] {
    const auto aimd = cc::make_protocol("aimd(1,0.5)");
    const auto vegas = cc::make_protocol("vegas(2,4)");
    engine::ScenarioSpec spec = link_spec(test_link(), 200);
    spec.add_sender(*aimd, 2.0);
    spec.add_senders(*aimd, 4, 1.0, 30.4, 150.6);
    spec.add_sender(*vegas, 3.0, 80.5);
    spec.add_senders(*vegas, 2, 5.0, 0.0, 40.0);
    observe(spec);
    return run_backend(spec);
  };
  r["bandwidth_schedule"] = [] {
    const auto aimd = cc::make_protocol("aimd(1,0.5)");
    const auto cubic = cc::make_protocol("cubic(0.4,0.8)");
    engine::ScenarioSpec spec = link_spec(test_link(), 300);
    spec.add_senders(*aimd, 3, 2.0);
    spec.add_sender(*cubic, 2.0, 3.0);
    spec.bandwidth_scale = [](long k) {
      return k < 100 ? 1.0 : (k < 200 ? 0.4 : 1.7);
    };
    observe(spec);
    return run_backend(spec);
  };
  r["rtt_schedule"] = [] {
    const auto aimd = cc::make_protocol("aimd(1,0.5)");
    const auto illinois = cc::make_protocol("illinois");
    engine::ScenarioSpec spec = link_spec(test_link(), 320);
    spec.add_senders(*aimd, 2, 2.0);
    spec.add_sender(*illinois, 2.0, 1.5);
    spec.rtt_scale = [](long k) {
      return k < 80 ? 1.0 : (k < 160 ? 2.7 : (k < 240 ? 0.3 : 1.3));
    };
    observe(spec);
    return run_backend(spec);
  };
  r["injector_constant"] = [] {
    const auto aimd = cc::make_protocol("aimd(1,0.5)");
    engine::ScenarioSpec spec = link_spec(test_link(), 200);
    spec.add_senders(*aimd, 5, 2.0);
    spec.loss = [](std::uint64_t) {
      return std::make_unique<fluid::ConstantLoss>(0.02);
    };
    observe(spec);
    return run_backend(spec);
  };
  r["injector_bernoulli"] = [] {
    const auto robust = cc::make_protocol("robust_aimd(1,0.8,0.01)");
    engine::ScenarioSpec spec = link_spec(test_link(), 200);
    spec.add_senders(*robust, 6, 2.0);
    spec.loss = [](std::uint64_t seed) {
      return std::make_unique<fluid::BernoulliLoss>(0.2, 0.005, seed);
    };
    observe(spec);
    return run_backend(spec);
  };
  r["injector_gilbert_elliott"] = [] {
    const auto aimd = cc::make_protocol("aimd(1,0.5)");
    const auto westwood = cc::make_protocol("westwood");
    engine::ScenarioSpec spec = link_spec(test_link(), 250);
    spec.add_senders(*aimd, 3, 2.0);
    spec.add_sender(*westwood, 2.0, 5.0);
    spec.loss = [](std::uint64_t seed) {
      return std::make_unique<fluid::GilbertElliottLoss>(0.05, 0.3, 0.0, 0.1,
                                                         seed);
    };
    observe(spec);
    return run_backend(spec);
  };
  r["step_monitor_stop"] = [] {
    const auto aimd = cc::make_protocol("aimd(1,0.5)");
    engine::ScenarioSpec spec = link_spec(test_link(), 300);
    spec.add_senders(*aimd, 4, 2.0);
    spec.add_sender(*aimd, 2.0, 10.0);
    spec.trace_detail = fluid::TraceDetail::kAggregate;
    spec.step_monitor = [](long step, std::span<const double>, double,
                           double) { return step < 120; };
    observe(spec);
    return run_backend(spec);
  };
  r["uniform_100k"] = [] {
    const auto aimd = cc::make_protocol("aimd(1,0.5)");
    const auto cubic = cc::make_protocol("cubic(0.4,0.8)");
    engine::ScenarioSpec spec =
        link_spec(fluid::make_link_mbps(3000.0, 42.0, 100.0), 60);
    spec.add_senders(*aimd, 100000, 1.5);
    spec.add_senders(*cubic, 3, 2.0, 20.0);
    spec.trace_detail = fluid::TraceDetail::kAggregate;
    spec.batch = true;
    spec.jobs = 4;
    observe(spec);
    return run_backend(spec);
  };
  r["sharded_40k_bernoulli"] = [] {
    const auto aimd = cc::make_protocol("aimd(1,0.5)");
    const auto cubic = cc::make_protocol("cubic(0.4,0.8)");
    engine::ScenarioSpec spec =
        link_spec(fluid::make_link_mbps(1200.0, 42.0, 100.0), 40);
    spec.add_senders(*aimd, 40000, 1.5);
    spec.add_senders(*cubic, 34000, 1.5, 5.0);
    spec.trace_detail = fluid::TraceDetail::kAggregate;
    spec.loss = [](std::uint64_t seed) {
      return std::make_unique<fluid::BernoulliLoss>(0.1, 0.01, seed);
    };
    spec.batch = true;
    spec.jobs = 4;
    observe(spec);
    return run_backend(spec);
  };
  r["direct_parking_lot"] = [] {
    // Two AIMD(1,0.5) bottlenecks at 30 Mbps, 42 ms, 100 MSS: the long
    // flow's composed congestion loss exceeds either link's rate.
    recorder::Recorder rec(record_everything());
    scope::MetricScope sc(scope_windows());
    fluid::NetworkOptions options;
    options.steps = 2000;
    options.record_sink = &rec;
    options.scope_sink = &sc;
    fluid::ParkingLot lot = fluid::make_parking_lot(
        fluid::make_link_mbps(30.0, 42.0, 100.0), 2, cc::Aimd(1.0, 0.5),
        options);
    const fluid::Trace trace = lot.network.run();
    Digests d;
    d.trace = trace_digest(trace);
    d.rtt = rtt_digest(trace);
    d.scope = scope_digest(sc.series());
    digest_recording(rec.snapshot(), false, d);
    d.utilization = utilization_digest(lot.network.link_mean_utilization());
    return d;
  };
  r["direct_network_hooks"] = [] {
    // Three links, a two-hop and a three-hop flow plus churned cross
    // traffic, under a stateful injector, both schedules and a monitor.
    recorder::Recorder rec(record_everything());
    scope::MetricScope sc(scope_windows());
    fluid::NetworkOptions options;
    options.steps = 400;
    options.record_sink = &rec;
    options.scope_sink = &sc;
    fluid::FluidNetwork net(options);
    const int a = net.add_link(fluid::make_link_mbps(20.0, 30.0, 40.0));
    const int b = net.add_link(fluid::make_link_mbps(12.0, 50.0, 30.0));
    const int c = net.add_link(fluid::make_link_mbps(30.0, 20.0, 60.0));
    net.add_flow(cc::make_protocol("aimd(1,0.5)"), {a, b}, 2.0);
    net.add_flow(cc::make_protocol("cubic(0.4,0.8)"), {a, b, c}, 2.0);
    fluid::FluidNetwork::FlowSpec cross;
    cross.protocol = cc::make_protocol("vegas(2,4)");
    cross.route = {b};
    cross.initial_window_mss = 3.0;
    cross.start_step = 50;
    cross.stop_step = 250;
    net.add_flow(std::move(cross));
    net.add_flow(cc::make_protocol("robust_aimd(1,0.8,0.01)"), {c}, 1.0);
    net.set_loss_injector(
        std::make_unique<fluid::GilbertElliottLoss>(0.05, 0.3, 0.0, 0.05, 9));
    net.set_bandwidth_schedule([](long k) { return k < 200 ? 1.0 : 0.6; });
    net.set_rtt_schedule([](long k) { return k < 120 ? 1.0 : 1.4; });
    net.set_step_monitor([](long step, std::span<const double>, double,
                            double) { return step < 350; });
    const fluid::Trace trace = net.run();
    Digests d;
    d.trace = trace_digest(trace);
    d.rtt = rtt_digest(trace);
    d.scope = scope_digest(sc.series());
    digest_recording(rec.snapshot(), false, d);
    d.utilization = utilization_digest(net.link_mean_utilization());
    return d;
  };
  r["parking_lot"] = [] {
    engine::ScenarioSpec spec = parking_lot_spec();
    observe(spec);
    return run_backend(spec);
  };
  r["parking_lot_aggregate"] = [] {
    engine::ScenarioSpec spec = parking_lot_spec();
    spec.trace_detail = fluid::TraceDetail::kAggregate;
    spec.tracked_senders = 2;
    spec.loss = [](std::uint64_t) {
      return std::make_unique<fluid::ConstantLoss>(0.01);
    };
    observe(spec);
    return run_backend(spec);
  };
  r["parking_lot_rtt_schedule"] = [] {
    engine::ScenarioSpec spec = parking_lot_spec();
    spec.rtt_scale = [](long k) { return k < 100 ? 1.0 : 1.9; };
    observe(spec);
    return run_backend(spec);
  };
  r["parking_lot_cohort"] = [] {
    engine::ScenarioSpec spec = parking_lot_spec();
    spec.senders[1].count = 3;
    observe(spec);
    return run_backend(spec);
  };
  r["fat_tree"] = [] {
    static const auto reno = cc::make_protocol("aimd(1,0.5)");
    engine::ScenarioSpec spec =
        link_spec(fluid::make_link_mbps(20.0, 30.0, 40.0), 250);
    const engine::FatTreeTopology tree =
        engine::make_fat_tree(3, 2, spec.link);
    spec.topology = tree.topology;
    const int pairs[][2] = {{0, 1}, {1, 2}, {2, 0}, {0, 2}};
    for (long f = 0; f < 4; ++f) {
      spec.add_routed_sender(*reno,
                             tree.route(f, pairs[f][0], pairs[f][1], 5), 2.0,
                             static_cast<double>(f));
    }
    observe(spec);
    return run_backend(spec);
  };
  return r;
}

std::vector<std::string> corpus_files() {
  return fuzz::list_corpus_files(AXIOMCC_CORPUS_DIR);
}

std::string corpus_name(const std::string& path) {
  std::string stem = std::filesystem::path(path).stem().string();
  std::replace(stem.begin(), stem.end(), '-', '_');
  return "corpus_" + stem;
}

std::string family_name(const std::string& family, const std::string& tag) {
  return "family_" + sanitized(family) + "_" + tag;
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const auto& [name, runner] : named_runners()) names.push_back(name);
  for (const std::string& family : family_specs()) {
    for (const Exec& exec : kExecs) {
      names.push_back(family_name(family, exec.tag));
    }
    names.push_back(family_name(family, "aggregate_scalar"));
    names.push_back(family_name(family, "aggregate_batch"));
  }
  for (const std::string& file : corpus_files()) {
    names.push_back(corpus_name(file));
  }
  return names;
}

Digests run_named(const std::string& name) {
  const auto runners = named_runners();
  if (const auto it = runners.find(name); it != runners.end()) {
    return it->second();
  }
  for (const std::string& family : family_specs()) {
    for (const Exec& exec : kExecs) {
      if (family_name(family, exec.tag) == name) {
        return family_churn_lossy(family, exec);
      }
    }
    if (family_name(family, "aggregate_scalar") == name) {
      return family_aggregate(family, false);
    }
    if (family_name(family, "aggregate_batch") == name) {
      return family_aggregate(family, true);
    }
  }
  for (const std::string& file : corpus_files()) {
    if (corpus_name(file) != name) continue;
    fuzz::CompiledScenario compiled =
        fuzz::compile_scenario(fuzz::load_scenario_file(file));
    observe(compiled.spec);
    // Some corpus entries pin a contract fault rather than a run.
    try {
      return run_backend(compiled.spec);
    } catch (const ContractViolation&) {
      return Digests{kContractViolation, 0, 0, 0, 0, 0};
    }
  }
  ADD_FAILURE() << "unknown scenario " << name;
  return {};
}

// clang-format off
const std::map<std::string, Digests>& golden() {
  static const std::map<std::string, Digests> g = {
      {"bandwidth_schedule", {0xf59dd0f24a539fbcULL, 0xa696c1bc3fc0b1c9ULL, 0x77bec67818336f7fULL, 0x849f423e67faf55eULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"churn_fractional_starts", {0xa15d2950b3b70f4eULL, 0x54501855e2328b01ULL, 0x2fb9e3f6866697e1ULL, 0xe3590440dabbf51eULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"corpus_batch_cohort_aggregate", {0xa6f25bacacd2722eULL, 0x34746bf5a94ca239ULL, 0xc8a8ff1b175c2794ULL, 0xceb68e80be0a1895ULL, 0xee08f0950f0fe13eULL, 0x0000000000000000ULL}},
      {"corpus_divergence_outage_aimd", {0x8cf6be47c25c4738ULL, 0x7c0e99e66a2c6680ULL, 0xab772dbf8b2d15cfULL, 0x7c88473f93ee5d87ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"corpus_divergence_parking_lot_beatdown", {0x7296cad902108783ULL, 0x5ed7874600fb2f0aULL, 0x4d986e8477d5c482ULL, 0x8ca05ae995fa8fc1ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"corpus_divergence_rtt_step_veno", {0x71a635e7d55e3b34ULL, 0xcd39707e9228cea0ULL, 0x70f1a079b0a0a37dULL, 0x4d9bf3c4cd9020feULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"corpus_divergence_zero_buffer", {0xfc4048ce1c3a81c4ULL, 0xaf9d9b762779b403ULL, 0x07ab5d9257ac1eebULL, 0x0fdd6f26e8e5927cULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"corpus_fault_late_joiner_contract", {0xc0dedead00000001ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"direct_network_hooks", {0xa25628ef65cb1d26ULL, 0xbd607b693c0bd75cULL, 0x0c1172d9080e524cULL, 0xa62bda5c7cf75080ULL, 0x0000000000000000ULL, 0xe3c9df13d09c7fd8ULL}},
      {"direct_parking_lot", {0xad8bd950be61df8eULL, 0x84d6d78a2760c52eULL, 0xd9ad39667a1931d4ULL, 0x091bc1b9b2d7c054ULL, 0x0000000000000000ULL, 0x39df2369fcdac777ULL}},
      {"family_aimd_1_0_5__aggregate_batch", {0xff1195f75ac96c67ULL, 0xa724f2d610f72960ULL, 0x7e0f1acefc37bbc4ULL, 0xb7371f6262a6e59fULL, 0x9e0aa63d3025b0a7ULL, 0x0000000000000000ULL}},
      {"family_aimd_1_0_5__aggregate_scalar", {0xff1195f75ac96c67ULL, 0xa724f2d610f72960ULL, 0x7e0f1acefc37bbc4ULL, 0xb7371f6262a6e59fULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_aimd_1_0_5__batch_j1", {0xbe240ec5336e36adULL, 0x9ccadf9c2afe7c16ULL, 0x05f4235a0575d8feULL, 0x6563dc6f8c62a217ULL, 0x60741eeb688eb0ffULL, 0x0000000000000000ULL}},
      {"family_aimd_1_0_5__batch_j4", {0xbe240ec5336e36adULL, 0x9ccadf9c2afe7c16ULL, 0x05f4235a0575d8feULL, 0x6563dc6f8c62a217ULL, 0x60741eeb688eb0ffULL, 0x0000000000000000ULL}},
      {"family_aimd_1_0_5__scalar_j1", {0xbe240ec5336e36adULL, 0x9ccadf9c2afe7c16ULL, 0x05f4235a0575d8feULL, 0x6563dc6f8c62a217ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_aimd_1_0_5__scalar_j4", {0xbe240ec5336e36adULL, 0x9ccadf9c2afe7c16ULL, 0x05f4235a0575d8feULL, 0x6563dc6f8c62a217ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_bbr_aggregate_batch", {0xb648ece7f826985eULL, 0x169dc1f4b47dd3c1ULL, 0xae2ad053bedcf50dULL, 0x4814c99e7545893eULL, 0x9e0aa63d3025b0a7ULL, 0x0000000000000000ULL}},
      {"family_bbr_aggregate_scalar", {0xb648ece7f826985eULL, 0x169dc1f4b47dd3c1ULL, 0xae2ad053bedcf50dULL, 0x4814c99e7545893eULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_bbr_batch_j1", {0x46b44d35ba59f5b2ULL, 0x58bac1a8570b4abdULL, 0xf15f55953ad6b663ULL, 0x43495a77f856337fULL, 0xeb37b931eb1d2d1eULL, 0x0000000000000000ULL}},
      {"family_bbr_batch_j4", {0x46b44d35ba59f5b2ULL, 0x58bac1a8570b4abdULL, 0xf15f55953ad6b663ULL, 0x43495a77f856337fULL, 0xeb37b931eb1d2d1eULL, 0x0000000000000000ULL}},
      {"family_bbr_scalar_j1", {0x46b44d35ba59f5b2ULL, 0x58bac1a8570b4abdULL, 0xf15f55953ad6b663ULL, 0x43495a77f856337fULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_bbr_scalar_j4", {0x46b44d35ba59f5b2ULL, 0x58bac1a8570b4abdULL, 0xf15f55953ad6b663ULL, 0x43495a77f856337fULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_bin_1_1_1_0_5__aggregate_batch", {0xff1195f75ac96c67ULL, 0xa724f2d610f72960ULL, 0x7e0f1acefc37bbc4ULL, 0xb7371f6262a6e59fULL, 0x9e0aa63d3025b0a7ULL, 0x0000000000000000ULL}},
      {"family_bin_1_1_1_0_5__aggregate_scalar", {0xff1195f75ac96c67ULL, 0xa724f2d610f72960ULL, 0x7e0f1acefc37bbc4ULL, 0xb7371f6262a6e59fULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_bin_1_1_1_0_5__batch_j1", {0xc16ed680b26a96faULL, 0x4e4ff637dc0da896ULL, 0x82346d04ca281883ULL, 0x0f940ff9c4567b95ULL, 0x60741eeb688eb0ffULL, 0x0000000000000000ULL}},
      {"family_bin_1_1_1_0_5__batch_j4", {0xc16ed680b26a96faULL, 0x4e4ff637dc0da896ULL, 0x82346d04ca281883ULL, 0x0f940ff9c4567b95ULL, 0x60741eeb688eb0ffULL, 0x0000000000000000ULL}},
      {"family_bin_1_1_1_0_5__scalar_j1", {0xc16ed680b26a96faULL, 0x4e4ff637dc0da896ULL, 0x82346d04ca281883ULL, 0x0f940ff9c4567b95ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_bin_1_1_1_0_5__scalar_j4", {0xc16ed680b26a96faULL, 0x4e4ff637dc0da896ULL, 0x82346d04ca281883ULL, 0x0f940ff9c4567b95ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_cautious_aggregate_batch", {0x2368bc77a4559338ULL, 0xc1916fd2b4d99970ULL, 0xfe59c40b6b977c9fULL, 0x7bd4e00d8b7a18baULL, 0x9e0aa63d3025b0a7ULL, 0x0000000000000000ULL}},
      {"family_cautious_aggregate_scalar", {0x2368bc77a4559338ULL, 0xc1916fd2b4d99970ULL, 0xfe59c40b6b977c9fULL, 0x7bd4e00d8b7a18baULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_cautious_batch_j1", {0x2e72913171cc8cb9ULL, 0x6036adf3e4faa9eaULL, 0xf27ec5ead83cec18ULL, 0x977a74902ac56f81ULL, 0xeb37b931eb1d2d1eULL, 0x0000000000000000ULL}},
      {"family_cautious_batch_j4", {0x2e72913171cc8cb9ULL, 0x6036adf3e4faa9eaULL, 0xf27ec5ead83cec18ULL, 0x977a74902ac56f81ULL, 0xeb37b931eb1d2d1eULL, 0x0000000000000000ULL}},
      {"family_cautious_scalar_j1", {0x2e72913171cc8cb9ULL, 0x6036adf3e4faa9eaULL, 0xf27ec5ead83cec18ULL, 0x977a74902ac56f81ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_cautious_scalar_j4", {0x2e72913171cc8cb9ULL, 0x6036adf3e4faa9eaULL, 0xf27ec5ead83cec18ULL, 0x977a74902ac56f81ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_cubic_0_4_0_8__aggregate_batch", {0x340f801975ed7780ULL, 0xe15fec00713a2aeaULL, 0x092fd6f20b921563ULL, 0x91047a6318d40c0bULL, 0x9e0aa63d3025b0a7ULL, 0x0000000000000000ULL}},
      {"family_cubic_0_4_0_8__aggregate_scalar", {0x340f801975ed7780ULL, 0xe15fec00713a2aeaULL, 0x092fd6f20b921563ULL, 0x91047a6318d40c0bULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_cubic_0_4_0_8__batch_j1", {0xcbce241649c70ddcULL, 0x74c7a2c57a2e4d9fULL, 0xf470496871ced05eULL, 0x37820e5561b880e3ULL, 0xeb37b931eb1d2d1eULL, 0x0000000000000000ULL}},
      {"family_cubic_0_4_0_8__batch_j4", {0xcbce241649c70ddcULL, 0x74c7a2c57a2e4d9fULL, 0xf470496871ced05eULL, 0x37820e5561b880e3ULL, 0xeb37b931eb1d2d1eULL, 0x0000000000000000ULL}},
      {"family_cubic_0_4_0_8__scalar_j1", {0xcbce241649c70ddcULL, 0x74c7a2c57a2e4d9fULL, 0xf470496871ced05eULL, 0x37820e5561b880e3ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_cubic_0_4_0_8__scalar_j4", {0xcbce241649c70ddcULL, 0x74c7a2c57a2e4d9fULL, 0xf470496871ced05eULL, 0x37820e5561b880e3ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_highspeed_aggregate_batch", {0xff1195f75ac96c67ULL, 0xa724f2d610f72960ULL, 0x7e0f1acefc37bbc4ULL, 0xb7371f6262a6e59fULL, 0x9e0aa63d3025b0a7ULL, 0x0000000000000000ULL}},
      {"family_highspeed_aggregate_scalar", {0xff1195f75ac96c67ULL, 0xa724f2d610f72960ULL, 0x7e0f1acefc37bbc4ULL, 0xb7371f6262a6e59fULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_highspeed_batch_j1", {0xbe240ec5336e36adULL, 0x9ccadf9c2afe7c16ULL, 0x05f4235a0575d8feULL, 0x6563dc6f8c62a217ULL, 0x60741eeb688eb0ffULL, 0x0000000000000000ULL}},
      {"family_highspeed_batch_j4", {0xbe240ec5336e36adULL, 0x9ccadf9c2afe7c16ULL, 0x05f4235a0575d8feULL, 0x6563dc6f8c62a217ULL, 0x60741eeb688eb0ffULL, 0x0000000000000000ULL}},
      {"family_highspeed_scalar_j1", {0xbe240ec5336e36adULL, 0x9ccadf9c2afe7c16ULL, 0x05f4235a0575d8feULL, 0x6563dc6f8c62a217ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_highspeed_scalar_j4", {0xbe240ec5336e36adULL, 0x9ccadf9c2afe7c16ULL, 0x05f4235a0575d8feULL, 0x6563dc6f8c62a217ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_illinois_aggregate_batch", {0x40e8b40db13d57aeULL, 0x9f183e965a381ceaULL, 0xccc8287cd437a597ULL, 0xc7ce055cef9ed025ULL, 0x9e0aa63d3025b0a7ULL, 0x0000000000000000ULL}},
      {"family_illinois_aggregate_scalar", {0x40e8b40db13d57aeULL, 0x9f183e965a381ceaULL, 0xccc8287cd437a597ULL, 0xc7ce055cef9ed025ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_illinois_batch_j1", {0xea704514ffc9ccacULL, 0x6c36c9eae72ac350ULL, 0x0549d9dd93f9cd96ULL, 0x74d702725cb31544ULL, 0xeb37b931eb1d2d1eULL, 0x0000000000000000ULL}},
      {"family_illinois_batch_j4", {0xea704514ffc9ccacULL, 0x6c36c9eae72ac350ULL, 0x0549d9dd93f9cd96ULL, 0x74d702725cb31544ULL, 0xeb37b931eb1d2d1eULL, 0x0000000000000000ULL}},
      {"family_illinois_scalar_j1", {0xea704514ffc9ccacULL, 0x6c36c9eae72ac350ULL, 0x0549d9dd93f9cd96ULL, 0x74d702725cb31544ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_illinois_scalar_j4", {0xea704514ffc9ccacULL, 0x6c36c9eae72ac350ULL, 0x0549d9dd93f9cd96ULL, 0x74d702725cb31544ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_mimd_1_01_0_875__aggregate_batch", {0x40e8b40db13d57aeULL, 0x9f183e965a381ceaULL, 0xccc8287cd437a597ULL, 0xc7ce055cef9ed025ULL, 0x9e0aa63d3025b0a7ULL, 0x0000000000000000ULL}},
      {"family_mimd_1_01_0_875__aggregate_scalar", {0x40e8b40db13d57aeULL, 0x9f183e965a381ceaULL, 0xccc8287cd437a597ULL, 0xc7ce055cef9ed025ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_mimd_1_01_0_875__batch_j1", {0x08e80b03d7b3e7d8ULL, 0xdf3169b1445f0263ULL, 0x76ca9f0fd68313c1ULL, 0x63058433518a58f1ULL, 0x60741eeb688eb0ffULL, 0x0000000000000000ULL}},
      {"family_mimd_1_01_0_875__batch_j4", {0x08e80b03d7b3e7d8ULL, 0xdf3169b1445f0263ULL, 0x76ca9f0fd68313c1ULL, 0x63058433518a58f1ULL, 0x60741eeb688eb0ffULL, 0x0000000000000000ULL}},
      {"family_mimd_1_01_0_875__scalar_j1", {0x08e80b03d7b3e7d8ULL, 0xdf3169b1445f0263ULL, 0x76ca9f0fd68313c1ULL, 0x63058433518a58f1ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_mimd_1_01_0_875__scalar_j4", {0x08e80b03d7b3e7d8ULL, 0xdf3169b1445f0263ULL, 0x76ca9f0fd68313c1ULL, 0x63058433518a58f1ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_pcc_aggregate_batch", {0x305b163892b6b8c2ULL, 0xe6f2c928675e1c68ULL, 0x0be9e0726916c21eULL, 0x855e25210035cd70ULL, 0x9e0aa63d3025b0a7ULL, 0x0000000000000000ULL}},
      {"family_pcc_aggregate_scalar", {0x305b163892b6b8c2ULL, 0xe6f2c928675e1c68ULL, 0x0be9e0726916c21eULL, 0x855e25210035cd70ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_pcc_batch_j1", {0x193ebe274d40fc56ULL, 0xf70a645ac91353f3ULL, 0xa26472bd84b010c6ULL, 0xc4145a3353fe3402ULL, 0xeb37b931eb1d2d1eULL, 0x0000000000000000ULL}},
      {"family_pcc_batch_j4", {0x193ebe274d40fc56ULL, 0xf70a645ac91353f3ULL, 0xa26472bd84b010c6ULL, 0xc4145a3353fe3402ULL, 0xeb37b931eb1d2d1eULL, 0x0000000000000000ULL}},
      {"family_pcc_scalar_j1", {0x193ebe274d40fc56ULL, 0xf70a645ac91353f3ULL, 0xa26472bd84b010c6ULL, 0xc4145a3353fe3402ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_pcc_scalar_j4", {0x193ebe274d40fc56ULL, 0xf70a645ac91353f3ULL, 0xa26472bd84b010c6ULL, 0xc4145a3353fe3402ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_robust_aimd_1_0_8_0_01__aggregate_batch", {0x340f801975ed7780ULL, 0xe15fec00713a2aeaULL, 0x092fd6f20b921563ULL, 0x91047a6318d40c0bULL, 0x9e0aa63d3025b0a7ULL, 0x0000000000000000ULL}},
      {"family_robust_aimd_1_0_8_0_01__aggregate_scalar", {0x340f801975ed7780ULL, 0xe15fec00713a2aeaULL, 0x092fd6f20b921563ULL, 0x91047a6318d40c0bULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_robust_aimd_1_0_8_0_01__batch_j1", {0xfc71dbc93f570fc2ULL, 0x2ed7abf67d4b8057ULL, 0xdf8b05135723fd77ULL, 0x95a9c77e5c6754b7ULL, 0x60741eeb688eb0ffULL, 0x0000000000000000ULL}},
      {"family_robust_aimd_1_0_8_0_01__batch_j4", {0xfc71dbc93f570fc2ULL, 0x2ed7abf67d4b8057ULL, 0xdf8b05135723fd77ULL, 0x95a9c77e5c6754b7ULL, 0x60741eeb688eb0ffULL, 0x0000000000000000ULL}},
      {"family_robust_aimd_1_0_8_0_01__scalar_j1", {0xfc71dbc93f570fc2ULL, 0x2ed7abf67d4b8057ULL, 0xdf8b05135723fd77ULL, 0x95a9c77e5c6754b7ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_robust_aimd_1_0_8_0_01__scalar_j4", {0xfc71dbc93f570fc2ULL, 0x2ed7abf67d4b8057ULL, 0xdf8b05135723fd77ULL, 0x95a9c77e5c6754b7ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_vegas_2_4__aggregate_batch", {0xff1195f75ac96c67ULL, 0xa724f2d610f72960ULL, 0x7e0f1acefc37bbc4ULL, 0xb7371f6262a6e59fULL, 0x9e0aa63d3025b0a7ULL, 0x0000000000000000ULL}},
      {"family_vegas_2_4__aggregate_scalar", {0xff1195f75ac96c67ULL, 0xa724f2d610f72960ULL, 0x7e0f1acefc37bbc4ULL, 0xb7371f6262a6e59fULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_vegas_2_4__batch_j1", {0x39cb7a345486867fULL, 0x4700daf9a1cfb7eaULL, 0xd33f03ecba8bc9baULL, 0x40e5160e68141158ULL, 0xeb37b931eb1d2d1eULL, 0x0000000000000000ULL}},
      {"family_vegas_2_4__batch_j4", {0x39cb7a345486867fULL, 0x4700daf9a1cfb7eaULL, 0xd33f03ecba8bc9baULL, 0x40e5160e68141158ULL, 0xeb37b931eb1d2d1eULL, 0x0000000000000000ULL}},
      {"family_vegas_2_4__scalar_j1", {0x39cb7a345486867fULL, 0x4700daf9a1cfb7eaULL, 0xd33f03ecba8bc9baULL, 0x40e5160e68141158ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_vegas_2_4__scalar_j4", {0x39cb7a345486867fULL, 0x4700daf9a1cfb7eaULL, 0xd33f03ecba8bc9baULL, 0x40e5160e68141158ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_veno_aggregate_batch", {0x340f801975ed7780ULL, 0xe15fec00713a2aeaULL, 0x092fd6f20b921563ULL, 0x91047a6318d40c0bULL, 0x9e0aa63d3025b0a7ULL, 0x0000000000000000ULL}},
      {"family_veno_aggregate_scalar", {0x340f801975ed7780ULL, 0xe15fec00713a2aeaULL, 0x092fd6f20b921563ULL, 0x91047a6318d40c0bULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_veno_batch_j1", {0x0724d8bb089cb251ULL, 0x3a5fb2385146f12fULL, 0x4ea4e51000e80e4cULL, 0xaf561809c7f47a9dULL, 0xeb37b931eb1d2d1eULL, 0x0000000000000000ULL}},
      {"family_veno_batch_j4", {0x0724d8bb089cb251ULL, 0x3a5fb2385146f12fULL, 0x4ea4e51000e80e4cULL, 0xaf561809c7f47a9dULL, 0xeb37b931eb1d2d1eULL, 0x0000000000000000ULL}},
      {"family_veno_scalar_j1", {0x0724d8bb089cb251ULL, 0x3a5fb2385146f12fULL, 0x4ea4e51000e80e4cULL, 0xaf561809c7f47a9dULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_veno_scalar_j4", {0x0724d8bb089cb251ULL, 0x3a5fb2385146f12fULL, 0x4ea4e51000e80e4cULL, 0xaf561809c7f47a9dULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_westwood_aggregate_batch", {0x02f0014aa3779b24ULL, 0x8f28c0781458a37aULL, 0xf6484d50c517f35bULL, 0x2b666583650c22a0ULL, 0x9e0aa63d3025b0a7ULL, 0x0000000000000000ULL}},
      {"family_westwood_aggregate_scalar", {0x02f0014aa3779b24ULL, 0x8f28c0781458a37aULL, 0xf6484d50c517f35bULL, 0x2b666583650c22a0ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_westwood_batch_j1", {0x03ba70ced6d9087aULL, 0xbbc443c5e0da4749ULL, 0x9e21f14701007451ULL, 0x6bb9018cfe4752a6ULL, 0xeb37b931eb1d2d1eULL, 0x0000000000000000ULL}},
      {"family_westwood_batch_j4", {0x03ba70ced6d9087aULL, 0xbbc443c5e0da4749ULL, 0x9e21f14701007451ULL, 0x6bb9018cfe4752a6ULL, 0xeb37b931eb1d2d1eULL, 0x0000000000000000ULL}},
      {"family_westwood_scalar_j1", {0x03ba70ced6d9087aULL, 0xbbc443c5e0da4749ULL, 0x9e21f14701007451ULL, 0x6bb9018cfe4752a6ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"family_westwood_scalar_j4", {0x03ba70ced6d9087aULL, 0xbbc443c5e0da4749ULL, 0x9e21f14701007451ULL, 0x6bb9018cfe4752a6ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"fat_tree", {0xad15b9c669d89d67ULL, 0x9c3eb197dae5d36eULL, 0xa592a562008c4469ULL, 0x8b0742ce1fee6b3bULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"injector_bernoulli", {0xf61f97a87e8f80c5ULL, 0x320d0e94531c3801ULL, 0x2637ae9b8992745aULL, 0x60dc54fa062fa0f6ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"injector_constant", {0x9b69957551e8dc7fULL, 0x49084084aa7ca28dULL, 0xc2a158cd5b9d60a6ULL, 0xd24af030c6828373ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"injector_gilbert_elliott", {0x8e769cb4a82dbef1ULL, 0x573a839c40fb3fcbULL, 0x7764610b1cffa939ULL, 0x974a2c3ff3e6e4edULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"parking_lot", {0x4cea472119b35958ULL, 0x24f91c8682ae222fULL, 0xa321155b6508e080ULL, 0xd3b75025708efcb5ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"parking_lot_aggregate", {0xe390333f2ec0ec58ULL, 0xc7c40e16b4c590eeULL, 0xf3e360cd12d03ea5ULL, 0x3c8825d57c414555ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"parking_lot_cohort", {0x14f64dbe5a5837d7ULL, 0x0bdab6fd6ad387efULL, 0x05e0980cb8b1c9d2ULL, 0x6f3a0634a7587a1cULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"parking_lot_rtt_schedule", {0x10dd7a89293727dbULL, 0x1a3b720cec25c651ULL, 0x12a92bd4ff49221bULL, 0xdeceb223b7bdc6f5ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"rtt_schedule", {0x23c49ec0e701a02bULL, 0x84a04ba53a089822ULL, 0x15726cc0ae43ef8bULL, 0xa51dd030a540c447ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"sharded_40k_bernoulli", {0xeab6aa16712bee0dULL, 0xf9bd3ab28ba1b3cdULL, 0xf8f9ff85c9495e4bULL, 0xc0ca61f875a132d6ULL, 0x79bdbcaf985cad55ULL, 0x0000000000000000ULL}},
      {"step_monitor_stop", {0x2c74413a1cf2f995ULL, 0xc3726c6e84157b85ULL, 0x19ab0ff268007cc5ULL, 0xb452c0a55a83e142ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"uniform_100k", {0x694eb0d2b4098eb9ULL, 0x2b10d58ee7285a89ULL, 0x520c0e491bd78cc9ULL, 0xbdbeebae1cb10efaULL, 0x165e6cb2b05255ccULL, 0x0000000000000000ULL}},
      {"unsync_aggregate", {0x3e98b6cf46dc0fffULL, 0xb677433ade6769feULL, 0x3a3de438b719f3edULL, 0x4cd681c369fe81c3ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
      {"unsync_full", {0x5092034e973514a5ULL, 0xb677433ade6769feULL, 0x3a3de438b719f3edULL, 0xfed75ab36aa5df14ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
  };
  return g;
}
// clang-format on

std::string row(const std::string& name, const Digests& d) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", {0x%016llxULL, 0x%016llxULL, 0x%016llxULL, "
                "0x%016llxULL, 0x%016llxULL, 0x%016llxULL}},",
                name.c_str(), static_cast<unsigned long long>(d.trace),
                static_cast<unsigned long long>(d.rtt),
                static_cast<unsigned long long>(d.scope),
                static_cast<unsigned long long>(d.recorder),
                static_cast<unsigned long long>(d.cohort),
                static_cast<unsigned long long>(d.utilization));
  return buf;
}

class GoldenFluidDigest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenFluidDigest, MatchesPinnedBytes) {
  const std::string& name = GetParam();
  const Digests actual = run_named(name);
  const auto it = golden().find(name);
  ASSERT_NE(it, golden().end()) << "no pinned digests; actual:\n"
                                << row(name, actual);
  const Digests& want = it->second;
  EXPECT_EQ(actual.trace, want.trace) << row(name, actual);
  EXPECT_EQ(actual.rtt, want.rtt) << row(name, actual);
  EXPECT_EQ(actual.scope, want.scope) << row(name, actual);
  EXPECT_EQ(actual.utilization, want.utilization) << row(name, actual);
  EXPECT_EQ(actual.recorder, want.recorder) << row(name, actual);
  EXPECT_EQ(actual.cohort, want.cohort) << row(name, actual);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, GoldenFluidDigest, ::testing::ValuesIn(scenario_names()),
    [](const ::testing::TestParamInfo<std::string>& param) {
      return param.param;
    });

}  // namespace
}  // namespace axiomcc
