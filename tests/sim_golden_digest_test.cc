// Golden packet digests: pins the exact bytes each packet-level scenario
// produces, so a change to the packet substrate (sim/, the packet backend)
// that alters behaviour shows up as a digest mismatch instead of a shifted
// score somewhere downstream.
//
// Per scenario the test pins an FNV-1a 64 digest of
//   * the trace (every series the Trace holds, as raw double bits);
//   * the per-flow tail reports plus the bottleneck utilization;
//   * the streaming scope's series (when a scope is attached);
//   * the flight recorder's JSONL timeline (when a recorder is attached);
// and, for scenarios built straight on the simulator, the number of events
// the simulator processed. Backend runs do not expose their simulator; their
// trace bytes pin the event sequence instead.
//
// The crosscheck cells pin a reduced core::evaluate_protocol on the packet
// backend as the raw bits of all eight scores. They reach what the scenario
// rows do not: the fast-utilization run on a near-infinite link, the
// robustness probes through the injected-loss forward filter, and the mixed
// run against Reno.
//
// A pinned value may change only with an intended behaviour change; the
// commit that moves it says which scenarios moved and why. On a mismatch
// the failure message prints the full replacement row.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cc/mimd.h"
#include "cc/presets.h"
#include "cc/robust_aimd.h"
#include "core/evaluator.h"
#include "core/metric_point.h"
#include "engine/backend.h"
#include "engine/topology.h"
#include "fluid/link.h"
#include "fluid/loss_model.h"
#include "fuzz/fuzzer.h"
#include "fuzz/scenario_text.h"
#include "recorder/io.h"
#include "sim/dumbbell.h"
#include "sim/network.h"
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
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
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
  d.f64s(trace.rtt_seconds());
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

std::uint64_t reports_digest(const std::vector<sim::FlowReport>& reports,
                             double utilization) {
  Fnv1a d;
  for (const sim::FlowReport& r : reports) {
    d.str(r.protocol_name);
    d.f64(r.avg_window_mss);
    d.f64(r.throughput_mbps);
    d.f64(r.loss_rate);
    d.f64(r.avg_rtt_ms);
  }
  d.f64(utilization);
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
/// (no scope, no recorder, or a simulator the test cannot reach).
struct Digests {
  std::uint64_t trace = 0;
  std::uint64_t reports = 0;
  std::uint64_t scope = 0;
  std::uint64_t recorder = 0;
  std::size_t events = 0;
};

/// The trace digest recorded for a scenario whose run raises a
/// ContractViolation.
constexpr std::uint64_t kContractViolation = 0xc0de'dead'0000'0001ULL;

/// Protocol prototypes shared by every scenario (slots hold raw pointers).
struct Protocols {
  std::unique_ptr<cc::Protocol> reno = cc::presets::reno();
  std::unique_ptr<cc::Protocol> cubic = cc::presets::cubic_linux();
  std::unique_ptr<cc::Protocol> scalable = cc::presets::scalable();
};
const Protocols& protocols() {
  static const Protocols p;
  return p;
}

/// Runs `spec` on the packet backend, attaching a scope and a recorder when
/// the spec enables them.
Digests run_backend(engine::ScenarioSpec spec) {
  const std::unique_ptr<recorder::Recorder> rec = engine::make_recorder(spec);
  const std::unique_ptr<scope::MetricScope> sc = engine::make_scope(spec);
  spec.record_sink = rec.get();
  spec.scope_sink = sc.get();
  const engine::RunTrace rt =
      engine::backend_for(engine::BackendKind::kPacket).run(spec);
  Digests d;
  d.trace = trace_digest(rt.trace);
  d.reports = reports_digest(rt.flows, rt.bottleneck_utilization);
  if (sc != nullptr) d.scope = scope_digest(sc->series());
  if (rec != nullptr) {
    d.recorder = fuzz::fnv1a64(recorder::recording_to_jsonl(rec->snapshot()));
  }
  return d;
}

engine::ScenarioSpec link_spec(double mbps, double rtt_ms, double buffer_mss,
                               long steps) {
  engine::ScenarioSpec spec;
  spec.link = fluid::make_link_mbps(mbps, rtt_ms, buffer_mss);
  spec.steps = steps;
  spec.seed = 7;
  return spec;
}

/// A reduced emulab-grid cell: `protos` join 50 ms apart with spread-out
/// initial windows, as exp::run_emulab_grid builds its cells.
engine::ScenarioSpec emulab_cell(
    const std::vector<const cc::Protocol*>& protos) {
  engine::ScenarioSpec spec = link_spec(20.0, 42.0, 60.0, 300);
  const double capacity = fluid::FluidLink(spec.link).capacity_mss();
  const double n = static_cast<double>(protos.size());
  for (std::size_t i = 0; i < protos.size(); ++i) {
    const double initial =
        std::max(2.0, capacity * static_cast<double>(i) / (2.0 * n));
    spec.add_sender(*protos[i], initial,
                    0.05 * static_cast<double>(i) / 0.042);
  }
  return spec;
}

/// The emulab cell on the backend, plus the same scenario built by hand on
/// sim::DumbbellExperiment (whose trace must be the backend's) for the
/// event count.
Digests emulab_digests(const std::vector<const cc::Protocol*>& protos) {
  const engine::ScenarioSpec spec = emulab_cell(protos);
  Digests d = run_backend(spec);

  sim::DumbbellConfig dc = sim::dumbbell_config_from_link(spec.link);
  const double step_s = dc.rtt_ms / 1e3;
  dc.duration_seconds = step_s * static_cast<double>(spec.steps);
  dc.seed = spec.seed;
  dc.tail_fraction = spec.tail_fraction;
  dc.max_window_mss = engine::PacketBackend::Options{}.max_window_mss;
  sim::DumbbellExperiment exp(dc);
  for (const engine::SenderSlot& slot : spec.senders) {
    exp.add_flow(slot.prototype->clone(), slot.start_step * step_s,
                 std::clamp(slot.initial_window_mss, 1.0, dc.max_window_mss));
  }
  exp.run();
  EXPECT_EQ(trace_digest(exp.trace()), d.trace)
      << "hand-built dumbbell and PacketBackend disagree";
  EXPECT_EQ(reports_digest(exp.flow_reports(), exp.bottleneck_utilization()),
            d.reports);
  d.events = exp.simulator().events_processed();
  return d;
}

Digests dumbbell_digests(const sim::DumbbellConfig& cfg) {
  const Protocols& p = protocols();
  sim::DumbbellExperiment exp(cfg);
  exp.add_flow(p.reno->clone());
  exp.add_flow(p.cubic->clone(), 0.2, 4.0);
  exp.run();
  Digests d;
  d.trace = trace_digest(exp.trace());
  d.reports = reports_digest(exp.flow_reports(), exp.bottleneck_utilization());
  d.events = exp.simulator().events_processed();
  return d;
}

sim::DumbbellConfig small_dumbbell() {
  sim::DumbbellConfig cfg;
  cfg.bottleneck_mbps = 10.0;
  cfg.rtt_ms = 40.0;
  cfg.buffer_packets = 60;
  cfg.duration_seconds = 10.0;
  cfg.seed = 11;
  return cfg;
}

/// Scope with 16-step windows plus a recorder capturing every class.
void observe(engine::ScenarioSpec& spec) {
  spec.scope.enabled = true;
  spec.scope.window_steps = 16;
  spec.record.enabled = true;
  spec.record.sample_stride = 4;
}

engine::ScenarioSpec parking_lot_spec() {
  engine::ScenarioSpec spec = link_spec(20.0, 30.0, 40.0, 300);
  engine::apply_parking_lot(spec, spec.link, /*bottlenecks=*/2,
                            *protocols().reno, /*cross_flows_per_link=*/1,
                            /*initial_window_mss=*/2.0);
  return spec;
}

using Runner = Digests (*)();

std::map<std::string, Runner> named_runners() {
  std::map<std::string, Runner> r;
  r["emulab_reno"] = [] {
    const Protocols& p = protocols();
    return emulab_digests({p.reno.get(), p.reno.get()});
  };
  r["emulab_cubic"] = [] {
    const Protocols& p = protocols();
    return emulab_digests({p.cubic.get(), p.cubic.get()});
  };
  r["emulab_scalable"] = [] {
    const Protocols& p = protocols();
    return emulab_digests({p.scalable.get(), p.scalable.get()});
  };
  r["emulab_mixed_cubic_reno"] = [] {
    const Protocols& p = protocols();
    return emulab_digests({p.cubic.get(), p.cubic.get(), p.reno.get()});
  };
  r["emulab_mixed_scalable_reno"] = [] {
    const Protocols& p = protocols();
    return emulab_digests({p.scalable.get(), p.reno.get()});
  };
  r["bandwidth_schedule"] = [] {
    engine::ScenarioSpec spec = link_spec(12.0, 40.0, 40.0, 300);
    spec.add_sender(*protocols().reno, 2.0);
    spec.add_sender(*protocols().cubic, 2.0, 3.0);
    spec.bandwidth_scale = [](long k) {
      return k < 100 ? 1.0 : (k < 200 ? 0.4 : 1.7);
    };
    return run_backend(spec);
  };
  r["rtt_schedule"] = [] {
    engine::ScenarioSpec spec = link_spec(12.0, 42.0, 40.0, 320);
    spec.add_sender(*protocols().reno, 2.0);
    spec.add_sender(*protocols().reno, 2.0, 1.5);
    // 0.3 exercises the forward-delay floor.
    spec.rtt_scale = [](long k) {
      return k < 80 ? 1.0 : (k < 160 ? 2.7 : (k < 240 ? 0.3 : 1.3));
    };
    return run_backend(spec);
  };
  r["gilbert_elliott"] = [] {
    engine::ScenarioSpec spec = link_spec(12.0, 40.0, 40.0, 300);
    spec.add_sender(*protocols().reno, 2.0);
    spec.add_sender(*protocols().cubic, 2.0, 0.5);
    spec.loss = [](std::uint64_t seed) {
      return std::make_unique<fluid::GilbertElliottLoss>(0.05, 0.3, 0.0, 0.1,
                                                         seed);
    };
    return run_backend(spec);
  };
  r["churn"] = [] {
    engine::ScenarioSpec spec = link_spec(12.0, 40.0, 40.0, 300);
    spec.add_sender(*protocols().reno, 2.0);
    spec.add_sender(*protocols().reno, 2.0, 40.0, 180.0);
    spec.add_sender(*protocols().cubic, 4.0, 100.5);
    return run_backend(spec);
  };
  r["cohort_observed"] = [] {
    engine::ScenarioSpec spec = link_spec(15.0, 36.0, 50.0, 260);
    spec.add_senders(*protocols().reno, 3, 2.0);
    spec.add_senders(*protocols().cubic, 2, 2.0, 20.0);
    spec.add_sender(*protocols().scalable, 2.0, 5.0);
    observe(spec);
    spec.scope.p_classes = 1;
    return run_backend(spec);
  };
  r["aggregate_detail"] = [] {
    engine::ScenarioSpec spec = link_spec(15.0, 40.0, 50.0, 250);
    spec.add_senders(*protocols().reno, 4, 2.0);
    spec.add_sender(*protocols().cubic, 2.0, 10.0);
    spec.trace_detail = fluid::TraceDetail::kAggregate;
    spec.tracked_senders = 2;
    return run_backend(spec);
  };
  r["scope_recorder_schedules"] = [] {
    engine::ScenarioSpec spec = link_spec(12.0, 40.0, 40.0, 300);
    spec.add_sender(*protocols().reno, 2.0);
    spec.add_sender(*protocols().cubic, 2.0, 0.0, 220.0);
    spec.bandwidth_scale = [](long k) { return k < 150 ? 1.0 : 0.5; };
    spec.rtt_scale = [](long k) { return k < 200 ? 1.0 : 1.6; };
    spec.loss = [](std::uint64_t seed) {
      return std::make_unique<fluid::BernoulliLoss>(0.1, 0.02, seed);
    };
    observe(spec);
    return run_backend(spec);
  };
  r["step_monitor_stop"] = [] {
    engine::ScenarioSpec spec = link_spec(12.0, 40.0, 40.0, 300);
    spec.add_sender(*protocols().reno, 2.0);
    spec.add_sender(*protocols().reno, 2.0, 1.0);
    spec.step_monitor = [](long step, std::span<const double>, double,
                           double) { return step < 120; };
    observe(spec);
    return run_backend(spec);
  };
  r["sub_ms_rtt"] = [] {
    engine::ScenarioSpec spec = link_spec(4.0, 0.6, 8.0, 1500);
    spec.add_sender(*protocols().reno, 1.0);
    spec.add_sender(*protocols().reno, 1.0, 200.0);
    observe(spec);
    return run_backend(spec);
  };
  r["dumbbell_red"] = [] {
    sim::DumbbellConfig cfg = small_dumbbell();
    cfg.use_red = true;
    cfg.red.min_threshold = 10.0;
    cfg.red.max_threshold = 40.0;
    cfg.red.max_drop_probability = 0.1;
    return dumbbell_digests(cfg);
  };
  r["dumbbell_random_loss"] = [] {
    sim::DumbbellConfig cfg = small_dumbbell();
    cfg.random_loss_rate = 0.01;
    return dumbbell_digests(cfg);
  };
  r["parking_lot"] = [] {
    engine::ScenarioSpec spec = parking_lot_spec();
    observe(spec);
    return run_backend(spec);
  };
  r["parking_lot_rtt_schedule"] = [] {
    engine::ScenarioSpec spec = parking_lot_spec();
    spec.rtt_scale = [](long k) { return k < 100 ? 1.0 : 1.9; };
    return run_backend(spec);
  };
  r["parking_lot_cohort"] = [] {
    engine::ScenarioSpec spec = parking_lot_spec();
    spec.senders[1].count = 3;
    observe(spec);
    return run_backend(spec);
  };
  r["fat_tree"] = [] {
    engine::ScenarioSpec spec = link_spec(20.0, 30.0, 40.0, 250);
    const engine::FatTreeTopology tree =
        engine::make_fat_tree(3, 2, spec.link);
    spec.topology = tree.topology;
    const int pairs[][2] = {{0, 1}, {1, 2}, {2, 0}, {0, 2}};
    for (long f = 0; f < 4; ++f) {
      spec.add_routed_sender(*protocols().reno,
                             tree.route(f, pairs[f][0], pairs[f][1], 5), 2.0,
                             static_cast<double>(f));
    }
    observe(spec);
    return run_backend(spec);
  };
  r["direct_parking_lot"] = [] {
    sim::MultiHopNetwork::Config cfg;
    cfg.duration_seconds = 8.0;
    sim::PacketParkingLot lot =
        sim::make_packet_parking_lot(10.0, 10.0, 30, 3, *protocols().reno, cfg);
    lot.network->run();
    Digests d;
    d.trace = trace_digest(lot.network->trace());
    d.reports = reports_digest(lot.network->flow_reports(),
                               lot.network->max_link_utilization());
    d.events = lot.network->simulator().events_processed();
    return d;
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

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const auto& [name, runner] : named_runners()) names.push_back(name);
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
  for (const std::string& file : corpus_files()) {
    if (corpus_name(file) != name) continue;
    const fuzz::CompiledScenario compiled =
        fuzz::compile_scenario(fuzz::load_scenario_file(file));
    // Some corpus entries pin a contract fault rather than a run.
    try {
      return run_backend(compiled.spec);
    } catch (const ContractViolation&) {
      return Digests{kContractViolation, 0, 0, 0, 0};
    }
  }
  ADD_FAILURE() << "unknown scenario " << name;
  return {};
}

// clang-format off
const std::map<std::string, Digests>& golden() {
  static const std::map<std::string, Digests> g = {
      {"aggregate_detail", {0x37cdb30d49d83071ULL, 0x351fccbc9e8c58c8ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 0}},
      {"bandwidth_schedule", {0xaaf2d3a697fdf29cULL, 0x03a40c33b4aa5fa5ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 0}},
      {"churn", {0x8964a3ef0a17ff19ULL, 0x3ba0e6d0f90e9782ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 0}},
      {"cohort_observed", {0xf1f4af2e74eacb00ULL, 0x66e68f6da5db0c5cULL, 0xfb706a96179cb71cULL, 0x928fe89ecd0b7c93ULL, 0}},
      {"corpus_batch_cohort_aggregate", {0x965aec580219e839ULL, 0x6b2a607ea65a5e34ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 0}},
      {"corpus_divergence_outage_aimd", {0x6f6859e04056831dULL, 0xe75bdc8caff4481fULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 0}},
      {"corpus_divergence_parking_lot_beatdown", {0xbb9f9dbeb70ae008ULL, 0x1eb3c9560e790955ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 0}},
      {"corpus_divergence_rtt_step_veno", {0x8f042865238515e5ULL, 0x0f0ae4ddf3a247c1ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 0}},
      {"corpus_divergence_zero_buffer", {0xd38cb3f15b09a451ULL, 0xd2bf15955cf2cf35ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 0}},
      {"corpus_fault_late_joiner_contract", {0xc0dedead00000001ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 0}},
      {"direct_parking_lot", {0xa679423f6dd16eedULL, 0x729a284ce1040322ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 59931}},
      {"dumbbell_random_loss", {0xedda98d7bdfc0b25ULL, 0x18634cdfaacf8f33ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 24877}},
      {"dumbbell_red", {0x6f1b449c8a31371bULL, 0x3071253216a99f08ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 23982}},
      {"emulab_cubic", {0xd1a9cf8078fad551ULL, 0x9bd9227678258e29ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 63484}},
      {"emulab_mixed_cubic_reno", {0x6cd2b4fae436366dULL, 0x6223dd6f8664a28dULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 63889}},
      {"emulab_mixed_scalable_reno", {0x9206f3c97b8cbf58ULL, 0x38bd27122e038259ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 59580}},
      {"emulab_reno", {0xd2e18ee47846fc56ULL, 0x694559d7bb95fcbaULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 61556}},
      {"emulab_scalable", {0x294c607d10023648ULL, 0xf0b5c9df436223caULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 51215}},
      {"fat_tree", {0xd2efdbd9ff6722eeULL, 0x90ff28add9eba857ULL, 0xb8911f3457aed3cbULL, 0xafbaa390524b6c76ULL, 0}},
      {"gilbert_elliott", {0xdd14735325b9c862ULL, 0x709a644f18e77f50ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 0}},
      {"parking_lot", {0x387f6a7ca929d6c1ULL, 0xb8b1858e1a1d74e6ULL, 0xbfd6bc70842767d9ULL, 0xa955c395d10d2c5dULL, 0}},
      {"parking_lot_cohort", {0x83f17a5c6aca153cULL, 0x8ba9111de842dae8ULL, 0xa18b2da60df247b2ULL, 0x561853b34a339b12ULL, 0}},
      {"parking_lot_rtt_schedule", {0x92232dde75b252a6ULL, 0x3499a12663eb9b3cULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 0}},
      {"rtt_schedule", {0xa3c96aab2a5b9912ULL, 0xfe523cae82dc56ffULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 0}},
      {"scope_recorder_schedules", {0xf4e98e2b5b0e3e44ULL, 0xf3d834db8c093316ULL, 0x75d27081a6893788ULL, 0xc4ef8cddcb2efc8bULL, 0}},
      {"step_monitor_stop", {0x737c54c5511f8283ULL, 0x6b12c1a15f8a10bbULL, 0x19ab0ff268007cc5ULL, 0xa43c1c46c9a01627ULL, 0}},
      {"sub_ms_rtt", {0xa65ff7459e71b49eULL, 0x6afa91e1816a827eULL, 0x812a8a07b5f1ffd1ULL, 0xdfbba762af90a66eULL, 0}},
  };
  return g;
}
// clang-format on

std::string row(const std::string& name, const Digests& d) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", {0x%016llxULL, 0x%016llxULL, 0x%016llxULL, "
                "0x%016llxULL, %zu}},",
                name.c_str(), static_cast<unsigned long long>(d.trace),
                static_cast<unsigned long long>(d.reports),
                static_cast<unsigned long long>(d.scope),
                static_cast<unsigned long long>(d.recorder), d.events);
  return buf;
}

class GoldenPacketDigest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenPacketDigest, MatchesPinnedBytes) {
  const std::string& name = GetParam();
  const Digests actual = run_named(name);
  const auto it = golden().find(name);
  ASSERT_NE(it, golden().end()) << "no pinned digests; actual:\n"
                                << row(name, actual);
  const Digests& want = it->second;
  EXPECT_EQ(actual.trace, want.trace) << row(name, actual);
  EXPECT_EQ(actual.reports, want.reports) << row(name, actual);
  EXPECT_EQ(actual.scope, want.scope) << row(name, actual);
  EXPECT_EQ(actual.events, want.events) << row(name, actual);
  EXPECT_EQ(actual.recorder, want.recorder) << row(name, actual);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, GoldenPacketDigest, ::testing::ValuesIn(scenario_names()),
    [](const ::testing::TestParamInfo<std::string>& param) {
      return param.param;
    });

// --- Crosscheck cells ----------------------------------------------------------

/// The eight scores of one evaluation, as raw double bits.
using ScoreBits = std::array<std::uint64_t, core::kNumMetrics>;

/// A reduced packet-backend evaluation: short horizons, so each cell runs in
/// well under a second. The robustness search starts at 4% loss with 400-step
/// probes, so Robust-AIMD (ε = 1%) escapes some of its six probes and scores
/// above zero.
core::EvalConfig crosscheck_config() {
  core::EvalConfig cfg;
  cfg.backend = engine::BackendKind::kPacket;
  cfg.link = fluid::make_link_mbps(20.0, 42.0, 60.0);
  cfg.steps = 300;
  cfg.fast_utilization_steps = 120;
  cfg.robustness_steps = 400;
  cfg.packet.robustness_steps = 400;
  cfg.robustness_search_iterations = 6;
  cfg.robustness_max_rate = 0.04;
  return cfg;
}

ScoreBits crosscheck_bits(const cc::Protocol& protocol) {
  const core::MetricReport report =
      core::evaluate_protocol(protocol, crosscheck_config());
  ScoreBits bits{};
  for (std::size_t i = 0; i < core::kNumMetrics; ++i) {
    bits[i] = std::bit_cast<std::uint64_t>(
        report.get(static_cast<core::Metric>(i)));
  }
  return bits;
}

std::string crosscheck_row(const std::string& name, const ScoreBits& bits) {
  std::string out = "{\"" + name + "\", {";
  for (std::size_t i = 0; i < bits.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s0x%016llxULL", i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(bits[i]));
    out += buf;
  }
  return out + "}},";
}

struct CrosscheckCell {
  std::string name;
  std::unique_ptr<cc::Protocol> (*make)();
  ScoreBits want;
};

// clang-format off
const std::vector<CrosscheckCell>& crosscheck_cells() {
  static const std::vector<CrosscheckCell> cells = {
      {"mimd", [] { return std::unique_ptr<cc::Protocol>(std::make_unique<cc::Mimd>(1.01, 0.875)); },
       {0x3ff0000000000000ULL, 0x3f90e792c2c407a3ULL, 0x3fa8000000000000ULL, 0x3fb03fbefdd1a533ULL, 0x3fe3c38f0f15956cULL, 0x0000000000000000ULL, 0x402dfbb81585aa4eULL, 0x3feb62e8b427db80ULL}},
      {"robust_aimd", [] { return std::unique_ptr<cc::Protocol>(std::make_unique<cc::RobustAimd>(1.0, 0.8, 0.01)); },
       {0x3ff0000000000000ULL, 0x3fefb79a2030f46eULL, 0x3fa50a8542a150a8ULL, 0x3fede15268b59c1dULL, 0x3feb92d57dadc3daULL, 0x3f547ae147ae147bULL, 0x3fd99d6fa4134756ULL, 0x3feb6db6d2bdbc2aULL}},
  };
  return cells;
}
// clang-format on

class GoldenPacketCrosscheck : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenPacketCrosscheck, MatchesPinnedScores) {
  const CrosscheckCell& cell = crosscheck_cells()[GetParam()];
  const ScoreBits actual = crosscheck_bits(*cell.make());
  for (std::size_t i = 0; i < core::kNumMetrics; ++i) {
    EXPECT_EQ(actual[i], cell.want[i])
        << core::metric_name(static_cast<core::Metric>(i)) << "\n"
        << crosscheck_row(cell.name, actual);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, GoldenPacketCrosscheck,
    ::testing::Range<std::size_t>(0, crosscheck_cells().size()),
    [](const ::testing::TestParamInfo<std::size_t>& param) {
      return crosscheck_cells()[param.param].name;
    });

}  // namespace
}  // namespace axiomcc
