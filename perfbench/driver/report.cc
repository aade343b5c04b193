#include "report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"ops_per_s", "ops/s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns/event"},
    {"sim.allocs_per_event", "allocs/event"},
    {"sim.share", "frac"},
    {"fluid.sender_steps", "count"},
    {"fluid.uniform.ns_per_sender_step", "ns/sender-step"},
    {"fluid.batch.ns_per_sender_step", "ns/sender-step"},
    {"fluid.scalar.ns_per_sender_step", "ns/sender-step"},
    {"scope.overhead_frac", "frac"},
    {"scope.ns_per_observe", "ns/observe"},
    {"recorder.events", "count"},
    {"recorder.overhead_frac", "frac"},
    {"recorder.ns_per_event", "ns/event"},
    {"core.estimator_ns_per_step", "ns/step"},
    {"core.share", "frac"},
    {"engine.fluid.us_per_run", "us/run"},
    {"engine.packet.us_per_run", "us/run"},
    {"exp.straggler_ratio", "ratio"},
    {"exp.theory_agreement", "frac"},
    {"stress.guarded_runs", "count"},
    {"stress.faults", "count"},
    {"fuzz.execs", "count"},
    {"fuzz.findings", "count"},
    {"fuzz.novel_frac", "frac"},
    {"fuzz.minimize_share", "frac"},
    {"fuzz.text_us_per_scenario", "us/scenario"},
    {"trace.overhead_frac", "frac"},
};

}  // namespace

std::span<const MetricDef> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricDef> per_layer_metrics() { return kPerLayer; }

std::vector<Metric> collect(
    std::span<const MetricDef> defs,
    const std::vector<std::pair<std::string, double>>& values) {
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(defs.begin(), defs.end(), [&](const auto& d) {
      return name == d.name;
    });
    if (!known) throw std::logic_error("undeclared metric " + name);
  }
  std::vector<Metric> out;
  for (const MetricDef& d : defs) {
    double value = 0.0;
    for (const auto& [name, v] : values) {
      if (name == d.name) value = v;
    }
    out.push_back(Metric{d.name, d.unit, value});
  }
  return out;
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

std::vector<double> quantiles(std::vector<double> v, int n) {
  if (v.size() < 2 || n < 1) {
    throw std::invalid_argument("quantiles needs two values and n >= 1");
  }
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::vector<double> out;
  for (long i = 1; i < n; ++i) {
    const long j = std::clamp(i * m / n, 1L, ld - 1);
    const long delta = i * m - j * n;
    out.push_back((v[static_cast<std::size_t>(j - 1)] *
                       static_cast<double>(n - delta) +
                   v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                  static_cast<double>(n));
  }
  return out;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

void Tally::add_pass(const PassOutput& pass) {
  if (!have_reference_) {
    for (const OpResult& op : pass.ops) reference_.push_back(op.digest);
    have_reference_ = true;
  }
  const bool same_shape = pass.ops.size() == reference_.size();
  for (std::size_t i = 0; i < pass.ops.size(); ++i) {
    add_op(pass.ops[i].failed || !same_shape ||
           pass.ops[i].digest != reference_[i]);
  }
}

void Tally::add_op(bool failed) {
  ++attempted_;
  if (failed) ++failed_;
}

std::uint64_t Tally::reference_digest() const {
  Digest d;
  for (const std::uint64_t h : reference_) d.u64(h);
  return d.value();
}

std::vector<Metric> end_to_end(double setup_s, const PassTimes& passes,
                               double work, double rss_mib) {
  const double wall = axiomcc::median_of(passes.seconds);
  return collect(end_to_end_metrics(),
                 {{"setup_s", setup_s},
                  {"wall_s", wall},
                  {"ops_per_s", wall > 0.0 ? work / wall : 0.0},
                  {"peak_rss_mb", rss_mib}});
}

std::string pass_note(const PassTimes& passes) {
  const std::vector<double>& t = passes.seconds;
  std::string note = "timed passes: n=" + std::to_string(t.size()) +
                     ", median " + full_digits(axiomcc::median_of(t)) + " s";
  if (t.size() >= 2) {
    const std::vector<double> q = quantiles(t, 4);
    note += ", q1 " + full_digits(q[0]) + " s, q3 " + full_digits(q[2]) + " s";
  }
  return note;
}

std::string full_digits(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_outcome(const Outcome& outcome) {
  for (const std::string& note : outcome.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const Metric& m : outcome.metrics) {
    std::printf("%-34s %22s %s\n", m.name.c_str(), full_digits(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("%-34s %22s (%ld of %ld operations)\n", "failed_frac",
              full_digits(outcome.attempted > 0
                              ? static_cast<double>(outcome.failed) /
                                    static_cast<double>(outcome.attempted)
                              : 1.0)
                  .c_str(),
              outcome.failed, outcome.attempted);
  std::string json = std::string("{\"correct\": ") +
                     (outcome.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + full_digits(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
