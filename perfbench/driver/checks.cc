#include <fstream>
#include <stdexcept>

#include "util/task_pool.h"
#include "workloads.h"

namespace perfbench {

std::uint64_t trace_digest(const axiomcc::fluid::Trace& trace) {
  Digest d;
  d.u64(static_cast<std::uint64_t>(trace.num_senders()));
  d.u64(trace.num_steps());
  d.f64s(trace.total_window());
  d.f64s(trace.rtt_seconds());
  d.f64s(trace.congestion_loss());
  if (trace.detail() == axiomcc::fluid::TraceDetail::kAggregate) {
    d.f64s(trace.window_min());
    d.f64s(trace.window_max());
    d.f64s(trace.window_mean());
    for (const long active : trace.active_senders()) {
      d.u64(static_cast<std::uint64_t>(active));
    }
  }
  for (int i = 0; i < trace.num_senders(); ++i) {
    if (!trace.tracks(i)) continue;
    d.f64s(trace.windows(i));
    d.f64s(trace.observed_loss(i));
  }
  return d.value();
}

std::uint64_t derived_seed(std::uint64_t seed, std::uint64_t k) {
  return axiomcc::derive_task_seed(seed, k);
}

double derived_unit(std::uint64_t seed, std::uint64_t k) {
  return static_cast<double>(derived_seed(seed, k) >> 11) * 0x1.0p-53;
}

void write_spans(const Config& config, const SpanLog& log) {
  if (config.spans_path.empty()) return;
  std::ofstream out(config.spans_path);
  out << log.to_json();
  if (!out) {
    throw std::runtime_error("cannot write spans to " + config.spans_path);
  }
}

}  // namespace perfbench
