#include "analysis/telemetry_report.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "analysis/ascii_plot.h"
#include "telemetry/telemetry.h"

namespace axiomcc::analysis {

BenchTelemetry::BenchTelemetry(const ArgParser& args, std::string bench_name)
    : bench_name_(std::move(bench_name)) {
  const auto dir = args.telemetry_dir();
  if (!dir) return;
  dir_ = *dir;
  active_ = true;
  telemetry::Registry::global().reset_values();
  telemetry::Tracer::global().reset();
  telemetry::set_enabled(true);
}

std::string span_flame_summary() {
  const auto events = telemetry::Tracer::global().collect();
  if (events.empty()) return {};
  std::map<std::string, double> by_category;
  for (const telemetry::SpanEvent& e : events) {
    by_category[e.category] += static_cast<double>(e.duration_us) / 1000.0;
  }
  std::vector<Bar> bars;
  bars.reserve(by_category.size());
  for (const auto& [category, total_ms] : by_category) {
    bars.push_back(Bar{category, total_ms});
  }
  std::stable_sort(bars.begin(), bars.end(),
                   [](const Bar& a, const Bar& b) { return a.value > b.value; });
  return bar_chart(bars, 50, "span time by category (ms):");
}

void BenchTelemetry::finish(BenchReport& bench) {
  if (!active_) return;
  active_ = false;
  telemetry::set_enabled(false);

  bench.set_telemetry(telemetry::Registry::global().snapshot().to_json());

  const auto events = telemetry::Tracer::global().collect();
  const std::string trace_path = dir_ + "/trace_" + bench_name_ + ".json";
  if (telemetry::write_chrome_trace(trace_path, events)) {
    std::fprintf(stderr, "[telemetry] %zu spans -> %s", events.size(),
                 trace_path.c_str());
    const std::uint64_t dropped = telemetry::Tracer::global().dropped();
    if (dropped > 0) {
      std::fprintf(stderr, " (%llu dropped: ring full)",
                   static_cast<unsigned long long>(dropped));
    }
    std::fprintf(stderr, "\n");
  } else {
    std::fprintf(stderr, "[telemetry] cannot write %s\n", trace_path.c_str());
  }

  const std::string summary = span_flame_summary();
  if (!summary.empty()) std::fputs(summary.c_str(), stderr);
}

}  // namespace axiomcc::analysis
