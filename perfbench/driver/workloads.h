// workloads.h — the benchmark's three workloads.
//
// Each runs in one process. With Config::trace off it times whole passes
// and returns the end-to-end metrics; with it on it makes one traced pass
// plus the differential runs and isolated replays that attribute time and
// counts to the layers, and returns the per-layer metrics.
#pragma once

#include <cmath>
#include <cstdint>

#include "fluid/trace.h"
#include "report.h"

namespace perfbench {

/// §5.1 grid on the packet backend (exp::run_emulab_grid).
[[nodiscard]] Outcome run_emulab_grid(const Config& config);
/// Uniform-cohort AIMD population plus Robust-AIMD under Bernoulli loss.
[[nodiscard]] Outcome run_fluid_population(const Config& config);
/// A fixed-seed, fixed-budget fuzz::run_fuzz campaign.
[[nodiscard]] Outcome run_fuzz_campaign(const Config& config);

/// FNV-1a over a trace's bytes: the run-level series, then every retained
/// per-sender series (the population statistics of an aggregate trace).
[[nodiscard]] std::uint64_t trace_digest(const axiomcc::fluid::Trace& trace);

/// The workload's own seed stream: value `k` derived from the run's seed.
[[nodiscard]] std::uint64_t derived_seed(std::uint64_t seed, std::uint64_t k);
/// A number in [0, 1) derived from the run's seed.
[[nodiscard]] double derived_unit(std::uint64_t seed, std::uint64_t k);

[[nodiscard]] inline bool in_domain(double v, double lo, double hi) {
  return std::isfinite(v) && v >= lo && v <= hi;
}

/// Writes the traced run's spans to config.spans_path (if set).
void write_spans(const Config& config, const SpanLog& log);

}  // namespace perfbench
