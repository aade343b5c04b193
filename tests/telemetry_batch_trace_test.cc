// Chrome-trace export round-trip and snapshot identity for the telemetry of
// the fluid engine's materialized cohort loop (span sim.tick_loop.batch).
// Two contracts:
//
//  * spans recorded while the loop fans out over the task pool
//    survive a write_chrome_trace -> parse_chrome_trace round trip exactly
//    (category, name, thread, timing — the inspect/triage workflow reads
//    traces back from disk);
//  * the deterministic counter snapshot of such a run is byte-identical
//    at --jobs=1 and --jobs=4 — the telemetry face of the determinism
//    contract the trace-level tests already pin.
//
// The name contains "telemetry" so the TSan CI preset picks it up: the
// jobs=4 runs exercise the tracer's per-thread rings under real fan-out.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "fluid/sim.h"
#include "telemetry/telemetry.h"

namespace axiomcc::telemetry {
namespace {

class EnabledScope {
 public:
  EnabledScope() : was_(enabled()) { set_enabled(true); }
  ~EnabledScope() { set_enabled(was_); }

 private:
  bool was_;
};

/// Runs a materialized-loop simulation (a full-detail trace keeps the
/// uniform loop out) at the given fan-out width.
fluid::Trace run_batch_sim(long jobs) {
  fluid::SimOptions options;
  options.steps = 200;
  options.jobs = jobs;
  options.trace_detail = fluid::TraceDetail::kFull;
  fluid::FluidSimulation sim(fluid::make_link_mbps(30.0, 42.0, 100.0),
                             options);
  const auto proto = cc::make_protocol("aimd(1,0.5)");
  sim.add_senders(*proto, 256, 10.0);
  return sim.run();
}

std::set<std::pair<std::string, std::string>> span_names(
    const std::vector<SpanEvent>& events) {
  std::set<std::pair<std::string, std::string>> names;
  for (const SpanEvent& event : events) {
    names.emplace(event.category, event.name);
  }
  return names;
}

TEST(TelemetryBatchTrace, ChromeTraceRoundTripsBatchTickLoopSpans) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  EnabledScope scope;
  Tracer::global().reset();

  const fluid::Trace trace = run_batch_sim(4);
  ASSERT_EQ(trace.num_steps(), 200);

  const std::vector<SpanEvent> recorded = Tracer::global().collect();
  const auto names = span_names(recorded);
  EXPECT_TRUE(names.contains({"fluid", "sim.run"}));
  EXPECT_TRUE(names.contains({"fluid", "sim.tick_loop.batch"}));

  const std::string path =
      testing::TempDir() + "/telemetry_batch_trace_roundtrip.json";
  ASSERT_TRUE(write_chrome_trace(path, recorded));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();

  const std::vector<SpanEvent> parsed = parse_chrome_trace(buffer.str());
  ASSERT_EQ(parsed.size(), recorded.size());
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    EXPECT_EQ(parsed[i].category, recorded[i].category) << i;
    EXPECT_EQ(parsed[i].name, recorded[i].name) << i;
    EXPECT_EQ(parsed[i].thread_id, recorded[i].thread_id) << i;
    EXPECT_EQ(parsed[i].start_us, recorded[i].start_us) << i;
    EXPECT_EQ(parsed[i].duration_us, recorded[i].duration_us) << i;
  }
  std::remove(path.c_str());
}

TEST(TelemetryBatchTrace, TickLoopSpanSetIdenticalAcrossJobs) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  EnabledScope scope;

  Tracer::global().reset();
  (void)run_batch_sim(1);
  const auto serial = span_names(Tracer::global().collect());

  Tracer::global().reset();
  (void)run_batch_sim(4);
  const auto parallel = span_names(Tracer::global().collect());

  // Span timing is scheduling-dependent; the set of (category, name) pairs
  // the run emits is not allowed to be.
  EXPECT_EQ(serial, parallel);
}

TEST(TelemetryBatchTrace, DeterministicSnapshotIdenticalAcrossJobs) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  EnabledScope scope;

  Registry::global().reset_values();
  (void)run_batch_sim(1);
  const std::string serial =
      Registry::global().snapshot().deterministic_json();

  Registry::global().reset_values();
  (void)run_batch_sim(4);
  const std::string parallel =
      Registry::global().snapshot().deterministic_json();

  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("fluid.ticks"), std::string::npos) << serial;
}

}  // namespace
}  // namespace axiomcc::telemetry
