// Flight-recorder equivalence tests for the fluid engine's two tick loops.
// The determinism contract the trace tests pin extends to recordings: the
// same scenario yields byte-identical JSONL at any --jobs, and the
// materialized and uniform loops, like kernel and per-member next_window
// dispatch, differ only in the kCohort execution-mode metadata the aligner
// masks by default.
#include "fluid/sim.h"

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "recorder/align.h"
#include "recorder/io.h"
#include "recorder/recorder.h"
#include "scalar_only.h"

namespace axiomcc::fluid {
namespace {

using recorder::EventClass;
using recorder::EventCode;
using recorder::Recording;

/// A scenario that exercises every event class: three AIMD cohorts (one
/// joining late, one leaving early), a mid-run bandwidth drop, and a
/// buffer small enough that congestion loss actually occurs.
/// `materialize` installs a pass-through step monitor, which keeps an
/// aggregate-detail run off the uniform loop; `scalar_dispatch` hides
/// AIMD's batch kernel so every member advances through next_window.
Recording record_scenario(bool materialize, long jobs, TraceDetail detail,
                          recorder::RecordOptions ropts,
                          bool scalar_dispatch = false) {
  ropts.enabled = true;
  recorder::Recorder sink(ropts);

  SimOptions options;
  options.steps = 96;
  options.jobs = jobs;
  options.trace_detail = detail;
  options.record_sink = &sink;
  FluidSimulation sim(make_link_mbps(24.0, 40.0, 30.0), options);

  const auto cohort = [&](long start, long stop) {
    SenderSpec spec;
    spec.protocol = cc::make_protocol("aimd(1,0.5)");
    if (scalar_dispatch) {
      spec.protocol = testing_support::scalar_only(*spec.protocol);
    }
    spec.initial_window_mss = 2.0;
    spec.start_step = start;
    spec.stop_step = stop;
    return spec;
  };
  sim.add_senders(cohort(0, -1), 16);
  sim.add_senders(cohort(10, -1), 8);
  sim.add_senders(cohort(0, 60), 8);
  sim.set_bandwidth_schedule(
      [](long step) { return step < 48 ? 1.0 : 0.5; });
  if (materialize) {
    sim.set_step_monitor(
        [](long, std::span<const double>, double, double) { return true; });
  }

  (void)sim.run();
  return sink.snapshot();
}

/// The kCohort execution-mode codes of `rec`, in order.
std::vector<EventCode> cohort_codes(const Recording& rec) {
  std::vector<EventCode> codes;
  for (const auto& e : rec.events) {
    if (e.cls == EventClass::kCohort) codes.push_back(e.code);
  }
  return codes;
}

TEST(FluidRecord, BatchRecordingBytesIdenticalAcrossJobs) {
  if (!recorder::compiled_in()) GTEST_SKIP() << "recorder compiled out";
  const Recording serial =
      record_scenario(/*materialize=*/false, /*jobs=*/1, TraceDetail::kFull,
                      {});
  const Recording sharded =
      record_scenario(/*materialize=*/false, /*jobs=*/4, TraceDetail::kFull,
                      {});
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(recording_to_jsonl(serial), recording_to_jsonl(sharded));
}

TEST(FluidRecord, UniformAndMaterializedRecordIdenticallyModuloCohortMetadata) {
  if (!recorder::compiled_in()) GTEST_SKIP() << "recorder compiled out";
  // With the execution-mode class captured, each loop stamps its own
  // decision per cohort: the uniform loop kUniform, the materialized loop
  // kKernel (aimd has a batch kernel)...
  const Recording uniform =
      record_scenario(/*materialize=*/false, 1, TraceDetail::kAggregate, {});
  const Recording materialized =
      record_scenario(/*materialize=*/true, 2, TraceDetail::kAggregate, {});
  EXPECT_EQ(cohort_codes(uniform),
            std::vector<EventCode>(3, EventCode::kUniform));
  EXPECT_EQ(cohort_codes(materialized),
            std::vector<EventCode>(3, EventCode::kKernel));
  // ...so the aligner (which masks kCohort by default) still reports them
  // as the same run...
  const recorder::AlignResult aligned =
      recorder::align_recordings(uniform, materialized);
  EXPECT_FALSE(aligned.diverged) << aligned.reason;
  EXPECT_EQ(aligned.steps_compared, 96);

  // ...and with kCohort excluded at capture time the two loops are
  // byte-identical on the wire.
  recorder::RecordOptions masked;
  masked.classes = recorder::kAllClasses & ~class_bit(EventClass::kCohort);
  const Recording uniform_masked =
      record_scenario(false, 1, TraceDetail::kAggregate, masked);
  const Recording materialized_masked =
      record_scenario(true, 4, TraceDetail::kAggregate, masked);
  ASSERT_FALSE(uniform_masked.empty());
  EXPECT_EQ(recording_to_jsonl(uniform_masked),
            recording_to_jsonl(materialized_masked));
}

TEST(FluidRecord, ScalarAndBatchRecordIdenticallyModuloCohortMetadata) {
  if (!recorder::compiled_in()) GTEST_SKIP() << "recorder compiled out";
  // The same cohorts advanced by AIMD's SoA batch kernel and member by
  // member through scalar next_window: each cohort stamps kKernel or
  // kFallback...
  const Recording kernel = record_scenario(false, 1, TraceDetail::kFull, {});
  const Recording scalar =
      record_scenario(false, 2, TraceDetail::kFull, {},
                      /*scalar_dispatch=*/true);
  EXPECT_EQ(cohort_codes(kernel),
            std::vector<EventCode>(3, EventCode::kKernel));
  EXPECT_EQ(cohort_codes(scalar),
            std::vector<EventCode>(3, EventCode::kFallback));
  // ...which the aligner masks, and without which the wire bytes agree.
  const recorder::AlignResult aligned =
      recorder::align_recordings(kernel, scalar);
  EXPECT_FALSE(aligned.diverged) << aligned.reason;
  EXPECT_EQ(aligned.steps_compared, 96);

  recorder::RecordOptions masked;
  masked.classes = recorder::kAllClasses & ~class_bit(EventClass::kCohort);
  const Recording kernel_masked =
      record_scenario(false, 1, TraceDetail::kFull, masked);
  const Recording scalar_masked =
      record_scenario(false, 4, TraceDetail::kFull, masked,
                      /*scalar_dispatch=*/true);
  ASSERT_FALSE(kernel_masked.empty());
  EXPECT_EQ(recording_to_jsonl(kernel_masked),
            recording_to_jsonl(scalar_masked));
}

TEST(FluidRecord, AggregateModeKeepsLanesBoundedAndAlignsWithScalar) {
  if (!recorder::compiled_in()) GTEST_SKIP() << "recorder compiled out";
  // Aggregate trace detail drives cohort-lane window samples (memory
  // independent of the population) on either loop and under scalar
  // next_window dispatch.
  const Recording scalar = record_scenario(true, 1, TraceDetail::kAggregate,
                                           {}, /*scalar_dispatch=*/true);
  const Recording uniform =
      record_scenario(false, 4, TraceDetail::kAggregate, {});
  const Recording materialized =
      record_scenario(true, 1, TraceDetail::kAggregate, {});
  for (const Recording* rec : {&scalar, &uniform, &materialized}) {
    ASSERT_FALSE(rec->empty());
    for (const auto& e : rec->events) {
      EXPECT_NE(e.subject_kind, recorder::Subject::kSender)
          << "aggregate mode must not materialize per-sender lanes";
    }
  }
  // The scalar run dispatches every member on the materialized loop, the
  // kernel run advances one representative per cohort on the uniform loop;
  // the execution-mode stamps are again the only difference.
  EXPECT_EQ(cohort_codes(scalar),
            std::vector<EventCode>(3, EventCode::kFallback));
  EXPECT_EQ(cohort_codes(uniform),
            std::vector<EventCode>(3, EventCode::kUniform));
  const recorder::AlignResult aligned =
      recorder::align_recordings(scalar, uniform);
  EXPECT_FALSE(aligned.diverged) << aligned.reason;

  recorder::RecordOptions masked;
  masked.classes = recorder::kAllClasses & ~class_bit(EventClass::kCohort);
  EXPECT_EQ(recording_to_jsonl(record_scenario(true, 1,
                                               TraceDetail::kAggregate, masked,
                                               /*scalar_dispatch=*/true)),
            recording_to_jsonl(
                record_scenario(false, 2, TraceDetail::kAggregate, masked)));
}

TEST(FluidRecord, ChurnScheduleAndLossTransitionsLandAtTheirSteps) {
  if (!recorder::compiled_in()) GTEST_SKIP() << "recorder compiled out";
  const Recording rec = record_scenario(false, 1, TraceDetail::kFull, {});
  EXPECT_EQ(rec.backend, "fluid");
  EXPECT_EQ(rec.senders, 32);
  EXPECT_EQ(rec.steps, 96);

  bool join_at_10 = false, leave_at_60 = false, bw_at_48 = false,
       loss_onset = false, total_sampled = false;
  for (const auto& e : rec.events) {
    if (e.cls == EventClass::kChurn && e.code == EventCode::kJoin &&
        e.step == 10 && e.subject == 1) {
      join_at_10 = true;
      EXPECT_DOUBLE_EQ(e.a, 8.0);  // cohort member count
    }
    if (e.cls == EventClass::kChurn && e.code == EventCode::kLeave &&
        e.step == 60 && e.subject == 2) {
      leave_at_60 = true;
    }
    if (e.cls == EventClass::kSchedule && e.code == EventCode::kBandwidth &&
        e.step == 48) {
      bw_at_48 = true;
      EXPECT_DOUBLE_EQ(e.a, 0.5);
      EXPECT_DOUBLE_EQ(e.b, 1.0);
    }
    loss_onset |= e.cls == EventClass::kLoss && e.code == EventCode::kOnset;
    total_sampled |=
        e.cls == EventClass::kWindow && e.code == EventCode::kTotal;
  }
  EXPECT_TRUE(join_at_10);
  EXPECT_TRUE(leave_at_60);
  EXPECT_TRUE(bw_at_48);
  EXPECT_TRUE(loss_onset) << "30-MSS buffer under 32 AIMD senders must drop";
  EXPECT_TRUE(total_sampled);
}

TEST(FluidRecord, DisabledBuildSnapshotsNothing) {
  if (recorder::compiled_in()) {
    GTEST_SKIP() << "covers the AXIOMCC_RECORDER=OFF stub";
  }
  const Recording rec =
      record_scenario(false, 1, TraceDetail::kFull, {});
  EXPECT_TRUE(rec.empty());
  EXPECT_EQ(rec.backend, "");
}

}  // namespace
}  // namespace axiomcc::fluid
