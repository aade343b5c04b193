// fluid_batch_test.cc — cohort-layout equivalence for the fluid engine.
//
// The contract under test (src/cc/batch.h, src/fluid/network.h): for every
// protocol family, at any population size, across churn, injected loss,
// unsynchronized update periods, and any shard count, a population added as
// cohorts (one shared prototype, SoA kernels, one slot per cohort where it
// applies) produces a byte-identical Trace to the same population added
// sender by sender, each a cohort of one whose protocol hides its batch
// kernel (tests/scalar_only.h), so every member advances through the scalar
// next_window. tests/fluid_golden_digest_test.cc pins the bytes themselves.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cc/aimd.h"
#include "cc/registry.h"
#include "cc/slow_start.h"
#include "fluid/loss_model.h"
#include "fluid/sim.h"
#include "scalar_only.h"

namespace axiomcc {
namespace {

using fluid::FluidSimulation;
using fluid::LinkParams;
using fluid::SenderSpec;
using fluid::SimOptions;
using fluid::Trace;
using fluid::TraceDetail;
using testing_support::scalar_only;

// All 13 registry families (kernel families first, then the stateful
// fallbacks that must take the per-sender path inside their cohorts).
const std::vector<std::string>& family_specs() {
  static const std::vector<std::string> specs{
      "aimd(1,0.5)",
      "mimd(1.01,0.875)",
      "bin(1,1,1,0.5)",
      "robust_aimd(1,0.8,0.01)",
      "highspeed",
      "cubic(0.4,0.8)",
      "vegas(2,4)",
      "veno",
      "illinois",
      "westwood",
      "bbr",
      "pcc",
      "cautious",
  };
  return specs;
}

struct RunConfig {
  int n = 7;
  long steps = 120;
  bool churn = false;          ///< splits the population into join/leave cohorts
  bool injected_loss = false;  ///< Bernoulli episodes (stateful injector)
  bool constant_loss = false;  ///< ConstantLoss(0.01) (stateless injector)
  long update_period = 1;
  long update_phase = 0;
  long jobs = 1;
  TraceDetail detail = TraceDetail::kFull;
  int tracked = 4;
};

// Small link so windows hit droptail loss quickly at any population size.
LinkParams test_link() { return fluid::make_link_mbps(24.0, 40.0, 60.0); }

/// Runs `cfg` with each group added as one cohort (`cohorts`) or sender by
/// sender through ScalarOnly.
Trace run_config(const cc::Protocol& prototype, const RunConfig& cfg,
                 bool cohorts) {
  SimOptions options;
  options.steps = cfg.steps;
  options.trace_detail = cfg.detail;
  options.tracked_senders = cfg.tracked;
  options.jobs = cfg.jobs;
  FluidSimulation sim(test_link(), options);

  const auto cohort = [&](long count, double initial, long start, long stop) {
    if (cohorts) {
      if (count > 0) {
        sim.add_senders(SenderSpec{prototype.clone(), initial,
                                   cfg.update_period, cfg.update_phase, start,
                                   stop},
                        count);
      }
      return;
    }
    for (long i = 0; i < count; ++i) {
      sim.add_sender(SenderSpec{scalar_only(prototype), initial,
                                cfg.update_period, cfg.update_phase, start,
                                stop});
    }
  };
  if (cfg.churn && cfg.n >= 3) {
    const long third = cfg.n / 3;
    cohort(third, 2.0, 0, -1);                          // always on
    cohort(third, 1.0, 10, cfg.steps - 20);             // joins then leaves
    cohort(cfg.n - 2 * third, 4.0, cfg.steps / 2, -1);  // late joiner
  } else {
    cohort(cfg.n, 2.0, 0, -1);
  }
  if (cfg.injected_loss) {
    sim.set_loss_injector(
        std::make_unique<fluid::BernoulliLoss>(0.1, 0.05, 1234));
  }
  if (cfg.constant_loss) {
    sim.set_loss_injector(std::make_unique<fluid::ConstantLoss>(0.01));
  }
  return sim.run();
}

void expect_span_identical(std::span<const double> a, std::span<const double> b,
                           const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
        << what << ": series differ";
  }
}

void expect_trace_identical(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.num_senders(), b.num_senders());
  ASSERT_EQ(a.num_steps(), b.num_steps());
  ASSERT_EQ(a.detail(), b.detail());
  expect_span_identical(a.total_window(), b.total_window(), "total_window");
  expect_span_identical(a.rtt_seconds(), b.rtt_seconds(), "rtt_seconds");
  expect_span_identical(a.congestion_loss(), b.congestion_loss(),
                        "congestion_loss");
  ASSERT_EQ(a.tracked_senders().size(), b.tracked_senders().size());
  for (std::size_t j = 0; j < a.tracked_senders().size(); ++j) {
    const int id = a.tracked_senders()[j];
    ASSERT_EQ(id, b.tracked_senders()[j]);
    expect_span_identical(a.windows(id), b.windows(id),
                          "windows[" + std::to_string(id) + "]");
    expect_span_identical(a.observed_loss(id), b.observed_loss(id),
                          "observed_loss[" + std::to_string(id) + "]");
  }
  if (a.detail() == TraceDetail::kAggregate) {
    expect_span_identical(a.window_min(), b.window_min(), "window_min");
    expect_span_identical(a.window_max(), b.window_max(), "window_max");
    expect_span_identical(a.window_mean(), b.window_mean(), "window_mean");
    ASSERT_EQ(a.active_senders().size(), b.active_senders().size());
    for (std::size_t t = 0; t < a.active_senders().size(); ++t) {
      ASSERT_EQ(a.active_senders()[t], b.active_senders()[t]) << "step " << t;
    }
  }
}

void expect_layouts_identical(const cc::Protocol& prototype,
                                   const RunConfig& cfg) {
  const Trace per_sender = run_config(prototype, cfg, /*cohorts=*/false);
  const Trace cohorts = run_config(prototype, cfg, /*cohorts=*/true);
  expect_trace_identical(per_sender, cohorts);
}

class EveryFamily : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Batch, EveryFamily,
                         ::testing::ValuesIn(family_specs()),
                         [](const auto& suite_info) {
                           std::string name = suite_info.param;
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) {
                               ch = '_';
                             }
                           }
                           return name;
                         });

TEST_P(EveryFamily, PopulationSizes) {
  const auto prototype = cc::make_protocol(GetParam());
  for (const int n : {1, 7, 64, 1000}) {
    RunConfig cfg;
    cfg.n = n;
    cfg.steps = n >= 1000 ? 60 : 120;
    expect_layouts_identical(*prototype, cfg);
  }
}

TEST_P(EveryFamily, ChurnAndInjectedLoss) {
  const auto prototype = cc::make_protocol(GetParam());
  RunConfig churn;
  churn.n = 64;
  churn.churn = true;
  expect_layouts_identical(*prototype, churn);

  RunConfig lossy;
  lossy.n = 7;
  lossy.injected_loss = true;
  expect_layouts_identical(*prototype, lossy);

  RunConfig both;
  both.n = 33;
  both.churn = true;
  both.injected_loss = true;
  expect_layouts_identical(*prototype, both);
}

TEST_P(EveryFamily, UnsynchronizedUpdates) {
  const auto prototype = cc::make_protocol(GetParam());
  RunConfig cfg;
  cfg.n = 7;
  cfg.update_period = 3;
  cfg.update_phase = 1;
  expect_layouts_identical(*prototype, cfg);

  cfg.update_period = 5;
  cfg.update_phase = 0;
  cfg.churn = true;
  cfg.n = 12;
  expect_layouts_identical(*prototype, cfg);
}

TEST_P(EveryFamily, ShardedJobsMatchSerial) {
  const auto prototype = cc::make_protocol(GetParam());
  RunConfig serial;
  serial.n = 1000;
  serial.steps = 40;
  serial.jobs = 1;
  RunConfig sharded = serial;
  sharded.jobs = 4;
  const Trace per_sender = run_config(*prototype, serial, /*cohorts=*/false);
  const Trace jobs1 = run_config(*prototype, serial, /*cohorts=*/true);
  const Trace jobs4 = run_config(*prototype, sharded, /*cohorts=*/true);
  expect_trace_identical(per_sender, jobs1);
  expect_trace_identical(jobs1, jobs4);
}

TEST_P(EveryFamily, AggregateMatchesScalarAggregate) {
  const auto prototype = cc::make_protocol(GetParam());
  RunConfig cfg;
  cfg.n = 64;
  cfg.churn = true;
  cfg.detail = TraceDetail::kAggregate;
  cfg.tracked = 5;
  expect_layouts_identical(*prototype, cfg);

  // The representative layout's pending aggregation between updates, and
  // its per-cohort observation of a stateless injector.
  RunConfig unsync = cfg;
  unsync.update_period = 3;
  unsync.update_phase = 1;
  expect_layouts_identical(*prototype, unsync);

  RunConfig lossy = cfg;
  lossy.constant_loss = true;
  expect_layouts_identical(*prototype, lossy);
}

TEST(FluidBatch, SlowStartWrapperBatches) {
  // SlowStart+AIMD is not reachable through the registry; it is the one
  // stateful kernel (one double per sender), so cover it directly.
  const cc::SlowStartWrapper prototype(std::make_unique<cc::Aimd>(1.0, 0.5),
                                       48.0);
  ASSERT_NE(prototype.batch_kernel(), nullptr);
  for (const int n : {1, 7, 64}) {
    RunConfig cfg;
    cfg.n = n;
    expect_layouts_identical(prototype, cfg);
  }
  RunConfig churned;
  churned.n = 21;
  churned.churn = true;
  churned.injected_loss = true;
  expect_layouts_identical(prototype, churned);
  RunConfig unsync;
  unsync.n = 9;
  unsync.update_period = 2;
  unsync.update_phase = 1;
  expect_layouts_identical(prototype, unsync);
}

TEST(FluidBatch, ScalarOnlyHidesTheKernel) {
  const auto aimd = cc::make_protocol("aimd(1,0.5)");
  ASSERT_NE(aimd->batch_kernel(), nullptr);
  const auto wrapped = scalar_only(*aimd);
  EXPECT_EQ(wrapped->batch_kernel(), nullptr);
  EXPECT_EQ(wrapped->clone()->batch_kernel(), nullptr);
  EXPECT_EQ(wrapped->name(), aimd->name());
}

TEST(FluidBatch, SlowStartOverStatefulInnerStaysScalar) {
  const cc::SlowStartWrapper wrapped(cc::make_protocol("cubic(0.4,0.8)"), 64.0);
  EXPECT_EQ(wrapped.batch_kernel(), nullptr);
  // ... and still runs correctly through per-member dispatch in a cohort.
  RunConfig cfg;
  cfg.n = 7;
  expect_layouts_identical(wrapped, cfg);
}

TEST(FluidBatch, MixedCohortsKernelAndFallback) {
  // Heterogeneous population: kernel cohorts (AIMD) interleaved with
  // fallback cohorts (CUBIC) in one simulation.
  const auto aimd = cc::make_protocol("aimd(1,0.5)");
  const auto cubic = cc::make_protocol("cubic(0.4,0.8)");
  const auto build = [&](bool cohorts) {
    SimOptions options;
    options.steps = 100;
    FluidSimulation sim(test_link(), options);
    const auto add = [&](const cc::Protocol& proto, long count,
                         double initial, long start, long stop) {
      if (cohorts) {
        sim.add_senders(SenderSpec{proto.clone(), initial, 1, 0, start, stop},
                        count);
      } else {
        for (long i = 0; i < count; ++i) {
          sim.add_sender(
              SenderSpec{scalar_only(proto), initial, 1, 0, start, stop});
        }
      }
    };
    add(*aimd, 20, 2.0, 0, -1);
    add(*cubic, 20, 2.0, 0, -1);
    add(*aimd, 10, 1.0, 25, 75);
    return sim.run();
  };
  expect_trace_identical(build(false), build(true));
}

TEST(FluidBatch, BulkAddMatchesRepeatedAdd) {
  // add_senders(prototype, n) is the O(1)-allocation cohort constructor; it
  // must behave exactly like n individual add_sender calls.
  const auto prototype = cc::make_protocol("aimd(1,0.5)");
  SimOptions options;
  options.steps = 80;
  FluidSimulation bulk(test_link(), options);
  bulk.add_senders(*prototype, 16, 2.0);
  FluidSimulation repeated(test_link(), options);
  for (int i = 0; i < 16; ++i) repeated.add_sender(*prototype, 2.0);
  expect_trace_identical(bulk.run(), repeated.run());
}

TEST(FluidBatch, AggregateStatsMatchFullTrace) {
  const auto prototype = cc::make_protocol("aimd(1,0.5)");
  RunConfig full_cfg;
  full_cfg.n = 30;
  full_cfg.churn = true;
  const Trace full = run_config(*prototype, full_cfg, /*cohorts=*/false);

  RunConfig agg_cfg = full_cfg;
  agg_cfg.detail = TraceDetail::kAggregate;
  agg_cfg.tracked = 3;
  const Trace agg = run_config(*prototype, agg_cfg, /*cohorts=*/true);

  ASSERT_EQ(full.num_steps(), agg.num_steps());
  expect_span_identical(full.total_window(), agg.total_window(),
                        "total_window");
  for (std::size_t t = 0; t < full.num_steps(); ++t) {
    double wmin = 0.0;
    double wmax = 0.0;
    long active = 0;
    double total = 0.0;
    for (int i = 0; i < full.num_senders(); ++i) {
      const double w = full.windows(i)[t];
      total += w;
      if (w > 0.0) {
        if (active == 0 || w < wmin) wmin = w;
        if (active == 0 || w > wmax) wmax = w;
        ++active;
      }
    }
    ASSERT_EQ(agg.active_senders()[t], active) << "step " << t;
    ASSERT_EQ(agg.window_min()[t], wmin) << "step " << t;
    ASSERT_EQ(agg.window_max()[t], wmax) << "step " << t;
    ASSERT_EQ(agg.window_mean()[t],
              active > 0 ? total / static_cast<double>(active) : 0.0)
        << "step " << t;
  }
  // Tracked ids resolve by global sender id; untracked ids are rejected.
  ASSERT_EQ(agg.tracked_senders().size(), 3u);
  for (const int id : agg.tracked_senders()) {
    EXPECT_TRUE(agg.tracks(id));
    expect_span_identical(full.windows(id), agg.windows(id), "tracked window");
  }
  EXPECT_FALSE(agg.tracks(1));
}

TEST(FluidBatch, DefaultTrackedSendersSelection) {
  const auto ids = fluid::default_tracked_senders(10, 4);
  ASSERT_EQ(ids, (std::vector<int>{0, 2, 5, 7}));
  const auto all = fluid::default_tracked_senders(3, 8);
  ASSERT_EQ(all, (std::vector<int>{0, 1, 2}));
}

TEST(FluidBatch, AggregateTraceMemoryIsPopulationIndependent) {
  // The aggregate trace keeps stats plus k tracked series only: its
  // retained series count must not scale with n.
  const auto prototype = cc::make_protocol("aimd(1,0.5)");
  SimOptions options;
  options.steps = 50;
  options.trace_detail = TraceDetail::kAggregate;
  options.tracked_senders = 4;
  FluidSimulation sim(test_link(), options);
  sim.add_senders(*prototype, 5000, 1.0);
  const Trace trace = sim.run();
  EXPECT_EQ(trace.num_senders(), 5000);
  EXPECT_EQ(trace.tracked_senders().size(), 4u);
  EXPECT_EQ(trace.num_steps(), 50u);
  EXPECT_EQ(trace.windows(0).size(), 50u);
}

}  // namespace
}  // namespace axiomcc
