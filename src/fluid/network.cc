#include "fluid/network.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "cc/batch.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/task_pool.h"

namespace axiomcc::fluid {

namespace {

/// The active link set under (possibly null) network-wide bandwidth/RTT
/// schedules. The scaled links are a pure function of the (bandwidth, RTT)
/// scale pair, so they are rebuilt only when the pair changes —
/// piecewise-constant schedules (the common gauntlet case) stop paying a
/// rebuild per tick. Scale validation still runs every step.
class ScheduledLinks {
 public:
  ScheduledLinks(const std::vector<FluidLink>& base,
                 const std::function<double(long)>& bw,
                 const std::function<double(long)>& rtt)
      : base_(base), bw_(bw), rtt_(rtt) {}

  const std::vector<FluidLink>& at(long step) {
    if (!bw_ && !rtt_) return base_;
    double bw_scale = 1.0;
    double rtt_scale = 1.0;
    if (bw_) {
      bw_scale = bw_(step);
      AXIOMCC_EXPECTS_MSG(bw_scale > 0.0, "bandwidth scale must be positive");
    }
    if (rtt_) {
      rtt_scale = rtt_(step);
      AXIOMCC_EXPECTS_MSG(rtt_scale > 0.0, "RTT scale must be positive");
    }
    if (!cached_ || bw_scale != last_bw_ || rtt_scale != last_rtt_) {
      scaled_.clear();
      scaled_.reserve(base_.size());
      for (const FluidLink& link : base_) {
        LinkParams params = link.params();
        if (bw_) {
          params.bandwidth = Bandwidth::from_mss_per_sec(
              params.bandwidth.mss_per_sec() * bw_scale);
        }
        if (rtt_) {
          params.propagation_delay = params.propagation_delay * rtt_scale;
        }
        scaled_.emplace_back(params);
      }
      cached_ = true;
      last_bw_ = bw_scale;
      last_rtt_ = rtt_scale;
    }
    return scaled_;
  }

 private:
  const std::vector<FluidLink>& base_;
  const std::function<double(long)>& bw_;
  const std::function<double(long)>& rtt_;
  std::vector<FluidLink> scaled_;
  double last_bw_ = 1.0;
  double last_rtt_ = 1.0;
  bool cached_ = false;
};

bool active_at(const SenderSpec& spec, long step) {
  return step >= spec.start_step &&
         (spec.stop_step < 0 || step < spec.stop_step);
}

/// One step's link state: per-link arrivals, droptail loss and RTT, and
/// what each cohort's route makes of them. Both tick loops fill it the same
/// way; only how they fold arrivals differs.
class LinkStep {
 public:
  LinkStep(std::vector<const std::vector<int>*> routes, int num_links)
      : routes_(std::move(routes)),
        arrivals_(static_cast<std::size_t>(num_links), 0.0),
        loss_(arrivals_.size(), 0.0),
        rtt_(arrivals_.size(), 0.0),
        utilization_sum_(arrivals_.size(), 0.0),
        route_loss_(routes_.size(), 0.0),
        route_rtt_(routes_.size(), 0.0) {
    bool multi_hop = false;
    for (const std::vector<int>* route : routes_) {
      multi_hop = multi_hop || route->size() > 1;
    }
    one_link_ = num_links == 1 && !multi_hop;
    // Without multi-hop routes no loss thins any arrival, so one round is
    // the fixed point.
    rounds_ = multi_hop ? 4 : 1;
  }

  /// True when every route is the single link 0: its arrivals are then the
  /// total window, which the caller folds once for both.
  [[nodiscard]] bool one_link() const { return one_link_; }

  void settle_one_link(const FluidLink& link, double total) {
    arrivals_[0] = total;
    loss_[0] = link.loss_rate(total);
  }

  /// Settles per-link loss: `fold(loss, arrivals)` adds every active flow's
  /// carried load hop by hop, in ascending flow order, thinned by the given
  /// upstream loss. Iterated to a consistent carried load when routes have
  /// several hops; a handful of rounds converges because loss rates are
  /// small and monotone.
  template <typename Fold>
  void settle(const std::vector<FluidLink>& links, const Fold& fold) {
    std::fill(loss_.begin(), loss_.end(), 0.0);
    for (int round = 0; round < rounds_; ++round) {
      std::fill(arrivals_.begin(), arrivals_.end(), 0.0);
      fold(std::as_const(loss_), arrivals_);
      for (std::size_t l = 0; l < links.size(); ++l) {
        loss_[l] = links[l].loss_rate(arrivals_[l]);
      }
    }
  }

  /// Derives link RTTs and utilization, the per-cohort route loss and RTT,
  /// and the step's summary values. `active_flows(c)` is the number of
  /// active flows in cohort c.
  template <typename ActiveFlows>
  void finish(const std::vector<FluidLink>& links,
              const ActiveFlows& active_flows) {
    max_loss_ = 0.0;
    for (std::size_t l = 0; l < links.size(); ++l) {
      rtt_[l] = links[l].rtt(arrivals_[l]).value();
      utilization_sum_[l] +=
          std::min(1.0, arrivals_[l] / links[l].capacity_mss());
      max_loss_ = std::max(max_loss_, loss_[l]);
    }
    for (std::size_t c = 0; c < routes_.size(); ++c) {
      const std::vector<int>& route = *routes_[c];
      if (route.size() == 1) {
        route_loss_[c] = loss_[static_cast<std::size_t>(route[0])];
        route_rtt_[c] = rtt_[static_cast<std::size_t>(route[0])];
        continue;
      }
      double survive = 1.0;
      double rtt = 0.0;
      for (const int l : route) {
        survive *= 1.0 - loss_[static_cast<std::size_t>(l)];
        rtt += rtt_[static_cast<std::size_t>(l)];
      }
      route_loss_[c] = 1.0 - survive;
      route_rtt_[c] = rtt;
    }

    // The step RTT is the mean route RTT over active flows — exactly the
    // shared value when every active route agrees (always, on one link),
    // and the zero-load floor of the shortest route when no flow is active.
    long active = 0;
    std::size_t first = 0;
    bool all_equal = true;
    for (std::size_t c = 0; c < routes_.size(); ++c) {
      const long n = active_flows(c);
      if (n == 0) continue;
      if (active == 0) {
        first = c;
      } else if (route_rtt_[c] != route_rtt_[first]) {
        all_equal = false;
      }
      active += n;
    }
    if (active == 0) {
      step_rtt_ = *std::min_element(route_rtt_.begin(), route_rtt_.end());
    } else if (all_equal) {
      step_rtt_ = route_rtt_[first];
    } else {
      double sum = 0.0;
      for (std::size_t c = 0; c < routes_.size(); ++c) {
        const long n = active_flows(c);
        for (long k = 0; k < n; ++k) sum += route_rtt_[c];
      }
      step_rtt_ = sum / static_cast<double>(active);
    }
  }

  [[nodiscard]] double route_loss(std::size_t c) const {
    return route_loss_[c];
  }
  [[nodiscard]] double route_rtt(std::size_t c) const { return route_rtt_[c]; }
  [[nodiscard]] std::span<const double> route_losses() const {
    return route_loss_;
  }
  [[nodiscard]] double max_loss() const { return max_loss_; }
  [[nodiscard]] double step_rtt() const { return step_rtt_; }

  /// Per-link scope view: utilization against the step's (scheduled)
  /// capacity, the link's own droptail loss, and the loaded/zero-load RTT
  /// ratio against the CONFIGURED link so RTT schedules register as
  /// latency inflation.
  void observe_links(scope::MetricScope& scope,
                     const std::vector<FluidLink>& configured,
                     const std::vector<FluidLink>& links) const {
    for (std::size_t l = 0; l < links.size(); ++l) {
      const double base_rtt = configured[l].min_rtt().value();
      scope.observe_link(
          static_cast<int>(l),
          std::min(1.0, arrivals_[l] / links[l].capacity_mss()), loss_[l],
          base_rtt > 0.0 ? rtt_[l] / base_rtt : 1.0);
    }
  }

  [[nodiscard]] std::vector<double> mean_utilization(long steps) const {
    std::vector<double> mean(utilization_sum_.size());
    for (std::size_t l = 0; l < mean.size(); ++l) {
      mean[l] = utilization_sum_[l] / static_cast<double>(std::max(steps, 1L));
    }
    return mean;
  }

 private:
  std::vector<const std::vector<int>*> routes_;
  std::vector<double> arrivals_;
  std::vector<double> loss_;
  std::vector<double> rtt_;
  std::vector<double> utilization_sum_;
  std::vector<double> route_loss_;
  std::vector<double> route_rtt_;
  double max_loss_ = 0.0;
  double step_rtt_ = 0.0;
  int rounds_ = 1;
  bool one_link_ = false;
};

/// Flight-recorder emission, shared by both tick loops. Everything is
/// derived from the cohort specs, the schedules, and the per-step values the
/// trace records — never from loop-specific execution state — so both loops
/// produce byte-identical recordings for the same scenario. All calls happen
/// in the serial sections of the loops, keeping recordings identical at any
/// job count. When the capture path is compiled out the stub Recorder's
/// `wants` is a constant false and every block below folds away.
class StepRecorder {
 public:
  struct CohortRef {
    const SenderSpec* spec;
    long count;
  };

  StepRecorder(recorder::Recorder* sink, std::vector<CohortRef> cohorts,
               const std::function<double(long)>& bw,
               const std::function<double(long)>& rtt, bool aggregate,
               long num_flows)
      : sink_(sink),
        bw_(&bw),
        rtt_(&rtt),
        aggregate_(aggregate),
        cohorts_(std::move(cohorts)) {
    if (sink_ == nullptr) return;
    sink_->set_backend("fluid");
    sink_->set_senders(num_flows);
    churn_active_.assign(cohorts_.size(), 0);
    injected_visible_.assign(cohorts_.size(), 0);
  }

  /// The tick loop's execution decision (kernel / fallback / uniform), one
  /// setup event per cohort. The aligner masks this class by default —
  /// execution mode is metadata, not simulated behaviour.
  void cohort_mode(std::size_t cohort, recorder::EventCode mode) {
    if (sink_ == nullptr || !sink_->wants(recorder::EventClass::kCohort)) {
      return;
    }
    sink_->emit({0, recorder::EventClass::kCohort, mode,
                 recorder::Subject::kCohort, static_cast<int>(cohort),
                 static_cast<double>(cohorts_[cohort].count), 0.0});
  }

  /// Called once per step at the trace-record point, with the values the
  /// trace sees (pre-update windows). `route_loss` is each cohort's own
  /// composed congestion loss; `cohort_window`/`cohort_observed` map a
  /// cohort index to its representative's values; `flow_window` maps a
  /// flow id to its window (full detail only).
  template <typename CohortWindow, typename CohortObserved,
            typename FlowWindow>
  void on_step(long step, double total, double rtt_value,
               double congestion_loss, std::span<const double> route_loss,
               CohortWindow&& cohort_window, CohortObserved&& cohort_observed,
               FlowWindow&& flow_window, long num_flows) {
    using recorder::EventClass;
    using recorder::EventCode;
    using recorder::Subject;
    if (sink_ == nullptr) return;
    sink_->note_step(step);

    if (sink_->wants(EventClass::kChurn)) {
      for (std::size_t ci = 0; ci < cohorts_.size(); ++ci) {
        const bool active = active_at(*cohorts_[ci].spec, step);
        if (active != static_cast<bool>(churn_active_[ci])) {
          sink_->emit({step, EventClass::kChurn,
                       active ? EventCode::kJoin : EventCode::kLeave,
                       Subject::kCohort, static_cast<int>(ci),
                       static_cast<double>(cohorts_[ci].count), 0.0});
          churn_active_[ci] = active ? 1 : 0;
        }
      }
    }

    if (sink_->wants(EventClass::kSchedule)) {
      if (*bw_) {
        const double scale = (*bw_)(step);
        if (scale != last_bw_scale_) {
          sink_->emit({step, EventClass::kSchedule, EventCode::kBandwidth,
                       Subject::kRun, -1, scale, last_bw_scale_});
          last_bw_scale_ = scale;
        }
      }
      if (*rtt_) {
        const double scale = (*rtt_)(step);
        if (scale != last_rtt_scale_) {
          sink_->emit({step, EventClass::kSchedule, EventCode::kRtt,
                       Subject::kRun, -1, scale, last_rtt_scale_});
          last_rtt_scale_ = scale;
        }
      }
    }

    if (sink_->wants(EventClass::kLoss)) {
      const bool lossy = congestion_loss > 0.0;
      if (lossy != loss_active_) {
        sink_->emit({step, EventClass::kLoss,
                     lossy ? EventCode::kOnset : EventCode::kClear,
                     Subject::kRun, -1,
                     lossy ? congestion_loss : last_loss_, 0.0});
        loss_active_ = lossy;
      }
      if (lossy) last_loss_ = congestion_loss;
      // Injected (non-congestion) loss becoming visible to a cohort:
      // combine_loss is strictly increasing in the injected component and
      // returns the route's own congestion loss unchanged when nothing is
      // injected, so observed > route loss exactly when the injector
      // contributed. (A multi-hop route's composed loss exceeds every
      // single link's rate, so the step's max-link rate would not do.)
      for (std::size_t ci = 0; ci < cohorts_.size(); ++ci) {
        const bool active = active_at(*cohorts_[ci].spec, step);
        const double observed = active ? cohort_observed(ci) : 0.0;
        const bool visible = active && observed > route_loss[ci];
        if (visible != static_cast<bool>(injected_visible_[ci])) {
          sink_->emit({step, EventClass::kLoss,
                       visible ? EventCode::kInjected : EventCode::kClear,
                       Subject::kCohort, static_cast<int>(ci), observed,
                       route_loss[ci]});
          injected_visible_[ci] = visible ? 1 : 0;
        }
      }
    }

    if (sink_->wants(EventClass::kWindow) && sink_->sample_due(step)) {
      sink_->emit({step, EventClass::kWindow, EventCode::kTotal, Subject::kRun,
                   -1, total, rtt_value});
      if (aggregate_) {
        for (std::size_t ci = 0; ci < cohorts_.size(); ++ci) {
          if (!active_at(*cohorts_[ci].spec, step)) continue;
          const double w = cohort_window(ci);
          if (w > 0.0) {
            sink_->emit({step, EventClass::kWindow, EventCode::kSample,
                         Subject::kCohort, static_cast<int>(ci), w, 0.0});
          }
        }
      } else {
        for (long i = 0; i < num_flows; ++i) {
          const double w = flow_window(i);
          if (w > 0.0) {
            sink_->emit({step, EventClass::kWindow, EventCode::kSample,
                         Subject::kSender, static_cast<int>(i), w, 0.0});
          }
        }
      }
    }
  }

 private:
  recorder::Recorder* sink_;
  const std::function<double(long)>* bw_;
  const std::function<double(long)>* rtt_;
  bool aggregate_;
  std::vector<CohortRef> cohorts_;
  std::vector<char> churn_active_;
  std::vector<char> injected_visible_;
  double last_bw_scale_ = 1.0;
  double last_rtt_scale_ = 1.0;
  bool loss_active_ = false;
  double last_loss_ = 0.0;
};

/// Tick and loss tallies accumulate in locals and flush to the registry
/// once after the loop, so the hot loop never touches shared metric state.
/// The totals count simulation content and are deterministic at any jobs.
struct TickTallies {
  bool enabled = telemetry::compiled_in() && telemetry::enabled();
  long ticks = 0;
  long loss_event_steps = 0;
  long injected_loss_samples = 0;

  void tick(double congestion_loss) {
    if (!enabled) return;
    ++ticks;
    if (congestion_loss > 0.0) ++loss_event_steps;
  }
  void flush() const {
    if (!enabled) return;
    TELEMETRY_COUNT("fluid.ticks", ticks);
    TELEMETRY_COUNT("fluid.loss_event_steps", loss_event_steps);
    TELEMETRY_COUNT("fluid.injected_loss_samples", injected_loss_samples);
  }
};

#ifndef AXIOMCC_TELEMETRY_DISABLED
/// A tick costs tens of nanoseconds, so timing every one would multiply the
/// loop's cost; sampling 1-in-64 keeps the distribution while the untimed
/// ticks pay only the enabled() branch.
std::optional<telemetry::ScopedHistogramTimer> sample_tick(
    const TickTallies& tallies, long step) {
  if (!tallies.enabled || (step & 63) != 0) return std::nullopt;
  static telemetry::Histogram& tick_hist =
      telemetry::Registry::global().latency_histogram("fluid.tick_us");
  return std::optional<telemetry::ScopedHistogramTimer>(std::in_place,
                                                        tick_hist);
}
#endif

}  // namespace

/// What both tick loops share: the trace being recorded, the scheduled
/// links, the per-step link state, the recorder and the telemetry tallies.
struct FluidNetwork::RunContext {
  Trace trace;
  ScheduledLinks sched;
  LinkStep step;
  StepRecorder srec;
  TickTallies tallies;
  long steps_run = 0;
};

FluidNetwork::FluidNetwork(Options options)
    : options_(options), injector_(std::make_unique<NoLoss>()) {
  AXIOMCC_EXPECTS(options.steps > 0);
  AXIOMCC_EXPECTS(options.min_window_mss > 0.0);
  AXIOMCC_EXPECTS(options.max_window_mss > options.min_window_mss);
  AXIOMCC_EXPECTS(options.jobs >= 0);
  if (options.trace_detail == TraceDetail::kAggregate) {
    AXIOMCC_EXPECTS(options.tracked_senders > 0);
  }
}

FluidNetwork::FluidNetwork(const LinkParams& link, Options options)
    : FluidNetwork(options) {
  add_link(link);
  link_channels_ = false;
}

int FluidNetwork::add_link(const LinkParams& params) {
  AXIOMCC_EXPECTS_MSG(!ran_, "add_link must precede run()");
  links_.emplace_back(params);
  return num_links() - 1;
}

int FluidNetwork::add_flow(std::unique_ptr<cc::Protocol> protocol,
                           std::vector<int> route, double initial_window_mss) {
  FlowSpec spec;
  spec.protocol = std::move(protocol);
  spec.initial_window_mss = initial_window_mss;
  spec.route = std::move(route);
  return add_flows(std::move(spec), 1);
}

int FluidNetwork::add_flow(FlowSpec spec) {
  return add_flows(std::move(spec), 1);
}

int FluidNetwork::add_flows(FlowSpec spec, long count) {
  AXIOMCC_EXPECTS_MSG(!ran_, "add_flows must precede run()");
  AXIOMCC_EXPECTS(spec.protocol != nullptr);
  AXIOMCC_EXPECTS_MSG(!spec.route.empty(),
                      "a flow must traverse at least one link");
  for (const int link_id : spec.route) {
    AXIOMCC_EXPECTS(link_id >= 0 && link_id < num_links());
  }
  AXIOMCC_EXPECTS(spec.initial_window_mss >= 0.0);
  AXIOMCC_EXPECTS(spec.update_period >= 1);
  AXIOMCC_EXPECTS(spec.update_phase >= 0 &&
                  spec.update_phase < spec.update_period);
  AXIOMCC_EXPECTS(spec.start_step >= 0);
  AXIOMCC_EXPECTS(spec.stop_step < 0 || spec.stop_step > spec.start_step);
  AXIOMCC_EXPECTS(count >= 1);
  AXIOMCC_EXPECTS_MSG(num_flows_ + count <= std::numeric_limits<int>::max(),
                      "flow population exceeds the index space");
  cohorts_.push_back(Cohort{std::move(spec), num_flows_, count});
  num_flows_ += count;
  return static_cast<int>(cohorts_.back().begin);
}

void FluidNetwork::set_loss_injector(std::unique_ptr<LossInjector> injector) {
  AXIOMCC_EXPECTS_MSG(!ran_, "set_loss_injector must precede run()");
  AXIOMCC_EXPECTS(injector != nullptr);
  injector_ = std::move(injector);
}

void FluidNetwork::set_bandwidth_schedule(std::function<double(long)> scale) {
  AXIOMCC_EXPECTS_MSG(!ran_, "set_bandwidth_schedule must precede run()");
  AXIOMCC_EXPECTS(scale != nullptr);
  bandwidth_scale_ = std::move(scale);
}

void FluidNetwork::set_rtt_schedule(std::function<double(long)> scale) {
  AXIOMCC_EXPECTS_MSG(!ran_, "set_rtt_schedule must precede run()");
  AXIOMCC_EXPECTS(scale != nullptr);
  rtt_scale_ = std::move(scale);
}

void FluidNetwork::set_step_monitor(StepMonitor monitor) {
  AXIOMCC_EXPECTS_MSG(!ran_, "set_step_monitor must precede run()");
  AXIOMCC_EXPECTS(monitor != nullptr);
  step_monitor_ = std::move(monitor);
}

const FluidLink& FluidNetwork::link(int id) const {
  AXIOMCC_EXPECTS(id >= 0 && id < num_links());
  return links_[static_cast<std::size_t>(id)];
}

Trace FluidNetwork::run() {
  AXIOMCC_EXPECTS_MSG(!ran_, "run() may be called only once");
  AXIOMCC_EXPECTS_MSG(!cohorts_.empty(), "add at least one flow before run()");
  ran_ = true;
  TELEMETRY_SPAN("fluid", "sim.run");

  // Trace conventions (see header): capacity = min link capacity on any
  // route; min-RTT = smallest route floor.
  double min_capacity = std::numeric_limits<double>::infinity();
  double min_route_rtt = std::numeric_limits<double>::infinity();
  std::vector<const std::vector<int>*> routes;
  std::vector<StepRecorder::CohortRef> refs;
  for (const Cohort& c : cohorts_) {
    double route_rtt = 0.0;
    for (const int l : c.spec.route) {
      min_capacity = std::min(min_capacity, links_[l].capacity_mss());
      route_rtt += links_[l].min_rtt().value();
    }
    min_route_rtt = std::min(min_route_rtt, route_rtt);
    routes.push_back(&c.spec.route);
    refs.push_back(StepRecorder::CohortRef{&c.spec, c.count});
  }

  const int n = num_flows();
  const bool aggregate = options_.trace_detail == TraceDetail::kAggregate;
  Trace trace =
      aggregate ? Trace(n, min_capacity, min_route_rtt, TraceDetail::kAggregate,
                        default_tracked_senders(n, options_.tracked_senders))
                : Trace(n, min_capacity, min_route_rtt);
  trace.reserve(static_cast<std::size_t>(options_.steps));

  // The scope observes each step from the serial section of whichever tick
  // loop runs, in ascending (cohort, member) order — the same fold order
  // for either loop at any job count. resolve() only adopts fields the
  // caller left unset, so an engine-layer resolve (which knows the tail
  // fraction) wins.
  if (options_.scope_sink != nullptr) {
    options_.scope_sink->resolve(options_.steps, 0.0, min_capacity,
                                 min_route_rtt, options_.max_window_mss);
    options_.scope_sink->begin_run(static_cast<int>(cohorts_.size()),
                                   link_channels_ ? num_links() : 0);
  }

  RunContext ctx{std::move(trace),
                 ScheduledLinks(links_, bandwidth_scale_, rtt_scale_),
                 LinkStep(std::move(routes), num_links()),
                 StepRecorder(options_.record_sink, std::move(refs),
                              bandwidth_scale_, rtt_scale_, aggregate, n),
                 TickTallies{}};
  // A cohort whose members all see the same inputs every step — shared
  // spec, shared schedules, and a per-step-uniform (stateless) loss
  // injector — provably stays uniform: every member's window is bitwise
  // identical forever, so the whole cohort advances through one
  // representative. The step monitor needs a real per-flow span and
  // full-detail traces need real series, so those run materialized.
  if (aggregate && !step_monitor_ && injector_->stateless()) {
    run_uniform(ctx);
  } else {
    run_materialized(ctx);
  }
  ctx.tallies.flush();
  if (options_.scope_sink != nullptr) options_.scope_sink->finish();
  link_mean_utilization_ = ctx.step.mean_utilization(ctx.steps_run);
  return std::move(ctx.trace);
}

void FluidNetwork::run_materialized(RunContext& ctx) {
  TELEMETRY_SPAN("fluid", "sim.tick_loop.batch");
  const long n = num_flows_;
  const bool aggregate = options_.trace_detail == TraceDetail::kAggregate;

  // Kernel cohorts advance through the SoA batch kernel with zero
  // per-member protocol instances; fallback cohorts dispatch per member
  // (a cohort of one uses its spec's own instance, larger ones clone it).
  struct RunCohort {
    const Cohort* cohort;
    long begin;
    long end;
    bool active = false;
    const cc::BatchProtocol* kernel = nullptr;
    int state_size = 0;
    std::vector<double> state;           ///< kernel cohorts, member-major.
    std::vector<cc::Protocol*> members;  ///< fallback cohorts only.
    long pending_steps = 0;  ///< uniform across members (shared churn/phase).
  };
  std::vector<std::unique_ptr<cc::Protocol>> owned;
  std::vector<RunCohort> cohorts;
  cohorts.reserve(cohorts_.size());
  for (const Cohort& cohort : cohorts_) {
    RunCohort c;
    c.cohort = &cohort;
    c.begin = cohort.begin;
    c.end = cohort.begin + cohort.count;
    c.kernel = cohort.spec.protocol->batch_kernel();
    if (c.kernel != nullptr) {
      c.state_size = c.kernel->state_size();
      if (c.state_size > 0) {
        c.state.resize(static_cast<std::size_t>(cohort.count * c.state_size));
        for (long j = 0; j < cohort.count; ++j) {
          c.kernel->init_state(std::span<double>(
              c.state.data() + j * c.state_size,
              static_cast<std::size_t>(c.state_size)));
        }
      }
    } else {
      c.members.reserve(static_cast<std::size_t>(cohort.count));
      if (cohort.count == 1) {
        c.members.push_back(cohort.spec.protocol.get());
      } else {
        for (long j = 0; j < cohort.count; ++j) {
          owned.push_back(cohort.spec.protocol->clone());
          c.members.push_back(owned.back().get());
        }
      }
    }
    cohorts.push_back(std::move(c));
  }

  // Fixed-size chunking keeps shard boundaries independent of the job count
  // (docs/parallel.md's determinism contract); all sharded loops are pure
  // elementwise writes to disjoint ranges, so results cannot depend on the
  // schedule. One persistent pool serves every step — parallel_map's
  // per-call pool would pay a thread spawn per tick.
  constexpr long kChunk = 16384;
  const long jobs = resolve_jobs(options_.jobs);
  std::unique_ptr<TaskPool> pool;
  if (jobs > 1 && n >= 2 * kChunk) {
    pool = std::make_unique<TaskPool>(static_cast<int>(jobs));
  }
  const auto for_range = [&pool](long lo, long hi, const auto& body) {
    if (pool == nullptr || hi - lo < 2 * kChunk) {
      if (hi > lo) body(lo, hi);
      return;
    }
    for (long c0 = lo; c0 < hi; c0 += kChunk) {
      const long c1 = std::min(hi, c0 + kChunk);
      pool->submit([&body, c0, c1] { body(c0, c1); });
    }
    pool->wait_idle();
  };

  const double min_w = options_.min_window_mss;
  const double max_w = options_.max_window_mss;
  const auto clamp_window = [min_w, max_w](double w) {
    return std::clamp(w, min_w, max_w);
  };

  const auto size = static_cast<std::size_t>(n);
  std::vector<double> windows(size, 0.0);
  std::vector<double> next_windows(size, 0.0);
  std::vector<double> observed(size, 0.0);
  std::vector<double> loss_buf(size, 0.0);
  std::vector<double> rtt_buf(size, 0.0);
  std::vector<double> pending_max_loss(size, 0.0);
  std::vector<double> pending_rtt_sum(size, 0.0);

  for (RunCohort& c : cohorts) {
    c.active = active_at(c.cohort->spec, 0);
    if (c.active) {
      std::fill(windows.begin() + c.begin, windows.begin() + c.end,
                clamp_window(c.cohort->spec.initial_window_mss));
    }
  }

  const bool uniform_injector = injector_->stateless();
  for (std::size_t ci = 0; ci < cohorts.size(); ++ci) {
    ctx.srec.cohort_mode(ci, cohorts[ci].kernel != nullptr
                                 ? recorder::EventCode::kKernel
                                 : recorder::EventCode::kFallback);
  }
  const auto active_flows = [&cohorts](std::size_t ci) {
    return cohorts[ci].active ? cohorts[ci].end - cohorts[ci].begin : 0L;
  };

  for (long step = 0; step < options_.steps; ++step) {
#ifndef AXIOMCC_TELEMETRY_DISABLED
    const auto tick_timer = sample_tick(ctx.tallies, step);
#endif
    // Churn transitions. Within a cohort activity is uniform, and a flow's
    // [start, stop) interval is visited once, so the O(count) fills run only
    // at join/leave steps — O(cohorts) on quiet steps.
    for (RunCohort& c : cohorts) {
      const SenderSpec& spec = c.cohort->spec;
      const bool active = active_at(spec, step);
      if (!active && c.active) {
        std::fill(windows.begin() + c.begin, windows.begin() + c.end, 0.0);
        std::fill(next_windows.begin() + c.begin, next_windows.begin() + c.end,
                  0.0);
        std::fill(observed.begin() + c.begin, observed.begin() + c.end, 0.0);
        std::fill(pending_max_loss.begin() + c.begin,
                  pending_max_loss.begin() + c.end, 0.0);
        std::fill(pending_rtt_sum.begin() + c.begin,
                  pending_rtt_sum.begin() + c.end, 0.0);
        c.pending_steps = 0;
      } else if (active && step == spec.start_step && step != 0) {
        std::fill(windows.begin() + c.begin, windows.begin() + c.end,
                  clamp_window(spec.initial_window_mss));
      }
      c.active = active;
    }

    const std::vector<FluidLink>& active_links = ctx.sched.at(step);
    if (!ctx.step.one_link()) {
      ctx.step.settle(active_links, [&](const std::vector<double>& loss,
                                        std::vector<double>& arrivals) {
        for (const RunCohort& c : cohorts) {
          if (!c.active) continue;
          const std::vector<int>& route = c.cohort->spec.route;
          for (long i = c.begin; i < c.end; ++i) {
            double carried = windows[i];
            for (const int l : route) {
              arrivals[l] += carried;
              carried *= 1.0 - loss[l];
            }
          }
        }
      });
    }
    // The total-window fold stays a SERIAL ascending pass: float addition
    // is non-associative, and this exact left fold is what Trace::add_step
    // computes. Min/max/count are exactly associative, so folding them here
    // too costs nothing in fidelity. On one link this fold is also the
    // link's arrivals.
    double total = 0.0;
    double window_min = std::numeric_limits<double>::infinity();
    double window_max = -std::numeric_limits<double>::infinity();
    long active_senders = 0;
    if (aggregate) {
      for (long i = 0; i < n; ++i) {
        const double w = windows[i];
        total += w;
        if (w > 0.0) {
          ++active_senders;
          if (w < window_min) window_min = w;
          if (w > window_max) window_max = w;
        }
      }
    } else {
      for (const double w : windows) total += w;
    }
    if (ctx.step.one_link()) ctx.step.settle_one_link(active_links[0], total);
    ctx.step.finish(active_links, active_flows);
    const double congestion_loss = ctx.step.max_loss();
    const double rtt_value = ctx.step.step_rtt();

    // Loss observation. A uniform (stateless) injector yields one value for
    // the whole step, so active cohorts take a sharded fill; a stateful
    // injector samples serially — active flows only, ascending.
    for (std::size_t ci = 0; ci < cohorts.size(); ++ci) {
      const RunCohort& c = cohorts[ci];
      if (!c.active) continue;
      const double route_loss = ctx.step.route_loss(ci);
      if (uniform_injector) {
        const double injected =
            injector_->sample(step, static_cast<int>(c.begin));
        const double value = combine_loss(route_loss, injected);
        for_range(c.begin, c.end, [&observed, value](long lo, long hi) {
          std::fill(observed.begin() + lo, observed.begin() + hi, value);
        });
        if (ctx.tallies.enabled && injected > 0.0) {
          ctx.tallies.injected_loss_samples += c.end - c.begin;
        }
      } else {
        for (long i = c.begin; i < c.end; ++i) {
          const double injected = injector_->sample(step, static_cast<int>(i));
          observed[i] = combine_loss(route_loss, injected);
          if (ctx.tallies.enabled && injected > 0.0) {
            ++ctx.tallies.injected_loss_samples;
          }
        }
      }
    }
    ctx.tallies.tick(congestion_loss);
    ++ctx.steps_run;

    if (aggregate) {
      ctx.trace.add_step_aggregate(total, window_min, window_max,
                                   active_senders, rtt_value, congestion_loss,
                                   windows, observed);
    } else {
      ctx.trace.add_step(windows, rtt_value, congestion_loss, observed);
    }
    ctx.srec.on_step(
        step, total, rtt_value, congestion_loss, ctx.step.route_losses(),
        [&](std::size_t ci) { return windows[cohorts[ci].begin]; },
        [&](std::size_t ci) { return observed[cohorts[ci].begin]; },
        [&](long i) { return windows[i]; }, n);
    if (scope::MetricScope* scope = options_.scope_sink; scope != nullptr) {
      scope->step_begin(step, total, rtt_value, congestion_loss);
      for (std::size_t ci = 0; ci < cohorts.size(); ++ci) {
        const RunCohort& c = cohorts[ci];
        for (long i = c.begin; i < c.end; ++i) {
          scope->observe_class(static_cast<int>(ci), windows[i], observed[i]);
        }
      }
      if (link_channels_) ctx.step.observe_links(*scope, links_, active_links);
      scope->step_end();
    }

    // Window update, cohort by cohort, each against its own route RTT.
    for (std::size_t ci = 0; ci < cohorts.size(); ++ci) {
      RunCohort& c = cohorts[ci];
      if (!c.active) continue;  // arrays already zeroed at the transition
      const long period = c.cohort->spec.update_period;
      const double route_rtt = ctx.step.route_rtt(ci);

      if (c.kernel != nullptr && period == 1) {
        // Synchronized fast path: the pending aggregates around an
        // every-step update are max(0, loss) and (0 + rtt)/1 — computed
        // inline, no pending arrays touched.
        for_range(c.begin, c.end, [&](long lo, long hi) {
          for (long i = lo; i < hi; ++i) {
            loss_buf[i] = std::max(0.0, observed[i]);
          }
          for (long i = lo; i < hi; ++i) rtt_buf[i] = route_rtt;
          const std::size_t len = static_cast<std::size_t>(hi - lo);
          c.kernel->next_window_batch(
              std::span<const double>(windows.data() + lo, len),
              std::span<const double>(loss_buf.data() + lo, len),
              std::span<const double>(rtt_buf.data() + lo, len),
              std::span<double>(
                  c.state.empty()
                      ? nullptr
                      : c.state.data() + (lo - c.begin) * c.state_size,
                  len * static_cast<std::size_t>(c.state_size)),
              std::span<double>(next_windows.data() + lo, len));
          for (long i = lo; i < hi; ++i) {
            next_windows[i] = std::clamp(next_windows[i], min_w, max_w);
          }
        });
        continue;
      }

      // Unsynchronized or fallback cohorts aggregate pending observations;
      // due-ness is uniform across the cohort.
      for_range(c.begin, c.end, [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) {
          pending_max_loss[i] = std::max(pending_max_loss[i], observed[i]);
        }
        for (long i = lo; i < hi; ++i) pending_rtt_sum[i] += route_rtt;
      });
      ++c.pending_steps;

      if (step % period != c.cohort->spec.update_phase) {
        for_range(c.begin, c.end, [&](long lo, long hi) {
          std::copy(windows.begin() + lo, windows.begin() + hi,
                    next_windows.begin() + lo);  // hold between updates
        });
        continue;
      }

      const double pending_count = static_cast<double>(c.pending_steps);
      if (c.kernel != nullptr) {
        for_range(c.begin, c.end, [&](long lo, long hi) {
          for (long i = lo; i < hi; ++i) {
            rtt_buf[i] = pending_rtt_sum[i] / pending_count;
          }
          const std::size_t len = static_cast<std::size_t>(hi - lo);
          c.kernel->next_window_batch(
              std::span<const double>(windows.data() + lo, len),
              std::span<const double>(pending_max_loss.data() + lo, len),
              std::span<const double>(rtt_buf.data() + lo, len),
              std::span<double>(
                  c.state.empty()
                      ? nullptr
                      : c.state.data() + (lo - c.begin) * c.state_size,
                  len * static_cast<std::size_t>(c.state_size)),
              std::span<double>(next_windows.data() + lo, len));
          for (long i = lo; i < hi; ++i) {
            next_windows[i] = std::clamp(next_windows[i], min_w, max_w);
            pending_max_loss[i] = 0.0;
            pending_rtt_sum[i] = 0.0;
          }
        });
      } else {
        for_range(c.begin, c.end, [&](long lo, long hi) {
          for (long i = lo; i < hi; ++i) {
            const cc::Observation obs{windows[i], pending_max_loss[i],
                                      pending_rtt_sum[i] / pending_count};
            next_windows[i] = std::clamp(
                c.members[static_cast<std::size_t>(i - c.begin)]
                    ->next_window(obs),
                min_w, max_w);
            pending_max_loss[i] = 0.0;
            pending_rtt_sum[i] = 0.0;
          }
        });
      }
      c.pending_steps = 0;
    }
    windows.swap(next_windows);

    // The monitor sees the windows the flows just chose for the NEXT step,
    // before the links consume them — a diverging protocol (NaN, blowup) is
    // caught here rather than exploding inside a link's preconditions.
    if (step_monitor_ &&
        !step_monitor_(step, windows, rtt_value, congestion_loss)) {
      break;
    }
  }
}

void FluidNetwork::run_uniform(RunContext& ctx) {
  TELEMETRY_SPAN("fluid", "sim.tick_loop.uniform");
  // State is one representative flow per cohort — O(cohorts + tracked)
  // memory regardless of the population, which is what makes
  // million-flow runs cheap.
  struct UniformCohort {
    const Cohort* cohort;
    bool active = false;
    const cc::BatchProtocol* kernel = nullptr;
    std::vector<double> state;        ///< one member's kernel state.
    cc::Protocol* protocol = nullptr; ///< fallback: one shared instance.
    double w = 0.0;                   ///< every member's window, bitwise.
    double obs = 0.0;                 ///< every member's observed loss.
    double pending_max = 0.0;
    double pending_rtt_sum = 0.0;
    long pending_steps = 0;
  };
  std::vector<std::unique_ptr<cc::Protocol>> owned;
  std::vector<UniformCohort> cohorts;
  cohorts.reserve(cohorts_.size());
  for (const Cohort& cohort : cohorts_) {
    UniformCohort c;
    c.cohort = &cohort;
    c.kernel = cohort.spec.protocol->batch_kernel();
    if (c.kernel != nullptr) {
      const int state_size = c.kernel->state_size();
      if (state_size > 0) {
        c.state.resize(static_cast<std::size_t>(state_size));
        c.kernel->init_state(c.state);
      }
    } else if (cohort.count == 1) {
      c.protocol = cohort.spec.protocol.get();
    } else {
      // All members start as identical clones and receive identical inputs,
      // so one instance stands in for the whole cohort (protocols are
      // deterministic functions of their state and observations).
      owned.push_back(cohort.spec.protocol->clone());
      c.protocol = owned.back().get();
    }
    cohorts.push_back(std::move(c));
  }

  const double min_w = options_.min_window_mss;
  const double max_w = options_.max_window_mss;

  for (UniformCohort& c : cohorts) {
    c.active = active_at(c.cohort->spec, 0);
    if (c.active) {
      c.w = std::clamp(c.cohort->spec.initial_window_mss, min_w, max_w);
    }
  }

  // Map each tracked flow id to its owning cohort once (ids and cohort
  // ranges both ascend).
  const std::span<const int> tracked = ctx.trace.tracked_senders();
  std::vector<std::size_t> tracked_cohort(tracked.size());
  for (std::size_t j = 0, ci = 0; j < tracked.size(); ++j) {
    const Cohort* c = cohorts[ci].cohort;
    while (tracked[j] >= c->begin + c->count) c = cohorts[++ci].cohort;
    tracked_cohort[j] = ci;
  }
  std::vector<double> tracked_w(tracked.size());
  std::vector<double> tracked_obs(tracked.size());

  for (std::size_t ci = 0; ci < cohorts.size(); ++ci) {
    ctx.srec.cohort_mode(ci, recorder::EventCode::kUniform);
  }
  const auto active_flows = [&cohorts](std::size_t ci) {
    return cohorts[ci].active ? cohorts[ci].cohort->count : 0L;
  };

  for (long step = 0; step < options_.steps; ++step) {
#ifndef AXIOMCC_TELEMETRY_DISABLED
    const auto tick_timer = sample_tick(ctx.tallies, step);
#endif
    for (UniformCohort& c : cohorts) {
      const SenderSpec& spec = c.cohort->spec;
      const bool active = active_at(spec, step);
      if (!active && c.active) {
        c.w = 0.0;
        c.obs = 0.0;
        c.pending_max = 0.0;
        c.pending_rtt_sum = 0.0;
        c.pending_steps = 0;
      } else if (active && step == spec.start_step && step != 0) {
        c.w = std::clamp(spec.initial_window_mss, min_w, max_w);
      }
      c.active = active;
    }

    // The serial ascending left folds over members, one repeated add per
    // member. Inactive members contribute +0.0, the additive identity for
    // the non-negative (or NaN) partial sums here, so inactive cohorts are
    // skipped without changing a bit. The repeated-add chain cannot be
    // collapsed to a multiply — float addition is not associative — which
    // is why these folds, and only these, stay O(flows).
    const std::vector<FluidLink>& active_links = ctx.sched.at(step);
    if (!ctx.step.one_link()) {
      ctx.step.settle(active_links, [&](const std::vector<double>& loss,
                                        std::vector<double>& arrivals) {
        for (const UniformCohort& c : cohorts) {
          if (!c.active) continue;
          const long count = c.cohort->count;
          double carried = c.w;
          for (const int l : c.cohort->spec.route) {
            for (long k = 0; k < count; ++k) arrivals[l] += carried;
            carried *= 1.0 - loss[l];
          }
        }
      });
    }
    double total = 0.0;
    double window_min = std::numeric_limits<double>::infinity();
    double window_max = -std::numeric_limits<double>::infinity();
    long active_senders = 0;
    for (const UniformCohort& c : cohorts) {
      if (!c.active) continue;
      const double x = c.w;
      const long count = c.cohort->count;
      for (long k = 0; k < count; ++k) total += x;
      if (x > 0.0) {
        active_senders += count;
        if (x < window_min) window_min = x;
        if (x > window_max) window_max = x;
      }
    }
    if (ctx.step.one_link()) ctx.step.settle_one_link(active_links[0], total);
    ctx.step.finish(active_links, active_flows);
    const double congestion_loss = ctx.step.max_loss();
    const double rtt_value = ctx.step.step_rtt();

    for (std::size_t ci = 0; ci < cohorts.size(); ++ci) {
      UniformCohort& c = cohorts[ci];
      if (!c.active) continue;
      const double injected =
          injector_->sample(step, static_cast<int>(c.cohort->begin));
      c.obs = combine_loss(ctx.step.route_loss(ci), injected);
      if (ctx.tallies.enabled && injected > 0.0) {
        ctx.tallies.injected_loss_samples += c.cohort->count;
      }
    }
    ctx.tallies.tick(congestion_loss);
    ++ctx.steps_run;

    for (std::size_t j = 0; j < tracked.size(); ++j) {
      const UniformCohort& c = cohorts[tracked_cohort[j]];
      tracked_w[j] = c.active ? c.w : 0.0;
      tracked_obs[j] = c.active ? c.obs : 0.0;
    }
    ctx.trace.add_step_aggregate_tracked(total, window_min, window_max,
                                         active_senders, rtt_value,
                                         congestion_loss, tracked_w,
                                         tracked_obs);
    ctx.srec.on_step(
        step, total, rtt_value, congestion_loss, ctx.step.route_losses(),
        [&](std::size_t ci) { return cohorts[ci].w; },
        [&](std::size_t ci) { return cohorts[ci].obs; },
        [](long) { return 0.0; }, num_flows_);
    if (scope::MetricScope* scope = options_.scope_sink; scope != nullptr) {
      // One observe per cohort with the member count: the scope folds it as
      // `count` repeated serial adds of the representative's (bitwise
      // shared) values, reproducing the materialized loop's member-by-member
      // fold exactly.
      scope->step_begin(step, total, rtt_value, congestion_loss);
      for (std::size_t ci = 0; ci < cohorts.size(); ++ci) {
        const UniformCohort& c = cohorts[ci];
        scope->observe_class(static_cast<int>(ci), c.active ? c.w : 0.0,
                             c.active ? c.obs : 0.0, c.cohort->count);
      }
      if (link_channels_) ctx.step.observe_links(*scope, links_, active_links);
      scope->step_end();
    }

    for (std::size_t ci = 0; ci < cohorts.size(); ++ci) {
      UniformCohort& c = cohorts[ci];
      if (!c.active) continue;
      // The materialized loop's pending aggregation; for period 1 this
      // reduces to max(0, obs) and (0 + rtt)/1, bitwise.
      const SenderSpec& spec = c.cohort->spec;
      c.pending_max = std::max(c.pending_max, c.obs);
      c.pending_rtt_sum += ctx.step.route_rtt(ci);
      ++c.pending_steps;
      if (step % spec.update_period != spec.update_phase) continue;
      const double mean_rtt =
          c.pending_rtt_sum / static_cast<double>(c.pending_steps);
      double next = 0.0;
      if (c.kernel != nullptr) {
        const double win = c.w;
        const double loss_in = c.pending_max;
        const double rtt_in = mean_rtt;
        c.kernel->next_window_batch(std::span<const double>(&win, 1),
                                    std::span<const double>(&loss_in, 1),
                                    std::span<const double>(&rtt_in, 1),
                                    c.state, std::span<double>(&next, 1));
      } else {
        next = c.protocol->next_window(
            cc::Observation{c.w, c.pending_max, mean_rtt});
      }
      c.w = std::clamp(next, min_w, max_w);
      c.pending_max = 0.0;
      c.pending_rtt_sum = 0.0;
      c.pending_steps = 0;
    }
  }
}

ParkingLot make_parking_lot(const LinkParams& per_link, int bottlenecks,
                            const cc::Protocol& prototype,
                            FluidNetwork::Options options) {
  AXIOMCC_EXPECTS(bottlenecks >= 1);
  ParkingLot lot{FluidNetwork(options), 0, {}};

  std::vector<int> long_route;
  for (int i = 0; i < bottlenecks; ++i) {
    long_route.push_back(lot.network.add_link(per_link));
  }
  lot.long_flow = lot.network.add_flow(prototype.clone(), long_route, 1.0);
  for (int i = 0; i < bottlenecks; ++i) {
    lot.short_flows.push_back(
        lot.network.add_flow(prototype.clone(), {long_route[i]}, 1.0));
  }
  return lot;
}

}  // namespace axiomcc::fluid
