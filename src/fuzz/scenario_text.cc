#include "fuzz/scenario_text.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cc/registry.h"
#include "engine/workload.h"
#include "fluid/loss_model.h"
#include "stress/perturbation.h"

namespace axiomcc::fuzz {

namespace {

constexpr const char* kHeader = "axiomcc-scenario v1";

[[noreturn]] void fail(std::size_t line, const std::string& why) {
  throw std::invalid_argument("scenario line " + std::to_string(line) + ": " +
                              why);
}

[[nodiscard]] const char* loss_kind_name(LossDesc::Kind kind) {
  switch (kind) {
    case LossDesc::Kind::kNone: return "none";
    case LossDesc::Kind::kConstant: return "constant";
    case LossDesc::Kind::kBernoulli: return "bernoulli";
    case LossDesc::Kind::kGilbertElliott: return "gilbert";
    case LossDesc::Kind::kStorm: return "storm";
  }
  return "none";
}

/// Splits a line on single spaces; no empty tokens (the serializer never
/// emits doubled spaces, and hand-written files get them collapsed).
[[nodiscard]] std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream in(line);
  while (in >> token) out.push_back(token);
  return out;
}

[[nodiscard]] double parse_num(const std::string& token, std::size_t line) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &pos);
  } catch (const std::exception&) {
    fail(line, "malformed number '" + token + "'");
  }
  if (pos != token.size()) fail(line, "malformed number '" + token + "'");
  if (!std::isfinite(value)) fail(line, "non-finite number '" + token + "'");
  return value;
}

[[nodiscard]] long parse_long(const std::string& token, std::size_t line) {
  std::size_t pos = 0;
  long value = 0;
  try {
    value = std::stol(token, &pos);
  } catch (const std::exception&) {
    fail(line, "malformed integer '" + token + "'");
  }
  if (pos != token.size()) fail(line, "malformed integer '" + token + "'");
  return value;
}

[[nodiscard]] std::uint64_t parse_u64(const std::string& token,
                                      std::size_t line) {
  std::size_t pos = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(token, &pos);
  } catch (const std::exception&) {
    fail(line, "malformed seed '" + token + "'");
  }
  if (pos != token.size()) fail(line, "malformed seed '" + token + "'");
  return static_cast<std::uint64_t>(value);
}

void require_rate(double v, const char* what) {
  if (v < 0.0 || v >= 1.0) {
    throw std::invalid_argument(std::string(what) + " must be in [0, 1), got " +
                                format_double(v));
  }
}

void require_prob(double v, const char* what) {
  if (v < 0.0 || v > 1.0) {
    throw std::invalid_argument(std::string(what) + " must be in [0, 1], got " +
                                format_double(v));
  }
}

void append_schedule(std::string& out, const char* directive,
                     const ScheduleDesc& schedule) {
  for (const SchedulePoint& p : schedule.points) {
    out += directive;
    out += ' ';
    out += std::to_string(p.at);
    out += ' ';
    out += format_double(p.scale);
    out += '\n';
  }
}

void validate_schedule(const ScheduleDesc& schedule, const char* what) {
  long prev = -1;
  for (const SchedulePoint& p : schedule.points) {
    if (p.at < 0) {
      throw std::invalid_argument(std::string(what) +
                                  " breakpoint at negative step " +
                                  std::to_string(p.at));
    }
    if (p.at <= prev) {
      throw std::invalid_argument(
          std::string(what) + " breakpoints out of order at step " +
          std::to_string(p.at) + " (timestamps must strictly increase)");
    }
    if (!(p.scale > 0.0) || !std::isfinite(p.scale)) {
      throw std::invalid_argument(std::string(what) +
                                  " scale must be positive and finite, got " +
                                  format_double(p.scale));
    }
    prev = p.at;
  }
}

}  // namespace

double ScheduleDesc::eval(long step) const {
  double scale = 1.0;
  for (const SchedulePoint& p : points) {
    if (p.at > step) break;
    scale = p.scale;
  }
  return scale;
}

std::string format_double(double v) {
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  return buf;  // unreachable: %.17g always round-trips a finite double
}

std::string serialize_scenario(const ScenarioDesc& desc) {
  std::string out;
  out += kHeader;
  out += '\n';
  out += "link " + format_double(desc.bandwidth_mbps) + ' ' +
         format_double(desc.rtt_ms) + ' ' + format_double(desc.buffer_mss) +
         '\n';
  out += "steps " + std::to_string(desc.steps) + '\n';
  out += "window " + format_double(desc.min_window_mss) + ' ' +
         format_double(desc.max_window_mss) + '\n';
  out += "tail " + format_double(desc.tail_fraction) + '\n';
  out += "seed " + std::to_string(desc.seed) + '\n';
  // Execution axes are emitted only when non-default, so every pre-axis
  // corpus file still round-trips byte-identically.
  if (desc.aggregate_trace) out += "trace aggregate\n";
  if (desc.batch) out += "exec batch\n";
  if (desc.topology_bottlenecks > 0) {
    out += "topology parking-lot " + std::to_string(desc.topology_bottlenecks) +
           '\n';
  }
  switch (desc.workload.kind) {
    case WorkloadDesc::Kind::kNone:
      break;
    case WorkloadDesc::Kind::kIncast:
      out += "workload incast " + std::to_string(desc.workload.flows) + ' ' +
             format_double(desc.workload.spread_steps) + '\n';
      break;
    case WorkloadDesc::Kind::kOnOff:
      out += "workload onoff " + std::to_string(desc.workload.flows) + ' ' +
             format_double(desc.workload.mean_on_steps) + ' ' +
             format_double(desc.workload.mean_off_steps) + ' ' +
             format_double(desc.workload.alpha) + '\n';
      break;
  }
  for (const SenderDesc& s : desc.senders) {
    if (s.count > 1) {
      out += "senders " + std::to_string(s.count) + ' ';
    } else {
      out += "sender ";
    }
    out += format_double(s.initial_window_mss) + ' ' +
           format_double(s.start_step) + ' ' + format_double(s.stop_step) +
           ' ' + s.protocol + '\n';
  }
  out += "loss ";
  out += loss_kind_name(desc.loss.kind);
  switch (desc.loss.kind) {
    case LossDesc::Kind::kNone:
      break;
    case LossDesc::Kind::kConstant:
      out += ' ' + format_double(desc.loss.rate);
      break;
    case LossDesc::Kind::kBernoulli:
      out += ' ' + format_double(desc.loss.prob) + ' ' +
             format_double(desc.loss.rate);
      break;
    case LossDesc::Kind::kGilbertElliott:
      out += ' ' + format_double(desc.loss.p_gb) + ' ' +
             format_double(desc.loss.p_bg) + ' ' +
             format_double(desc.loss.good_rate) + ' ' +
             format_double(desc.loss.bad_rate);
      break;
    case LossDesc::Kind::kStorm:
      out += ' ' + std::to_string(desc.loss.start) + ' ' +
             std::to_string(desc.loss.end) + ' ' +
             format_double(desc.loss.p_gb) + ' ' +
             format_double(desc.loss.p_bg) + ' ' +
             format_double(desc.loss.good_rate) + ' ' +
             format_double(desc.loss.bad_rate);
      break;
  }
  out += '\n';
  append_schedule(out, "bw", desc.bandwidth_scale);
  append_schedule(out, "rtt", desc.rtt_scale);
  if (!desc.expect.empty()) {
    out += "expect " + desc.expect.outcome;
    if (!desc.expect.detail.empty()) out += ' ' + desc.expect.detail;
    out += '\n';
  }
  return out;
}

ScenarioDesc parse_scenario(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;

  // The header must be the first non-comment, non-blank line (checked-in
  // corpus entries carry a triage comment block above it).
  bool have_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    have_header = line == kHeader;
    break;
  }
  if (!have_header) {
    throw std::invalid_argument(
        "scenario missing header (expected first content line '" +
        std::string(kHeader) + "')");
  }

  ScenarioDesc desc;
  desc.senders.clear();
  std::map<std::string, bool> seen;
  const auto once = [&seen, &line_no](const std::string& directive) {
    if (seen[directive]) fail(line_no, "duplicate '" + directive + "' line");
    seen[directive] = true;
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> tok = tokenize(line);
    if (tok.empty()) continue;
    const std::string& directive = tok[0];
    const auto require_argc = [&](std::size_t argc) {
      if (tok.size() != argc + 1) {
        fail(line_no, "'" + directive + "' expects " + std::to_string(argc) +
                          " value(s), got " + std::to_string(tok.size() - 1));
      }
    };

    if (directive == "link") {
      once("link");
      require_argc(3);
      desc.bandwidth_mbps = parse_num(tok[1], line_no);
      desc.rtt_ms = parse_num(tok[2], line_no);
      desc.buffer_mss = parse_num(tok[3], line_no);
    } else if (directive == "steps") {
      once("steps");
      require_argc(1);
      desc.steps = parse_long(tok[1], line_no);
    } else if (directive == "window") {
      once("window");
      require_argc(2);
      desc.min_window_mss = parse_num(tok[1], line_no);
      desc.max_window_mss = parse_num(tok[2], line_no);
    } else if (directive == "tail") {
      once("tail");
      require_argc(1);
      desc.tail_fraction = parse_num(tok[1], line_no);
    } else if (directive == "seed") {
      once("seed");
      require_argc(1);
      desc.seed = parse_u64(tok[1], line_no);
    } else if (directive == "sender" || directive == "senders") {
      // The protocol spec is the rest of the line (specs contain commas and
      // parens, never spaces the serializer cares about). "senders" carries
      // a leading cohort count.
      const bool cohort = directive == "senders";
      const std::size_t base = cohort ? 2 : 1;
      if (tok.size() < base + 4) {
        fail(line_no, cohort ? "'senders' expects <count> <init_w> <start> "
                               "<stop> <protocol>"
                             : "'sender' expects <init_w> <start> <stop> "
                               "<protocol>");
      }
      SenderDesc s;
      if (cohort) s.count = parse_long(tok[1], line_no);
      s.initial_window_mss = parse_num(tok[base], line_no);
      s.start_step = parse_num(tok[base + 1], line_no);
      s.stop_step = parse_num(tok[base + 2], line_no);
      s.protocol = tok[base + 3];
      for (std::size_t i = base + 4; i < tok.size(); ++i) {
        s.protocol += " " + tok[i];
      }
      desc.senders.push_back(std::move(s));
    } else if (directive == "trace") {
      once("trace");
      require_argc(1);
      if (tok[1] == "aggregate") {
        desc.aggregate_trace = true;
      } else if (tok[1] == "full") {
        desc.aggregate_trace = false;
      } else {
        fail(line_no,
             "unknown trace detail '" + tok[1] + "' (expected full|aggregate)");
      }
    } else if (directive == "exec") {
      once("exec");
      require_argc(1);
      if (tok[1] == "batch") {
        desc.batch = true;
      } else if (tok[1] == "scalar") {
        desc.batch = false;
      } else {
        fail(line_no,
             "unknown exec mode '" + tok[1] + "' (expected scalar|batch)");
      }
    } else if (directive == "topology") {
      once("topology");
      require_argc(2);
      if (tok[1] != "parking-lot") {
        fail(line_no,
             "unknown topology kind '" + tok[1] + "' (expected parking-lot)");
      }
      desc.topology_bottlenecks =
          static_cast<int>(parse_long(tok[2], line_no));
    } else if (directive == "workload") {
      once("workload");
      if (tok.size() < 2) fail(line_no, "'workload' expects a kind");
      if (tok[1] == "incast") {
        require_argc(3);
        desc.workload.kind = WorkloadDesc::Kind::kIncast;
        desc.workload.flows = parse_long(tok[2], line_no);
        desc.workload.spread_steps = parse_num(tok[3], line_no);
      } else if (tok[1] == "onoff") {
        require_argc(5);
        desc.workload.kind = WorkloadDesc::Kind::kOnOff;
        desc.workload.flows = parse_long(tok[2], line_no);
        desc.workload.mean_on_steps = parse_num(tok[3], line_no);
        desc.workload.mean_off_steps = parse_num(tok[4], line_no);
        desc.workload.alpha = parse_num(tok[5], line_no);
      } else {
        fail(line_no,
             "unknown workload kind '" + tok[1] + "' (expected incast|onoff)");
      }
    } else if (directive == "loss") {
      once("loss");
      if (tok.size() < 2) fail(line_no, "'loss' expects a kind");
      const std::string& kind = tok[1];
      if (kind == "none") {
        require_argc(1);
        desc.loss.kind = LossDesc::Kind::kNone;
      } else if (kind == "constant") {
        require_argc(2);
        desc.loss.kind = LossDesc::Kind::kConstant;
        desc.loss.rate = parse_num(tok[2], line_no);
      } else if (kind == "bernoulli") {
        require_argc(3);
        desc.loss.kind = LossDesc::Kind::kBernoulli;
        desc.loss.prob = parse_num(tok[2], line_no);
        desc.loss.rate = parse_num(tok[3], line_no);
      } else if (kind == "gilbert") {
        require_argc(5);
        desc.loss.kind = LossDesc::Kind::kGilbertElliott;
        desc.loss.p_gb = parse_num(tok[2], line_no);
        desc.loss.p_bg = parse_num(tok[3], line_no);
        desc.loss.good_rate = parse_num(tok[4], line_no);
        desc.loss.bad_rate = parse_num(tok[5], line_no);
      } else if (kind == "storm") {
        require_argc(7);
        desc.loss.kind = LossDesc::Kind::kStorm;
        desc.loss.start = parse_long(tok[2], line_no);
        desc.loss.end = parse_long(tok[3], line_no);
        desc.loss.p_gb = parse_num(tok[4], line_no);
        desc.loss.p_bg = parse_num(tok[5], line_no);
        desc.loss.good_rate = parse_num(tok[6], line_no);
        desc.loss.bad_rate = parse_num(tok[7], line_no);
      } else {
        fail(line_no, "unknown loss kind '" + kind +
                          "' (expected none|constant|bernoulli|gilbert|storm)");
      }
    } else if (directive == "bw" || directive == "rtt") {
      require_argc(2);
      ScheduleDesc& schedule =
          directive == "bw" ? desc.bandwidth_scale : desc.rtt_scale;
      SchedulePoint p;
      p.at = parse_long(tok[1], line_no);
      p.scale = parse_num(tok[2], line_no);
      if (!schedule.points.empty() && p.at <= schedule.points.back().at) {
        fail(line_no, "'" + directive + "' breakpoints out of order at step " +
                          std::to_string(p.at) +
                          " (timestamps must strictly increase)");
      }
      schedule.points.push_back(p);
    } else if (directive == "expect") {
      once("expect");
      if (tok.size() < 2 || tok.size() > 3) {
        fail(line_no, "'expect' expects <outcome> [<detail>]");
      }
      desc.expect.outcome = tok[1];
      desc.expect.detail = tok.size() == 3 ? tok[2] : "";
    } else {
      fail(line_no, "unknown directive '" + directive + "'");
    }
  }

  validate_scenario(desc);
  return desc;
}

void validate_scenario(const ScenarioDesc& desc) {
  if (!(desc.bandwidth_mbps > 0.0) || !std::isfinite(desc.bandwidth_mbps)) {
    throw std::invalid_argument("link bandwidth must be positive, got " +
                                format_double(desc.bandwidth_mbps));
  }
  if (!(desc.rtt_ms > 0.0) || !std::isfinite(desc.rtt_ms)) {
    throw std::invalid_argument("link RTT must be positive, got " +
                                format_double(desc.rtt_ms));
  }
  if (desc.buffer_mss < 0.0 || !std::isfinite(desc.buffer_mss)) {
    throw std::invalid_argument("link buffer must be >= 0, got " +
                                format_double(desc.buffer_mss));
  }
  if (desc.steps <= 0) {
    throw std::invalid_argument("steps must be positive, got " +
                                std::to_string(desc.steps));
  }
  if (desc.min_window_mss < 0.0 ||
      desc.max_window_mss < desc.min_window_mss) {
    throw std::invalid_argument("window bounds must satisfy 0 <= min <= max");
  }
  if (!(desc.tail_fraction > 0.0) || desc.tail_fraction > 1.0) {
    throw std::invalid_argument("tail fraction must be in (0, 1], got " +
                                format_double(desc.tail_fraction));
  }
  if (desc.senders.empty()) {
    throw std::invalid_argument("scenario needs at least one sender");
  }
  if (desc.topology_bottlenecks < 0 || desc.topology_bottlenecks > 16) {
    throw std::invalid_argument(
        "topology bottleneck count must be in [0, 16], got " +
        std::to_string(desc.topology_bottlenecks));
  }
  if (desc.workload.kind != WorkloadDesc::Kind::kNone) {
    if (desc.workload.flows < 1 || desc.workload.flows > 256) {
      throw std::invalid_argument(
          "workload flow count must be in [1, 256], got " +
          std::to_string(desc.workload.flows));
    }
    if (desc.workload.kind == WorkloadDesc::Kind::kIncast &&
        (desc.workload.spread_steps < 0.0 ||
         !std::isfinite(desc.workload.spread_steps))) {
      throw std::invalid_argument("incast arrival spread must be >= 0, got " +
                                  format_double(desc.workload.spread_steps));
    }
    if (desc.workload.kind == WorkloadDesc::Kind::kOnOff &&
        (!(desc.workload.mean_on_steps > 0.0) ||
         !(desc.workload.mean_off_steps > 0.0) ||
         !(desc.workload.alpha > 0.0) ||
         !std::isfinite(desc.workload.mean_on_steps) ||
         !std::isfinite(desc.workload.mean_off_steps) ||
         !std::isfinite(desc.workload.alpha))) {
      throw std::invalid_argument(
          "on-off workload durations and Pareto shape must be positive");
    }
  }
  for (const SenderDesc& s : desc.senders) {
    if (s.initial_window_mss < 0.0 || !std::isfinite(s.initial_window_mss)) {
      throw std::invalid_argument("sender initial window must be >= 0");
    }
    if (s.start_step < 0.0 || !std::isfinite(s.start_step)) {
      throw std::invalid_argument("sender start step must be >= 0");
    }
    if (s.protocol.empty()) {
      throw std::invalid_argument("sender protocol spec is empty");
    }
    if (s.count < 1) {
      throw std::invalid_argument("sender cohort count must be >= 1, got " +
                                  std::to_string(s.count));
    }
  }
  switch (desc.loss.kind) {
    case LossDesc::Kind::kNone:
      break;
    case LossDesc::Kind::kConstant:
      require_rate(desc.loss.rate, "constant loss rate");
      break;
    case LossDesc::Kind::kBernoulli:
      require_prob(desc.loss.prob, "bernoulli episode probability");
      require_rate(desc.loss.rate, "bernoulli episode rate");
      break;
    case LossDesc::Kind::kStorm:
      if (desc.loss.end < desc.loss.start) {
        throw std::invalid_argument("storm window end before start");
      }
      [[fallthrough]];
    case LossDesc::Kind::kGilbertElliott:
      require_prob(desc.loss.p_gb, "gilbert p_good_to_bad");
      require_prob(desc.loss.p_bg, "gilbert p_bad_to_good");
      require_rate(desc.loss.good_rate, "gilbert good-state rate");
      require_rate(desc.loss.bad_rate, "gilbert bad-state rate");
      break;
  }
  validate_schedule(desc.bandwidth_scale, "bw");
  validate_schedule(desc.rtt_scale, "rtt");
}

CompiledScenario compile_scenario(const ScenarioDesc& desc) {
  validate_scenario(desc);

  CompiledScenario out;
  out.spec.link = fluid::make_link_mbps(desc.bandwidth_mbps, desc.rtt_ms,
                                        desc.buffer_mss);
  out.spec.steps = desc.steps;
  out.spec.min_window_mss = desc.min_window_mss;
  out.spec.max_window_mss = desc.max_window_mss;
  out.spec.tail_fraction = desc.tail_fraction;
  out.spec.seed = desc.seed;

  const int bottlenecks = desc.topology_bottlenecks;
  if (bottlenecks > 0) {
    out.spec.topology.links.assign(static_cast<std::size_t>(bottlenecks),
                                   out.spec.link);
  }

  out.prototypes.reserve(desc.senders.size());
  for (std::size_t i = 0; i < desc.senders.size(); ++i) {
    const SenderDesc& s = desc.senders[i];
    out.prototypes.push_back(cc::make_protocol(s.protocol));
    // Parking-lot routes are derived from the slot index: the first slot is
    // the long flow over every bottleneck, later slots cross one each.
    std::vector<int> route;
    if (bottlenecks > 0) {
      if (i == 0) {
        route.resize(static_cast<std::size_t>(bottlenecks));
        for (int l = 0; l < bottlenecks; ++l) {
          route[static_cast<std::size_t>(l)] = l;
        }
      } else {
        route = {static_cast<int>((i - 1) % static_cast<std::size_t>(
                                                bottlenecks))};
      }
    }
    out.spec.senders.push_back(engine::SenderSlot{
        out.prototypes.back().get(), s.initial_window_mss, s.start_step,
        s.stop_step, s.count, std::move(route)});
  }

  switch (desc.workload.kind) {
    case WorkloadDesc::Kind::kNone:
      break;
    case WorkloadDesc::Kind::kIncast:
      out.spec.workload.kind = engine::WorkloadKind::kIncast;
      out.spec.workload.flows = desc.workload.flows;
      out.spec.workload.spread_steps = desc.workload.spread_steps;
      break;
    case WorkloadDesc::Kind::kOnOff:
      out.spec.workload.kind = engine::WorkloadKind::kOnOffHeavyTail;
      out.spec.workload.flows = desc.workload.flows;
      out.spec.workload.mean_on_steps = desc.workload.mean_on_steps;
      out.spec.workload.mean_off_steps = desc.workload.mean_off_steps;
      out.spec.workload.alpha = desc.workload.alpha;
      break;
  }

  // The execution axes must not change what the oracle can see: an
  // aggregate trace tracks the whole population (fuzz scenarios are small,
  // so the estimators keep reading every sender's series and classify
  // exactly as they would a full trace), and fluid runs go at jobs=1 —
  // already byte-identical to any job count, and keeping run_scenario pure
  // for the fuzz loop's own fan-out.
  if (desc.aggregate_trace) {
    out.spec.trace_detail = fluid::TraceDetail::kAggregate;
    // Workload generators change the run's population; track the expanded
    // count so the oracle still reads every sender's series.
    long total = 0;
    for (const engine::SenderSlot& slot : engine::expand_workload(out.spec)) {
      total += slot.count;
    }
    out.spec.tracked_senders = static_cast<int>(std::max<long>(total, 1));
  }
  out.spec.batch = desc.batch;
  out.spec.jobs = 1;

  if (!desc.bandwidth_scale.empty()) {
    out.spec.bandwidth_scale = [schedule = desc.bandwidth_scale](long step) {
      return schedule.eval(step);
    };
  }
  if (!desc.rtt_scale.empty()) {
    out.spec.rtt_scale = [schedule = desc.rtt_scale](long step) {
      return schedule.eval(step);
    };
  }

  if (desc.loss.kind != LossDesc::Kind::kNone) {
    out.spec.loss = [loss = desc.loss](std::uint64_t seed)
        -> std::unique_ptr<fluid::LossInjector> {
      switch (loss.kind) {
        case LossDesc::Kind::kConstant:
          return std::make_unique<fluid::ConstantLoss>(loss.rate);
        case LossDesc::Kind::kBernoulli:
          return std::make_unique<fluid::BernoulliLoss>(loss.prob, loss.rate,
                                                        seed);
        case LossDesc::Kind::kGilbertElliott:
          return std::make_unique<fluid::GilbertElliottLoss>(
              loss.p_gb, loss.p_bg, loss.good_rate, loss.bad_rate, seed);
        case LossDesc::Kind::kStorm: {
          stress::StormParams params;
          params.p_good_to_bad = loss.p_gb;
          params.p_bad_to_good = loss.p_bg;
          params.good_rate = loss.good_rate;
          params.bad_rate = loss.bad_rate;
          return std::make_unique<stress::LossStorm>(loss.start, loss.end,
                                                     params, seed);
        }
        case LossDesc::Kind::kNone:
          break;
      }
      return std::make_unique<fluid::NoLoss>();
    };
  }

  return out;
}

}  // namespace axiomcc::fuzz
