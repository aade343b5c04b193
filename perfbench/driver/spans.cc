#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "util/json.h"

namespace perfbench {

double now_seconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double covered_seconds(double lo, double hi,
                       std::vector<std::pair<double, double>> intervals) {
  for (auto& [a, b] : intervals) {
    a = std::clamp(a, lo, hi);
    b = std::clamp(b, lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (const auto& [a, b] : intervals) {
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return covered;
}

int SpanLog::open(std::string name) {
  const int parent = open_.empty() ? -1 : open_.back();
  const double t = now_seconds();
  const int id = add(std::move(name), t, t, parent);
  open_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_s = now_seconds();
}

int SpanLog::add(std::string name, double start_s, double end_s, int parent) {
  spans_.push_back(Span{std::move(name), start_s, end_s, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::append(const SpanLog& other) {
  if (!other.open_.empty()) throw std::logic_error("appending open spans");
  const int offset = static_cast<int>(spans_.size());
  for (const Span& s : other.spans_) {
    add(s.name, s.start_s, s.end_s, s.parent < 0 ? -1 : s.parent + offset);
  }
}

double SpanLog::self_seconds(std::size_t index) const {
  const Span& span = spans_.at(index);
  std::vector<std::pair<double, double>> children;
  for (const Span& s : spans_) {
    if (s.parent == static_cast<int>(index)) {
      children.emplace_back(s.start_s, s.end_s);
    }
  }
  return span.duration() -
         covered_seconds(span.start_s, span.end_s, std::move(children));
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    t.total_s += spans_[i].duration();
    t.self_s += self_seconds(i);
    ++t.count;
  }
  return out;
}

SpanLog::Totals SpanLog::totals(const std::string& name) const {
  const auto all = totals();
  const auto it = all.find(name);
  return it == all.end() ? Totals{} : it->second;
}

std::string SpanLog::to_json() const {
  std::string out = "[\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  ", \"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f, "
                  "\"parent\": %d}",
                  s.start_s, s.end_s, self_seconds(i), s.parent);
    out += "  {\"id\": " + std::to_string(i) + ", \"name\": " +
           axiomcc::json_quote(s.name) + buf;
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name)
    : log_(log), start_s_(now_seconds()) {
  if (log_ != nullptr) id_ = log_->open(std::move(name));
}

ScopedSpan::~ScopedSpan() {
  if (log_ != nullptr) log_->close(id_);
}

}  // namespace perfbench
