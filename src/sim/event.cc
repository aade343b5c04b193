#include "sim/event.h"

#include <algorithm>
#include <numeric>
#include <type_traits>
#include <utility>

namespace axiomcc::sim {

void Simulator::push(const Event& event) {
  static_assert(std::is_trivially_copyable_v<Event>);
  heap_.push_back(event);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

std::uint32_t Simulator::pool(Closure closure) {
  if (free_slots_.empty()) {
    closures_.push_back(std::move(closure));
    return static_cast<std::uint32_t>(closures_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  closures_[slot] = std::move(closure);
  return slot;
}

void Simulator::schedule_at(SimTime t, EventFn fn) {
  AXIOMCC_EXPECTS_MSG(t >= now_, "cannot schedule an event in the past");
  AXIOMCC_EXPECTS(fn != nullptr);
  const std::uint32_t slot = pool(Closure{std::move(fn)});
  push(Event{t, next_sequence_++, nullptr, slot, EventKind::kClosure, {}});
}

void Simulator::schedule_periodic(SimTime first, SimTime period, SimTime last,
                                  EventFn fn) {
  AXIOMCC_EXPECTS_MSG(first >= now_, "cannot schedule an event in the past");
  AXIOMCC_EXPECTS(period.ns() > 0);
  AXIOMCC_EXPECTS(fn != nullptr);
  if (first > last) return;
  const auto occurrences =
      static_cast<std::uint64_t>((last - first).ns() / period.ns()) + 1;
  const std::uint64_t sequence = next_sequence_;
  next_sequence_ += occurrences;
  const std::uint32_t slot =
      pool(Closure{std::move(fn), period, occurrences - 1});
  push(Event{first, sequence, nullptr, slot, EventKind::kClosure, {}});
}

void Simulator::schedule_in(SimTime delay, EventFn fn) {
  AXIOMCC_EXPECTS_MSG(delay.ns() >= 0, "delay must be non-negative");
  schedule_at(now_ + delay, std::move(fn));
}

void Simulator::schedule_in(SimTime delay, EventKind kind, EventTarget* target,
                            const Packet& packet) {
  AXIOMCC_EXPECTS_MSG(delay.ns() >= 0, "delay must be non-negative");
  AXIOMCC_EXPECTS(target != nullptr);
  AXIOMCC_EXPECTS(kind != EventKind::kClosure);
  push(Event{now_ + delay, next_sequence_++, target, 0, kind, packet});
}

void Simulator::run_next() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event event = heap_.back();
  heap_.pop_back();
  now_ = event.time;
  ++events_by_kind_[static_cast<std::size_t>(event.kind)];
  if (event.kind != EventKind::kClosure) {
    event.target->on_event(event.kind, event.packet);
    return;
  }
  // Run a moved-out copy: the closure may schedule more closures, which can
  // reallocate the pool.
  Closure& closure = closures_[event.slot];
  EventFn fn = std::move(closure.fn);
  closure.fn = nullptr;
  if (closure.repeats == 0) {
    // Free the slot before running, so the closure may schedule into it;
    // its captures die with `fn` when it returns.
    free_slots_.push_back(event.slot);
    fn();
    return;
  }
  --closure.repeats;
  push(Event{event.time + closure.period, event.sequence + 1, nullptr,
             event.slot, EventKind::kClosure, {}});
  fn();
  closures_[event.slot].fn = std::move(fn);
}

std::size_t Simulator::run_until(SimTime end) {
  stop_requested_ = false;
  std::size_t executed = 0;
  while (!stop_requested_ && !heap_.empty() && heap_.front().time <= end) {
    run_next();
    ++executed;
  }
  if (!stop_requested_ && now_ < end) now_ = end;
  return executed;
}

std::size_t Simulator::run() {
  stop_requested_ = false;
  std::size_t executed = 0;
  while (!stop_requested_ && !heap_.empty()) {
    run_next();
    ++executed;
  }
  return executed;
}

std::size_t Simulator::events_processed() const {
  return std::accumulate(events_by_kind_.begin(), events_by_kind_.end(),
                         std::size_t{0});
}

}  // namespace axiomcc::sim
