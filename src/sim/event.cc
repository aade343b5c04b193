#include "sim/event.h"

#include <algorithm>
#include <numeric>
#include <type_traits>
#include <utility>

namespace axiomcc::sim {

void Simulator::push(const Event& event) {
  static_assert(std::is_trivially_copyable_v<Event>);
  static_assert(sizeof(Event) == 72);
  heap_.push_back(event);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  peak_heap_size_ = std::max(peak_heap_size_, heap_.size());
}

void Simulator::push_lane_head(std::uint32_t id) {
  static_assert(sizeof(LaneEntry) == 56);
  const Lane& lane = lanes_[id];
  const LaneEntry& head = lane.entries.front();
  push(Event{head.time, head.sequence, lane.target, id, lane.kind, true, {}});
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
  push(Event{t, next_sequence_++, nullptr, slot, EventKind::kClosure, false,
             {}});
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
  push(Event{first, sequence, nullptr, slot, EventKind::kClosure, false, {}});
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
  push(Event{now_ + delay, next_sequence_++, target, 0, kind, false, packet});
}

LaneId Simulator::add_lane(EventKind kind, EventTarget* target) {
  AXIOMCC_EXPECTS(target != nullptr);
  AXIOMCC_EXPECTS(kind != EventKind::kClosure);
  lanes_.push_back(Lane{{}, target, kind});
  return static_cast<LaneId>(lanes_.size() - 1);
}

void Simulator::schedule_in(SimTime delay, LaneId lane_id,
                            const Packet& packet) {
  AXIOMCC_EXPECTS_MSG(delay.ns() >= 0, "delay must be non-negative");
  const auto id = static_cast<std::uint32_t>(lane_id);
  AXIOMCC_EXPECTS_MSG(id < lanes_.size(), "unknown lane");
  Lane& lane = lanes_[id];
  const SimTime t = now_ + delay;
  if (!lane.entries.empty() && t < lane.entries.back().time) {
    // Due before the tail: the lane would run it late, so the heap orders
    // it instead.
    ++lane_out_of_order_;
    push(Event{t, next_sequence_++, lane.target, 0, lane.kind, false,
               packet});
    return;
  }
  lane.entries.push_back(LaneEntry{t, next_sequence_++, packet});
  if (lane.entries.size() == 1) {
    push_lane_head(id);
  } else {
    ++lane_backlog_;
  }
}

void Simulator::run_next() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event event = heap_.back();
  heap_.pop_back();
  now_ = event.time;
  ++events_by_kind_[static_cast<std::size_t>(event.kind)];
  if (event.lane_head) {
    // Take the entry and push the next head before the target runs: it may
    // schedule into this lane, which can grow the ring.
    Lane& lane = lanes_[event.slot];
    const Packet packet = lane.entries.pop_front().packet;
    if (!lane.entries.empty()) {
      --lane_backlog_;
      push_lane_head(event.slot);
    }
    event.target->on_event(event.kind, packet);
    return;
  }
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
             event.slot, EventKind::kClosure, false, {}});
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
