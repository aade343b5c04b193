// Unit tests for the discrete-event kernel: ordering, FIFO ties, run_until
// semantics, typed events beside pooled closures, delay lanes, and
// scheduling contracts.
#include "sim/event.h"

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/check.h"

namespace axiomcc::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime(30), [&] { order.push_back(3); });
  sim.schedule_at(SimTime(10), [&] { order.push_back(1); });
  sim.schedule_at(SimTime(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TiesBreakFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NowAdvancesWithEvents) {
  Simulator sim;
  SimTime seen{0};
  sim.schedule_at(SimTime(100), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime(100));
  EXPECT_EQ(sim.now(), SimTime(100));
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 5) sim.schedule_in(SimTime(10), hop);
  };
  sim.schedule_in(SimTime(10), hop);
  sim.run();
  EXPECT_EQ(hops, 5);
  EXPECT_EQ(sim.now(), SimTime(50));
}

TEST(Simulator, RunUntilStopsAtDeadlineInclusive) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(SimTime(10), [&] { fired.push_back(10); });
  sim.schedule_at(SimTime(20), [&] { fired.push_back(20); });
  sim.schedule_at(SimTime(21), [&] { fired.push_back(21); });

  const std::size_t executed = sim.run_until(SimTime(20));
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(sim.now(), SimTime(20));
  EXPECT_EQ(sim.pending(), 1u);

  sim.run();
  EXPECT_EQ(fired.back(), 21);
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.run_until(SimTime(500));
  EXPECT_EQ(sim.now(), SimTime(500));
}

TEST(Simulator, SchedulingInPastViolatesContract) {
  Simulator sim;
  sim.schedule_at(SimTime(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime(5), [] {}), ContractViolation);
  EXPECT_THROW(sim.schedule_in(SimTime(-1), [] {}), ContractViolation);
}

TEST(Simulator, NullCallbackViolatesContract) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(SimTime(1), EventFn{}), ContractViolation);
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(SimTime(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(Simulator, RequestStopEndsTheLoopAndFreezesTime) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime(5), [&] { ++fired; });
  sim.schedule_at(SimTime(10), [&] {
    ++fired;
    sim.request_stop();
  });
  sim.schedule_at(SimTime(20), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(sim.stop_requested());
  EXPECT_EQ(sim.now(), SimTime(10));
}

TEST(Simulator, RunUntilHonorsRequestStop) {
  Simulator sim;
  sim.schedule_at(SimTime(3), [&] { sim.request_stop(); });
  sim.run_until(SimTime(100));
  // Stopped runs do not fast-forward now() to the horizon.
  EXPECT_EQ(sim.now(), SimTime(3));
  // A fresh run clears the flag and drains the remaining events.
  int late = 0;
  sim.schedule_at(SimTime(50), [&] { ++late; });
  sim.run();
  EXPECT_FALSE(sim.stop_requested());
  EXPECT_EQ(late, 1);
}

TEST(Simulator, ZeroDelaySelfSchedulingAtSameTimeRunsAfterSiblings) {
  // A zero-delay event scheduled from within an event at time T runs at T but
  // after already-queued time-T events (FIFO by insertion).
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime(10), [&] {
    order.push_back(1);
    sim.schedule_in(SimTime(0), [&] { order.push_back(3); });
  });
  sim.schedule_at(SimTime(10), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

/// Logs every typed event it receives as (kind, packet seq).
class LoggingTarget final : public EventTarget {
 public:
  explicit LoggingTarget(std::vector<std::pair<EventKind, int>>& log)
      : log_(log) {}
  void on_event(EventKind kind, const Packet& packet) override {
    log_.emplace_back(kind, static_cast<int>(packet.seq));
  }

 private:
  std::vector<std::pair<EventKind, int>>& log_;
};

Packet numbered(std::uint64_t seq) {
  Packet p;
  p.seq = seq;
  return p;
}

TEST(Simulator, TypedAndClosureEventsAtOneTimeRunInInsertionOrder) {
  Simulator sim;
  std::vector<std::pair<EventKind, int>> log;
  LoggingTarget target(log);
  sim.schedule_in(SimTime(7), EventKind::kDelivered, &target, numbered(0));
  sim.schedule_at(SimTime(7), [&] { log.emplace_back(EventKind::kClosure, 1); });
  sim.schedule_in(SimTime(7), EventKind::kAckReturned, &target, numbered(2));
  sim.schedule_in(SimTime(3), EventKind::kTransmitted, &target, numbered(3));
  sim.schedule_at(SimTime(7), [&] { log.emplace_back(EventKind::kClosure, 4); });
  sim.run();
  const std::vector<std::pair<EventKind, int>> want{
      {EventKind::kTransmitted, 3}, {EventKind::kDelivered, 0},
      {EventKind::kClosure, 1},     {EventKind::kAckReturned, 2},
      {EventKind::kClosure, 4}};
  EXPECT_EQ(log, want);
  EXPECT_EQ(sim.events_of_kind(EventKind::kTransmitted), 1u);
  EXPECT_EQ(sim.events_of_kind(EventKind::kDelivered), 1u);
  EXPECT_EQ(sim.events_of_kind(EventKind::kAckReturned), 1u);
  EXPECT_EQ(sim.events_of_kind(EventKind::kClosure), 2u);
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Simulator, TypedEventCarriesItsPacketByValue) {
  Simulator sim;
  std::vector<std::pair<EventKind, int>> log;
  LoggingTarget target(log);
  Packet p = numbered(41);
  sim.schedule_in(SimTime(1), EventKind::kDelivered, &target, p);
  p.seq = 99;  // the record holds its own copy
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].second, 41);
}

TEST(Simulator, ClosureSchedulingAClosureRunsBothAndFreesItsCapture) {
  Simulator sim;
  std::vector<int> order;
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  sim.schedule_at(SimTime(10), [&sim, &order, &watch, token] {
    order.push_back(1);
    // Scheduled while this closure runs, into the pool slot it just left;
    // by the time it runs, the first closure's capture is gone.
    sim.schedule_in(SimTime(0), [&order, &watch] {
      order.push_back(watch.expired() ? 2 : -2);
    });
  });
  token.reset();
  EXPECT_EQ(watch.use_count(), 1);  // only the pending closure holds it
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ClosureCaptureIsReleasedRightAfterItRuns) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  sim.schedule_at(SimTime(1), [token] { (void)token; });
  long during = -1;
  sim.schedule_at(SimTime(2), [&] { during = token.use_count(); });
  EXPECT_EQ(token.use_count(), 2);
  sim.run();
  EXPECT_EQ(during, 1);  // the pool no longer holds the first closure
}

/// Runs one schedule twice — the ticks at 10, 20, 30 once as a periodic
/// closure and once as three schedule_at calls — and returns the order.
std::vector<int> tick_order(bool periodic) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime(10), [&] {
    order.push_back(1);
    sim.schedule_at(SimTime(20), [&] { order.push_back(2); });
  });
  const auto tick = [&] { order.push_back(static_cast<int>(sim.now().ns())); };
  if (periodic) {
    sim.schedule_periodic(SimTime(10), SimTime(10), SimTime(35), tick);
    EXPECT_EQ(sim.pending(), 2u);  // one occurrence at a time
  } else {
    for (const int t : {10, 20, 30}) sim.schedule_at(SimTime(t), tick);
  }
  sim.schedule_at(SimTime(20), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(sim.events_processed(), 6u);
  return order;
}

TEST(Simulator, PeriodicClosureRunsAsIfEveryOccurrenceWereScheduledNow) {
  const std::vector<int> order = tick_order(true);
  EXPECT_EQ(order, tick_order(false));
  EXPECT_EQ(order, (std::vector<int>{1, 10, 20, 3, 2, 30}));
}

TEST(Simulator, PeriodicClosureCaptureDiesAfterItsLastOccurrence) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  int runs = 0;
  sim.schedule_periodic(SimTime(5), SimTime(5), SimTime(15),
                        [token, &runs] { ++runs; });
  long after = -1;
  sim.schedule_at(SimTime(16), [&] { after = token.use_count(); });
  sim.run();
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(after, 1);
}

TEST(Simulator, PeriodicClosureContracts) {
  Simulator sim;
  sim.schedule_periodic(SimTime(10), SimTime(1), SimTime(9), [] {});
  EXPECT_EQ(sim.pending(), 0u);  // no occurrence in range
  EXPECT_THROW(sim.schedule_periodic(SimTime(1), SimTime(0), SimTime(9), [] {}),
               ContractViolation);
  EXPECT_THROW(sim.schedule_periodic(SimTime(1), SimTime(1), SimTime(9),
                                     EventFn{}),
               ContractViolation);
  sim.run_until(SimTime(5));
  EXPECT_THROW(sim.schedule_periodic(SimTime(4), SimTime(1), SimTime(9), [] {}),
               ContractViolation);
}

TEST(Simulator, RequestStopLeavesTypedEventsPendingForTheNextRun) {
  Simulator sim;
  std::vector<std::pair<EventKind, int>> log;
  LoggingTarget target(log);
  sim.schedule_at(SimTime(5), [&] { sim.request_stop(); });
  sim.schedule_in(SimTime(5), EventKind::kDelivered, &target, numbered(1));
  sim.schedule_in(SimTime(9), EventKind::kAckReturned, &target, numbered(2));
  sim.run_until(SimTime(100));
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(sim.now(), SimTime(5));
  EXPECT_EQ(sim.pending(), 2u);

  EXPECT_EQ(sim.run_until(SimTime(100)), 2u);
  const std::vector<std::pair<EventKind, int>> want{
      {EventKind::kDelivered, 1}, {EventKind::kAckReturned, 2}};
  EXPECT_EQ(log, want);
  EXPECT_EQ(sim.now(), SimTime(100));
}

TEST(Simulator, TypedEventContracts) {
  Simulator sim;
  std::vector<std::pair<EventKind, int>> log;
  LoggingTarget target(log);
  EXPECT_THROW(
      sim.schedule_in(SimTime(-1), EventKind::kDelivered, &target, Packet{}),
      ContractViolation);
  EXPECT_THROW(
      sim.schedule_in(SimTime(1), EventKind::kDelivered, nullptr, Packet{}),
      ContractViolation);
  EXPECT_THROW(
      sim.schedule_in(SimTime(1), EventKind::kClosure, &target, Packet{}),
      ContractViolation);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, LaneTypedAndClosureEventsAtOneTimeRunInInsertionOrder) {
  Simulator sim;
  std::vector<std::pair<EventKind, int>> log;
  LoggingTarget target(log);
  const LaneId lane = sim.add_lane(EventKind::kDelivered, &target);
  sim.schedule_in(SimTime(7), lane, numbered(0));
  sim.schedule_in(SimTime(7), EventKind::kAckReturned, &target, numbered(1));
  sim.schedule_in(SimTime(7), lane, numbered(2));
  sim.schedule_at(SimTime(7), [&] { log.emplace_back(EventKind::kClosure, 3); });
  sim.schedule_in(SimTime(7), lane, numbered(4));
  sim.schedule_in(SimTime(3), EventKind::kTransmitted, &target, numbered(5));
  EXPECT_EQ(sim.pending(), 6u);
  sim.run();
  const std::vector<std::pair<EventKind, int>> want{
      {EventKind::kTransmitted, 5}, {EventKind::kDelivered, 0},
      {EventKind::kAckReturned, 1}, {EventKind::kDelivered, 2},
      {EventKind::kClosure, 3},     {EventKind::kDelivered, 4}};
  EXPECT_EQ(log, want);
  EXPECT_EQ(sim.events_of_kind(EventKind::kDelivered), 3u);
  EXPECT_EQ(sim.lane_out_of_order(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
}

/// Appends (packet seq, time) for every typed event it receives.
class TimingTarget final : public EventTarget {
 public:
  TimingTarget(const Simulator& sim,
               std::vector<std::pair<int, SimTime>>& log)
      : sim_(sim), log_(log) {}
  void on_event(EventKind, const Packet& packet) override {
    log_.emplace_back(static_cast<int>(packet.seq), sim_.now());
  }

 private:
  const Simulator& sim_;
  std::vector<std::pair<int, SimTime>>& log_;
};

TEST(Simulator, LaneRingGrowsWhileWrappedAndKeepsFifoOrder) {
  Simulator sim;
  std::vector<std::pair<int, SimTime>> log;
  TimingTarget target(sim, log);
  const LaneId lane = sim.add_lane(EventKind::kAckReturned, &target);
  // Twelve entries due at 1..12 grow the ring to 16 slots; running eight
  // moves its head to the middle, so the next entries wrap around and then
  // outgrow the ring.
  for (int i = 1; i <= 12; ++i) sim.schedule_in(SimTime(i), lane, numbered(i));
  EXPECT_EQ(sim.run_until(SimTime(8)), 8u);
  for (int i = 13; i <= 60; ++i) {
    sim.schedule_in(SimTime(i - 8), lane, numbered(i));
  }
  EXPECT_EQ(sim.pending(), 52u);
  EXPECT_EQ(sim.run(), 52u);
  ASSERT_EQ(log.size(), 60u);
  for (int i = 1; i <= 60; ++i) {
    EXPECT_EQ(log[i - 1], std::make_pair(i, SimTime(i))) << "entry " << i;
  }
  EXPECT_EQ(sim.peak_heap_size(), 1u);  // only the lane's head
  EXPECT_EQ(sim.lane_out_of_order(), 0u);
}

TEST(Simulator, LaneEventDueBeforeTheTailRunsAtItsOwnTime) {
  Simulator sim;
  std::vector<std::pair<int, SimTime>> log;
  TimingTarget target(sim, log);
  const LaneId lane = sim.add_lane(EventKind::kDelivered, &target);
  sim.schedule_in(SimTime(10), lane, numbered(0));
  sim.schedule_in(SimTime(20), lane, numbered(1));
  sim.schedule_in(SimTime(5), lane, numbered(2));   // before the tail
  sim.schedule_in(SimTime(20), lane, numbered(3));  // ties the tail: in lane
  sim.schedule_in(SimTime(15), lane, numbered(4));  // before the tail
  sim.schedule_in(SimTime(10), lane, numbered(5));  // ties the head, later
  EXPECT_EQ(sim.lane_out_of_order(), 3u);
  EXPECT_EQ(sim.pending(), 6u);
  sim.run();
  const std::vector<std::pair<int, SimTime>> want{
      {2, SimTime(5)},  {0, SimTime(10)}, {5, SimTime(10)},
      {4, SimTime(15)}, {1, SimTime(20)}, {3, SimTime(20)}};
  EXPECT_EQ(log, want);
  EXPECT_EQ(sim.events_of_kind(EventKind::kDelivered), 6u);
}

TEST(Simulator, RequestStopLeavesLaneEventsPendingForTheNextRun) {
  Simulator sim;
  std::vector<std::pair<int, SimTime>> log;
  TimingTarget target(sim, log);
  const LaneId lane = sim.add_lane(EventKind::kDelivered, &target);
  for (int i = 0; i < 4; ++i) sim.schedule_in(SimTime(4 + i), lane, numbered(i));
  sim.schedule_at(SimTime(5), [&] { sim.request_stop(); });
  sim.run_until(SimTime(100));
  EXPECT_EQ(sim.now(), SimTime(5));
  EXPECT_EQ(log.size(), 2u);  // 4 and 5 ran; the stop came after 5
  EXPECT_EQ(sim.pending(), 2u);

  EXPECT_EQ(sim.run_until(SimTime(100)), 2u);
  const std::vector<std::pair<int, SimTime>> want{
      {0, SimTime(4)}, {1, SimTime(5)}, {2, SimTime(6)}, {3, SimTime(7)}};
  EXPECT_EQ(log, want);
  EXPECT_EQ(sim.now(), SimTime(100));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, LaneContracts) {
  Simulator sim;
  std::vector<std::pair<EventKind, int>> log;
  LoggingTarget target(log);
  EXPECT_THROW((void)sim.add_lane(EventKind::kDelivered, nullptr),
               ContractViolation);
  EXPECT_THROW((void)sim.add_lane(EventKind::kClosure, &target),
               ContractViolation);
  EXPECT_THROW(sim.schedule_in(SimTime(1), LaneId{0}, Packet{}),
               ContractViolation);  // no lane opened yet
  const LaneId lane = sim.add_lane(EventKind::kDelivered, &target);
  EXPECT_THROW(sim.schedule_in(SimTime(-1), lane, Packet{}),
               ContractViolation);
  EXPECT_THROW(sim.schedule_in(SimTime(1), LaneId{1}, Packet{}),
               ContractViolation);
  EXPECT_EQ(sim.pending(), 0u);
}

}  // namespace
}  // namespace axiomcc::sim
