// Unit tests for the queue disciplines: droptail semantics exactly, RED
// statistically, and the packet ring both store their packets in.
#include "sim/queue.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace axiomcc::sim {
namespace {

Packet data(std::uint64_t seq, int bytes = 1500) {
  Packet p;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

TEST(PacketRing, StartsEmptyAndUnallocated) {
  PacketRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 0u);
  EXPECT_THROW((void)ring.pop_front(), ContractViolation);
}

TEST(PacketRing, WrapsAroundWithoutGrowing) {
  PacketRing ring;
  for (std::uint64_t i = 0; i < 6; ++i) ring.push_back(data(i));
  const std::size_t capacity = ring.capacity();
  ASSERT_GE(capacity, 6u);
  // Cycle far past the end of the slots while never holding more than six.
  std::uint64_t next_out = 0;
  for (std::uint64_t i = 6; i < 10 * capacity; ++i) {
    EXPECT_EQ(ring.pop_front().seq, next_out++);
    ring.push_back(data(i));
  }
  EXPECT_EQ(ring.capacity(), capacity);
  EXPECT_EQ(ring.size(), 6u);
  while (!ring.empty()) EXPECT_EQ(ring.pop_front().seq, next_out++);
}

TEST(PacketRing, GrowsWhileWrappedKeepingFifoOrder) {
  PacketRing ring;
  for (std::uint64_t i = 0; i < 5; ++i) ring.push_back(data(i));
  const std::size_t capacity = ring.capacity();
  // Move the head forward so the live packets straddle the end of the slots.
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(ring.pop_front().seq, i);
  std::uint64_t next_in = 5;
  while (ring.size() < capacity) ring.push_back(data(next_in++));
  // Full and wrapped: the next push doubles the ring.
  ring.push_back(data(next_in++));
  EXPECT_EQ(ring.capacity(), 2 * capacity);
  for (std::uint64_t want = 3; want < next_in; ++want) {
    EXPECT_EQ(ring.pop_front().seq, want);
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 2 * capacity);  // never shrinks
}

TEST(DropTailQueue, CyclesInFifoOrderWithByteAccounting) {
  DropTailQueue q(1000);
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  std::size_t bytes = 0;
  // Alternate bursts of growth and draining, so the ring grows while its
  // contents are wrapped; sizes vary so byte accounting is exercised.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 7 + round; ++i) {
      const int size = 40 + static_cast<int>(next_in % 7) * 100;
      ASSERT_TRUE(q.enqueue(data(next_in++, size)));
      bytes += static_cast<std::size_t>(size);
    }
    for (int i = 0; i < 5; ++i) {
      const auto p = q.dequeue();
      ASSERT_TRUE(p.has_value());
      EXPECT_EQ(p->seq, next_out++);
      bytes -= static_cast<std::size_t>(p->size_bytes);
    }
    EXPECT_EQ(q.size_bytes(), bytes);
    EXPECT_EQ(q.size_packets(), next_in - next_out);
  }
  while (const auto p = q.dequeue()) {
    EXPECT_EQ(p->seq, next_out++);
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(q.size_bytes(), 0u);
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q(4);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(q.enqueue(data(i)));
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, i);
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(DropTailQueue, DropsExactlyBeyondCapacity) {
  DropTailQueue q(2);
  EXPECT_TRUE(q.enqueue(data(0)));
  EXPECT_TRUE(q.enqueue(data(1)));
  EXPECT_FALSE(q.enqueue(data(2)));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.size_packets(), 2u);

  // Freeing a slot re-admits.
  (void)q.dequeue();
  EXPECT_TRUE(q.enqueue(data(3)));
}

TEST(DropTailQueue, TracksBytes) {
  DropTailQueue q(10);
  (void)q.enqueue(data(0, 1500));
  (void)q.enqueue(data(1, 40));
  EXPECT_EQ(q.size_bytes(), 1540u);
  (void)q.dequeue();
  EXPECT_EQ(q.size_bytes(), 40u);
}

TEST(DropTailQueue, ZeroCapacityViolatesContract) {
  EXPECT_THROW(DropTailQueue{0}, ContractViolation);
}

TEST(DropTailQueue, Name) { EXPECT_EQ(DropTailQueue(1).name(), "droptail"); }

REDQueue::Params red_params() {
  REDQueue::Params p;
  p.capacity_packets = 100;
  p.min_threshold = 10.0;
  p.max_threshold = 50.0;
  p.max_drop_probability = 0.2;
  p.queue_weight = 0.5;  // fast-moving average for testability
  p.seed = 3;
  return p;
}

TEST(REDQueue, NoDropsBelowMinThreshold) {
  REDQueue q(red_params());
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_TRUE(q.enqueue(data(i)));
  EXPECT_EQ(q.drops(), 0u);
}

TEST(REDQueue, ProbabilisticDropsBetweenThresholds) {
  REDQueue q(red_params());
  std::size_t admitted = 0;
  // Hold occupancy between the thresholds by not dequeuing: the EWMA climbs
  // past min_threshold and RED begins dropping a fraction.
  for (std::uint64_t i = 0; i < 60; ++i) {
    if (q.enqueue(data(i))) ++admitted;
  }
  EXPECT_GT(q.drops(), 0u);
  EXPECT_LT(q.drops(), 60u);
  EXPECT_EQ(admitted + q.drops(), 60u);
}

TEST(REDQueue, HardDropsAboveMaxThreshold) {
  REDQueue q(red_params());
  // Fill far beyond max_threshold; once the EWMA crosses it, every arrival
  // is dropped.
  for (std::uint64_t i = 0; i < 200; ++i) (void)q.enqueue(data(i));
  const std::size_t drops_so_far = q.drops();
  EXPECT_FALSE(q.enqueue(data(999)));
  EXPECT_EQ(q.drops(), drops_so_far + 1);
}

TEST(REDQueue, AverageTracksOccupancy) {
  REDQueue q(red_params());
  EXPECT_DOUBLE_EQ(q.average_queue(), 0.0);
  for (std::uint64_t i = 0; i < 8; ++i) (void)q.enqueue(data(i));
  EXPECT_GT(q.average_queue(), 1.0);
}

TEST(REDQueue, DeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    REDQueue::Params p = red_params();
    p.seed = seed;
    REDQueue q(p);
    std::vector<bool> outcomes;
    for (std::uint64_t i = 0; i < 100; ++i) outcomes.push_back(q.enqueue(data(i)));
    return outcomes;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

TEST(REDQueue, ParameterContracts) {
  REDQueue::Params p = red_params();
  p.max_threshold = p.min_threshold;
  EXPECT_THROW(REDQueue{p}, ContractViolation);

  REDQueue::Params q = red_params();
  q.max_drop_probability = 0.0;
  EXPECT_THROW(REDQueue{q}, ContractViolation);

  REDQueue::Params r = red_params();
  r.queue_weight = 0.0;
  EXPECT_THROW(REDQueue{r}, ContractViolation);
}

TEST(REDQueue, KeepsFifoOrderAndBytesAcrossWraparound) {
  REDQueue::Params p = red_params();
  p.min_threshold = 1000.0;  // no early drops: pure FIFO behaviour
  p.max_threshold = 2000.0;
  p.capacity_packets = 2000;
  REDQueue q(p);
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.enqueue(data(next_in++, 100)));
    for (int i = 0; i < 2; ++i) EXPECT_EQ(q.dequeue()->seq, next_out++);
  }
  EXPECT_EQ(q.size_packets(), 50u);
  EXPECT_EQ(q.size_bytes(), 5000u);
  while (const auto out = q.dequeue()) EXPECT_EQ(out->seq, next_out++);
  EXPECT_EQ(q.size_bytes(), 0u);
}

}  // namespace
}  // namespace axiomcc::sim
