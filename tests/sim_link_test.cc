// Unit tests for SimLink: exact serialization + propagation timing, pipeline
// behaviour under backlog, and drop accounting.
#include "sim/link.h"

#include <utility>
#include <vector>

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

struct Arrival {
  std::uint64_t seq;
  SimTime at;
};

TEST(SimLink, SinglePacketTimingIsExact) {
  Simulator sim;
  std::vector<Arrival> arrivals;
  // 12 Mbps link: a 1500-byte packet serializes in exactly 1 ms.
  SimLink link(sim, 12e6, SimTime::from_millis(5),
               std::make_unique<DropTailQueue>(10),
               [&](const Packet& p) { arrivals.push_back({p.seq, sim.now()}); });

  link.send(data(0));
  sim.run();

  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0].at, SimTime::from_millis(6));  // 1 ms + 5 ms
}

TEST(SimLink, BackToBackPacketsPipelineAtLineRate) {
  Simulator sim;
  std::vector<Arrival> arrivals;
  SimLink link(sim, 12e6, SimTime::from_millis(5),
               std::make_unique<DropTailQueue>(10),
               [&](const Packet& p) { arrivals.push_back({p.seq, sim.now()}); });

  for (std::uint64_t i = 0; i < 3; ++i) link.send(data(i));
  sim.run();

  ASSERT_EQ(arrivals.size(), 3u);
  // Deliveries are spaced by one serialization time (1 ms), in order.
  EXPECT_EQ(arrivals[0].at, SimTime::from_millis(6));
  EXPECT_EQ(arrivals[1].at, SimTime::from_millis(7));
  EXPECT_EQ(arrivals[2].at, SimTime::from_millis(8));
  EXPECT_EQ(arrivals[0].seq, 0u);
  EXPECT_EQ(arrivals[2].seq, 2u);
}

TEST(SimLink, SerializationScalesWithPacketSize) {
  Simulator sim;
  SimLink link(sim, 12e6, SimTime(0), std::make_unique<DropTailQueue>(1),
               [](const Packet&) {});
  EXPECT_EQ(link.serialization_time(1500), SimTime::from_millis(1));
  EXPECT_EQ(link.serialization_time(750), SimTime::from_micros(500));
  EXPECT_THROW((void)link.serialization_time(0), ContractViolation);
}

TEST(SimLink, OverflowCountsDrops) {
  Simulator sim;
  std::size_t delivered = 0;
  SimLink link(sim, 12e6, SimTime(0), std::make_unique<DropTailQueue>(2),
               [&](const Packet&) { ++delivered; });

  // One packet goes straight to the transmitter; two fill the queue; the
  // rest drop. (The in-service packet is dequeued immediately, so capacity 2
  // holds packets 1 and 2 while 0 transmits.)
  for (std::uint64_t i = 0; i < 6; ++i) link.send(data(i));
  sim.run();

  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(link.packets_dropped(), 3u);
  EXPECT_EQ(link.packets_accepted(), 3u);
  EXPECT_EQ(link.packets_delivered(), 3u);
  EXPECT_EQ(link.bytes_delivered(), 3u * 1500u);
}

TEST(SimLink, IdleLinkRestartsCleanly) {
  Simulator sim;
  std::vector<Arrival> arrivals;
  SimLink link(sim, 12e6, SimTime(0), std::make_unique<DropTailQueue>(10),
               [&](const Packet& p) { arrivals.push_back({p.seq, sim.now()}); });

  link.send(data(0));
  sim.run();  // drain completely
  ASSERT_EQ(arrivals.size(), 1u);

  // A later send after idle must transmit with fresh timing, not stall.
  sim.schedule_at(SimTime::from_millis(100), [&] { link.send(data(1)); });
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1].at, SimTime::from_millis(101));
}

TEST(SimLink, ShrunkDelayLetsLaterPacketsOvertakeInTimeThenSequenceOrder) {
  Simulator sim;
  std::vector<Arrival> arrivals;
  // 1 ms per packet; packet 0 leaves at 1 ms under a 5 ms delay (due 6 ms).
  SimLink link(sim, 12e6, SimTime::from_millis(5),
               std::make_unique<DropTailQueue>(10),
               [&](const Packet& p) { arrivals.push_back({p.seq, sim.now()}); });
  for (std::uint64_t i = 0; i < 5; ++i) link.send(data(i));
  // Packets 1 and 2 leave at 2 and 3 ms under a 1 ms delay and overtake 0.
  sim.schedule_at(SimTime::from_micros(1500),
                  [&] { link.set_propagation_delay(SimTime::from_millis(1)); });
  // Packet 3 leaves at 4 ms under a 2 ms delay: due 6 ms, tied with packet
  // 0, which was scheduled first and so arrives first. Packet 4 leaves at
  // 5 ms and is due at 7 ms.
  sim.schedule_at(SimTime::from_micros(3500),
                  [&] { link.set_propagation_delay(SimTime::from_millis(2)); });
  sim.run();

  const std::vector<std::pair<std::uint64_t, SimTime>> want{
      {1, SimTime::from_millis(3)}, {2, SimTime::from_millis(4)},
      {0, SimTime::from_millis(6)}, {3, SimTime::from_millis(6)},
      {4, SimTime::from_millis(7)}};
  ASSERT_EQ(arrivals.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(arrivals[i].seq, want[i].first) << "arrival " << i;
    EXPECT_EQ(arrivals[i].at, want[i].second) << "arrival " << i;
  }
  EXPECT_EQ(link.packets_delivered(), 5u);
}

TEST(SimLink, ConstructorContracts) {
  Simulator sim;
  EXPECT_THROW(SimLink(sim, 0.0, SimTime(0), std::make_unique<DropTailQueue>(1),
                       [](const Packet&) {}),
               ContractViolation);
  EXPECT_THROW(
      SimLink(sim, 1e6, SimTime(0), nullptr, [](const Packet&) {}),
      ContractViolation);
  EXPECT_THROW(SimLink(sim, 1e6, SimTime(0),
                       std::make_unique<DropTailQueue>(1), DeliverFn{}),
               ContractViolation);
}

}  // namespace
}  // namespace axiomcc::sim
