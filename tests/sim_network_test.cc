// Tests for the packet-level multi-hop network: hop-by-hop forwarding,
// the parking lot, and agreement with the fluid network's structure.
#include "sim/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>

#include "cc/presets.h"
#include "sim/loss.h"
#include "telemetry/telemetry.h"
#include "util/check.h"

namespace axiomcc::sim {
namespace {

MultiHopNetwork::Config quick_config() {
  MultiHopNetwork::Config c;
  c.duration_seconds = 20.0;
  return c;
}

TEST(MultiHopNetwork, SingleLinkFlowFillsThePipe) {
  MultiHopNetwork net(quick_config());
  const int l = net.add_link(10.0, 20.0, 25);
  const int f = net.add_flow(cc::presets::reno(), {l});
  net.run();

  // 10 Mbps available; Reno should hold most of it.
  EXPECT_GT(net.flow_throughput_mbps(f), 7.5);
  EXPECT_LE(net.flow_throughput_mbps(f), 10.5);
}

TEST(MultiHopNetwork, TwoHopPathDeliversEndToEnd) {
  MultiHopNetwork net(quick_config());
  const int l0 = net.add_link(10.0, 10.0, 25);
  const int l1 = net.add_link(10.0, 10.0, 25);
  const int f = net.add_flow(cc::presets::reno(), {l0, l1});
  net.run();

  EXPECT_GT(net.flow_throughput_mbps(f), 7.0);
  // Both links carried the flow's packets.
  EXPECT_GT(net.link(l0).packets_delivered(), 1000u);
  EXPECT_GT(net.link(l1).packets_delivered(), 1000u);
  // The second link cannot have delivered more than the first accepted.
  EXPECT_LE(net.link(l1).packets_delivered(),
            net.link(l0).packets_delivered());
}

TEST(MultiHopNetwork, RttReflectsRouteLength) {
  MultiHopNetwork net(quick_config());
  const int l0 = net.add_link(50.0, 10.0, 50);
  const int l1 = net.add_link(50.0, 15.0, 50);
  const int short_flow = net.add_flow(cc::presets::reno(), {l0});
  const int long_flow = net.add_flow(cc::presets::reno(), {l0, l1});
  net.run();

  // Short flow: ~20 ms round trip; long flow: ~50 ms plus queueing.
  EXPECT_NEAR(net.sender(short_flow).srtt_seconds(), 0.020, 0.015);
  EXPECT_GT(net.sender(long_flow).srtt_seconds(),
            net.sender(short_flow).srtt_seconds() + 0.020);
}

TEST(MultiHopNetwork, PacketParkingLotBeatsDownTheLongFlow) {
  MultiHopNetwork::Config cfg = quick_config();
  cfg.duration_seconds = 30.0;
  PacketParkingLot lot = make_packet_parking_lot(
      10.0, 10.0, 25, 3, *cc::presets::reno(), cfg);
  lot.network->run();

  const double long_tput =
      lot.network->flow_throughput_mbps(lot.long_flow);
  double short_sum = 0.0;
  for (int f : lot.short_flows) {
    short_sum += lot.network->flow_throughput_mbps(f);
  }
  const double short_avg =
      short_sum / static_cast<double>(lot.short_flows.size());

  EXPECT_GT(long_tput, 0.05);
  EXPECT_LT(long_tput, short_avg * 0.85);
  // Per-link conservation: long + short roughly fill each 10 Mbps link.
  EXPECT_GT(long_tput + short_avg, 7.0);
}

TEST(MultiHopNetwork, TraceIsSampled) {
  MultiHopNetwork net(quick_config());
  const int l = net.add_link(10.0, 20.0, 25);
  net.add_flow(cc::presets::reno(), {l});
  net.run();
  EXPECT_GT(net.trace().num_steps(), 100u);
  EXPECT_EQ(net.trace().num_senders(), 1);
}

TEST(MultiHopNetwork, ChurnedFlowStopsSendingAtItsStopTime) {
  MultiHopNetwork::Config cfg = quick_config();
  cfg.duration_seconds = 20.0;
  MultiHopNetwork net(cfg);
  const int l = net.add_link(10.0, 20.0, 25);
  const int stayer = net.add_flow(cc::presets::reno(), {l});
  const int leaver = net.add_flow(cc::presets::reno(), {l},
                                  /*start_seconds=*/0.0,
                                  /*initial_window=*/2.0,
                                  /*stop_seconds=*/8.0);
  net.run();

  // After the leaver departs, the stayer reclaims the link; its traced
  // window is zero in the tail while the stayer's stays positive.
  const fluid::Trace& trace = net.trace();
  const std::size_t last = trace.num_steps() - 1;
  EXPECT_EQ(trace.windows(leaver)[last], 0.0);
  EXPECT_GT(trace.windows(stayer)[last], 0.0);
  EXPECT_GT(net.flow_throughput_mbps(stayer),
            net.flow_throughput_mbps(leaver));
}

TEST(MultiHopNetwork, StepMonitorStopsTheRunEarly) {
  MultiHopNetwork net(quick_config());
  const int l = net.add_link(10.0, 20.0, 25);
  net.add_flow(cc::presets::reno(), {l});
  long last_seen = -1;
  net.set_step_monitor([&last_seen](long step, std::span<const double>,
                                    double, double) {
    last_seen = step;
    return step < 50;
  });
  net.run();
  EXPECT_EQ(last_seen, 50);
  // ~51 samples kept instead of the ~500 a full run would take.
  EXPECT_LE(net.trace().num_steps(), 52u);
}

TEST(MultiHopNetwork, ForwardFilterThinsDeliveredPackets) {
  const auto run_tput = [](double rate) {
    MultiHopNetwork::Config cfg = quick_config();
    MultiHopNetwork net(cfg);
    const int l0 = net.add_link(10.0, 10.0, 25);
    const int l1 = net.add_link(10.0, 10.0, 25);
    const int f = net.add_flow(cc::presets::reno(), {l0, l1});
    if (rate > 0.0) {
      net.set_forward_filter(
          std::make_unique<BernoulliPacketLoss>(rate, /*seed=*/5));
    }
    net.run();
    return net.flow_throughput_mbps(f);
  };
  const double clean = run_tput(0.0);
  const double lossy = run_tput(0.05);
  EXPECT_GT(clean, 7.0);
  // 5% random loss on a multi-hop path decimates Reno's throughput.
  EXPECT_LT(lossy, clean * 0.5);
  EXPECT_GT(lossy, 0.0);
}

TEST(MultiHopNetwork, FlowReportsAndUtilizationSummarizeTheRun) {
  MultiHopNetwork::Config cfg = quick_config();
  cfg.duration_seconds = 30.0;
  PacketParkingLot lot = make_packet_parking_lot(
      10.0, 10.0, 25, 2, *cc::presets::reno(), cfg);
  lot.network->run();

  const std::vector<FlowReport> reports = lot.network->flow_reports();
  ASSERT_EQ(reports.size(), 3u);  // long flow + 2 cross flows
  for (const FlowReport& r : reports) {
    EXPECT_EQ(r.protocol_name, "AIMD(1,0.5)");  // reno's self-reported name
    EXPECT_GT(r.avg_window_mss, 0.0);
    EXPECT_GT(r.throughput_mbps, 0.0);
    EXPECT_GT(r.avg_rtt_ms, 0.0);
  }
  const double util = lot.network->max_link_utilization();
  EXPECT_GT(util, 0.6);
  EXPECT_LE(util, 1.0);
}

TEST(MultiHopNetwork, MutableLinkRetargetsRateMidRun) {
  MultiHopNetwork::Config cfg = quick_config();
  cfg.duration_seconds = 24.0;
  MultiHopNetwork net(cfg);
  const int l = net.add_link(10.0, 20.0, 25);
  const int f = net.add_flow(cc::presets::reno(), {l});
  // Halve the bottleneck halfway through, the way the engine backend
  // installs bandwidth schedules.
  net.simulator().schedule_at(SimTime::from_seconds(12.0), [&net, l] {
    net.mutable_link(l).set_rate_bps(5e6);
  });
  net.run();
  // Tail throughput reflects the tightened link (tail window spans the
  // throttled half), staying well under the unthrottled 10 Mbps fill.
  EXPECT_LT(net.flow_throughput_mbps(f), 7.0);
  EXPECT_GT(net.flow_throughput_mbps(f), 2.0);
}

TEST(MultiHopNetwork, LinksQueueThroughTheirDiscipline) {
  MultiHopNetwork net(quick_config());
  REDQueue::Params red;
  red.capacity_packets = 100;
  red.min_threshold = 5.0;
  red.max_threshold = 20.0;
  const int l = net.add_link(10.0, 20.0, std::make_unique<REDQueue>(red));
  net.add_flow(cc::presets::reno(), {l});
  net.run();
  const auto* queue = dynamic_cast<const REDQueue*>(&net.link(l).queue());
  ASSERT_NE(queue, nullptr);
  // RED drops early, so the queue stays far below its 100-packet buffer:
  // the RTT stays under 40 ms + 50 packets × 1.2 ms.
  EXPECT_GT(queue->drops(), 0u);
  EXPECT_LT(net.flow_reports()[0].avg_rtt_ms, 40.0 + 50 * 1.2);
}

TEST(MultiHopNetwork, EventsByKindAccountForEveryEvent) {
  MultiHopNetwork net(quick_config());
  const int l0 = net.add_link(10.0, 10.0, 25);
  const int l1 = net.add_link(8.0, 5.0, 20);
  net.add_flow(cc::presets::reno(), {l0, l1});
  net.add_flow(cc::presets::cubic_linux(), {l1}, 1.0);
  net.run();

  const Simulator& sim = net.simulator();
  std::size_t sum = 0;
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    sum += sim.events_of_kind(static_cast<EventKind>(k));
  }
  EXPECT_EQ(sum, sim.events_processed());

  std::size_t delivered = 0;
  for (int l = 0; l < net.num_links(); ++l) {
    delivered += net.link(l).packets_delivered();
  }
  EXPECT_GT(delivered, 1000u);
  EXPECT_EQ(sim.events_of_kind(EventKind::kDelivered), delivered);
  // Every delivery was a transmission first; the ones missing are still
  // propagating at the horizon.
  EXPECT_GE(sim.events_of_kind(EventKind::kTransmitted), delivered);
  EXPECT_GT(sim.events_of_kind(EventKind::kAckReturned), 0u);
  EXPECT_GT(sim.events_of_kind(EventKind::kClosure), 0u);
}

TEST(MultiHopNetwork, RunPublishesEventsByKindToTelemetry) {
  using telemetry::Registry;
  using telemetry::Stability;
  const auto counter = [](const char* name) {
    return Registry::global().counter(name, Stability::kDeterministic).value();
  };
  Registry::global().reset_values();
  telemetry::set_enabled(true);
  MultiHopNetwork net(quick_config());
  const int l = net.add_link(10.0, 20.0, 10);
  net.add_flow(cc::presets::reno(), {l});
  net.run();
  telemetry::set_enabled(false);

  const Simulator& sim = net.simulator();
  const auto events = [&sim](EventKind kind) {
    return static_cast<std::int64_t>(sim.events_of_kind(kind));
  };
  EXPECT_EQ(counter("sim.events.transmitted"),
            events(EventKind::kTransmitted));
  EXPECT_EQ(counter("sim.events.delivered"), events(EventKind::kDelivered));
  EXPECT_EQ(counter("sim.events.ack_returned"),
            events(EventKind::kAckReturned));
  EXPECT_EQ(counter("sim.events.closure"), events(EventKind::kClosure));
  EXPECT_EQ(counter("sim.link.enqueues"),
            static_cast<std::int64_t>(net.link(l).packets_accepted()));
  EXPECT_EQ(counter("sim.link.drops"),
            static_cast<std::int64_t>(net.link(l).packets_dropped()));
  EXPECT_GT(counter("sim.link.drops"), 0);
  Registry::global().reset_values();
}

TEST(MultiHopNetwork, RunPublishesTheHeapHighWaterMark) {
  using telemetry::Registry;
  Registry::global().reset_values();
  telemetry::set_enabled(true);
  MultiHopNetwork net(quick_config());
  const int l0 = net.add_link(10.0, 10.0, 25);
  const int l1 = net.add_link(8.0, 5.0, 20);
  net.add_flow(cc::presets::reno(), {l0, l1});
  net.add_flow(cc::presets::cubic_linux(), {l1});
  net.run();
  telemetry::set_enabled(false);

  const telemetry::RegistrySnapshot snap = Registry::global().snapshot();
  const auto it = std::find_if(
      snap.histograms.begin(), snap.histograms.end(),
      [](const auto& h) { return h.name == "sim.heap.peak_pending"; });
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->data.count, 1u);  // one record per run
  const std::size_t peak = net.simulator().peak_heap_size();
  EXPECT_EQ(it->data.max, static_cast<double>(peak));
  // Packets in propagation and returning ACKs wait in their lanes: the heap
  // holds about one record per link, flow and timer, not one per packet in
  // flight.
  EXPECT_GE(peak, 3u);
  EXPECT_LE(peak, 24u);
  Registry::global().reset_values();
}

TEST(MultiHopNetwork, RunCountsLaneEventsThatFellBackToTheHeap) {
  using telemetry::Registry;
  using telemetry::Stability;
  const auto out_of_order = [] {
    return Registry::global()
        .counter("sim.lane.out_of_order", Stability::kDeterministic)
        .value();
  };
  Registry::global().reset_values();
  telemetry::set_enabled(true);
  // A fixed delay keeps every delivery and ACK in its lane.
  MultiHopNetwork steady(quick_config());
  steady.add_flow(cc::presets::reno(), {steady.add_link(10.0, 20.0, 25)});
  steady.run();
  EXPECT_EQ(out_of_order(), 0);
  EXPECT_EQ(steady.simulator().lane_out_of_order(), 0u);

  // Shrinking the delay mid-run lets packets overtake those already in
  // propagation; each one is ordered by the heap instead.
  MultiHopNetwork shrunk(quick_config());
  const int l = shrunk.add_link(10.0, 20.0, 25);
  shrunk.add_flow(cc::presets::reno(), {l});
  shrunk.simulator().schedule_at(SimTime::from_seconds(10.0), [&shrunk, l] {
    shrunk.mutable_link(l).set_propagation_delay(SimTime::from_millis(5));
  });
  shrunk.run();
  telemetry::set_enabled(false);
  const std::size_t fell_back = shrunk.simulator().lane_out_of_order();
  EXPECT_GT(fell_back, 0u);
  EXPECT_EQ(out_of_order(), static_cast<std::int64_t>(fell_back));
  Registry::global().reset_values();
}

TEST(MultiHopNetwork, ContractChecks) {
  MultiHopNetwork net(quick_config());
  EXPECT_THROW(net.run(), ContractViolation);  // no flows

  MultiHopNetwork net2(quick_config());
  const int l = net2.add_link(10.0, 10.0, 10);
  EXPECT_THROW(net2.add_flow(cc::presets::reno(), {l, l}),
               ContractViolation);  // repeated link
  EXPECT_THROW(net2.add_flow(cc::presets::reno(), {l + 3}),
               ContractViolation);  // unknown link
  const int instant = net2.add_link(10.0, 0.0, 10);
  EXPECT_THROW(net2.add_flow(cc::presets::reno(), {instant}),
               ContractViolation);  // zero route RTT
  MultiHopNetwork net3(quick_config());
  net3.add_flow(cc::presets::reno(), {net3.add_link(10.0, 1e-7, 10)});
  EXPECT_THROW(net3.run(), ContractViolation);  // sub-ns sampling interval

  net2.add_flow(cc::presets::reno(), {l});
  net2.run();
  EXPECT_THROW(net2.run(), ContractViolation);  // run twice
}

}  // namespace
}  // namespace axiomcc::sim
