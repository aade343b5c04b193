// network.h — the packet-level simulation substrate: flows over routed links.
//
// Packets are forwarded hop by hop through each link's queue; the last hop
// delivers to the flow's receiver, whose ACK returns after the route's
// reverse propagation delay. This is the packet-level counterpart of
// fluid/network.h (the paper's "network-wide interaction" future work), and
// every packet scenario runs on it: the paper's single-bottleneck dumbbell
// (Section 5.1) is the one-link case (sim/dumbbell.h builds it), and
// engine::PacketBackend runs single-link specs as a one-link network.
//
// The network carries the full engine-substrate hook set: per-link queue
// disciplines (droptail or RED), flow churn (start/stop times), a
// forward-path packet filter for injected loss, a step monitor that can stop
// the run at a trace sample, per-flow tail reports, and mutable link access
// for mid-run rate/delay schedules.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cc/protocol.h"
#include "fluid/link.h"
#include "fluid/trace.h"
#include "sim/event.h"
#include "sim/link.h"
#include "sim/loss.h"
#include "sim/queue.h"
#include "sim/receiver.h"
#include "sim/sender.h"

namespace axiomcc::sim {

/// A fluid link in packet units.
struct PacketLinkParams {
  double mbps = 0.0;
  double one_way_delay_ms = 0.0;
  std::size_t buffer_packets = 1;
};

/// Converts the fluid model's link parameters into packet units. This is the
/// ONE place where the MSS-denominated fluid units (B in MSS/s, Θ one-way
/// seconds, buffer in MSS) become packet-level units (Mbps, one-way ms,
/// whole packets), so both simulators agree about what a "link" means.
[[nodiscard]] PacketLinkParams packet_link_from_fluid(
    const fluid::LinkParams& link, int mss_bytes);

/// Tail-of-run summary for one flow.
struct FlowReport {
  std::string protocol_name;
  double avg_window_mss = 0.0;
  double throughput_mbps = 0.0;
  double loss_rate = 0.0;
  double avg_rtt_ms = 0.0;
};

class MultiHopNetwork {
 public:
  struct Config {
    double duration_seconds = 30.0;
    int mss_bytes = 1500;
    double tail_fraction = 0.5;
    /// Hard cwnd cap passed to every sender. The fluid model tolerates
    /// essentially unbounded windows; a packet simulation's event count
    /// scales with the real window, so runaway protocols must be capped.
    double max_window_mss = 1e7;
  };

  explicit MultiHopNetwork(const Config& config);

  MultiHopNetwork(const MultiHopNetwork&) = delete;
  MultiHopNetwork& operator=(const MultiHopNetwork&) = delete;

  /// Adds a unidirectional link queueing through `queue`; returns its id.
  int add_link(double mbps, double one_way_delay_ms,
               std::unique_ptr<QueueDiscipline> queue);
  /// Adds a droptail link of `buffer_packets`; returns its id.
  int add_link(double mbps, double one_way_delay_ms,
               std::size_t buffer_packets) {
    return add_link(mbps, one_way_delay_ms,
                    std::make_unique<DropTailQueue>(buffer_packets));
  }

  /// Adds a flow routed over `route` (ordered link ids). The reverse path is
  /// modeled as a fixed delay equal to the route's total one-way propagation,
  /// which must be positive. A non-negative `stop_seconds` removes the flow
  /// at that time (churn).
  int add_flow(std::unique_ptr<cc::Protocol> protocol, std::vector<int> route,
               double start_seconds = 0.0, double initial_window = 2.0,
               double stop_seconds = -1.0);

  /// Called after every trace sample with (step, windows, rtt_seconds,
  /// congestion_loss); returning false stops the simulation at that sample
  /// (the trace keeps the steps recorded so far). Must be set before run().
  using StepMonitorFn = std::function<bool(
      long step, std::span<const double> windows, double rtt_seconds,
      double congestion_loss)>;
  void set_step_monitor(StepMonitorFn monitor);

  /// Injected (non-congestion) loss applied to forward data packets on final
  /// delivery: the packet crossed every queue but never reaches the
  /// receiver. Default: none. Replaces any earlier filter; must be set
  /// before run().
  void set_forward_filter(std::unique_ptr<PacketFilter> filter);

  /// Runs for the configured duration, sampling the trace once per smallest
  /// route round-trip. Call once. With telemetry enabled, the run adds its
  /// executed events by kind to the `sim.events.<kind>` counters, its link
  /// enqueues and drops to `sim.link.enqueues` / `sim.link.drops`, and its
  /// lane events that fell back to the heap to `sim.lane.out_of_order`, and
  /// records the heap's high-water mark in `sim.heap.peak_pending`.
  void run();

  [[nodiscard]] int num_flows() const {
    return static_cast<int>(senders_.size());
  }
  [[nodiscard]] int num_links() const {
    return static_cast<int>(links_.size());
  }
  [[nodiscard]] const Sender& sender(int flow) const;
  [[nodiscard]] const SimLink& link(int id) const;
  /// Mutable link access for mid-run perturbation (rate or delay schedules
  /// installed by the engine backend).
  [[nodiscard]] SimLink& mutable_link(int id);
  [[nodiscard]] Simulator& simulator() { return simulator_; }

  /// Sampled per-flow window trace (valid after run()); capacity is the
  /// minimum link capacity (in MSS) over any route, min-RTT the smallest
  /// route round-trip. The congestion series records the binding (maximum)
  /// per-link drop rate over each sampling window.
  [[nodiscard]] const fluid::Trace& trace() const;

  /// Tail-average goodput of a flow in Mbps (valid after run()).
  [[nodiscard]] double flow_throughput_mbps(int flow) const;

  /// Per-flow tail summaries (valid after run()).
  [[nodiscard]] std::vector<FlowReport> flow_reports() const;

  /// Delivered bits over capacity·duration of the MOST utilized link — the
  /// network-wide analogue of the dumbbell's bottleneck utilization (valid
  /// after run()).
  [[nodiscard]] double max_link_utilization() const;

 private:
  void sample_trace();
  void publish_telemetry() const;
  [[nodiscard]] FlowReport flow_report(int flow) const;

  Config config_;
  Simulator simulator_;

  struct LinkInfo {
    std::unique_ptr<SimLink> link;
    double one_way_delay_ms = 0.0;
    double mbps = 0.0;
    std::size_t drops_at_last_sample = 0;
    std::size_t accepted_at_last_sample = 0;
  };
  struct FlowInfo {
    std::vector<int> route;  ///< loop-free, so a link id names its hop.
    double start_seconds = 0.0;
    double stop_seconds = -1.0;
    double route_rtt_ms = 0.0;
  };

  void deliver_from_link(int link_id, const Packet& p);

  std::vector<LinkInfo> links_;
  std::vector<FlowInfo> flows_;
  std::vector<std::unique_ptr<Sender>> senders_;
  std::vector<std::unique_ptr<Receiver>> receivers_;

  std::unique_ptr<PacketFilter> forward_filter_;
  StepMonitorFn step_monitor_;
  bool monitor_stopped_ = false;

  std::unique_ptr<fluid::Trace> trace_;
  std::vector<std::size_t> eval_frontier_;  ///< per-sender evaluated-MI cursor.
  /// sample_trace's per-flow buffers, kept so sampling allocates nothing.
  std::vector<double> sample_windows_;
  std::vector<double> sample_loss_;
  bool ran_ = false;
};

/// Packet-level parking lot: `bottlenecks` equal links in series; flow 0 runs
/// over all of them, one short flow per link. All flows clone `prototype`.
struct PacketParkingLot {
  std::unique_ptr<MultiHopNetwork> network;
  int long_flow = 0;
  std::vector<int> short_flows;
};
[[nodiscard]] PacketParkingLot make_packet_parking_lot(
    double mbps, double per_link_delay_ms, std::size_t buffer_packets,
    int bottlenecks, const cc::Protocol& prototype,
    const MultiHopNetwork::Config& config = {});

}  // namespace axiomcc::sim
