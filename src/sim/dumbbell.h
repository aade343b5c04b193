// dumbbell.h — the paper's experimental topology: n flows over one bottleneck.
//
// This is the packet-level replacement for the paper's Emulab setup
// (Section 5.1): senders on the left, receivers on the right, a single
// droptail (or RED) bottleneck in the middle, symmetric propagation delay,
// and an optional Bernoulli loss channel on the forward path for
// non-congestion-loss experiments.
//
// DumbbellExperiment is a builder: it configures a one-link
// sim::MultiHopNetwork and routes every flow over link 0, so scheduling,
// trace sampling (one sample per RTT into a fluid::Trace the src/core
// estimators consume unchanged) and the tail reports are the network's.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "cc/protocol.h"
#include "fluid/link.h"
#include "sim/network.h"
#include "sim/queue.h"

namespace axiomcc::sim {

struct DumbbellConfig {
  double bottleneck_mbps = 30.0;
  double rtt_ms = 42.0;            ///< total two-way propagation delay.
  std::size_t buffer_packets = 100;
  int mss_bytes = 1500;
  double duration_seconds = 60.0;
  /// Bernoulli loss applied to forward data packets (non-congestion loss).
  double random_loss_rate = 0.0;
  std::uint64_t seed = 42;
  /// Queue discipline: droptail (paper) or RED (extension).
  bool use_red = false;
  REDQueue::Params red{};
  double tail_fraction = 0.5;
  /// Hard cwnd cap passed to every sender (see MultiHopNetwork::Config).
  double max_window_mss = 1e7;
};

/// The dumbbell for a fluid link, via packet_link_from_fluid (the two-way
/// rtt_ms is twice the link's one-way delay).
[[nodiscard]] DumbbellConfig dumbbell_config_from_link(
    const fluid::LinkParams& link, int mss_bytes = 1500);

class DumbbellExperiment final : public MultiHopNetwork {
 public:
  explicit DumbbellExperiment(const DumbbellConfig& config);

  /// Adds a flow over the bottleneck; returns its id. Must be called before
  /// run(). A non-negative `stop_seconds` removes the flow at that time
  /// (flow churn).
  int add_flow(std::unique_ptr<cc::Protocol> protocol,
               double start_seconds = 0.0, double initial_window = 2.0,
               double stop_seconds = -1.0) {
    return MultiHopNetwork::add_flow(std::move(protocol), {0}, start_seconds,
                                     initial_window, stop_seconds);
  }

  /// Delivered bits over capacity·duration (valid after run()).
  [[nodiscard]] double bottleneck_utilization() const {
    return max_link_utilization();
  }

  /// C = B·2Θ in MSS for this configuration.
  [[nodiscard]] double capacity_mss() const { return capacity_mss_; }

 private:
  double capacity_mss_;
};

}  // namespace axiomcc::sim
