#include "sim/dumbbell.h"

#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace axiomcc::sim {

DumbbellConfig dumbbell_config_from_link(const fluid::LinkParams& link,
                                         int mss_bytes) {
  const PacketLinkParams p = packet_link_from_fluid(link, mss_bytes);
  DumbbellConfig dc;
  dc.mss_bytes = mss_bytes;
  dc.bottleneck_mbps = p.mbps;
  dc.rtt_ms = 2.0 * p.one_way_delay_ms;
  dc.buffer_packets = p.buffer_packets;
  return dc;
}

namespace {

MultiHopNetwork::Config network_config(const DumbbellConfig& config) {
  MultiHopNetwork::Config nc;
  nc.duration_seconds = config.duration_seconds;
  nc.mss_bytes = config.mss_bytes;
  nc.tail_fraction = config.tail_fraction;
  nc.max_window_mss = config.max_window_mss;
  return nc;
}

}  // namespace

DumbbellExperiment::DumbbellExperiment(const DumbbellConfig& config)
    : MultiHopNetwork(network_config(config)),
      capacity_mss_(config.bottleneck_mbps * 1e6 * (config.rtt_ms / 1e3) /
                    (8.0 * static_cast<double>(config.mss_bytes))) {
  AXIOMCC_EXPECTS(config.rtt_ms > 0.0);
  AXIOMCC_EXPECTS(config.buffer_packets > 0);
  AXIOMCC_EXPECTS(config.random_loss_rate >= 0.0);

  std::unique_ptr<QueueDiscipline> queue;
  if (config.use_red) {
    REDQueue::Params red = config.red;
    red.capacity_packets = config.buffer_packets;
    queue = std::make_unique<REDQueue>(red);
  } else {
    queue = std::make_unique<DropTailQueue>(config.buffer_packets);
  }
  add_link(config.bottleneck_mbps, config.rtt_ms / 2.0, std::move(queue));

  if (config.random_loss_rate > 0.0) {
    // Derive the loss channel's stream from the experiment seed so that
    // distinct seeds give independent loss processes.
    std::uint64_t s = config.seed;
    set_forward_filter(std::make_unique<BernoulliPacketLoss>(
        config.random_loss_rate, splitmix64_next(s)));
  }
}

}  // namespace axiomcc::sim
