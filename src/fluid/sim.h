// sim.h — the discrete-time fluid-flow simulation (paper Section 2).
//
// n senders share one FluidLink. Time advances in steps of one RTT. At each
// step the link computes the RTT and the synchronized droptail loss rate from
// the aggregate window; every sender observes them (plus any injected
// non-congestion loss) and picks its next window via its Protocol.
//
// FluidSimulation is a builder: it configures the one-link fluid::FluidNetwork
// (network.h) and routes every sender over link 0, so the tick loops, the
// cohort execution, the hooks (loss injector, schedules, step monitor) and
// the recorder/scope emission are the network's. A sender is a flow; sender
// ids are flow ids.
#pragma once

#include "cc/protocol.h"
#include "fluid/link.h"
#include "fluid/network.h"
#include "fluid/trace.h"

namespace axiomcc::fluid {

/// Runs the single-link fluid model and records a Trace.
class FluidSimulation final : public FluidNetwork {
 public:
  FluidSimulation(const LinkParams& link, SimOptions options = {})
      : FluidNetwork(link, options) {}

  /// Adds a sender. The protocol prototype is cloned, so one prototype can
  /// seed many senders.
  void add_sender(const cc::Protocol& prototype, double initial_window_mss);
  void add_sender(SenderSpec spec);

  /// Adds a cohort of `count` senders sharing one spec and ONE prototype
  /// (see FluidNetwork::add_flows), so constructing a million-sender
  /// population is O(1) protocol allocations.
  void add_senders(SenderSpec spec, long count);
  void add_senders(const cc::Protocol& prototype, long count,
                   double initial_window_mss);

  /// Number of senders added so far.
  [[nodiscard]] int num_senders() const { return num_flows(); }

  [[nodiscard]] const FluidLink& link() const { return FluidNetwork::link(0); }
};

/// Convenience: runs `n` identical senders of `prototype` on `link` with the
/// given initial windows (broadcast if a single value is given).
[[nodiscard]] Trace run_homogeneous(const LinkParams& link,
                                    const cc::Protocol& prototype, int n,
                                    double initial_window_mss,
                                    const SimOptions& options = {});

}  // namespace axiomcc::fluid
