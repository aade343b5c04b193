#include "fluid/sim.h"

#include <utility>

#include "util/check.h"

namespace axiomcc::fluid {

void FluidSimulation::add_sender(const cc::Protocol& prototype,
                                 double initial_window_mss) {
  add_senders(prototype, 1, initial_window_mss);
}

void FluidSimulation::add_sender(SenderSpec spec) {
  add_senders(std::move(spec), 1);
}

void FluidSimulation::add_senders(SenderSpec spec, long count) {
  if (spec.route.empty()) spec.route = {0};
  add_flows(std::move(spec), count);
}

void FluidSimulation::add_senders(const cc::Protocol& prototype, long count,
                                  double initial_window_mss) {
  SenderSpec spec;
  spec.protocol = prototype.clone();
  spec.initial_window_mss = initial_window_mss;
  add_senders(std::move(spec), count);
}

Trace run_homogeneous(const LinkParams& link, const cc::Protocol& prototype,
                      int n, double initial_window_mss,
                      const SimOptions& options) {
  AXIOMCC_EXPECTS(n > 0);
  FluidSimulation sim(link, options);
  sim.add_senders(prototype, n, initial_window_mss);
  return sim.run();
}

}  // namespace axiomcc::fluid
