#include "sim/link.h"

#include <utility>

#include "util/check.h"

namespace axiomcc::sim {

SimLink::SimLink(Simulator& simulator, double rate_bps,
                 SimTime propagation_delay,
                 std::unique_ptr<QueueDiscipline> queue, DeliverFn deliver)
    : simulator_(simulator),
      rate_bps_(rate_bps),
      propagation_delay_(propagation_delay),
      queue_(std::move(queue)),
      deliver_(std::move(deliver)),
      delivery_lane_(simulator.add_lane(EventKind::kDelivered, this)) {
  AXIOMCC_EXPECTS_MSG(rate_bps > 0.0, "link rate must be positive");
  AXIOMCC_EXPECTS(propagation_delay.ns() >= 0);
  AXIOMCC_EXPECTS(queue_ != nullptr);
  AXIOMCC_EXPECTS(deliver_ != nullptr);
}

SimTime SimLink::serialization_time(int size_bytes) const {
  AXIOMCC_EXPECTS(size_bytes > 0);
  const double seconds = static_cast<double>(size_bytes) * 8.0 / rate_bps_;
  return SimTime::from_seconds(seconds);
}

void SimLink::send(const Packet& p) {
  if (!queue_->enqueue(p)) return;  // dropped; queue counts it
  ++accepted_;
  if (!transmitting_) begin_transmission();
}

void SimLink::begin_transmission() {
  const auto next = queue_->dequeue();
  if (!next) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  // Last bit leaves at tx_done; the packet arrives a propagation delay later.
  simulator_.schedule_in(serialization_time(next->size_bytes),
                         EventKind::kTransmitted, this, *next);
}

void SimLink::on_event(EventKind kind, const Packet& packet) {
  if (kind == EventKind::kTransmitted) {
    simulator_.schedule_in(propagation_delay_, delivery_lane_, packet);
    begin_transmission();  // start the next packet, if any
    return;
  }
  AXIOMCC_EXPECTS(kind == EventKind::kDelivered);
  ++delivered_;
  bytes_delivered_ += static_cast<std::size_t>(packet.size_bytes);
  deliver_(packet);
}

}  // namespace axiomcc::sim
