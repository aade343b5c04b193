// queue.h — queueing disciplines for link buffers.
//
// The paper's model is FIFO droptail; RED is provided as an extension for the
// ablation benches (DESIGN.md Section 5).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/packet.h"
#include "sim/ring.h"
#include "util/rng.h"

namespace axiomcc::sim {

/// The link buffers' packet FIFO.
using PacketRing = Ring<Packet>;

/// A bounded packet queue. enqueue returns false when the packet is dropped.
class QueueDiscipline {
 public:
  virtual ~QueueDiscipline() = default;

  /// Attempts to admit `p`; returns false on drop.
  virtual bool enqueue(const Packet& p) = 0;

  /// Removes the next packet to transmit, or nullopt when empty.
  virtual std::optional<Packet> dequeue() = 0;

  [[nodiscard]] virtual std::size_t size_packets() const = 0;
  [[nodiscard]] virtual std::size_t size_bytes() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Total packets dropped by admission control so far.
  [[nodiscard]] std::size_t drops() const { return drops_; }

 protected:
  void count_drop() { ++drops_; }

 private:
  std::size_t drops_ = 0;
};

/// FIFO droptail with a capacity in packets (the paper's τ, in MSS).
class DropTailQueue final : public QueueDiscipline {
 public:
  explicit DropTailQueue(std::size_t capacity_packets);

  bool enqueue(const Packet& p) override;
  std::optional<Packet> dequeue() override;
  [[nodiscard]] std::size_t size_packets() const override {
    return queue_.size();
  }
  [[nodiscard]] std::size_t size_bytes() const override { return bytes_; }
  [[nodiscard]] std::string name() const override { return "droptail"; }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::size_t bytes_ = 0;
  PacketRing queue_;
};

/// Random Early Detection (Floyd & Jacobson 1993): probabilistic drops that
/// rise linearly between `min_threshold` and `max_threshold` of average
/// occupancy (EWMA with weight `queue_weight`), hard drops beyond.
class REDQueue final : public QueueDiscipline {
 public:
  struct Params {
    std::size_t capacity_packets = 100;
    double min_threshold = 20.0;   ///< packets
    double max_threshold = 80.0;   ///< packets
    double max_drop_probability = 0.1;
    double queue_weight = 0.002;   ///< EWMA weight for the average queue
    std::uint64_t seed = 1;
  };

  explicit REDQueue(const Params& params);

  bool enqueue(const Packet& p) override;
  std::optional<Packet> dequeue() override;
  [[nodiscard]] std::size_t size_packets() const override {
    return queue_.size();
  }
  [[nodiscard]] std::size_t size_bytes() const override { return bytes_; }
  [[nodiscard]] std::string name() const override { return "red"; }

  /// The current EWMA of queue occupancy (exposed for tests).
  [[nodiscard]] double average_queue() const { return avg_queue_; }

 private:
  Params params_;
  std::size_t bytes_ = 0;
  double avg_queue_ = 0.0;
  std::size_t count_since_drop_ = 0;
  Rng rng_;
  PacketRing queue_;
};

}  // namespace axiomcc::sim
