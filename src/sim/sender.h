// sender.h — a window-based transport endpoint driven by a cc::Protocol.
//
// The sender is ACK-clocked: it keeps `in_flight < cwnd`. Loss is accounted
// per *monitor interval* (MI), the mechanism PCC and the paper's Robust-AIMD
// use: time is sliced into intervals of roughly one RTT; each packet is
// stamped with its MI; when an MI's ACKs have had time to return, the sender
// computes the interval's loss rate and average RTT and feeds them to the
// congestion-control protocol as one Observation — exactly the per-RTT-step
// feedback of the fluid model, but measured rather than oracle-provided.
//
// Packets the MI evaluation deems lost are written off (removed from
// in_flight) rather than retransmitted: the simulator measures congestion
// dynamics and goodput, not reliable-delivery semantics (see DESIGN.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cc/protocol.h"
#include "sim/event.h"
#include "sim/packet.h"
#include "util/units.h"

namespace axiomcc::sim {

/// Callback that injects a packet into the sender's first link.
using SendFn = std::function<void(const Packet&)>;

struct SenderConfig {
  int flow_id = 0;
  int mss_bytes = 1500;
  double initial_window = 2.0;
  double min_window = 1.0;
  double max_window = 1e7;
  /// MI length before the first RTT sample arrives.
  SimTime initial_mi = SimTime::from_millis(50);
  SimTime min_mi = SimTime::from_millis(1);
  SimTime max_mi = SimTime::from_millis(2000);
  /// The MI is evaluated `grace_factor` × max(srtt, MI length) after it ends,
  /// giving the last packets' ACKs time to return.
  double grace_factor = 1.5;
  /// Maximum packets emitted back-to-back by one send opportunity. Window
  /// jumps larger than this are spread across the RTT (micro-pacing), like
  /// TCP's maxburst/pacing — an un-paced jump would slam a burst into a
  /// shallow buffer that an equivalent fluid rate would not lose.
  int max_burst_packets = 6;
  /// TCP slow start: double the window each loss-free interval until the
  /// first loss (which sets ssthresh = cwnd/2 and hands control to the
  /// congestion-control protocol) or until `ssthresh` is reached. Off by
  /// default — the paper's model starts in congestion avoidance.
  bool slow_start = false;
  double initial_ssthresh = 1e9;
};

/// One completed monitor interval (the packet-level analogue of a fluid step).
struct MonitorRecord {
  SimTime start{0};
  SimTime end{0};
  double window = 0.0;      ///< cwnd while the MI was active.
  std::uint64_t sent = 0;   ///< data packets sent during the MI.
  std::uint64_t acked = 0;  ///< of those, ACKed by evaluation time.
  double loss_rate = 0.0;   ///< lost/(acked+lost) at evaluation time.
  double rtt_seconds = 0.0; ///< mean RTT sample of the MI's ACKs.
  bool ended = false;       ///< no longer the active interval.
  bool evaluated = false;   ///< observation consumed by the protocol.
};

class Sender final : public EventTarget {
 public:
  Sender(Simulator& simulator, const SenderConfig& config,
         std::unique_ptr<cc::Protocol> protocol, SendFn send);

  Sender(const Sender&) = delete;
  Sender& operator=(const Sender&) = delete;

  /// Begins sending at absolute time `at`.
  void start(SimTime at);

  /// Stops the flow at absolute time `at` (flow-churn scenarios): no packets
  /// are emitted from then on, in-flight packets simply drain, and the
  /// protocol is no longer consulted. Must be called before the stop time.
  void stop_at(SimTime at);

  /// True from the scheduled start time until the scheduled stop (the window
  /// a trace sample should report this sender's cwnd; outside it the flow
  /// contributes nothing and samples read 0).
  [[nodiscard]] bool active() const { return begun_ && !stopped_; }

  /// Delivery point for returning ACKs (also reached as a kAckReturned
  /// event).
  void on_ack(const Packet& ack);

  [[nodiscard]] int flow_id() const { return config_.flow_id; }
  [[nodiscard]] double cwnd() const { return cwnd_; }
  [[nodiscard]] double srtt_seconds() const { return srtt_seconds_; }
  [[nodiscard]] const cc::Protocol& protocol() const { return *protocol_; }

  /// True while the sender is still in slow start (always false when the
  /// config disables it).
  [[nodiscard]] bool in_slow_start() const { return in_slow_start_; }
  [[nodiscard]] double ssthresh() const { return ssthresh_; }

  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] std::uint64_t acks_received() const { return acks_received_; }
  [[nodiscard]] std::uint64_t bytes_acked() const { return bytes_acked_; }

  /// All monitor intervals so far (the last ones may be unevaluated).
  [[nodiscard]] const std::vector<MonitorRecord>& history() const {
    return monitor_records_;
  }

 private:
  void on_event(EventKind kind, const Packet& packet) override;

  enum class PacketState : std::uint8_t { kInFlight, kAcked, kWrittenOff };

  void try_send();
  void begin_monitor_interval();
  void end_monitor_interval(std::uint64_t mi);
  /// Writes off still-unACKed packets of an ended MI (grace-timer path).
  void writeoff_stragglers(std::uint64_t mi);
  /// Marks one in-flight packet of MI `mi` as lost and classifies its
  /// congestion epoch.
  void record_loss(std::uint64_t seq, std::uint64_t mi);
  /// The MI packet `seq` was sent in.
  [[nodiscard]] std::uint64_t monitor_interval_of(std::uint64_t seq) const;
  /// Computes the MI's loss/RTT observation and updates the window. Safe to
  /// call more than once; only the first call takes effect.
  void finalize_monitor_interval(std::uint64_t mi);
  [[nodiscard]] SimTime current_mi_duration() const;

  Simulator& simulator_;
  SenderConfig config_;
  std::unique_ptr<cc::Protocol> protocol_;
  SendFn send_;

  bool started_ = false;
  bool begun_ = false;    ///< the start event has fired.
  bool stopped_ = false;  ///< the stop event has fired.
  double cwnd_;
  bool in_slow_start_ = false;
  double ssthresh_ = 1e9;
  double srtt_seconds_ = 0.0;  ///< 0 until the first sample.
  std::uint64_t in_flight_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t current_mi_ = 0;
  /// Losses among packets with seq below this belong to an epoch the window
  /// already reacted to (one decrease per congestion epoch).
  std::uint64_t recovery_until_seq_ = 0;

  std::vector<PacketState> packet_states_;          // indexed by seq
  struct MiSeqRange {
    std::uint64_t first = 0;
    std::uint64_t count = 0;
  };
  std::vector<MiSeqRange> mi_seqs_;                 // indexed by MI id
  std::vector<MonitorRecord> monitor_records_;
  std::vector<double> mi_rtt_sum_;                  // indexed by MI id
  std::vector<std::uint64_t> mi_rtt_count_;         // indexed by MI id
  std::vector<std::uint64_t> mi_lost_;              // indexed by MI id
  /// Of mi_lost_, those belonging to the CURRENT congestion epoch (packets
  /// sent after the last window reduction); only these may trigger another
  /// reduction.
  std::vector<std::uint64_t> mi_lost_new_epoch_;    // indexed by MI id
  bool pacing_rearm_scheduled_ = false;
  /// All packets below this seq are resolved (ACKed or written off). The
  /// delivery path is FIFO per flow, so an ACK for seq s proves every older
  /// unACKed packet was dropped — the dup-ACK analogue, giving one-RTT loss
  /// detection instead of waiting for the MI grace timer.
  std::uint64_t lowest_unresolved_seq_ = 0;
  std::uint64_t eval_cursor_ = 0;  ///< first not-yet-evaluated MI.

  std::uint64_t packets_sent_ = 0;
  std::uint64_t acks_received_ = 0;
  std::uint64_t bytes_acked_ = 0;
};

}  // namespace axiomcc::sim
