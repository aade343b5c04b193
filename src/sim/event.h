// event.h — the discrete-event simulation kernel.
//
// A minimal ns-3-style engine: events run in time order, ties broken by
// insertion order (FIFO), which together with the integral nanosecond clock
// makes every run exactly reproducible.
//
// Every pending event is one trivially-copyable record in one binary heap
// keyed by (time, sequence). The per-packet events are typed records: a
// link's transmit-done and delivery, and an ACK's return to its sender carry
// their kind, the long-lived EventTarget that handles them and the packet
// itself, inline, so scheduling one allocates nothing (htsim's
// EventList/EventSource idiom). Rare control events (sender timers, start
// and stop, trace sampling, rate and delay schedules) stay closures: the
// record names a pooled slot that holds the std::function until it runs. A
// periodic closure (the trace sampler) keeps one occurrence pending.
//
// Events that arrive in FIFO order per target go through delay lanes
// (htsim's Pipe idiom): a link's deliveries, scheduled a propagation delay
// ahead, and a flow's ACKs, scheduled a reverse delay ahead. A lane is a ring
// of {time, sequence, packet} entries for one target and kind; while it is
// non-empty, exactly one heap record stands for its head, and popping that
// record pushes the next head. An event due before the lane's tail (the
// delay shrank mid-run) falls back to an ordinary heap record. So the heap
// holds about one record per link, flow and timer rather than one per
// packet in flight, and the run order is still exactly (time, sequence).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/packet.h"
#include "sim/ring.h"
#include "util/check.h"
#include "util/units.h"

namespace axiomcc::sim {

using EventFn = std::function<void()>;

/// What an event does when it runs.
enum class EventKind : std::uint8_t {
  kTransmitted,  ///< a packet's last bit left a link (SimLink).
  kDelivered,    ///< a packet reached the far end of a link (SimLink).
  kAckReturned,  ///< an ACK arrived back at its sender (Sender).
  kClosure,      ///< a scheduled EventFn.
};
inline constexpr std::size_t kNumEventKinds = 4;

/// A long-lived receiver of typed events. Targets outlive every event
/// scheduled for them; nothing is owned or deleted through this interface.
class EventTarget {
 public:
  virtual void on_event(EventKind kind, const Packet& packet) = 0;

 protected:
  ~EventTarget() = default;
};

/// Names a delay lane of one Simulator (see add_lane).
enum class LaneId : std::uint32_t {};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must not be in the past).
  void schedule_at(SimTime t, EventFn fn);

  /// Schedules `fn` after `delay` (must be non-negative).
  void schedule_in(SimTime delay, EventFn fn);

  /// Schedules `fn` at `first`, `first + period`, ... for every occurrence
  /// no later than `last` (`first` not in the past, `period` positive).
  /// Runs exactly as if schedule_at were called now for each occurrence in
  /// turn — every occurrence takes its tie-break sequence number here — but
  /// only the next occurrence is pending at a time.
  void schedule_periodic(SimTime first, SimTime period, SimTime last,
                         EventFn fn);

  /// Schedules a typed event after `delay` (must be non-negative): at that
  /// time `target->on_event(kind, packet)` runs on a copy of `packet`.
  /// `target` must be non-null and `kind` must not be kClosure.
  void schedule_in(SimTime delay, EventKind kind, EventTarget* target,
                   const Packet& packet);

  /// Opens a delay lane for typed events of `kind` to `target` (non-null;
  /// `kind` not kClosure). Lanes live as long as the simulator.
  [[nodiscard]] LaneId add_lane(EventKind kind, EventTarget* target);

  /// Schedules the lane's typed event after `delay` (must be non-negative).
  /// Runs exactly as the typed schedule_in with the lane's kind and target
  /// would; it is cheaper when `now() + delay` is no earlier than the lane's
  /// last pending event, which holds while the lane's delay does not shrink.
  void schedule_in(SimTime delay, LaneId lane, const Packet& packet);

  /// Runs events until the queue is empty or `end` is reached; events at
  /// exactly `end` are executed. Returns the number of events processed.
  std::size_t run_until(SimTime end);

  /// Runs until the event queue is empty.
  std::size_t run();

  /// Asks the current run loop to stop after the event being executed
  /// returns; pending events stay queued. The next run()/run_until() call
  /// clears the flag and resumes normally. The hook backend step monitors
  /// use to end a guarded run early (divergence caught mid-simulation).
  void request_stop() { stop_requested_ = true; }

  /// True when request_stop() was called during the current/last run.
  [[nodiscard]] bool stop_requested() const { return stop_requested_; }

  /// Total events executed over the simulator's lifetime.
  [[nodiscard]] std::size_t events_processed() const;

  /// Events of `kind` executed over the simulator's lifetime.
  [[nodiscard]] std::size_t events_of_kind(EventKind kind) const {
    return events_by_kind_[static_cast<std::size_t>(kind)];
  }

  /// Events currently pending.
  [[nodiscard]] std::size_t pending() const {
    return heap_.size() + lane_backlog_;
  }

  /// The most records the event heap has held at once.
  [[nodiscard]] std::size_t peak_heap_size() const { return peak_heap_size_; }

  /// Lane events that were due before their lane's tail and so were
  /// scheduled as ordinary heap records.
  [[nodiscard]] std::size_t lane_out_of_order() const {
    return lane_out_of_order_;
  }

 private:
  struct Event {
    SimTime time;
    std::uint64_t sequence;  // FIFO tie-break
    EventTarget* target;     // null for closures
    std::uint32_t slot;      // closure pool slot or lane id
    EventKind kind;
    bool lane_head;          // stands for the head of lane `slot`
    Packet packet;           // typed events off a lane only
  };
  // std::*_heap builds a max-heap; "later" as less-than puts the earliest
  // (time, sequence) on top.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  /// A pooled closure; a periodic one has `repeats` occurrences left after
  /// the pending one.
  struct Closure {
    EventFn fn;
    SimTime period{0};
    std::uint64_t repeats = 0;
  };

  /// One pending lane event; the lane holds the target and kind.
  struct LaneEntry {
    SimTime time;
    std::uint64_t sequence;
    Packet packet;
  };
  /// A lane's pending entries, oldest first, and what they run as.
  struct Lane {
    Ring<LaneEntry> entries;
    EventTarget* target = nullptr;
    EventKind kind = EventKind::kDelivered;
  };

  void push(const Event& event);
  /// Pushes the heap record that stands for lane `id`'s head entry.
  void push_lane_head(std::uint32_t id);
  /// Stores `closure` in a free pool slot and returns the slot.
  std::uint32_t pool(Closure closure);
  /// Pops the earliest event and runs it.
  void run_next();

  SimTime now_{0};
  std::uint64_t next_sequence_ = 0;
  bool stop_requested_ = false;
  std::array<std::size_t, kNumEventKinds> events_by_kind_{};
  std::vector<Event> heap_;
  std::size_t peak_heap_size_ = 0;
  std::vector<Lane> lanes_;
  std::size_t lane_backlog_ = 0;  // lane entries behind their lane's head
  std::size_t lane_out_of_order_ = 0;
  std::vector<Closure> closures_;           // pooled closure slots
  std::vector<std::uint32_t> free_slots_;   // indices into closures_
};

}  // namespace axiomcc::sim
