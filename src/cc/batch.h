// batch.h — the SoA batch execution interface for closed-form protocols.
//
// The fluid model's tick loop is embarrassingly batchable: a cohort of
// senders running the same protocol with the same parameters can advance in
// one vectorization-friendly pass over structure-of-arrays state instead of
// n virtual next_window calls. A protocol that is a closed-form function of
// the current observation (plus at most a few doubles of per-sender state)
// implements BatchProtocol alongside Protocol and advertises itself via
// Protocol::batch_kernel(); stateful families (CUBIC's clocks, Vegas
// baselines, BBR phases) simply return nullptr and keep per-sender
// virtual dispatch.
//
// Contract: next_window_batch over a span must produce BIT-IDENTICAL output
// to calling the scalar next_window element by element. Kernels therefore
// use the same arithmetic expressions as their scalar twins (the build uses
// baseline x86-64 with no FMA contraction, so shared expressions evaluate
// identically). tests/fluid_batch_test.cc enforces the contract for every
// family by comparing kernel cohorts with senders whose protocol hides its
// kernel and so advances through next_window, and
// tests/fluid_golden_digest_test.cc pins the resulting bytes.
#pragma once

#include <span>

namespace axiomcc::cc {

/// Batched window update over structure-of-arrays sender state.
class BatchProtocol {
 public:
  virtual ~BatchProtocol() = default;

  BatchProtocol() = default;
  BatchProtocol(const BatchProtocol&) = default;
  BatchProtocol& operator=(const BatchProtocol&) = default;

  /// Doubles of per-sender state carried between steps (0 = pure function
  /// of the observation).
  [[nodiscard]] virtual int state_size() const { return 0; }

  /// Initializes one fresh sender's state slice (size == state_size()).
  /// Called when a sender (re)joins, mirroring a fresh clone of the scalar
  /// protocol.
  virtual void init_state(std::span<double> /*state*/) const {}

  /// Computes out[i] = the next window for sender i. `window`, `loss`,
  /// `rtt` and `out` all have length n; `state` has length n·state_size(),
  /// laid out sender-major, and is updated in place. Must be elementwise
  /// (out[i] and state slice i depend only on inputs at i) so the simulator
  /// may invoke it on arbitrary sub-ranges, and must match the scalar
  /// next_window bit for bit.
  virtual void next_window_batch(std::span<const double> window,
                                 std::span<const double> loss,
                                 std::span<const double> rtt,
                                 std::span<double> state,
                                 std::span<double> out) const = 0;
};

}  // namespace axiomcc::cc
