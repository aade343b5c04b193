// scalar_only.h — a test protocol wrapper that hides the SoA batch kernel.
//
// The fluid engine advances a cohort through its protocol's batch kernel
// whenever Protocol::batch_kernel() is non-null, so a run on the bare
// protocol never calls next_window. Wrapping it in ScalarOnly forces
// per-member next_window dispatch over the same cohort layout: the scalar
// reference the batch.h bit-identity contract is checked against.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "cc/protocol.h"

namespace axiomcc::testing_support {

/// Forwards everything to the wrapped protocol but advertises no batch
/// kernel (the base class default).
class ScalarOnly final : public cc::Protocol {
 public:
  explicit ScalarOnly(std::unique_ptr<cc::Protocol> inner)
      : inner_(std::move(inner)) {}

  double next_window(const cc::Observation& obs) override {
    return inner_->next_window(obs);
  }
  [[nodiscard]] bool loss_based() const override {
    return inner_->loss_based();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::unique_ptr<cc::Protocol> clone() const override {
    return std::make_unique<ScalarOnly>(inner_->clone());
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<cc::Protocol> inner_;
};

/// A fresh ScalarOnly around a clone of `prototype`.
inline std::unique_ptr<cc::Protocol> scalar_only(
    const cc::Protocol& prototype) {
  return std::make_unique<ScalarOnly>(prototype.clone());
}

}  // namespace axiomcc::testing_support
