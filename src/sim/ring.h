// ring.h — a FIFO in a growable power-of-two ring.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.h"

namespace axiomcc::sim {

/// A FIFO in a power-of-two ring. It doubles when full and never shrinks, so
/// a FIFO that cycles allocates only when it reaches a new high-water mark.
/// It starts empty: link buffers may be configured far larger than they ever
/// fill.
template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots allocated (0 or a power of two).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// The oldest and the newest element; the ring must not be empty.
  [[nodiscard]] const T& front() const {
    AXIOMCC_EXPECTS(size_ > 0);
    return slots_[head_];
  }
  [[nodiscard]] const T& back() const {
    AXIOMCC_EXPECTS(size_ > 0);
    return slots_[(head_ + size_ - 1) & (slots_.size() - 1)];
  }

  void push_back(const T& value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = value;
    ++size_;
  }

  /// Removes and returns the oldest element; the ring must not be empty.
  T pop_front() {
    AXIOMCC_EXPECTS(size_ > 0);
    const T value = slots_[head_];
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return value;
  }

 private:
  void grow() {
    std::vector<T> grown(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = slots_[(head_ + i) & (slots_.size() - 1)];
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace axiomcc::sim
