// alloc_counter.h — heap allocations made by the calling thread.
//
// The driver binary replaces the global operator new with one that counts
// every allocation in a thread-local counter. Layers are timed from the
// calling thread, so the difference of two readings around a call is the
// number of allocations that call made on this thread.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made by the calling thread since it started.
[[nodiscard]] std::uint64_t thread_allocations();

}  // namespace perfbench
