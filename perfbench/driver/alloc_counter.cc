#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace {

thread_local std::uint64_t tl_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++tl_allocations;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++tl_allocations;
  const auto align = static_cast<std::size_t>(al);
  const std::size_t size = ((n == 0 ? 1 : n) + align - 1) / align * align;
  return std::aligned_alloc(align, size);
}

}  // namespace

namespace perfbench {

std::uint64_t thread_allocations() { return tl_allocations; }

}  // namespace perfbench

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
