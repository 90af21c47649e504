// Global operator new/delete replacements that count allocations per
// thread. Linked directly into each executable (not through a static
// library, where an unreferenced replacement would be dropped).
#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

namespace perfbench {
namespace {
thread_local uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocs;
  if (n == 0) n = 1;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++t_allocs;
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants the size rounded up to a multiple of the alignment.
  const std::size_t sz = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, sz == 0 ? a : sz)) return p;
  throw std::bad_alloc{};
}
}  // namespace

uint64_t thread_allocs() noexcept { return t_allocs; }
}  // namespace perfbench

void* operator new(std::size_t n) { return perfbench::counted_alloc(n); }
void* operator new[](std::size_t n) { return perfbench::counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return perfbench::counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return perfbench::counted_aligned_alloc(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
