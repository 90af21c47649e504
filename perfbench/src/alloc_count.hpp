// Per-thread heap allocation counter. alloc_count.cpp replaces the global
// operator new of the binary it is linked into, so every allocation made on
// a thread — by the library or by the benchmark — bumps that thread's count.
// Spans read it at open and close to attribute allocations to a layer.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made by the calling thread since it started.
[[nodiscard]] uint64_t thread_allocs() noexcept;

}  // namespace perfbench
