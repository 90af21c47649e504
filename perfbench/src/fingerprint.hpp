// Host and build fingerprint stamped into every benchmark result, so a
// number can be traced to the machine and build that produced it.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// One JSON object: hw_cores, cpu_model, simd (rqrmi::dispatch_ceiling()),
/// build_type, telemetry (NM_METRICS compiled in), seed and git_sha
/// ("unavailable" when the caller could not determine it).
[[nodiscard]] std::string fingerprint_json(uint64_t seed, const std::string& git_sha);

}  // namespace perfbench
