#include "fingerprint.hpp"

#include <cpuid.h>

#include <cstdio>
#include <cstring>
#include <thread>

#include "common/metrics.hpp"
#include "rqrmi/kernel.hpp"
#include "rqrmi/nn.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// The CPU brand string from CPUID leaves 0x80000002..4 (no file access).
std::string cpu_model() {
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  char brand[49] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    unsigned int r[4] = {};
    __get_cpuid(0x80000002u + leaf, &r[0], &r[1], &r[2], &r[3]);
    std::memcpy(brand + leaf * 16, r, sizeof r);
  }
  std::string s{brand};
  const size_t b = s.find_first_not_of(' ');
  const size_t e = s.find_last_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string fingerprint_json(uint64_t seed, const std::string& git_sha) {
  const bool telemetry = NM_METRICS != 0;
  std::string j = "{\"hw_cores\": " + std::to_string(std::thread::hardware_concurrency());
  j += ", \"cpu_model\": \"" + json_escape(cpu_model()) + "\"";
  j += ", \"simd\": \"" +
       json_escape(nuevomatch::rqrmi::to_string(nuevomatch::rqrmi::dispatch_ceiling())) + "\"";
  j += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  j += std::string(", \"telemetry\": ") + (telemetry ? "true" : "false");
  j += ", \"seed\": " + std::to_string(seed);
  j += ", \"git_sha\": \"" + json_escape(git_sha.empty() ? "unavailable" : git_sha) + "\"}";
  return j;
}

}  // namespace perfbench
