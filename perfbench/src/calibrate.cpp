#include "calibrate.hpp"

#include <algorithm>
#include <thread>

#include "common/rng.hpp"
#include "dataplane.hpp"

namespace perfbench {
namespace {

constexpr uint32_t kSearchesPerCheck = 64;  ///< searches between clock reads

/// One thread's searches until `until`, with keys drawn from `seed`.
uint64_t search_until(const std::vector<uint32_t>& sorted, uint64_t seed, uint64_t until) {
  nuevomatch::Rng rng{seed};
  uint64_t n = 0;
  size_t sum = 0;
  while (now_ns() < until) {
    for (uint32_t i = 0; i < kSearchesPerCheck; ++i) {
      const auto key = static_cast<uint32_t>(rng.next_u64());
      size_t lo = 0, hi = sorted.size();
      while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        if (sorted[mid] < key) lo = mid + 1;
        else hi = mid;
      }
      sum += lo;
    }
    n += kSearchesPerCheck;
  }
  // Keep the searches live.
  if (sum == 1) ++n;
  return n;
}

}  // namespace

Calibration::Calibration(unsigned threads) : threads_(std::max(1u, threads)), sorted_(kKeys) {
  nuevomatch::Rng rng{0xCA11B8A7E};
  for (uint32_t& k : sorted_) k = static_cast<uint32_t>(rng.next_u64());
  std::sort(sorted_.begin(), sorted_.end());
}

double Calibration::run_until(uint64_t until_ns) const {
  const uint64_t t0 = now_ns();
  std::vector<uint64_t> n(threads_);
  std::vector<std::thread> extra;
  for (unsigned t = 1; t < threads_; ++t)
    extra.emplace_back([&, t] { n[t] = search_until(sorted_, t, until_ns); });
  n[0] = search_until(sorted_, 0, until_ns);
  for (std::thread& t : extra) t.join();
  uint64_t total = 0;
  for (const uint64_t k : n) total += k;
  return static_cast<double>(total) * 1e3 / static_cast<double>(now_ns() - t0) / threads_;
}

}  // namespace perfbench
