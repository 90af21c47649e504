// Host speed, measured with a fixed kernel that the benchmark owns.
//
// The speed of a shared VM drifts: other tenants share its cores' caches,
// its last-level cache and its clock, and the graph's throughput switches
// between levels ~1.5x apart every few seconds. The end-to-end figures are
// divided by the rate of this kernel, timed in windows that alternate with
// the graph's, so the drift cancels while a change in any layer of the graph
// shows in full and with its sign. The kernel runs no code under test: it
// binary-searches random keys in a fixed sorted array, which is branchy and
// bound by cache misses like classification. Of the kernels tried (pointer
// chase, dependent ALU chain, hashed gathers, float multiply-adds, binary
// search), its windows tracked the graph's windows most closely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class Calibration {
 public:
  static constexpr size_t kKeys = 1u << 20;  ///< 4 MB of sorted keys

  /// Builds the sorted array from a fixed seed; `threads` threads run the
  /// kernel at once, as many as the graph being calibrated uses.
  explicit Calibration(unsigned threads);

  /// Search until `until_ns` (now_ns() clock); returns searches per
  /// microsecond per thread.
  double run_until(uint64_t until_ns) const;

 private:
  unsigned threads_;
  std::vector<uint32_t> sorted_;
};

}  // namespace perfbench
