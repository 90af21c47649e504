// Engine sub-layers, measured from outside: the Classifier's miss bursts
// are replayed through the public staged API — IsetIndex::predict_batch,
// search_batch and validate, then the remainder — on one pinned
// generation, with each stage timed. The replay's decisions are compared
// with Pin::match_batch on the same packets; any difference is a mismatch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "nuevomatch/online.hpp"

namespace perfbench {

struct StageStats {
  uint64_t packets = 0;       ///< packets replayed
  uint64_t keys = 0;          ///< packet x iSet lookups
  double rqrmi_ns = 0;        ///< predict_batch (with key gather)
  double search_ns = 0;       ///< search_batch
  double validate_ns = 0;     ///< validate with the running floor
  double remainder_ns = 0;    ///< remainder match / match_with_floor
  uint64_t window_sum = 0;    ///< search window widths, summed over keys
  uint64_t distance_sum = 0;  ///< |found - predicted|, summed over found keys
  uint64_t found = 0;         ///< keys whose search found a range
  uint64_t rejects = 0;       ///< found candidates validation rejected
  uint64_t remainder_probes = 0;  ///< packets the remainder floor did not skip
  double pin_ns = 0;          ///< Pin::match_batch (iSets + remainder + churn)
  double nm_ns = 0;           ///< pin.nm().match_batch (no churn delta)
  uint64_t mismatches = 0;    ///< replay decision != Pin::match_batch decision
};

/// Replay `bursts` (each at most one 32-packet tile) on one pinned
/// generation of `engine`.
[[nodiscard]] StageStats replay_staged(
    const nuevomatch::OnlineNuevoMatch& engine,
    std::span<const std::vector<nuevomatch::Packet>> bursts);

/// The staged decisions alone (no timing), for tests.
[[nodiscard]] std::vector<nuevomatch::MatchResult> staged_decisions(
    const nuevomatch::NuevoMatch& nm, std::span<const nuevomatch::Packet> burst);

}  // namespace perfbench
