#include "staged.hpp"

#include <array>
#include <chrono>
#include <stdexcept>

#include "tuplemerge/tuplemerge.hpp"

namespace perfbench {

using nuevomatch::MatchResult;
using nuevomatch::NuevoMatch;
using nuevomatch::Packet;

namespace {

constexpr size_t kTile = 32;
constexpr size_t kMaxIsets = 8;

double now_ns() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

/// Whether the remainder has any table that can beat `floor` — TupleMerge
/// keeps its tables sorted by best priority, so this is exactly whether a
/// floored probe touches a table. Other remainders count every probe.
bool remainder_probes(const nuevomatch::Classifier& rem, int32_t floor) {
  const auto* tm = dynamic_cast<const nuevomatch::TupleMerge*>(&rem);
  if (tm == nullptr) return true;
  return !tm->tables().empty() && tm->tables().front()->best_priority() < floor;
}

/// One tile through the staged API. Timings and counters go to `st` when
/// given. Mirrors NuevoMatch::match_batch: iSets in order with the running
/// priority floor, then the remainder (floored when early termination is
/// on and an iSet matched).
void staged_tile(const NuevoMatch& nm, std::span<const Packet> pk, MatchResult* out,
                 StageStats* st) {
  const auto& isets = nm.isets();
  const size_t n_isets = isets.size();
  if (n_isets > kMaxIsets) throw std::runtime_error("staged replay: too many iSets");
  if (pk.size() > kTile) throw std::runtime_error("staged replay: burst over one tile");
  const size_t n = pk.size();
  std::array<uint32_t, kTile * kMaxIsets> vals;
  std::array<nuevomatch::rqrmi::Prediction, kTile * kMaxIsets> preds;
  std::array<int32_t, kTile * kMaxIsets> pos;

  const double t0 = st != nullptr ? now_ns() : 0;
  for (size_t s = 0; s < n_isets; ++s) {
    uint32_t* v = vals.data() + s * kTile;
    for (size_t t = 0; t < n; ++t) v[t] = pk[t][isets[s].field()];
    isets[s].predict_batch({v, n}, {preds.data() + s * kTile, n});
  }
  const double t1 = st != nullptr ? now_ns() : 0;
  for (size_t s = 0; s < n_isets; ++s)
    isets[s].search_batch({vals.data() + s * kTile, n}, {preds.data() + s * kTile, n},
                          {pos.data() + s * kTile, n});
  const double t2 = st != nullptr ? now_ns() : 0;
  uint64_t rejects = 0;
  for (size_t t = 0; t < n; ++t) {
    MatchResult best;
    for (size_t s = 0; s < n_isets; ++s) {
      const int32_t p = pos[s * kTile + t];
      const MatchResult r = isets[s].validate(p, pk[t], best.priority);
      if (p >= 0 && !r.hit()) ++rejects;
      if (r.beats(best)) best = r;
    }
    out[t] = best;
  }
  const double t3 = st != nullptr ? now_ns() : 0;
  const bool et = nm.config().early_termination;
  uint64_t probes = 0;
  for (size_t t = 0; t < n; ++t) {
    MatchResult best = out[t];
    const bool floored = et && best.hit();
    if (st != nullptr)
      probes += remainder_probes(nm.remainder(), floored ? best.priority
                                                         : MatchResult{}.priority);
    const MatchResult r = floored ? nm.remainder().match_with_floor(pk[t], best.priority)
                                  : nm.remainder().match(pk[t]);
    if (r.beats(best)) best = r;
    out[t] = best;
  }
  if (st == nullptr) return;
  const double t4 = now_ns();
  st->rqrmi_ns += t1 - t0;
  st->search_ns += t2 - t1;
  st->validate_ns += t3 - t2;
  st->remainder_ns += t4 - t3;
  st->packets += n;
  st->keys += n * n_isets;
  st->rejects += rejects;
  st->remainder_probes += probes;
  for (size_t s = 0; s < n_isets; ++s) {
    for (size_t t = 0; t < n; ++t) {
      const auto& pr = preds[s * kTile + t];
      const uint64_t lo = pr.index >= pr.search_error ? pr.index - pr.search_error : 0;
      const uint64_t hi = std::min<uint64_t>(uint64_t{pr.index} + pr.search_error,
                                             isets[s].size() == 0 ? 0 : isets[s].size() - 1);
      st->window_sum += hi >= lo ? hi - lo + 1 : 0;
      const int32_t p = pos[s * kTile + t];
      if (p < 0) continue;
      ++st->found;
      st->distance_sum += static_cast<uint64_t>(
          p > static_cast<int64_t>(pr.index) ? p - static_cast<int64_t>(pr.index)
                                             : static_cast<int64_t>(pr.index) - p);
    }
  }
}

}  // namespace

std::vector<MatchResult> staged_decisions(const NuevoMatch& nm, std::span<const Packet> burst) {
  std::vector<MatchResult> out(burst.size());
  for (size_t base = 0; base < burst.size(); base += kTile) {
    const size_t n = std::min(kTile, burst.size() - base);
    staged_tile(nm, burst.subspan(base, n), out.data() + base, nullptr);
  }
  return out;
}

StageStats replay_staged(const nuevomatch::OnlineNuevoMatch& engine,
                         std::span<const std::vector<Packet>> bursts) {
  StageStats st;
  const auto pin = engine.pin();
  const NuevoMatch& nm = pin.nm();
  std::array<MatchResult, kTile> staged;
  std::array<MatchResult, kTile> via_pin;
  std::array<MatchResult, kTile> via_nm;
  bool pin_first = true;
  for (const std::vector<Packet>& b : bursts) {
    if (b.empty()) continue;
    const std::span<const Packet> pk{b};
    staged_tile(nm, pk, staged.data(), &st);
    // Alternate which whole-batch call runs first so neither always finds
    // the other's cache lines warm.
    for (int k = 0; k < 2; ++k) {
      const bool do_pin = (k == 0) == pin_first;
      const double t0 = now_ns();
      if (do_pin) {
        pin.match_batch(pk, {via_pin.data(), pk.size()});
        st.pin_ns += now_ns() - t0;
      } else {
        nm.match_batch(pk, {via_nm.data(), pk.size()});
        st.nm_ns += now_ns() - t0;
      }
    }
    pin_first = !pin_first;
    for (size_t t = 0; t < pk.size(); ++t) {
      if (staged[t].rule_id != via_pin[t].rule_id ||
          (staged[t].hit() && staged[t].priority != via_pin[t].priority))
        ++st.mismatches;
    }
  }
  return st;
}

}  // namespace perfbench
