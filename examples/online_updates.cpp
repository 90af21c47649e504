// Online rule updates (paper §3.9, "Handling rule-set updates"): an SDN
// controller pushes rule changes while traffic flows. OnlineNuevoMatch
// absorbs additions into its copy-on-write update layer, tombstones iSet
// deletions in place (atomic flips), and — when the absorption ratio
// crosses the configured threshold — retrains the RQ-RMI index on a
// background thread (reusing trained models for unchanged iSets) and
// atomically swaps it in. Lookups never stop AND never lock: the read path
// is wait-free between swaps (epoch-pinned, see DESIGN.md "Update path"),
// so neither a controller burst nor the retrain ever stalls the data path —
// and saturated lookups can no longer starve the controller either.
//
// The controller pushes each round as ONE erase_batch + ONE insert_batch:
// a burst costs one writer-lock hold and one copy-on-write commit total,
// not one per rule. Lookups are served two ways at once: scalar match()
// calls AND the online BatchParallelEngine (per-batch generation pinning) —
// the multi-core serving path. After the last swap the answers over the
// whole trace are checked against a linear-search oracle built over the
// final live rule-set; any mismatch fails the run (exit 1).
//
//   $ ./online_updates [n_rules]        (default 30000)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <unordered_set>
#include <vector>

#include "classbench/generator.hpp"
#include "classifiers/linear.hpp"
#include "common/rng.hpp"
#include "nuevomatch/online.hpp"
#include "nuevomatch/parallel.hpp"
#include "trace/trace.hpp"
#include "tuplemerge/tuplemerge.hpp"

using namespace nuevomatch;

namespace {

double mpps(const Classifier& cls, const std::vector<Packet>& trace) {
  int64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const Packet& p : trace) sink += cls.match(p).rule_id;
  const auto t1 = std::chrono::steady_clock::now();
  static volatile int64_t g_sink; g_sink = sink; (void)g_sink;
  return static_cast<double>(trace.size()) * 1e3 /
         static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Same trace through the online parallel engine, kDefaultBatchSize a time.
double mpps_parallel(BatchParallelEngine& engine, const std::vector<Packet>& trace) {
  std::vector<MatchResult> out(trace.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t off = 0; off < trace.size(); off += kDefaultBatchSize) {
    const size_t len = std::min(kDefaultBatchSize, trace.size() - off);
    engine.classify({trace.data() + off, len}, {out.data() + off, len});
  }
  const auto t1 = std::chrono::steady_clock::now();
  static volatile int64_t g_sink;
  int64_t sink = 0;
  for (const MatchResult& r : out) sink += r.rule_id;
  g_sink = sink; (void)g_sink;
  return static_cast<double>(trace.size()) * 1e3 /
         static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

}  // namespace

int main(int argc, char** argv) {
  const size_t n = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 30'000;
  const RuleSet rules = generate_classbench(AppClass::kFw, 1, n, 5);
  TraceConfig tc;
  tc.n_packets = 120'000;
  const auto trace = generate_trace(rules, tc);

  OnlineConfig cfg;
  cfg.base.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  cfg.base.min_iset_coverage = 0.05;
  cfg.retrain_threshold = 0.08;  // retrain when 8% of rules have migrated
  OnlineNuevoMatch nm{cfg};
  nm.build(rules);
  std::printf("built: %zu rules, generation %llu\n", nm.size(),
              static_cast<unsigned long long>(nm.generations()));

  // The multi-core serving path: per-batch generation pinning means this
  // engine keeps answering at full speed across every swap below.
  BatchParallelEngine engine{nm};

  Rng rng{7};
  std::printf("\n%-8s %-10s %10s %10s %12s %10s %6s\n", "batch", "updates", "Mpps",
              "par Mpps", "absorption", "retrain?", "gen");
  const size_t batch = n / 50;
  size_t total_updates = 0;
  uint32_t next_id = 1'000'000;
  std::unordered_set<uint32_t> gone;  // victims of earlier rounds
  std::vector<Rule> inserted;         // every rule pushed by insert_batch
  for (int round = 1; round <= 8; ++round) {
    // Controller pushes a round of matching-set changes as two batched
    // commits: erase_batch the victims, insert_batch the rewritten rules.
    // The inserts are absorbed by the update layer; when absorption crosses
    // the threshold the background retrain kicks in BY ITSELF — note how
    // the lookup loop below keeps running at full speed while it trains.
    std::vector<uint32_t> victims;
    victims.reserve(batch);
    for (size_t i = 0; i < batch; ++i) {
      const auto v = static_cast<uint32_t>(rng.below(rules.size()));
      if (gone.insert(v).second) victims.push_back(v);  // fresh victims only
    }
    std::vector<Rule> moved;
    moved.reserve(victims.size());
    for (const uint32_t v : victims) {
      Rule r = rules[v];
      r.field[kSrcPort] = Range{1024, 65535};
      r.id = next_id++;  // new identity for the changed matching set
      moved.push_back(r);
    }
    total_updates += nm.erase_batch(victims) + nm.insert_batch(moved);
    inserted.insert(inserted.end(), moved.begin(), moved.end());
    std::printf("%-8d %-10zu %10.2f %10.2f %11.1f%% %10s %6llu\n", round,
                total_updates, mpps(nm, trace), mpps_parallel(engine, trace),
                nm.absorption() * 100, nm.retrain_in_progress() ? "bg" : "-",
                static_cast<unsigned long long>(nm.generations()));
  }

  nm.quiesce();
  std::printf("\nquiesced: generation %llu, absorption %.1f%%, %10.2f Mpps "
              "(%.2f parallel)\n",
              static_cast<unsigned long long>(nm.generations()),
              nm.absorption() * 100, mpps(nm, trace), mpps_parallel(engine, trace));

  // The final live rule-set: the original rules minus every victim, plus
  // every inserted rule. The online engine must agree with a linear scan
  // over exactly that set on every packet of the trace.
  std::vector<Rule> live;
  live.reserve(rules.size() - gone.size() + inserted.size());
  for (const Rule& r : rules) {
    if (!gone.contains(r.id)) live.push_back(r);
  }
  live.insert(live.end(), inserted.begin(), inserted.end());
  LinearSearch oracle;
  oracle.build(live);
  std::vector<MatchResult> got(trace.size());
  nm.match_batch(trace, got);
  size_t mismatches = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (got[i].rule_id != oracle.match(trace[i]).rule_id) ++mismatches;
  }
  std::printf("oracle check: %zu of %zu lookups mismatched the linear search "
              "over the %zu live rules\n",
              mismatches, trace.size(), live.size());
  return mismatches == 0 ? 0 : 1;
}
