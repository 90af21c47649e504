// Shared benchmark harness: workload construction, timing methodology and
// table printing used by every per-figure/per-table bench binary.
//
// Methodology mirrors the paper (§5.1.1): per rule-set, generate a packet
// trace, run warm-up passes, then measure; report ns/packet (latency) and
// packets/second (throughput). The two-core experiments (Figure 8) are
// *projected* from separately measured phases — see DESIGN.md
// "Substitutions" and the model documented in
// bench_fig8_classbench_multicore.cpp.
//
// Scale control: NM_BENCH_SCALE=quick (default) runs reduced sizes/suites so
// the full battery completes in minutes; NM_BENCH_SCALE=full reproduces the
// paper's 500K x 12-set sweeps (hours).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "classbench/generator.hpp"
#include "classifiers/classifier.hpp"
#include "common/stats.hpp"
#include "cutsplit/cutsplit.hpp"
#include "neurocuts/neurocuts.hpp"
#include "nuevomatch/nuevomatch.hpp"
#include "trace/trace.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch::bench {

struct Scale {
  bool full = false;
  size_t large_n = 100'000;   ///< stands in for the paper's 500K in quick mode
  size_t mid_n = 100'000;     ///< the paper's 100K tier
  size_t trace_len = 150'000; ///< paper uses 700K
  int reps = 3;
  int nc_iterations = 4;      ///< NeuroCuts search budget
  std::vector<std::pair<AppClass, int>> suite;  ///< rule-set suite
};

inline Scale bench_scale() {
  Scale s;
  const char* env = std::getenv("NM_BENCH_SCALE");
  s.full = env != nullptr && std::string(env) == "full";
  if (s.full) {
    s.large_n = 500'000;
    s.trace_len = 700'000;
    s.nc_iterations = 8;
    s.suite = paper_suite();
  } else {
    s.suite = {{AppClass::kAcl, 1}, {AppClass::kAcl, 2}, {AppClass::kFw, 1},
               {AppClass::kIpc, 1}};
  }
  return s;
}

// ---------------------------------------------------------------------------
// Timing
// ---------------------------------------------------------------------------

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Keep the optimizer from discarding classification results.
inline volatile int64_t g_sink = 0;

/// ns/packet for a full pass of `cls` over the trace; best of `reps` after
/// one warm-up pass (the paper uses 5 warm-up + 1 measured pass).
inline double measure_ns_per_packet(const Classifier& cls, std::span<const Packet> trace,
                                    int reps = 3) {
  int64_t sink = 0;
  for (const Packet& p : trace) sink += cls.match(p).rule_id;  // warm-up
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const uint64_t t0 = now_ns();
    for (const Packet& p : trace) sink += cls.match(p).rule_id;
    const uint64_t t1 = now_ns();
    best = std::min(best, static_cast<double>(t1 - t0) / static_cast<double>(trace.size()));
  }
  g_sink = sink;
  return best;
}

/// Same, for an arbitrary per-packet callable.
template <typename F>
double measure_ns_per_packet_fn(F&& fn, std::span<const Packet> trace, int reps = 3) {
  int64_t sink = 0;
  for (const Packet& p : trace) sink += fn(p);
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const uint64_t t0 = now_ns();
    for (const Packet& p : trace) sink += fn(p);
    const uint64_t t1 = now_ns();
    best = std::min(best, static_cast<double>(t1 - t0) / static_cast<double>(trace.size()));
  }
  g_sink = sink;
  return best;
}

inline double mpps(double ns_per_packet) { return 1e3 / ns_per_packet; }

// ---------------------------------------------------------------------------
// Engine construction
// ---------------------------------------------------------------------------

inline std::unique_ptr<Classifier> make_baseline(const std::string& name,
                                                 const Scale& s) {
  if (name == "cutsplit") return std::make_unique<CutSplit>();
  if (name == "neurocuts") {
    NeuroCutsConfig cfg;
    cfg.search_iterations = s.nc_iterations;
    return std::make_unique<NeuroCutsLike>(cfg);
  }
  if (name == "tuplemerge") return std::make_unique<TupleMerge>();
  if (name == "tss") return std::make_unique<TupleSpaceSearch>();
  std::fprintf(stderr, "unknown baseline %s\n", name.c_str());
  std::abort();
}

/// NuevoMatch paired with the same engine as remainder (paper §5.2: "For
/// fair comparison, NuevoMatch used the same algorithm for both the
/// remainder classifier and the baseline"). Coverage floors follow §5.1:
/// 25% vs decision trees, 5% vs TupleMerge; 4 iSets vs tm, else 2.
inline std::unique_ptr<NuevoMatch> make_nm(const std::string& baseline, const Scale& s) {
  NuevoMatchConfig cfg;
  cfg.remainder_factory = [baseline, s]() { return make_baseline(baseline, s); };
  if (baseline == "tuplemerge" || baseline == "tss") {
    cfg.min_iset_coverage = 0.05;
    cfg.max_isets = 4;
  } else {
    cfg.min_iset_coverage = 0.25;
    cfg.max_isets = 2;
  }
  return std::make_unique<NuevoMatch>(cfg);
}

inline std::vector<Packet> uniform_trace(const RuleSet& rules, const Scale& s,
                                         uint64_t seed = 99) {
  TraceConfig tc;
  tc.kind = TraceConfig::Kind::kUniform;
  tc.n_packets = s.trace_len;
  tc.seed = seed;
  return generate_trace(rules, tc);
}

// ---------------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------------

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("scale: %s\n", bench_scale().full ? "full (paper)" : "quick (reduced)");
  std::printf("==============================================================\n");
}

// ---------------------------------------------------------------------------
// Machine-readable results (BENCH_<name>.json)
// ---------------------------------------------------------------------------

/// Minimal row-oriented JSON emitter for bench result files. Usage:
///   BenchJson j{"table1"};
///   j.row().set("level", "avx(8)").set("mode", "batched").set("kps", 1e8);
///   j.write("BENCH_table1.json");
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  BenchJson& row() {
    rows_.emplace_back();
    return *this;
  }
  BenchJson& set(const std::string& key, const std::string& v) {
    rows_.back().emplace_back(key, "\"" + escape(v) + "\"");
    return *this;
  }
  BenchJson& set(const std::string& key, const char* v) {
    return set(key, std::string{v});
  }
  BenchJson& set(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    rows_.back().emplace_back(key, buf);
    return *this;
  }
  BenchJson& set(const std::string& key, size_t v) {
    rows_.back().emplace_back(key, std::to_string(v));
    return *this;
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n", escape(bench_).c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "    {");
      for (size_t k = 0; k < rows_[i].size(); ++k)
        std::fprintf(f, "%s\"%s\": %s", k != 0 ? ", " : "",
                     escape(rows_[i][k].first).c_str(), rows_[i][k].second.c_str());
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string bench_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

inline std::string human_bytes(size_t b) {
  char buf[32];
  if (b >= 1024 * 1024) {
    std::snprintf(buf, sizeof buf, "%.1fMB", static_cast<double>(b) / (1024.0 * 1024.0));
  } else if (b >= 1024) {
    std::snprintf(buf, sizeof buf, "%.1fKB", static_cast<double>(b) / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%zuB", b);
  }
  return buf;
}

}  // namespace nuevomatch::bench
