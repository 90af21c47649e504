// The benchmark's own tests: probes change no decision, churn rules can
// never match the trace, inputs are a pure function of the seed, the staged
// replay agrees with match_batch, and span arithmetic is exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <unistd.h>

#include "alloc_count.hpp"
#include "classbench/parser.hpp"
#include "classifiers/linear.hpp"
#include "dataplane.hpp"
#include "inputs.hpp"
#include "staged.hpp"
#include "trace/pcap.hpp"

namespace fs = std::filesystem;
namespace nm = nuevomatch;
namespace pl = nuevomatch::pipeline;
using namespace perfbench;

namespace {

const InputSizes kSmall{5'000, 20'000};

std::shared_ptr<nm::OnlineNuevoMatch> make_engine(const nm::RuleSet& rules) {
  auto e = std::make_shared<nm::OnlineNuevoMatch>(engine_config());
  e->build(rules);
  return e;
}

/// A file in a scratch directory under the working directory (the build
/// tree when run by ctest), removed when the test ends.
struct ScratchDir {
  fs::path dir = fs::current_path() /
                 ("perfbench_tests_" + std::to_string(static_cast<long>(::getpid())));
  ScratchDir() { fs::create_directories(dir); }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const { return (dir / name).string(); }
};

std::string read_bytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Golden capture + rules, with reference answers from the linear oracle.
Inputs golden_inputs() {
  Inputs in;
  std::ifstream rules{std::string(NM_SOURCE_ROOT) + "/examples/data/router_acl.rules"};
  in.rules = nm::parse_classbench(rules);
  auto pk = nm::read_pcap_packets(std::string(NM_SOURCE_ROOT) + "/examples/data/golden64.pcap");
  EXPECT_TRUE(pk.has_value());
  in.trace = *pk;
  nm::LinearSearch oracle;
  oracle.build(in.rules);
  for (const nm::Packet& p : in.trace) in.expected.push_back(oracle.match(p).rule_id);
  set_expected_ports(in);
  return in;
}

std::vector<pl::Sink::Record> run_golden(const Inputs& in, bool probes) {
  const std::string pcap =
      std::string(NM_SOURCE_ROOT) + "/examples/data/golden64.pcap";
  TraceLog log{1024};
  MissBuffer misses{1024};
  DataplaneOptions o;
  o.record = true;
  if (probes) {
    o.log = &log;
    o.misses = &misses;
  }
  Dataplane h;
  pl::Graph g = build_dataplane(pcap, make_engine(in.rules), in, o, &h);
  uint64_t pumped = 0;
  // Two passes over the capture: the second is served from the FlowCache.
  while (pumped < 2 * in.trace.size()) {
    if (o.log != nullptr) {
      log.begin_burst();
      log.open(kStep);
    }
    const uint64_t before = pumped;
    EXPECT_TRUE(g.step(&pumped));
    if (o.log != nullptr) log.close(static_cast<uint32_t>(pumped - before));
  }
  g.finish_run();
  EXPECT_EQ(h.check->mismatches(), 0u);
  EXPECT_EQ(h.check->checked(), 2 * in.trace.size());
  if (probes) {
    EXPECT_EQ(log.totals(kSource).work, 2 * in.trace.size());
    EXPECT_GT(log.totals(kClassifier).spans, 0u);
    EXPECT_GT(log.totals(kSink).spans, 0u);
  }
  std::vector<pl::Sink::Record> r = h.sinks[0]->records();
  r.insert(r.end(), h.sinks[1]->records().begin(), h.sinks[1]->records().end());
  std::stable_sort(r.begin(), r.end(), [](const auto& a, const auto& b) { return a.index < b.index; });
  return r;
}

}  // namespace

TEST(Probes, PassThroughOnGoldenPcap) {
  const Inputs in = golden_inputs();
  ASSERT_EQ(in.trace.size(), 64u);
  const auto plain = run_golden(in, false);
  const auto probed = run_golden(in, true);
  ASSERT_EQ(plain.size(), probed.size());
  ASSERT_EQ(plain.size(), 128u);
  size_t cached = 0;
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].index, probed[i].index);
    EXPECT_EQ(plain[i].rule_id, probed[i].rule_id);
    EXPECT_EQ(plain[i].priority, probed[i].priority);
    EXPECT_EQ(plain[i].action, probed[i].action);
    EXPECT_EQ(plain[i].cached, probed[i].cached);
    cached += plain[i].cached;
  }
  EXPECT_GT(cached, 0u);  // the second pass exercised the cache-hit path
}

TEST(Churn, InsertsMatchNoTracePacket) {
  const WorkloadSpec w = *find_workload("acl-zipf-churn");
  const Inputs in = make_inputs(w, 3, kSmall);
  ChurnRules gen{in, 3};
  int32_t lo = INT32_MAX, hi = INT32_MIN;
  for (int k = 0; k < 2'000; ++k) {
    const nm::Rule r = gen.next();
    ASSERT_GE(r.id, in.rules.size());
    for (const nm::Packet& p : in.trace) ASSERT_FALSE(r.matches(p)) << nm::to_string(r);
    lo = std::min(lo, r.priority);
    hi = std::max(hi, r.priority);
  }
  // Priorities spread over the whole base range, so commits hit every band.
  const auto n = static_cast<int32_t>(in.rules.size());
  EXPECT_LT(lo, n / 10);
  EXPECT_GT(hi, n - n / 10);
}

TEST(Inputs, SameSeedSameBytes) {
  const ScratchDir scratch;
  for (const WorkloadSpec& w : all_workloads()) {
    const Inputs a = make_inputs(w, 42, kSmall);
    const Inputs b = make_inputs(w, 42, kSmall);
    ASSERT_EQ(a.rules.size(), b.rules.size());
    EXPECT_EQ(0, std::memcmp(a.rules.data(), b.rules.data(), a.rules.size() * sizeof(nm::Rule)))
        << w.name;
    ASSERT_EQ(a.trace.size(), b.trace.size());
    EXPECT_EQ(0, std::memcmp(a.trace.data(), b.trace.data(), a.trace.size() * sizeof(nm::Packet)))
        << w.name;
    EXPECT_EQ(a.expected, b.expected);
    const std::string pa = scratch.file("a.pcap"), pb = scratch.file("b.pcap");
    write_trace_pcap(pa, a.trace);
    write_trace_pcap(pb, b.trace);
    EXPECT_EQ(read_bytes(pa), read_bytes(pb)) << w.name;
    EXPECT_EQ(make_engine(a.rules)->memory_bytes(), make_engine(b.rules)->memory_bytes())
        << w.name;
    // Every frame survives the pcap round trip unchanged.
    const auto back = nm::read_pcap_packets(pa);
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->size(), a.trace.size());
    EXPECT_EQ(0, std::memcmp(back->data(), a.trace.data(), a.trace.size() * sizeof(nm::Packet)));
  }
  // Another seed draws another trace over the same fixed rule-set.
  const Inputs c = make_inputs(all_workloads()[0], 43, kSmall);
  const Inputs d = make_inputs(all_workloads()[0], 42, kSmall);
  EXPECT_EQ(0, std::memcmp(c.rules.data(), d.rules.data(), c.rules.size() * sizeof(nm::Rule)));
  EXPECT_NE(0, std::memcmp(c.trace.data(), d.trace.data(), c.trace.size() * sizeof(nm::Packet)));
}

TEST(Staged, ReplayEqualsMatchBatch) {
  for (const char* name : {"acl-uniform", "lowdiv-uniform"}) {
    const Inputs in = make_inputs(*find_workload(name), 5, kSmall);
    const auto engine = make_engine(in.rules);
    std::vector<std::vector<nm::Packet>> bursts;
    for (size_t i = 0; i < in.trace.size(); i += 32)
      bursts.emplace_back(in.trace.begin() + i,
                          in.trace.begin() + std::min(i + 32, in.trace.size()));
    const auto pin = engine->pin();
    for (const auto& b : bursts) {
      std::vector<nm::MatchResult> want(b.size());
      pin.match_batch(b, want);
      const auto got = staged_decisions(pin.nm(), b);
      for (size_t t = 0; t < b.size(); ++t) ASSERT_EQ(got[t].rule_id, want[t].rule_id) << name;
    }
    const StageStats st = replay_staged(*engine, bursts);
    EXPECT_EQ(st.packets, in.trace.size());
    EXPECT_EQ(st.mismatches, 0u) << name;
    EXPECT_GT(st.found, 0u);
    EXPECT_GT(st.rqrmi_ns, 0.0);
  }
}

TEST(Staged, ReplayReportsADecisionItDoesNotMake) {
  // A churn rule that beats every base rule on one packet is answered by
  // the churn delta, which the staged iSet+remainder replay does not model:
  // the replay must count that packet as a mismatch, not hide it.
  const Inputs in = make_inputs(*find_workload("acl-uniform"), 6, kSmall);
  const auto engine = make_engine(in.rules);
  nm::Rule r;
  for (int f = 0; f < nm::kNumFields; ++f) {
    const uint32_t v = in.trace[0][f];
    r.field[static_cast<size_t>(f)] = nm::Range{v, v};
  }
  r.priority = -1;
  r.id = static_cast<uint32_t>(in.rules.size());
  ASSERT_TRUE(engine->insert(r));
  const std::vector<std::vector<nm::Packet>> bursts = {{in.trace[0], in.trace[1]}};
  EXPECT_GE(replay_staged(*engine, bursts).mismatches, 1u);
}

TEST(TraceLog, SelfTimeIsSpanMinusChildren) {
  TraceLog log{8};
  log.begin_burst();
  log.open(kStep);
  log.open(kCache);
  std::vector<int>* leak = new std::vector<int>(8);
  delete leak;
  log.open(kClassifier);
  log.close(3);
  log.close(32);
  log.close(32);
  const LayerTotals& step = log.totals(kStep);
  const LayerTotals& cache = log.totals(kCache);
  const LayerTotals& cls = log.totals(kClassifier);
  EXPECT_DOUBLE_EQ(step.self_ns + cache.self_ns + cls.self_ns, step.total_ns);
  EXPECT_DOUBLE_EQ(cache.total_ns - cls.total_ns, cache.self_ns);
  EXPECT_EQ(cache.self_allocs, 2u);  // the vector object and its buffer
  EXPECT_EQ(cls.work, 3u);
  ASSERT_EQ(log.kept().size(), 3u);
  EXPECT_EQ(log.kept()[0].parent, -1);
  EXPECT_EQ(log.kept()[1].parent, 0);
  EXPECT_EQ(log.kept()[2].parent, 1);
  EXPECT_EQ(log.kept()[1].allocs, 2u);
}
