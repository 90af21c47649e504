#include "inputs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "classbench/generator.hpp"
#include "cutsplit/cutsplit.hpp"
#include "trace/pcap.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using nuevomatch::Packet;
using nuevomatch::Rule;

namespace {

struct PacketHash {
  size_t operator()(const Packet& p) const noexcept {
    uint64_t h = 14695981039346656037ull;
    for (const uint32_t f : p.field) {
      h ^= f;
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h ^ (h >> 29));
  }
};
struct PacketEq {
  bool operator()(const Packet& a, const Packet& b) const noexcept {
    return a.field == b.field;
  }
};

}  // namespace

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> w = {
      {"acl-uniform", 0.0, false, false, 1},
      {"lowdiv-uniform", 0.3, false, false, 1},
      {"acl-zipf-churn", 0.0, true, true, 1},
      {"acl-uniform-x2", 0.0, false, false, 2},
  };
  return w;
}

std::optional<WorkloadSpec> find_workload(std::string_view name) {
  for (const WorkloadSpec& w : all_workloads())
    if (w.name == name) return w;
  return std::nullopt;
}

Inputs make_inputs(const WorkloadSpec& w, uint64_t seed, const InputSizes& sizes) {
  Inputs in;
  // The rule-set is one fixed generator output per workload, as the paper
  // evaluates fixed ClassBench files: the classifiers' speeds depend on the
  // rule-set far more than on the trace (CutSplit's throughput moved ~15%
  // between generator seeds). The seed draws the trace and the churn rules.
  constexpr uint64_t kRuleSeed = 0x5EEDAC11;
  nuevomatch::Rng seeds{seed ^ 0x9E3779B97F4A7C15ull};
  const uint64_t trace_seed = seeds.next_u64();

  in.rules = nuevomatch::generate_classbench(nuevomatch::AppClass::kAcl, 1,
                                             sizes.rules, kRuleSeed);
  if (w.lowdiv_fraction > 0.0)
    in.rules = nuevomatch::blend_low_diversity(in.rules, w.lowdiv_fraction, kRuleSeed + 1);

  nuevomatch::TraceConfig tc;
  tc.kind = w.zipf ? nuevomatch::TraceConfig::Kind::kZipf
                   : nuevomatch::TraceConfig::Kind::kUniform;
  tc.zipf_alpha = 1.1;
  tc.n_packets = sizes.trace;
  tc.seed = trace_seed;
  in.trace = nuevomatch::generate_trace(in.rules, tc);
  for (Packet& p : in.trace) {
    if (!nuevomatch::proto_has_ports(static_cast<uint8_t>(p[nuevomatch::kProto]))) {
      p.field[nuevomatch::kSrcPort] = 0;
      p.field[nuevomatch::kDstPort] = 0;
    }
  }

  nuevomatch::CutSplit cutsplit;
  cutsplit.build(in.rules);
  const nuevomatch::Classifier& ref = cutsplit;
  std::unordered_map<Packet, int32_t, PacketHash, PacketEq> by_flow;
  by_flow.reserve(in.trace.size());
  in.expected.resize(in.trace.size());
  for (size_t i = 0; i < in.trace.size(); ++i) {
    const Packet& p = in.trace[i];
    auto [it, fresh] = by_flow.try_emplace(p, 0);
    if (fresh) it->second = ref.match(p).rule_id;
    in.expected[i] = it->second;
    in.trace_src.insert(p[nuevomatch::kSrcIp]);
  }
  in.distinct_flows = by_flow.size();
  set_expected_ports(in);
  return in;
}

void set_expected_ports(Inputs& in) {
  in.permit.resize(in.expected.size());
  for (size_t i = 0; i < in.expected.size(); ++i) {
    const int32_t id = in.expected[i];
    in.permit[i] = id >= 0 && in.rules[static_cast<size_t>(id)].action == 0;
  }
}

void write_trace_pcap(const std::string& path, const std::vector<Packet>& trace) {
  constexpr size_t kMinFrame = 60;  // minimum Ethernet frame without FCS
  nuevomatch::PcapWriter w{path};
  if (!w.ok()) throw std::runtime_error("pcap: " + w.error());
  uint64_t ts = 1'700'000'000ull * 1'000'000'000ull;
  for (const Packet& p : trace) {
    std::vector<uint8_t> f = nuevomatch::synthesize_frame(p);
    if (f.size() < kMinFrame) f.resize(kMinFrame, 0);
    w.write(ts, f);
    ts += 1'000;
  }
  w.close();
  if (!w.ok()) throw std::runtime_error("pcap: " + w.error());
  // Write the capture back to disk now, so kernel writeback of ~76 MB of
  // dirty pages does not overlap the timed window.
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("pcap: cannot sync " + path);
  }
  ::close(fd);
}

ChurnRules::ChurnRules(const Inputs& in, uint64_t seed)
    : in_(in),
      rng_(seed ^ 0xC4A5E1ull),
      next_id_(static_cast<uint32_t>(in.rules.size())) {}

Rule ChurnRules::next() {
  Rule r = in_.rules[rng_.below(in_.rules.size())];
  uint32_t src = 0;
  do {
    src = static_cast<uint32_t>(rng_.next_u64());
  } while (in_.trace_src.contains(src));
  r.field[nuevomatch::kSrcIp] = nuevomatch::Range{src, src};
  r.id = next_id_++;
  r.priority = static_cast<int32_t>(rng_.below(in_.rules.size()));
  return r;
}

}  // namespace perfbench
