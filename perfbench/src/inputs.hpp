// Benchmark inputs: a fixed rule-set per workload and, drawn from the seed,
// the packet trace and the update stream the churn writer commits; plus
// the reference decision for every trace position and the
// minimum-size-frame pcap the graph reads. Nothing here is timed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "classifiers/classifier.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace perfbench {

/// One benchmark workload (BENCHMARK.json says why each exists).
struct WorkloadSpec {
  std::string name;
  double lowdiv_fraction = 0.0;  ///< share replaced by low-diversity rules
  bool zipf = false;             ///< zipf(1.1) trace instead of uniform
  bool churn = false;            ///< open-loop writer beside the readers
  uint32_t replicas = 1;         ///< >1: ReplicatedGraph on that many threads
};

[[nodiscard]] std::optional<WorkloadSpec> find_workload(std::string_view name);
[[nodiscard]] const std::vector<WorkloadSpec>& all_workloads();

struct InputSizes {
  size_t rules = 500'000;      ///< the paper's headline rule-set size
  size_t trace = 1u << 20;     ///< packets in one pass over the pcap
};

struct Inputs {
  nuevomatch::RuleSet rules;
  /// Trace packets with ports zeroed for port-less protocols, so each one
  /// survives the pcap round trip unchanged.
  std::vector<nuevomatch::Packet> trace;
  /// Reference decision (rule id, -1 = miss) per trace position, computed
  /// once per distinct flow by a reference engine (CutSplit) that is not
  /// the engine under test.
  std::vector<int32_t> expected;
  /// Whether Dispatch(permit, deny) should send each trace position to
  /// port 0: the expected rule's action is 0 (other actions and misses go
  /// to the last port).
  std::vector<uint8_t> permit;
  size_t distinct_flows = 0;
  /// Source addresses that occur in the trace: a churn rule whose source
  /// range is one address outside this set can match no trace packet.
  std::unordered_set<uint32_t> trace_src;
};

[[nodiscard]] Inputs make_inputs(const WorkloadSpec& w, uint64_t seed,
                                 const InputSizes& sizes = {});

/// Fill `in.permit` from `in.expected` and `in.rules`.
void set_expected_ports(Inputs& in);

/// Write `trace` as a pcap of minimum-size (60-byte) Ethernet frames.
/// Throws on I/O failure.
void write_trace_pcap(const std::string& path,
                      const std::vector<nuevomatch::Packet>& trace);

/// Deterministic stream of rules for the churn writer. Each rule copies the
/// shape of a random base rule, takes a fresh id above the base ids and a
/// priority anywhere in the base priority range (so commits invalidate real
/// FlowCache bands), and gets an exact source address that no trace packet
/// carries — so it can never change a reference answer.
class ChurnRules {
 public:
  ChurnRules(const Inputs& in, uint64_t seed);
  [[nodiscard]] nuevomatch::Rule next();

 private:
  const Inputs& in_;
  nuevomatch::Rng rng_;
  uint32_t next_id_;
};

}  // namespace perfbench
