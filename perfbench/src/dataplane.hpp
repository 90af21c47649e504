// The measured dataplane graph and the benchmark's own pass-through
// elements around it:
//
//   LoopingPcapSource -> FlowCache(65536) -> Classifier
//     -> Check -> Dispatch(permit, deny) -> Sink / Sink
//
// With a TraceLog, a Probe sits in front of every element after the source;
// each records one span per burst (layer, start, end, parent, burst id,
// allocations), so a layer's self time is its span minus its children.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "nuevomatch/online.hpp"
#include "pipeline/elements.hpp"
#include "pipeline/graph.hpp"

namespace perfbench {

namespace pipeline = nuevomatch::pipeline;

enum Layer : uint8_t { kStep, kSource, kCache, kClassifier, kCheck, kDispatch, kSink, kLayers };
inline constexpr std::array<const char*, kLayers> kLayerName = {
    "step", "source", "cache", "classifier", "check", "dispatch", "sink"};

[[nodiscard]] uint64_t now_ns() noexcept;

struct Span {
  uint64_t burst = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  ///< index of the parent span in TraceLog::kept(), -1 = root
  Layer layer = kStep;
  uint32_t work = 0;    ///< packets (misses for the classifier) the span handled
  uint32_t allocs = 0;  ///< allocations inside the span, children included
};

struct LayerTotals {
  uint64_t spans = 0;
  uint64_t work = 0;
  double total_ns = 0;
  double self_ns = 0;        ///< total minus time inside child spans
  uint64_t self_allocs = 0;  ///< allocations minus those inside child spans
};

/// Spans of one graph (one thread at a time). Every span is folded into
/// per-layer totals as it closes; the first `keep` spans are also kept in
/// memory, preallocated so recording allocates nothing, and written out
/// when the run ends.
class TraceLog {
 public:
  explicit TraceLog(size_t keep);
  void begin_burst() noexcept { ++burst_; }
  void open(Layer layer);
  void close(uint32_t work);
  [[nodiscard]] size_t depth() const noexcept { return depth_; }
  [[nodiscard]] const LayerTotals& totals(Layer l) const noexcept { return totals_[l]; }
  [[nodiscard]] const std::vector<Span>& kept() const noexcept { return kept_; }

 private:
  struct Frame {
    Layer layer;
    uint64_t start;
    uint64_t allocs0;
    uint64_t child_ns;
    uint64_t child_allocs;
    int32_t kept_index;
  };
  std::array<Frame, 16> stack_{};
  size_t depth_ = 0;
  size_t keep_;
  std::vector<Span> kept_;
  std::array<LayerTotals, kLayers> totals_{};
  uint64_t burst_ = 0;
};

/// The Classifier's miss packets, one group per burst, recorded into
/// preallocated storage for the staged replay.
class MissBuffer {
 public:
  explicit MissBuffer(size_t cap_packets);
  void record(const pipeline::Burst& b, uint32_t lanes);
  [[nodiscard]] std::vector<std::vector<nuevomatch::Packet>> bursts() const;

 private:
  size_t cap_;
  std::vector<nuevomatch::Packet> pkts_;
  std::vector<uint32_t> ends_;
};

/// Pass-through probe: one span around everything downstream of it.
class Probe final : public pipeline::Element {
 public:
  Probe(TraceLog& log, Layer layer, MissBuffer* misses = nullptr)
      : log_(log), layer_(layer), misses_(misses) {}
  [[nodiscard]] std::string_view kind() const override { return "Probe"; }
  void process(pipeline::Burst& b) override;

 private:
  TraceLog& log_;
  Layer layer_;
  MissBuffer* misses_;
};

/// A PcapSource that reopens its capture at end of file, so one graph (and
/// its FlowCache) stays warm across passes. Waits while `pause` is set and
/// returns end of stream once `stop` is set. Burst::index is the position
/// within the capture.
class LoopingPcapSource final : public pipeline::SourceElement {
 public:
  LoopingPcapSource(std::string path, uint32_t replica, uint32_t n_replicas,
                    const std::atomic<bool>* stop, const std::atomic<bool>* pause,
                    TraceLog* log);
  [[nodiscard]] std::string_view kind() const override { return "LoopingPcapSource"; }
  [[nodiscard]] bool pump(pipeline::Burst& b) override;

 private:
  void reopen();
  std::string path_;
  uint32_t replica_;
  uint32_t n_replicas_;
  const std::atomic<bool>* stop_;
  const std::atomic<bool>* pause_;
  TraceLog* log_;
  std::unique_ptr<pipeline::PcapSource> inner_;
};

/// Checks every decision against the reference answer for its trace
/// position, and counts the Dispatch port each should take.
class CheckElement final : public pipeline::Element {
 public:
  explicit CheckElement(const Inputs& in) : in_(in) {}
  [[nodiscard]] std::string_view kind() const override { return "Check"; }
  void process(pipeline::Burst& b) override;
  [[nodiscard]] uint64_t checked() const noexcept { return checked_; }
  [[nodiscard]] uint64_t mismatches() const noexcept { return mismatches_; }
  [[nodiscard]] uint64_t expected_on_port(size_t port) const noexcept {
    return port_[port];
  }

 private:
  const Inputs& in_;
  uint64_t checked_ = 0;
  uint64_t mismatches_ = 0;
  std::array<uint64_t, 2> port_{};
};

struct DataplaneOptions {
  TraceLog* log = nullptr;        ///< probes between elements when set
  MissBuffer* misses = nullptr;   ///< record Classifier misses (needs log)
  const std::atomic<bool>* stop = nullptr;
  const std::atomic<bool>* pause = nullptr;
  uint32_t replica = 0;
  uint32_t n_replicas = 1;
  bool record = false;            ///< Sinks keep every decision (tests)
};

/// Handles to one graph's elements (owned by the graph).
struct Dataplane {
  LoopingPcapSource* src = nullptr;
  pipeline::FlowCacheElement* cache = nullptr;
  pipeline::ClassifierElement* cls = nullptr;
  CheckElement* check = nullptr;
  pipeline::Dispatch* disp = nullptr;
  std::array<pipeline::Sink*, 2> sinks{};
  [[nodiscard]] uint64_t sink_packets() const {
    return sinks[0]->packets() + sinks[1]->packets();
  }
};

inline constexpr size_t kCacheCapacity = 65536;

/// The engine behind the graph's Classifier: OnlineNuevoMatch with a
/// TupleMerge remainder, retrained only when the benchmark asks.
[[nodiscard]] nuevomatch::OnlineConfig engine_config();

/// Build one dataplane graph over `pcap` with `engine` attached; the graph
/// is initialized before it is returned.
[[nodiscard]] pipeline::Graph build_dataplane(
    const std::string& pcap, const std::shared_ptr<nuevomatch::OnlineNuevoMatch>& engine,
    const Inputs& in, const DataplaneOptions& o, Dataplane* h);

}  // namespace perfbench
