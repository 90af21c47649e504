#include "dataplane.hpp"

#include <bit>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "alloc_count.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace perfbench {

namespace pl = nuevomatch::pipeline;

uint64_t now_ns() noexcept {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// --- TraceLog ----------------------------------------------------------------

TraceLog::TraceLog(size_t keep) : keep_(keep) { kept_.reserve(keep); }

void TraceLog::open(Layer layer) {
  if (depth_ == stack_.size()) throw std::runtime_error("TraceLog: spans nested too deep");
  int32_t idx = -1;
  if (kept_.size() < keep_) {
    Span s;
    s.burst = burst_;
    s.layer = layer;
    s.parent = depth_ > 0 ? stack_[depth_ - 1].kept_index : -1;
    kept_.push_back(s);
    idx = static_cast<int32_t>(kept_.size() - 1);
  }
  stack_[depth_++] = Frame{layer, now_ns(), thread_allocs(), 0, 0, idx};
}

void TraceLog::close(uint32_t work) {
  const uint64_t end = now_ns();
  const Frame f = stack_[--depth_];
  const uint64_t dur = end - f.start;
  const uint64_t allocs = thread_allocs() - f.allocs0;
  LayerTotals& t = totals_[f.layer];
  ++t.spans;
  t.work += work;
  t.total_ns += static_cast<double>(dur);
  t.self_ns += static_cast<double>(dur) - static_cast<double>(f.child_ns);
  t.self_allocs += allocs - f.child_allocs;
  if (f.kept_index >= 0) {
    Span& s = kept_[static_cast<size_t>(f.kept_index)];
    s.start_ns = f.start;
    s.end_ns = end;
    s.work = work;
    s.allocs = static_cast<uint32_t>(allocs);
  }
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += dur;
    stack_[depth_ - 1].child_allocs += allocs;
  }
}

// --- MissBuffer --------------------------------------------------------------

MissBuffer::MissBuffer(size_t cap_packets) : cap_(cap_packets) {
  pkts_.reserve(cap_packets);
  ends_.reserve(cap_packets);
}

void MissBuffer::record(const pl::Burst& b, uint32_t lanes) {
  if (lanes == 0 || pkts_.size() + static_cast<size_t>(std::popcount(lanes)) > cap_) return;
  for (uint32_t m = lanes; m != 0; m &= m - 1)
    pkts_.push_back(b.pkt[static_cast<size_t>(std::countr_zero(m))]);
  ends_.push_back(static_cast<uint32_t>(pkts_.size()));
}

std::vector<std::vector<nuevomatch::Packet>> MissBuffer::bursts() const {
  std::vector<std::vector<nuevomatch::Packet>> out;
  out.reserve(ends_.size());
  uint32_t begin = 0;
  for (const uint32_t end : ends_) {
    out.emplace_back(pkts_.begin() + begin, pkts_.begin() + end);
    begin = end;
  }
  return out;
}

// --- elements ----------------------------------------------------------------

void Probe::process(pl::Burst& b) {
  uint32_t work = b.size;
  if (layer_ == kClassifier) {
    const uint32_t all = b.size >= pl::kBurstSize ? ~uint32_t{0} : (1u << b.size) - 1;
    const uint32_t lanes = all & ~b.resolved;
    work = static_cast<uint32_t>(std::popcount(lanes));
    if (misses_ != nullptr) misses_->record(b, lanes);
  }
  log_.open(layer_);
  forward(b);
  log_.close(work);
}

LoopingPcapSource::LoopingPcapSource(std::string path, uint32_t replica,
                                     uint32_t n_replicas, const std::atomic<bool>* stop,
                                     const std::atomic<bool>* pause, TraceLog* log)
    : path_(std::move(path)),
      replica_(replica),
      n_replicas_(n_replicas),
      stop_(stop),
      pause_(pause),
      log_(log) {
  reopen();
}

void LoopingPcapSource::reopen() {
  inner_ = std::make_unique<pl::PcapSource>(path_);
  inner_->set_replica_filter(replica_, n_replicas_);
}

bool LoopingPcapSource::pump(pl::Burst& b) {
  const auto stopped = [this] {
    return stop_ != nullptr && stop_->load(std::memory_order_relaxed);
  };
  while (pause_ != nullptr && pause_->load(std::memory_order_relaxed) && !stopped())
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  if (stopped()) return false;
  if (log_ != nullptr) {
    if (log_->depth() == 0) log_->begin_burst();
    log_->open(kSource);
  }
  bool ok = inner_->pump(b);
  if (!ok) {
    reopen();
    ok = inner_->pump(b);
  }
  if (log_ != nullptr) log_->close(b.size);
  return ok;
}

void CheckElement::process(pl::Burst& b) {
  for (uint32_t i = 0; i < b.size; ++i) {
    const uint64_t pos = b.index[i];
    if (pos >= in_.expected.size()) {
      ++mismatches_;
      continue;
    }
    if (b.result[i].rule_id != in_.expected[pos]) ++mismatches_;
    ++port_[in_.permit[pos] ? 0 : 1];
  }
  checked_ += b.size;
  forward(b);
}

// --- graph -------------------------------------------------------------------

nuevomatch::OnlineConfig engine_config() {
  nuevomatch::OnlineConfig cfg;
  cfg.base.remainder_factory = [] { return std::make_unique<nuevomatch::TupleMerge>(); };
  cfg.base.min_iset_coverage = 0.05;  // §5.1 floor against a TupleMerge remainder
  cfg.auto_retrain = false;           // the churn writer forces retrains on its cadence
  return cfg;
}

pl::Graph build_dataplane(const std::string& pcap,
                          const std::shared_ptr<nuevomatch::OnlineNuevoMatch>& engine,
                          const Inputs& in, const DataplaneOptions& o, Dataplane* h) {
  pl::Graph g;
  auto& src = g.add(std::make_unique<LoopingPcapSource>(pcap, o.replica, o.n_replicas, o.stop,
                                                        o.pause, o.log),
                    "src");
  auto& cache = g.add(std::make_unique<pl::FlowCacheElement>(kCacheCapacity), "cache");
  auto cls_owned = std::make_unique<pl::ClassifierElement>();
  cls_owned->attach(engine);
  cls_owned->set_actions(in.rules);
  auto& cls = g.add(std::move(cls_owned), "cls");
  auto& check = g.add(std::make_unique<CheckElement>(in), "check");
  auto& disp = g.add(std::make_unique<pl::Dispatch>(std::vector<std::string>{"permit", "deny"}),
                     "disp");
  auto& permit = g.add(std::make_unique<pl::Sink>(o.record), "permit");
  auto& deny = g.add(std::make_unique<pl::Sink>(o.record), "deny");

  // Chain `from` -> [probe] -> `to` on `port`.
  const auto link = [&](pl::Element& from, size_t port, pl::Element& to, Layer layer,
                        MissBuffer* misses = nullptr) {
    if (o.log == nullptr) {
      g.connect(from, port, to);
      return;
    }
    auto& probe = g.add(std::make_unique<Probe>(*o.log, layer, misses));
    g.connect(from, port, probe);
    g.connect(probe, 0, to);
  };
  link(src, 0, cache, kCache);
  link(cache, 0, cls, kClassifier, o.misses);
  link(cls, 0, check, kCheck);
  link(check, 0, disp, kDispatch);
  link(disp, 0, permit, kSink);
  link(disp, 1, deny, kSink);
  g.initialize();
  if (h != nullptr) *h = Dataplane{&src, &cache, &cls, &check, &disp, {&permit, &deny}};
  return g;
}

}  // namespace perfbench
