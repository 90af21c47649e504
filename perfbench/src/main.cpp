// perfbench — the repository benchmark: pcap -> FlowCache -> Classifier ->
// Dispatch -> Sink, driven through the public API only.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--out-dir <dir>]
//
// --trace 0 runs the graph and a calibration kernel (calibrate.hpp) in
// alternating windows and prints the end-to-end metrics, divided by the
// kernel's rate; --trace 1 runs an untraced and a traced copy of the
// graph (probes between the elements) the same way, replays the
// Classifier's misses through the staged engine API, and prints the
// per-layer metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The line before it carries
// the host/build fingerprint, sample counts and per-layer span totals.
// perfbench/README.md lists the workloads and which layer metric should move
// which end-to-end metric.
#include <sched.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <functional>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "common/stats.hpp"
#include "dataplane.hpp"
#include "fingerprint.hpp"
#include "inputs.hpp"
#include "nuevomatch/online.hpp"
#include "pipeline/replicate.hpp"
#include "staged.hpp"

namespace fs = std::filesystem;
namespace nm = nuevomatch;
namespace pl = nuevomatch::pipeline;

namespace perfbench {
namespace {

// --- fixed benchmark parameters ----------------------------------------------

constexpr int kSetups = 3;                 ///< set-ups per run; setup_s is their median
constexpr double kWindowS = 0.1;           ///< throughput window
/// The calibration kernel's rate per thread (searches/us) on the host the
/// benchmark was tuned on, a 4-core Xeon VM: end-to-end figures read as if
/// measured there.
constexpr double kRefSearchesPerUs = 2.8;
constexpr double kUpdatesPerS = 10'000;   ///< writer's offered rate (open loop)
constexpr uint32_t kUpdateBatch = 32;      ///< rules per insert_batch / erase_batch
constexpr size_t kLiveChurnRules = 256;    ///< writer erases its oldest beyond this
constexpr uint64_t kRetrainEvery = 5'000;  ///< forced retrain cadence, in updates
constexpr uint64_t kMinSwaps = 3;          ///< generation swaps every churn run must see
/// Churn runs whose measured windows saw fewer than kMinSwaps swaps (retrains
/// slow down when other tenants load the host) keep running, unmeasured, up
/// to this long.
constexpr double kMaxSwapWaitS = 60;
constexpr size_t kKeptSpans = 20'000;      ///< spans per graph written out
constexpr size_t kMissReplayCap = 1u << 17;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string git_sha;
  std::string out_dir = ".bench_build/perfbench";
};

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument(
      why + "\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
            "[--git-sha <sha>] [--out-dir <dir>]");
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v);
      else if (k == "--git-sha") a.git_sha = v;
      else if (k == "--out-dir") a.out_dir = v;
      else usage("unknown option " + k);
    } catch (const std::logic_error&) {
      usage("bad value '" + v + "' for " + k);
    }
  }
  if (!find_workload(a.workload)) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds must be in (0, 600]");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

double median(const std::vector<double>& xs) { return nm::percentile(xs, 50.0); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void sleep_until_ns(uint64_t t) {
  // Sleep most of the way, then spin, so timer slack does not show up as
  // writer lateness.
  const uint64_t now = now_ns();
  if (t > now + 200'000)
    std::this_thread::sleep_for(std::chrono::nanoseconds(t - now - 150'000));
  while (now_ns() < t) {
  }
}

/// Deletes the synthesized capture when the run ends, however it ends.
struct TempFile {
  fs::path path;
  ~TempFile() {
    std::error_code ec;
    fs::remove(path, ec);
  }
};

// --- served graphs -----------------------------------------------------------

/// One graph, or one ReplicatedGraph, plus the benchmark's handles into it.
struct Served {
  std::vector<pl::Graph> graphs;  ///< single-graph workloads
  std::unique_ptr<pl::ReplicatedGraph> rg;
  std::vector<Dataplane> dp;      ///< per replica
  std::vector<std::unique_ptr<TraceLog>> logs;
  std::vector<std::unique_ptr<MissBuffer>> misses;
  std::atomic<bool> stop{false};
  std::atomic<bool> paused{false};
};

/// The measured graph, or (`traced`) its twin with probes between the elements.
std::unique_ptr<Served> build_served(const WorkloadSpec& w, const std::string& pcap,
                                     const std::shared_ptr<nm::OnlineNuevoMatch>& engine,
                                     const Inputs& in, bool traced) {
  auto s = std::make_unique<Served>();
  const uint32_t n = w.replicas;
  s->dp.resize(n);
  for (uint32_t i = 0; i < n && traced; ++i) {
    s->logs.push_back(std::make_unique<TraceLog>(kKeptSpans));
    s->misses.push_back(std::make_unique<MissBuffer>(kMissReplayCap / n));
  }
  const auto options = [&](uint32_t i) {
    DataplaneOptions o;
    o.stop = &s->stop;
    o.pause = &s->paused;
    o.replica = i;
    o.n_replicas = n;
    if (traced) {
      o.log = s->logs[i].get();
      o.misses = s->misses[i].get();
    }
    return o;
  };
  if (n == 1) {
    s->graphs.push_back(build_dataplane(pcap, engine, in, options(0), &s->dp[0]));
  } else {
    s->rg = std::make_unique<pl::ReplicatedGraph>(n, [&](uint32_t i, uint32_t) {
      return build_dataplane(pcap, engine, in, options(i), &s->dp[i]);
    });
  }
  return s;
}

// --- measurement -------------------------------------------------------------

/// One throughput window and the bursts timed inside it.
struct Window {
  double rate = 0;  ///< Mpps; calibration windows: searches per microsecond per thread
  std::vector<double> burst_us;
};

struct Phase {
  std::vector<Window> windows;
  nm::pipeline::FlowCache::Stats cache;  ///< delta over the measured window
  pl::SchedulerStats sched;

  [[nodiscard]] double rate() const {
    std::vector<double> r;
    for (const Window& w : windows) r.push_back(w.rate);
    return median(r);
  }
  [[nodiscard]] std::vector<double> burst_us() const {
    std::vector<double> b;
    for (const Window& w : windows) b.insert(b.end(), w.burst_us.begin(), w.burst_us.end());
    return b;
  }
};

nm::pipeline::FlowCache::Stats cache_stats(const Served& s) {
  nm::pipeline::FlowCache::Stats t;
  for (const Dataplane& d : s.dp) {
    const auto c = d.cache->cache().stats();
    t.hits += c.hits;
    t.misses += c.misses;
    t.stale += c.stale;
    t.inserts += c.inserts;
    t.evictions += c.evictions;
    t.retained += c.retained;
    t.future += c.future;
    t.insert_drops += c.insert_drops;
  }
  return t;
}

uint64_t sink_packets(const Served& s) {
  uint64_t t = 0;
  for (const Dataplane& d : s.dp) t += d.sink_packets();
  return t;
}

/// Single graphs: step() on this thread, each call timed. The lanes — the
/// graphs, then the calibration kernel if one is given — take turns window
/// by window, so slow drift of the host affects them alike. The last phase
/// returned is the kernel's. After the measured windows, the first graph
/// runs on unmeasured until `enough()` holds, for at most kMaxSwapWaitS.
std::vector<Phase> drive_single(const std::vector<Served*>& served, const Calibration* cal,
                                double warmup_s, double seconds,
                                const std::function<bool()>& enough) {
  struct Lane {
    pl::Graph* g;
    TraceLog* log;
    uint64_t pumped = 0;
    nm::pipeline::FlowCache::Stats c0;
  };
  std::vector<Lane> lanes(served.size());
  for (size_t i = 0; i < served.size(); ++i) {
    lanes[i].g = &served[i]->graphs[0];
    lanes[i].log = served[i]->logs.empty() ? nullptr : served[i]->logs[0].get();
  }
  const size_t n_lanes = lanes.size() + (cal != nullptr ? 1 : 0);
  std::vector<Phase> ph(n_lanes);
  const auto window_ns = static_cast<uint64_t>(kWindowS * 1e9);
  // One window of lane `i`, ending at `until`; measured windows record each
  // step's time and the window's rate.
  const auto run_window = [&](size_t i, uint64_t until, bool measure) {
    if (i == lanes.size()) {
      const double r = cal->run_until(until);
      if (measure) ph[i].windows.push_back(Window{r, {}});
      return;
    }
    Lane& l = lanes[i];
    Window w;
    const uint64_t w0 = now_ns();
    const uint64_t p0 = l.pumped;
    for (;;) {
      const uint64_t t0 = now_ns();
      if (t0 >= until) break;
      if (l.log != nullptr) {
        l.log->begin_burst();
        l.log->open(kStep);
      }
      const uint64_t before = l.pumped;
      if (!l.g->step(&l.pumped)) throw std::runtime_error("looping source ended");
      if (l.log != nullptr) l.log->close(static_cast<uint32_t>(l.pumped - before));
      if (measure) w.burst_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    if (measure) {
      w.rate = static_cast<double>(l.pumped - p0) * 1e3 / static_cast<double>(now_ns() - w0);
      ph[i].windows.push_back(std::move(w));
    }
  };
  const uint64_t warm_end = now_ns() + static_cast<uint64_t>(warmup_s * 1e9);
  for (size_t k = 0; now_ns() < warm_end; ++k)
    run_window(k % n_lanes, std::min(now_ns() + window_ns, warm_end), false);
  for (size_t i = 0; i < lanes.size(); ++i) lanes[i].c0 = cache_stats(*served[i]);
  const uint64_t t_end = now_ns() + static_cast<uint64_t>(seconds * 1e9);
  for (size_t k = 0; now_ns() + window_ns <= t_end; ++k)
    run_window(k % n_lanes, now_ns() + window_ns, true);
  for (size_t i = 0; i < lanes.size(); ++i) ph[i].cache = cache_stats(*served[i]) - lanes[i].c0;
  const uint64_t wait_end = now_ns() + static_cast<uint64_t>(kMaxSwapWaitS * 1e9);
  while (!enough() && now_ns() < wait_end) run_window(0, now_ns() + window_ns, false);
  for (Lane& l : lanes) l.g->finish_run();
  return ph;
}

/// Replicated graphs: the scheduler steps the replicas, each graph's run()
/// on its own thread; this thread takes the throughput windows and ends the
/// runs. The lanes take turns window by window as in drive_single: the
/// graphs not in turn wait paused at their sources, and in the calibration
/// kernel's turn all of them do. No burst times: the scheduler makes the
/// step() calls.
std::vector<Phase> drive_replicated(const std::vector<Served*>& served, const Calibration* cal,
                                    double warmup_s, double seconds) {
  const size_t n = served.size();
  const size_t n_lanes = n + (cal != nullptr ? 1 : 0);
  std::vector<Phase> ph(n_lanes);
  std::vector<nm::pipeline::FlowCache::Stats> c0(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<bool> failed{false};
  for (size_t i = 0; i < n; ++i) served[i]->paused.store(i != 0, std::memory_order_relaxed);
  std::vector<std::thread> runners;
  for (size_t i = 0; i < n; ++i) {
    runners.emplace_back([&, i] {
      try {
        pl::ReplicatedRunOptions opts;
        opts.threads = served[i]->dp.size();
        served[i]->rg->run(opts);
      } catch (...) {
        errors[i] = std::current_exception();
        failed = true;
      }
    });
  }
  // Lane `a`'s window, ending at `until`; returns its rate.
  const auto run_window = [&](size_t a, uint64_t until) {
    for (size_t i = 0; i < n; ++i) served[i]->paused.store(i != a, std::memory_order_relaxed);
    if (a == n) return cal->run_until(until);
    const uint64_t w0 = now_ns();
    const uint64_t p0 = sink_packets(*served[a]);
    while (!failed.load(std::memory_order_relaxed) && now_ns() < until)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return static_cast<double>(sink_packets(*served[a]) - p0) * 1e3 /
           static_cast<double>(now_ns() - w0);
  };
  const auto window_ns = static_cast<uint64_t>(kWindowS * 1e9);
  const uint64_t warm_end = now_ns() + static_cast<uint64_t>(warmup_s * 1e9);
  for (size_t k = 0; !failed && now_ns() < warm_end; ++k)
    run_window(k % n_lanes, std::min(now_ns() + window_ns, warm_end));
  for (size_t i = 0; i < n; ++i) c0[i] = cache_stats(*served[i]);
  const uint64_t t_end = now_ns() + static_cast<uint64_t>(seconds * 1e9);
  for (size_t k = 0; !failed && now_ns() + window_ns <= t_end; ++k) {
    const size_t a = k % n_lanes;
    const double r = run_window(a, now_ns() + window_ns);
    ph[a].windows.push_back(Window{r, {}});
  }
  for (Served* s : served) {
    s->stop = true;
    s->paused = false;
  }
  for (std::thread& t : runners) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  for (size_t i = 0; i < n; ++i) {
    ph[i].cache = cache_stats(*served[i]) - c0[i];
    ph[i].sched = served[i]->rg->last_stats();
  }
  return ph;
}

// --- update writer -----------------------------------------------------------

struct WriterStats {
  std::vector<double> update_us;  ///< from each tick's due time to its last commit
  std::vector<double> insert_us;
  std::vector<double> erase_us;
  std::vector<double> late_us;
  std::vector<double> retrain_s;  ///< retrain_now() until generations() advances
  uint64_t ops = 0;
  uint64_t refused = 0;
  uint64_t swaps = 0;
  size_t reused_isets = 0;
  size_t journal_max = 0;
};

/// Open-loop writer, until `stop`: every tick commits one insert_batch of
/// fresh churn rules and, once more than kLiveChurnRules of its own rules
/// are live, one erase_batch of its oldest. Ticks are due on a fixed
/// schedule whatever the engine does. A retrain is forced each time
/// kRetrainEvery updates have been committed since the last request
/// (deferred while one is still running); the last one is waited for.
void run_writer(nm::OnlineNuevoMatch& e, ChurnRules& gen, const std::atomic<bool>& stop,
                WriterStats& st) {
  std::vector<nm::Rule> ins;
  std::vector<uint32_t> era;
  std::deque<uint32_t> live;
  ins.reserve(kUpdateBatch);
  era.reserve(kUpdateBatch);
  const double period_ns = 2.0 * kUpdateBatch / kUpdatesPerS * 1e9;
  uint64_t since_request = 0;
  bool pending = false;
  uint64_t gen0 = 0, t_req = 0;
  const auto request = [&] {
    gen0 = e.generations();
    t_req = now_ns();
    e.retrain_now();
    pending = true;
    since_request = 0;
  };
  const auto poll = [&] {
    if (pending && e.generations() > gen0) {
      st.retrain_s.push_back(static_cast<double>(now_ns() - t_req) * 1e-9);
      ++st.swaps;
      st.reused_isets = e.last_retrain_reused_isets();
      pending = false;
    }
  };
  const uint64_t start = now_ns();
  for (uint64_t k = 0;; ++k) {
    const uint64_t due = start + static_cast<uint64_t>(static_cast<double>(k) * period_ns);
    if (stop.load(std::memory_order_relaxed)) break;
    sleep_until_ns(due);
    const uint64_t t0 = now_ns();
    ins.clear();
    for (uint32_t b = 0; b < kUpdateBatch; ++b) ins.push_back(gen.next());
    const size_t admitted = e.insert_batch(ins);
    const uint64_t t1 = now_ns();
    for (size_t i = 0; i < admitted; ++i) live.push_back(ins[i].id);
    st.ops += ins.size();
    st.refused += ins.size() - admitted;
    era.clear();
    while (live.size() > kLiveChurnRules && era.size() < kUpdateBatch) {
      era.push_back(live.front());
      live.pop_front();
    }
    uint64_t t2 = t1;
    if (!era.empty()) {
      const size_t erased = e.erase_batch(era);
      t2 = now_ns();
      st.ops += era.size();
      st.refused += era.size() - erased;
      st.erase_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
    }
    st.insert_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    st.update_us.push_back(static_cast<double>(t2 - due) * 1e-3);
    st.late_us.push_back(static_cast<double>(t0 - due) * 1e-3);
    since_request += ins.size() + era.size();
    st.journal_max = std::max(st.journal_max, e.health().journal_depth);
    poll();
    if (!pending && since_request >= kRetrainEvery) request();
  }
  while (pending) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    poll();
  }
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;
};

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One layer's totals summed over the graphs' logs (replicas).
LayerTotals layer_totals(const std::vector<const TraceLog*>& logs, Layer l) {
  LayerTotals t;
  for (const TraceLog* log : logs) {
    const LayerTotals& x = log->totals(l);
    t.spans += x.spans;
    t.work += x.work;
    t.total_ns += x.total_ns;
    t.self_ns += x.self_ns;
    t.self_allocs += x.self_allocs;
  }
  return t;
}

std::string layers_json(const std::vector<const TraceLog*>& logs) {
  std::string j = "{";
  for (size_t l = 0; l < kLayers; ++l) {
    const LayerTotals t = layer_totals(logs, static_cast<Layer>(l));
    if (l > 0) j += ", ";
    j += std::string("\"") + kLayerName[l] + "\": {\"spans\": " + std::to_string(t.spans) +
         ", \"work\": " + std::to_string(t.work) + ", \"self_ns\": " + num(t.self_ns) +
         ", \"total_ns\": " + num(t.total_ns) +
         ", \"self_allocs\": " + std::to_string(t.self_allocs) + "}";
  }
  return j + "}";
}

void write_spans(const fs::path& path, const std::vector<const TraceLog*>& logs) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("cannot write " + path.string());
  for (size_t r = 0; r < logs.size(); ++r) {
    for (const Span& s : logs[r]->kept()) {
      out << "{\"replica\": " << r << ", \"burst\": " << s.burst << ", \"layer\": \""
          << kLayerName[s.layer] << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
          << ", \"work\": " << s.work << ", \"allocs\": " << s.allocs << "}\n";
    }
  }
}

// --- the run -----------------------------------------------------------------

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  uint64_t mismatches = 0;
  uint64_t checked = 0;
};

/// Fold one served graph's checks into the tally: every decision against
/// the reference, and Dispatch/Sink counts against the expected ports.
void audit(const Served& s, Tally& t) {
  for (const Dataplane& d : s.dp) {
    t.checked += d.check->checked();
    t.mismatches += d.check->mismatches();
    for (size_t port = 0; port < 2; ++port) {
      const uint64_t want = d.check->expected_on_port(port);
      const uint64_t routed = d.disp->port_packets(port);
      const uint64_t sunk = d.sinks[port]->packets();
      if (routed != want || sunk != routed) {
        std::fprintf(stderr, "perfbench: port %zu routed %llu, sank %llu, expected %llu\n",
                     port, static_cast<unsigned long long>(routed),
                     static_cast<unsigned long long>(sunk),
                     static_cast<unsigned long long>(want));
        t.correct = false;
        ++t.failed;
      }
    }
  }
}

/// Confine this thread, and the threads it starts later, to the first `n`
/// CPUs it may use. For replicated graphs this puts the calibration
/// kernel's threads on the CPUs the scheduler threads run on; unconfined,
/// the two landed on different CPUs and the kernel's windows did not follow
/// the graph's. No-op with fewer CPUs.
void confine_to_cpus(uint32_t n) {
  cpu_set_t allowed, use;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  CPU_ZERO(&use);
  for (int c = 0, k = 0; c < CPU_SETSIZE && k < static_cast<int>(n); ++c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &use);
      ++k;
    }
  }
  if (CPU_COUNT(&use) == static_cast<int>(n)) sched_setaffinity(0, sizeof use, &use);
}

int run(const Args& a) {
  const WorkloadSpec w = *find_workload(a.workload);
  const bool traced_run = a.trace == 1;
  fs::create_directories(a.out_dir);

  const Inputs in = make_inputs(w, a.seed);
  const TempFile pcap{fs::path(a.out_dir) /
                      ("trace-" + std::to_string(static_cast<long>(::getpid())) + ".pcap")};
  write_trace_pcap(pcap.path.string(), in.trace);
  ChurnRules churn{in, a.seed};

  // Untraced runs divide their figures by the calibration kernel's rate,
  // taken on as many threads as the graph runs.
  std::optional<Calibration> cal;
  if (!traced_run) cal.emplace(w.replicas);

  // Host speed per thread relative to the reference host, over one window.
  const auto speed_now = [&] {
    return cal->run_until(now_ns() + static_cast<uint64_t>(kWindowS * 1e9)) / kRefSearchesPerUs;
  };

  // Set-up: OnlineNuevoMatch::build plus graph construction and
  // initialization, repeated kSetups times, each between two calibration
  // windows in untraced runs; setup_s is the median of the calibrated times.
  std::vector<double> setup_s, setup_cal_s;
  std::shared_ptr<nm::OnlineNuevoMatch> engine;
  std::unique_ptr<Served> plain;
  for (int k = 0; k < kSetups; ++k) {
    plain.reset();
    engine.reset();
    const double speed0 = cal ? speed_now() : 1.0;
    const uint64_t t0 = now_ns();
    engine = std::make_shared<nm::OnlineNuevoMatch>(engine_config());
    engine->build(in.rules);
    plain = build_served(w, pcap.path.string(), engine, in, false);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    const double speed1 = cal ? speed_now() : 1.0;
    setup_cal_s.push_back(setup_s.back() * (speed0 + speed1) / 2);
  }
  const size_t index_bytes = engine->memory_bytes();
  size_t model_bytes = 0, remainder_bytes = 0;
  double coverage = 0;
  {
    const auto pin = engine->pin();
    for (const auto& is : pin.nm().isets()) model_bytes += is.model_bytes();
    remainder_bytes = pin.nm().remainder().memory_bytes();
    coverage = pin.nm().coverage();
  }

  const double warmup = std::clamp(0.15 * a.seconds, 0.2, 1.0);
  WriterStats ws;
  std::atomic<bool> writer_stop{false};
  std::thread writer;
  const auto stop_writer = [&] {
    writer_stop = true;
    if (writer.joinable()) writer.join();
  };
  std::exception_ptr writer_error;
  const uint64_t gen0 = engine->generations();
  if (w.churn)
    writer = std::thread([&] {
      try {
        run_writer(*engine, churn, writer_stop, ws);
      } catch (...) {
        writer_error = std::current_exception();
      }
    });

  if (w.replicas > 1) confine_to_cpus(w.replicas);

  // The second lane: the traced twin, or the calibration kernel.
  Phase untraced, second;
  const std::unique_ptr<Served> probed =
      traced_run ? build_served(w, pcap.path.string(), engine, in, true) : nullptr;
  try {
    std::vector<Served*> lanes{plain.get()};
    if (probed != nullptr) lanes.push_back(probed.get());
    const Calibration* const c = cal ? &*cal : nullptr;
    const auto enough = [&] { return !w.churn || engine->generations() >= gen0 + kMinSwaps; };
    std::vector<Phase> ph = w.replicas == 1 ? drive_single(lanes, c, warmup, a.seconds, enough)
                                            : drive_replicated(lanes, c, warmup, a.seconds);
    untraced = std::move(ph[0]);
    second = std::move(ph[1]);
  } catch (...) {
    stop_writer();
    throw;
  }
  stop_writer();
  if (writer_error) std::rethrow_exception(writer_error);

  // Engine sub-layers: replay the traced phase's Classifier misses through
  // the staged API while nothing else runs, before any further update.
  StageStats rs;
  size_t churn_rules = 0;
  if (traced_run) {
    std::vector<std::vector<nm::Packet>> bursts;
    for (const auto& m : probed->misses)
      for (auto& b : m->bursts()) bursts.push_back(std::move(b));
    churn_rules = engine->health().churn_rules;
    rs = replay_staged(*engine, bursts);
  }

  Tally tally;
  audit(*plain, tally);
  if (probed != nullptr) audit(*probed, tally);
  tally.attempted += tally.checked + ws.ops;
  tally.failed += tally.mismatches + ws.refused;
  if (w.churn && ws.swaps < kMinSwaps) {
    std::fprintf(stderr, "perfbench: only %llu generation swaps (need >= %llu)\n",
                 static_cast<unsigned long long>(ws.swaps),
                 static_cast<unsigned long long>(kMinSwaps));
    tally.correct = false;
  }

  std::vector<Metric> metrics;
  std::vector<const TraceLog*> logs;
  if (!traced_run) {
    // Each graph window over the mean of the calibration windows around it.
    std::vector<double> ref_mpps;
    const std::vector<Window>& g = untraced.windows;
    const std::vector<Window>& k = second.windows;
    for (size_t i = 0; i < std::min(g.size(), k.size()); ++i) {
      const double around = i == 0 ? k[0].rate : (k[i - 1].rate + k[i].rate) / 2;
      ref_mpps.push_back(ratio(g[i].rate, around / kRefSearchesPerUs));
    }
    metrics = {
        {"throughput_ref_mpps", median(ref_mpps), "Mpps", ref_mpps.size()},
        {"setup_s", median(setup_cal_s), "s", setup_cal_s.size()},
        {"index_bytes", static_cast<double>(index_bytes), "bytes", 1},
    };
  } else {
    for (const auto& l : probed->logs) logs.push_back(l.get());
    tally.attempted += rs.packets;
    tally.failed += rs.mismatches;

    LayerTotals lt[kLayers];
    uint64_t allocs = 0;
    for (size_t l = 0; l < kLayers; ++l) {
      lt[l] = layer_totals(logs, static_cast<Layer>(l));
      allocs += lt[l].self_allocs;
    }
    const double pkts = static_cast<double>(lt[kSource].work);
    const auto per_pkt = [&](Layer l) { return ratio(lt[l].self_ns, static_cast<double>(lt[l].work)); };
    const auto allocs_per_pkt = [&](Layer l) {
      return ratio(static_cast<double>(lt[l].self_allocs), pkts);
    };
    const Phase& traced = second;
    const std::vector<double> bursts = untraced.burst_us();
    const auto& c = traced.cache;
    const double lookups = static_cast<double>(c.lookups());
    double busy = 0, steals = 0, imbalance = 0;
    if (probed->rg != nullptr) {
      busy = ratio(static_cast<double>(traced.sched.worked), static_cast<double>(traced.sched.fires));
      steals = static_cast<double>(traced.sched.steals);
      double mx = 0, sum = 0;
      for (const Dataplane& d : probed->dp) {
        const auto pk = static_cast<double>(d.sink_packets());
        mx = std::max(mx, pk);
        sum += pk;
      }
      imbalance = ratio(mx, sum / static_cast<double>(probed->dp.size()));
    }
    const double keys = static_cast<double>(rs.keys);
    const double replayed = static_cast<double>(rs.packets);
    const uint64_t checked = tally.checked + rs.packets;
    metrics = {
        {"throughput_mpps", untraced.rate(), "Mpps", untraced.windows.size()},
        {"burst_p50_us", nm::percentile(bursts, 50), "us", bursts.size()},
        {"burst_p99_us", nm::percentile(bursts, 99), "us", bursts.size()},
        {"source.ns_per_pkt", per_pkt(kSource), "ns", lt[kSource].spans},
        {"pipeline.allocs_per_pkt", ratio(static_cast<double>(allocs), pkts), "count", lt[kSource].spans},
        {"source.allocs_per_pkt", allocs_per_pkt(kSource), "count", lt[kSource].spans},
        {"cache.allocs_per_pkt", allocs_per_pkt(kCache), "count", lt[kCache].spans},
        {"classifier.allocs_per_pkt", allocs_per_pkt(kClassifier), "count", lt[kClassifier].spans},
        {"dispatch.allocs_per_pkt", allocs_per_pkt(kDispatch), "count", lt[kDispatch].spans},
        {"sink.allocs_per_pkt", allocs_per_pkt(kSink), "count", lt[kSink].spans},
        {"cache.ns_per_pkt", per_pkt(kCache), "ns", lt[kCache].spans},
        {"cache.hit_ratio", ratio(static_cast<double>(c.hits), lookups), "ratio", c.lookups()},
        {"cache.stale_ratio", ratio(static_cast<double>(c.stale), lookups), "ratio", c.lookups()},
        {"cache.retained_ratio", ratio(static_cast<double>(c.retained), static_cast<double>(c.hits)), "ratio", c.hits},
        {"cache.evict_ratio", ratio(static_cast<double>(c.evictions), static_cast<double>(c.inserts)), "ratio", c.inserts},
        {"classifier.ns_per_miss", per_pkt(kClassifier), "ns", lt[kClassifier].work},
        {"dispatch.ns_per_pkt", per_pkt(kDispatch), "ns", lt[kDispatch].spans},
        {"sink.ns_per_pkt", per_pkt(kSink), "ns", lt[kSink].spans},
        {"rqrmi.ns_per_key", ratio(rs.rqrmi_ns, keys), "ns", rs.keys},
        {"search.ns_per_key", ratio(rs.search_ns, keys), "ns", rs.keys},
        {"search.window_mean", ratio(static_cast<double>(rs.window_sum), keys), "slots", rs.keys},
        {"search.distance_mean", ratio(static_cast<double>(rs.distance_sum), static_cast<double>(rs.found)), "slots", rs.found},
        {"validate.ns_per_key", ratio(rs.validate_ns, keys), "ns", rs.keys},
        {"validate.reject_ratio", ratio(static_cast<double>(rs.rejects), static_cast<double>(rs.found)), "ratio", rs.found},
        {"remainder.ns_per_probe", ratio(rs.remainder_ns, replayed), "ns", rs.packets},
        {"remainder.probe_ratio", ratio(static_cast<double>(rs.remainder_probes), replayed), "ratio", rs.packets},
        {"coverage", coverage, "ratio", 1},
        {"delta.ns_per_pkt", ratio(rs.pin_ns - rs.nm_ns, replayed), "ns", rs.packets},
        {"delta.rules", static_cast<double>(churn_rules), "count", 1},
        {"update_p50_us", nm::percentile(ws.update_us, 50), "us", ws.update_us.size()},
        {"update_p99_us", nm::percentile(ws.update_us, 99), "us", ws.update_us.size()},
        {"commit.insert_us", median(ws.insert_us), "us", ws.insert_us.size()},
        {"commit.erase_us", median(ws.erase_us), "us", ws.erase_us.size()},
        {"writer.late_us", ws.late_us.empty() ? 0.0 : nm::mean(ws.late_us), "us", ws.late_us.size()},
        {"journal.depth_max", static_cast<double>(ws.journal_max), "count", ws.update_us.size()},
        {"retrain_s", median(ws.retrain_s), "s", ws.retrain_s.size()},
        {"retrain.swaps", static_cast<double>(ws.swaps), "count", 1},
        {"retrain.reused_isets", static_cast<double>(ws.reused_isets), "count", ws.swaps},
        {"sched.busy_ratio", busy, "ratio", traced.sched.fires},
        {"sched.steals", steals, "count", 1},
        {"rss.imbalance", imbalance, "ratio", probed->dp.size()},
        {"model_bytes", static_cast<double>(model_bytes), "bytes", 1},
        {"remainder_bytes", static_cast<double>(remainder_bytes), "bytes", 1},
        {"tracing.overhead", 1.0 - ratio(traced.rate(), untraced.rate()), "ratio", traced.windows.size()},
        {"mismatch_rate", ratio(static_cast<double>(tally.mismatches + rs.mismatches), static_cast<double>(checked)), "ratio", checked},
        {"update_refused_rate", ratio(static_cast<double>(ws.refused), static_cast<double>(ws.ops)), "ratio", ws.ops},
    };
    write_spans(fs::path(a.out_dir) / ("spans-" + w.name + "-" + std::to_string(a.seed) + ".jsonl"),
                logs);
  }
  if (tally.failed > 0) tally.correct = false;

  std::string detail = "{\"perfbench\": {\"workload\": \"" + w.name + "\", \"trace\": " +
                       std::to_string(a.trace) +
                       ", \"fingerprint\": " + fingerprint_json(a.seed, a.git_sha) +
                       ", \"distinct_flows\": " + std::to_string(in.distinct_flows) +
                       ", \"decisions_checked\": " + std::to_string(tally.checked) +
                       ", \"mismatches\": " + std::to_string(tally.mismatches) +
                       ", \"replayed\": " + std::to_string(rs.packets) +
                       ", \"replay_mismatches\": " + std::to_string(rs.mismatches) +
                       ", \"updates\": " + std::to_string(ws.ops) +
                       ", \"refused\": " + std::to_string(ws.refused) +
                       ", \"swaps\": " + std::to_string(ws.swaps) + ", \"samples\": {";
  for (size_t i = 0; i < metrics.size(); ++i)
    detail += (i ? ", \"" : "\"") + metrics[i].name + "\": " + std::to_string(metrics[i].samples);
  detail += "}, \"window_mpps\": [";
  for (size_t i = 0; i < untraced.windows.size(); ++i)
    detail += (i ? ", " : "") + num(untraced.windows[i].rate);
  detail += "]";
  if (cal) {
    detail += ", \"calibration\": {\"searches_per_us\": " + num(second.rate()) +
              ", \"mpps\": " + num(untraced.rate()) + ", \"windows\": [";
    for (size_t i = 0; i < second.windows.size(); ++i)
      detail += (i ? ", " : "") + num(second.windows[i].rate);
    detail += "], \"setup_s\": [";
    for (size_t i = 0; i < setup_s.size(); ++i) detail += (i ? ", " : "") + num(setup_s[i]);
    detail += "]}";
  }
  if (traced_run) detail += ", \"layers\": " + layers_json(logs);
  detail += "}}";
  std::printf("%s\n", detail.c_str());

  std::string out = std::string("{\"correct\": ") + (tally.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(std::max<uint64_t>(tally.attempted, 1)) +
                    ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  try {
    a = perfbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
