// Online rule-update subsystem (paper §3.9, "Handling rule-set updates"):
// NuevoMatch stays practical under churn by absorbing inserted rules into
// the remainder side and periodically retraining the RQ-RMI index in the
// background. OnlineNuevoMatch packages that deployment loop:
//
//   * insert()/erase() — and their batched forms insert_batch()/
//     erase_batch(), which amortize one writer-lock acquisition and one
//     copy-on-write commit over a controller's whole update burst — route
//     updates into the live generation's update layer and track the
//     absorption ratio;
//   * when the ratio crosses `retrain_threshold`, a background worker
//     retrains a fresh NuevoMatch on a snapshot of the rule-set (reusing
//     trained models for iSets whose rule arrays are unchanged) and
//     atomically swaps it in without stalling match()/match_batch();
//   * updates that arrive while a retrain is running are appended to one
//     journal in the order they are applied and replayed onto the fresh
//     generation just before the swap, so no update is ever lost to the
//     race between snapshot and publication. One atomic applied-op counter
//     (update_ops(), carried by serializer v3 checkpoints) tallies them.
//
// Concurrency model (see DESIGN.md "Update path" for the full rationale).
// The read path is WAIT-FREE between swaps — no lock, no shared_ptr
// refcount, no contended cache line:
//
//   * readers announce themselves in a cache-line-padded epoch slot (the
//     registered-reader array in nuevomatch/epoch.hpp — one CAS on a line
//     private to the thread in steady state), load the current generation
//     with a single acquire load, and classify against it; exit is one
//     release store. Writers NEVER wait for readers and readers never wait
//     for writers — the rwlock reader-preference starvation documented by
//     bench_updates §(d) in PR 3 is gone by construction;
//   * the generation's trained state is immutable between swaps. Updates
//     publish through two reader-safe channels only: (1) iSet deletions
//     flip an ATOMIC tombstone byte in place (monotone 1→0; a concurrent
//     reader sees the rule either alive or dead, both linearizable), and
//     (2) everything else lands in an immutable copy-on-write *layer* —
//     a small delta engine holding churn inserts plus, after a base-
//     remainder deletion, a replacement remainder engine. A commit builds
//     the successor layer, publishes it with one release store, and
//     retires the predecessor through epoch reclamation: it is freed only
//     once every reader epoch has advanced past the commit;
//   * writers serialize on one writer-only mutex (the generation lock, never
//     touched by the data path). A batch commit takes it once, appends its
//     accepted ops to the journal in apply order, and performs ONE
//     copy-on-write publication for the whole burst;
//   * the retrain worker snapshots the logical rule-set under the writer
//     lock (one composition pass), trains with no locks held, then
//     reacquires the writer lock, replays the journal, and publishes the
//     fresh generation the same way — readers migrate at their next epoch
//     enter, and the superseded generation is reclaimed once the last
//     straggler exits.
//
// The certified §3.3 error margins are untouched by all of this: between
// swaps the trained index is immutable (tombstones only mask validation
// results), and a swap installs a freshly certified model — or reuses a
// prior certified (model, array) pair verbatim when the array is unchanged.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "nuevomatch/epoch.hpp"
#include "nuevomatch/nuevomatch.hpp"

namespace nuevomatch {

/// Writer-side behavior when an insert would push the churn delta past its
/// configured cap (OnlineConfig::max_churn_rules).
enum class OverloadPolicy : uint8_t {
  /// Reject the overflowing inserts: insert() returns false, insert_batch()
  /// accepts a prefix; every shed op is counted in health().shed_ops. The
  /// controller sees the refusal immediately and can retry after the next
  /// swap drains the delta.
  kShed,
  /// Block the writer (lock-free readers are unaffected) until a commit
  /// frees capacity — a swap resets the delta, an erase shrinks it — or
  /// `overload_block_timeout_ms`
  /// elapses, after which the remaining ops are shed as above. Under this
  /// policy one insert_batch() may commit in several slices as capacity
  /// frees up, so burst-atomic visibility is NOT guaranteed when the cap
  /// is hit (each slice is still commit-atomic).
  kBlock,
};

struct OnlineConfig {
  /// Configuration of every generation (initial build and each retrain).
  /// base.remainder_factory must build an updatable engine (e.g. TupleMerge
  /// or CutSplit): journal replay at swap time applies updates to the fresh
  /// generation's remainder in place. (Between swaps, updates never touch
  /// the live remainder — they go to the copy-on-write layer — so the
  /// data-path requirement is only on the replay path.)
  NuevoMatchConfig base;

  /// Absorption ratio — rules routed to the update layer since the last
  /// swap over the rules the live index was trained on — at which a
  /// background retrain is triggered. The paper sizes this so the delta
  /// stays small enough to keep the speedup (§5: throughput degrades
  /// roughly linearly in the migrated fraction, Figure 7).
  double retrain_threshold = 0.05;

  /// Trigger retrains automatically from insert(). When false, the caller
  /// schedules retrains itself via retrain_now() (e.g. off-peak).
  bool auto_retrain = true;

  // --- fault tolerance (DESIGN.md "Failure model") -------------------------
  /// Consecutive retrain failures after which the engine enters *degraded*
  /// mode: it keeps serving the old generation + churn delta correctly, but
  /// stops auto-retrying (an explicit retrain_now() still attempts, and a
  /// success clears the flag). Clamped to >= 1.
  int max_retrain_failures = 5;
  /// Exponential-backoff schedule between failed retrain attempts: attempt
  /// k (1-based) retries after jitter(min(backoff_initial_ms << (k-1),
  /// backoff_max_ms)), where jitter picks uniformly from [d/2, d] out of a
  /// fixed-seed stream — deterministic, so fault drills replay exactly.
  uint32_t backoff_initial_ms = 10;
  uint32_t backoff_max_ms = 2000;

  // --- overload control ----------------------------------------------------
  /// Cap on the churn delta (update-layer insert count). 0 = unbounded
  /// (the pre-PR-6 behavior). Erases always pass — they shrink state.
  size_t max_churn_rules = 0;
  /// What a writer does when an insert hits the cap.
  OverloadPolicy overload_policy = OverloadPolicy::kShed;
  /// kBlock only: how long a writer waits for capacity before shedding.
  uint32_t overload_block_timeout_ms = 100;
};

/// One consistent-enough snapshot of the engine's fault/overload state —
/// the operator surface the pipeline's Classifier element and the churn
/// harness consume. Writer-side counters are sampled individually (relaxed
/// atomics plus one short writer-lock hold), so a snapshot taken mid-commit
/// can mix adjacent states; every such field is monotone or self-describing,
/// so that is benign for health reporting. The worker-side fields (degraded,
/// failure counts, retrain_pending, backoff, last_error) are read in one
/// worker-lock hold and always describe the same retrain cycle.
struct EngineHealth {
  /// True after max_retrain_failures consecutive retrain failures (or an
  /// initial-build fallback): serving continues on the old generation +
  /// churn delta, auto-retrain is suppressed, operator action is expected.
  bool degraded = false;
  /// Generations published so far (mirrors generations()).
  uint64_t generation = 0;
  /// Consecutive retrain failures since the last successful swap (resets
  /// to zero on success).
  uint64_t retrain_failures = 0;
  /// All retrain failures over the engine's lifetime (never resets).
  uint64_t retrain_failures_total = 0;
  /// what() of the most recent retrain/build failure; empty after a
  /// successful swap (the satellite fix for the silently-swallowed
  /// exception in retrain_cycle()).
  std::string last_error;
  /// A retrain is requested or currently running.
  bool retrain_pending = false;
  /// A failed retrain is waiting out its backoff delay before retrying.
  bool in_backoff = false;
  /// The delay of the currently scheduled (or most recent) backoff wait.
  uint64_t backoff_ms = 0;
  /// Ops queued in the retrain journal right now (0 when no retrain is in
  /// flight).
  size_t journal_depth = 0;
  /// Rules in the published churn delta right now.
  size_t churn_rules = 0;
  /// Inserts rejected by overload control since construction.
  uint64_t shed_ops = 0;
  /// Absorption ratio (mirrors absorption()).
  double absorption = 0.0;

  /// The one-glance operator verdict.
  [[nodiscard]] bool ok() const noexcept {
    return !degraded && retrain_failures == 0;
  }
};

class OnlineNuevoMatch final : public Classifier {
 private:
  struct Layer;       // immutable copy-on-write update overlay
  struct Generation;  // frozen trained index + published layer pointer

 public:
  explicit OnlineNuevoMatch(OnlineConfig cfg);
  ~OnlineNuevoMatch() override;
  OnlineNuevoMatch(const OnlineNuevoMatch&) = delete;
  OnlineNuevoMatch& operator=(const OnlineNuevoMatch&) = delete;

  /// Synchronous initial train. NOT safe against concurrent updates or
  /// lookups — call once at setup (a pending background retrain is cancelled
  /// and waited out first, so build() can also reset a long-running system).
  void build(std::span<const Rule> rules) override;

  /// Install an already-built classifier as the live generation without
  /// retraining (the serializer's load path). Same caveats as build().
  void adopt(NuevoMatch nm);
  /// Serializer v3 load path: adopt + reinstate the applied-op total
  /// captured at save time (update_ops() resumes from `ops`).
  void adopt(NuevoMatch nm, uint64_t ops);

  // --- data path (wait-free; safe from any number of threads) -------------
  [[nodiscard]] MatchResult match(const Packet& p) const override;
  [[nodiscard]] MatchResult match_with_floor(const Packet& p,
                                             int32_t priority_floor) const override;
  /// Batched lookup; out.size() must equal packets.size(). The whole batch
  /// runs against one pinned view — a swap mid-batch affects only later
  /// batches.
  void match_batch(std::span<const Packet> packets, std::span<MatchResult> out) const;

  /// An epoch-pinned, consistent view of one generation + one update layer.
  /// While a Pin is alive neither can be reclaimed (the pin's epoch slot
  /// blocks the writer's retire protocol) and the layer's contents cannot
  /// change (layers are immutable; commits publish successors the pin does
  /// not observe). Unlike the PR 3 rwlock pin, holding one does NOT stall
  /// writers — it only delays memory reclamation — so pins are cheap to
  /// hold for a batch. Concurrent iSet tombstone flips remain visible
  /// through a pin (they are in-place and atomic); every existing
  /// batch==scalar invariant is preserved because both paths read the same
  /// flags. This is how the parallel engine gets per-batch generation
  /// pinning (DESIGN.md "Update path").
  class Pin {
   public:
    /// The pinned generation's frozen trained index (iSets + base
    /// remainder). NOTE: lookups against nm() alone ignore the update
    /// layer; use match()/match_batch()/remainder_match() for the full
    /// online answer.
    [[nodiscard]] const NuevoMatch& nm() const noexcept { return g_->nm; }
    /// Sequence number of the pinned generation (1 = first publication).
    [[nodiscard]] uint64_t generation() const noexcept { return g_->seq; }

    /// Full online lookup against the pinned view (iSets + remainder +
    /// update layer), identical to OnlineNuevoMatch::match resolved at pin
    /// time.
    [[nodiscard]] MatchResult match(const Packet& p) const;
    /// Batched form; element-for-element identical to match().
    void match_batch(std::span<const Packet> packets,
                     std::span<MatchResult> out) const;
    /// The remainder half only (base or its layer override, merged with the
    /// churn delta, no floor) — the parallel engine's worker core runs this
    /// while the calling core runs nm().match_isets_batch.
    [[nodiscard]] MatchResult remainder_match(const Packet& p) const;

    ~Pin() = default;
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

   private:
    friend class OnlineNuevoMatch;
    // Both protected loads are seq_cst: the epoch protocol's Dekker
    // argument (epoch.hpp) needs them ordered after the slot CAS in the
    // seq_cst total order, so a writer whose slot scan missed this reader
    // is guaranteed the reader observes its publications. (On x86 a
    // seq_cst load is a plain load — only stores/RMWs pay.)
    explicit Pin(const OnlineNuevoMatch& o)
        : guard_(o.epochs_),
          g_(o.gen_pub_.load(std::memory_order_seq_cst)),
          l_(g_->layer.load(std::memory_order_seq_cst)) {}
    epoch::Guard guard_;
    const Generation* g_;
    const Layer* l_;
  };
  [[nodiscard]] Pin pin() const { return Pin{*this}; }

  // --- update path (safe from any number of threads) ----------------------
  [[nodiscard]] bool supports_updates() const override { return true; }
  bool insert(const Rule& r) override;
  bool erase(uint32_t rule_id) override;
  /// Batched writer commits: one writer-lock acquisition and ONE
  /// copy-on-write publication for the whole burst — the
  /// amortization that makes bulk controller pushes cheap. Returns the
  /// number of accepted ops (duplicates / unknown ids are skipped, exactly
  /// like their scalar counterparts). Visibility is batch-atomic for
  /// lookups that pin after the commit.
  size_t insert_batch(std::span<const Rule> rules);
  size_t erase_batch(std::span<const uint32_t> rule_ids);

  // --- retraining ---------------------------------------------------------
  /// Absorption ratio of the live generation (update-layer inserts over the
  /// rules the index was trained on).
  [[nodiscard]] double absorption() const;
  /// True while the background worker is training or swapping.
  [[nodiscard]] bool retrain_in_progress() const;
  /// Number of generations published so far (initial build() counts).
  [[nodiscard]] uint64_t generations() const noexcept {
    return generation_count_.load(std::memory_order_relaxed);
  }
  /// iSet models the last background retrain reused instead of training
  /// (remainder-only churn reuses all of them — the retrain sawtooth
  /// shrinks to the remainder rebuild).
  [[nodiscard]] size_t last_retrain_reused_isets() const noexcept {
    return last_retrain_reused_.load(std::memory_order_relaxed);
  }
  /// Request a background retrain now (idempotent while one is pending).
  /// Breaks through a backoff wait, and is the operator's recovery path out
  /// of degraded mode: a successful forced retrain clears the flag.
  void retrain_now();
  /// Fault/overload snapshot (see EngineHealth). Safe from any thread;
  /// takes the writer and worker locks briefly (never nested), so it is a
  /// control-plane call, not a data-path one.
  [[nodiscard]] EngineHealth health() const;
  /// The configuration this engine was constructed with (immutable after
  /// construction). The pipeline scheduler's retrain maintenance task
  /// reads the absorption threshold through this.
  [[nodiscard]] const OnlineConfig& config() const noexcept { return cfg_; }
  /// Block until no retrain is pending or running. Tests, benchmarks and
  /// serialization use this to reach a stable state.
  void quiesce() const;

  /// Run `fn` against an update-stable composition of the live view:
  /// writers are excluded while fn runs, and the composed classifier folds
  /// the update layer back in (churn inserts in the remainder rule-set,
  /// tombstones re-applied), so the view round-trips through the serializer
  /// exactly. Deliberately does NOT quiesce — under sustained churn a
  /// retrain may always be pending, and a checkpoint must stay bounded.
  /// Serialization entry point.
  void with_stable_view(const std::function<void(const NuevoMatch&)>& fn) const;

  // --- cache coherence ----------------------------------------------------
  /// Priority bands for dependency-aware cache invalidation. The rule
  /// priority range of the live generation is split into kCoherenceBands
  /// equal-width bands (computed at install time); kCoherenceCatchAll is the
  /// extra band that cached MISS decisions live in (a miss can only be
  /// changed by an insert, never by an erase).
  static constexpr int kCoherenceBands = 16;
  static constexpr int kCoherenceCatchAll = kCoherenceBands;  // index 16

  /// Monotone stamp bumped (release) AFTER every completed mutation becomes
  /// reader-visible: each insert/erase commit (copy-on-write layer publish
  /// and/or in-place iSet tombstone flips) and each generation install
  /// (build/adopt/retrain swap). A decision cache in front of this engine
  /// (pipeline::FlowCache) reads the stamp BEFORE classifying a missed
  /// packet and stores it with the cached decision (plus the decision's
  /// priority band); a lookup serves the entry only while no commit that
  /// could have changed decisions in that band has bumped past the stored
  /// stamp — i.e. while coherence_band_mark(band) <= stored stamp.
  ///
  /// Why that is coherent, per band: an acquire read returning stamp S means
  /// every mutation whose release-bump is <= S happened-before the read, so
  /// the classification that follows sees all of them. A commit AFTER the
  /// read bumps the global counter past S and marks the bands it could have
  /// affected with the post-bump value (> S):
  ///   * an INSERT of rule r can only change a cached decision d when r
  ///     beats d, i.e. r.priority < d.priority — so it marks r's band and
  ///     every WORSE band (a suffix), plus the catch-all (a miss can become
  ///     a hit);
  ///   * an ERASE of rule r can only change a cached decision d when d IS r
  ///     (erasing a rule the packet didn't match leaves its best match
  ///     intact) — so it marks exactly r's band, and never the catch-all;
  ///   * a generation INSTALL (build/adopt/retrain swap) marks every band —
  ///     the band map itself may move, so everything older is conservatively
  ///     dead.
  /// A cached decision in band b with stamp S is therefore provably current
  /// whenever coherence_band_mark(b) <= S: every commit that could have
  /// changed it has a mark in band b, and all such marks are <= S, so they
  /// all happened-before the stamp read that preceded the classification.
  /// Commits in other bands may be arbitrarily newer — they provably cannot
  /// change this decision. The only overlap is a lookup racing the mutating
  /// call itself, which is linearized before it — exactly the guarantee a
  /// lock-free lookup racing erase() gives without a cache. (DESIGN.md
  /// "Pipeline" has the full memory-ordering rationale, including why the
  /// band-map republish at install time cannot race a band computation into
  /// a stale serve.)
  [[nodiscard]] uint64_t coherence_stamp() const noexcept {
    return coherence_.load(std::memory_order_acquire);
  }

  /// The band a rule priority falls in under the CURRENT band map
  /// ([lo, lo+width) -> 0, clamped at both ends). Callers caching a MISS
  /// must use kCoherenceCatchAll instead — a miss has no priority.
  [[nodiscard]] int coherence_band(int32_t priority) const noexcept {
    const uint64_t m = band_map_.load(std::memory_order_relaxed);
    const auto width = static_cast<uint32_t>(m);
    if (width == 0) return 0;
    const auto lo = static_cast<int32_t>(static_cast<uint32_t>(m >> 32));
    const int64_t off = static_cast<int64_t>(priority) - lo;
    if (off < 0) return 0;
    const int64_t b = off / width;
    return b >= kCoherenceBands ? kCoherenceBands - 1 : static_cast<int>(b);
  }

  /// Post-bump global counter value of the last commit that could have
  /// changed decisions in `band` (0 <= band <= kCoherenceCatchAll). An entry
  /// (band b, stamp S) is still current iff coherence_band_mark(b) <= S.
  [[nodiscard]] uint64_t coherence_band_mark(int band) const noexcept {
    return band_marks_[static_cast<size_t>(band)].load(std::memory_order_acquire);
  }

  /// Applied updates since the last build()/adopt() (telemetry; serialized
  /// by save_online so churn accounting survives a checkpoint — build() and
  /// plain adopt() reset it to zero, the checkpoint-loading adopt()
  /// reinstates the saved total). Lock-free.
  [[nodiscard]] uint64_t update_ops() const noexcept {
    return update_ops_.load(std::memory_order_relaxed);
  }

  // --- Classifier plumbing ------------------------------------------------
  [[nodiscard]] size_t memory_bytes() const override;
  [[nodiscard]] size_t size() const override {
    return live_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::string name() const override;

 private:
  /// Immutable churn delta: every rule inserted since the last swap, sorted
  /// by (priority, id) — best first, LinearSearch order. Published
  /// copy-on-write per commit: one reserve + one merge pass, O(delta +
  /// burst) with memcpy-class constants, deliberately NOT a pointer-based
  /// engine — a flat array is the only structure whose per-commit copy
  /// stays cheap when a preempted reader parks mid-pin for a whole
  /// scheduler slice (which on a loaded single core is the common case, so
  /// any grace-period-gated in-place scheme degrades to cloning anyway).
  /// Lookups scan with the caller's running best as a floor: a packet
  /// already matched by a better base rule exits at element 0; the
  /// unfloored worst case is O(delta), bounded by retrain_threshold.
  struct ChurnList {
    std::vector<Rule> rules;
    [[nodiscard]] MatchResult match_with_floor(const Packet& p,
                                               int32_t floor) const noexcept {
      for (const Rule& r : rules) {
        if (r.priority >= floor) break;  // sorted: nothing later can beat it
        if (r.matches(p)) return MatchResult{static_cast<int32_t>(r.id), r.priority};
      }
      return MatchResult{};
    }
  };

  /// Immutable update overlay. A commit never mutates the published layer —
  /// it builds a successor from the writer's pending state and publishes it
  /// with one release store; readers hold whichever layer they pinned.
  struct Layer {
    /// Replacement for the generation's base remainder engine after a
    /// base-remainder deletion; null = use the generation's own.
    std::shared_ptr<const Classifier> base_override;
    /// The churn delta since the last swap; null while no churn is pending
    /// (the common fast path skips the whole probe).
    std::shared_ptr<const ChurnList> churn;
  };

  /// One published generation: a frozen trained index plus the current
  /// update layer. nm is never structurally mutated after publication; the
  /// only in-place writes are the iSets' atomic tombstone bytes.
  struct Generation {
    NuevoMatch nm;
    std::atomic<const Layer*> layer{nullptr};
    uint64_t seq = 0;
    explicit Generation(NuevoMatchConfig c) : nm(std::move(c)) {}
    explicit Generation(NuevoMatch m) : nm(std::move(m)) {}
  };

  /// Journal entry for updates concurrent with a retrain.
  struct Op {
    enum class Kind : uint8_t { kInsert, kErase };
    Kind kind;
    Rule rule;    // kInsert payload
    uint32_t id;  // kErase payload
  };

  /// Where a live rule-id currently resides (writer-side routing state).
  enum class Loc : uint8_t { kIset, kBaseRemainder, kChurn };
  /// live_loc_ value: residence + the rule's priority, kept so erase commits
  /// can report WHICH coherence band they invalidate (an erase only changes
  /// answers whose cached decision IS the erased rule — same band).
  struct LiveInfo {
    Loc loc;
    int32_t priority;
  };

  // Writer-side commit machinery; all *_locked functions require wmu_.
  bool insert_locked(const Rule& r, bool& churn_dirty);
  /// `bands` accumulates the coherence-band bitmask this erase invalidates.
  bool erase_locked(uint32_t rule_id, bool& churn_dirty, bool& base_dirty,
                    uint32_t& bands);
  /// Bump the global coherence counter once and mark every band in `bands`
  /// (bit b = band b, bit kCoherenceCatchAll = the miss band) with the
  /// post-bump value. Must run AFTER the commit is reader-visible.
  void bump_coherence(uint32_t bands) noexcept;
  void publish_layer_locked(bool churn_dirty, bool base_dirty);
  void journal_locked(Op op);
  [[nodiscard]] std::shared_ptr<const Classifier> rebuild_base_locked() const;
  [[nodiscard]] std::vector<Rule> compose_rules_locked() const;
  void install_generation_locked(std::shared_ptr<Generation> fresh);

  /// How a retrain cycle ended. kFailed feeds the retry/backoff/degraded
  /// machinery; kCancelled (a concurrent build()/adopt() superseded the
  /// cycle, or pressure subsided) is not a failure.
  enum class CycleOutcome : uint8_t { kSwapped, kFailed, kCancelled };

  void worker_loop();
  [[nodiscard]] CycleOutcome retrain_cycle();
  /// Failure path out of retrain_cycle(): close + clear the journal, record
  /// `what` as the last error. Returns kCancelled instead when a concurrent
  /// install already closed the journal (the cycle was moot, not broken).
  [[nodiscard]] CycleOutcome abandon_cycle(const char* what);
  /// build()/adopt(): cancel pending retrains, install `fresh` as the live
  /// generation and reset the whole update path (journal, layer, counters —
  /// the applied-op counter set to `ops`; failure/backoff state cleared — a
  /// fresh install is a clean slate).
  void publish_fresh(std::shared_ptr<Generation> fresh, uint64_t ops = 0);
  void request_retrain(bool forced);

  /// How many more inserts overload control admits right now (SIZE_MAX when
  /// unbounded). Requires wmu_.
  [[nodiscard]] size_t insert_room_locked() const;
  /// Approximate room check from atomics only — the kBlock wait predicate
  /// (the admitting slice re-checks authoritatively under wmu_).
  [[nodiscard]] bool approx_room() const noexcept;
  /// Wake writers blocked on overload capacity. Call WITHOUT wmu_ held,
  /// after a commit that may have freed capacity (swap, erase).
  void notify_overload() const;

  OnlineConfig cfg_;

  // --- reader-visible publication state -----------------------------------
  /// Registered-reader epoch slots (one padded cache line each) + the
  /// global epoch — the wait-free read path's only shared state.
  mutable epoch::Domain epochs_;
  std::atomic<const Generation*> gen_pub_{nullptr};
  std::atomic<uint64_t> coherence_{1};  // see coherence_stamp()
  /// Per-band last-invalidation marks (see coherence_band_mark()). Index
  /// kCoherenceCatchAll is the miss band; installs mark all of them.
  std::array<std::atomic<uint64_t>, kCoherenceBands + 1> band_marks_{};
  /// Packed band map: (uint32)lo << 32 | (uint32)width, recomputed at each
  /// generation install from the installed rules' priority range and stored
  /// BEFORE the install's release bump — so a stamp read that admits
  /// post-install entries also proves visibility of the new map, and every
  /// pre-install entry is dead regardless of which map stamped its band.
  std::atomic<uint64_t> band_map_{0};
  std::atomic<uint64_t> generation_count_{0};
  std::atomic<size_t> live_count_{0};
  std::atomic<size_t> last_retrain_reused_{0};

  // --- writer state (guarded by wmu_ unless noted) ------------------------
  /// The writer-only generation lock: serializes insert/erase/batch commits,
  /// snapshot composition, journal replay and publication. Lookups never
  /// touch it.
  mutable std::mutex wmu_;
  std::shared_ptr<Generation> gen_owner_;        // owns what gen_pub_ points at
  std::shared_ptr<const Layer> layer_owner_;     // owns what gen->layer points at
  epoch::RetireList retired_;
  std::unordered_map<uint32_t, LiveInfo> live_loc_;  // id → residence+priority
  std::vector<Rule> base_rules_;                 // base-remainder rules at swap
  std::unordered_set<uint32_t> erased_base_;     // base-remainder ids erased since
  std::vector<Rule> pending_inserts_;            // this commit's churn adds
  std::vector<uint32_t> pending_churn_erases_;   // this commit's churn removals
  size_t built_size_ = 0;   // rules the live index was trained on
  size_t migrated_ = 0;     // inserts absorbed since the last swap
  bool journal_open_ = false;
  /// Ops applied while a retrain is in flight, in apply order (appended
  /// under wmu_, so append order IS apply order — replay needs no sort).
  std::vector<Op> journal_;
  /// Applied updates since the last build()/adopt(); written under wmu_,
  /// read lock-free by update_ops() and the serializer.
  std::atomic<uint64_t> update_ops_{0};

  // --- fault/overload telemetry (atomics: health() reads them lock-free) --
  std::atomic<bool> degraded_{false};
  std::atomic<uint64_t> retrain_failures_{0};        // consecutive
  std::atomic<uint64_t> retrain_failures_total_{0};  // lifetime
  std::atomic<uint64_t> shed_ops_{0};
  /// Mirrors journal_.size() (maintained under wmu_, read by health()
  /// without it).
  std::atomic<size_t> journal_depth_{0};
  /// Mirrors the published churn delta's size, same discipline.
  std::atomic<size_t> churn_size_{0};

  /// Overload wait channel (kBlock). Leaf lock: taken with no other lock
  /// held by waiters; notifiers touch it only via notify_overload() after
  /// releasing wmu_.
  mutable std::mutex ov_mu_;
  mutable std::condition_variable ov_cv_;

  /// Worker signalling (guards the flags below plus the backoff schedule
  /// and the last-error string).
  mutable std::mutex wk_mu_;
  mutable std::condition_variable wk_cv_;
  bool retrain_requested_ = false;
  bool retrain_forced_ = false;  // explicit retrain_now(): never skipped
  bool retrain_running_ = false;
  bool stop_ = false;
  /// A failed cycle re-armed itself: the next attempt runs regardless of
  /// absorption (the failed cycle was warranted when triggered) after
  /// waiting out backoff_until_.
  bool retrain_retry_ = false;
  uint64_t backoff_ms_ = 0;
  std::chrono::steady_clock::time_point backoff_until_{};
  Rng backoff_rng_;
  std::string last_error_;
  std::thread worker_;
};

}  // namespace nuevomatch
