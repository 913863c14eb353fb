// Discrete-event simulation engine (the ns-2 stand-in's core).
//
// A pooled, cache-friendly design: event records live in a slab (vector
// slots recycled through a free list), handles are generation-tagged slot
// references giving O(1) cancel with no hash maps, and the ready queue is a
// 4-ary implicit min-heap over compact (time, seq, slot) entries so sifts
// touch one cache line per level and never dereference the slab. Callbacks
// are small-buffer-optimized (`Callback`), so steady-state MAC/PHY/scheduler
// timers allocate nothing.
//
// Ordering guarantee: events fire in (time, as_of, key) order. An ordinary
// schedule has as_of = now and key = its scheduling sequence number, so
// same-time events fire in the order they were scheduled, which makes every
// run fully deterministic and exactly reproduces the pre-pool engine's
// trajectories. `schedule_keyed` lets a caller that replaces a chain of
// events by its last link enter that link where the chain would have put
// it: as_of is the time the chain would have scheduled it, and the key's
// rank (high bits above the sequence number) orders it after every ordinary
// event scheduled at that same as_of. The DCF MAC uses this for its one
// expiry per backoff countdown (DESIGN.md, "Event engine"). Cancellation is
// lazy (the record is disarmed and its handle generation bumped; the heap
// entry is skipped and recycled when it surfaces), but `pending()` is
// exact. Handlers may schedule further events freely, including at the
// current time.
//
// Conservative parallel mode (`enable_parallel`): the wireless channel has
// zero propagation delay, so classic lookahead-based parallel DES
// degenerates — any event may causally affect any neighbor "now". What the
// physics does give us is *spatial* disjointness: an event owned by node v
// can only touch state at v and within v's interference range, all in the
// same timestamp. Callers therefore tag events with an owner node
// (`schedule_at_owned`) and declare a per-owner write footprint
// (`ParallelPlan`, normally {v} ∪ I(v) from the topology's interference
// lists). The drain loop then executes *batches*: the longest prefix, in
// (time, seq) order, of same-timestamp armed events whose footprints are
// pairwise disjoint. Within a batch events commute (disjoint state), so the
// pool may run them in any order; everything they schedule is buffered
// per-batch-position and committed in batch order afterwards, reproducing
// the serial engine's sequence-number assignment exactly (keyed schedules
// included: their sequence number is also taken at commit). Events without an
// owner (`kGlobalOwner`) act as serial barriers: they run alone, inline,
// with the full schedule/cancel API. The result of a run is bit-identical
// to the serial engine for any thread count, and single-threaded callers
// (parallel mode never enabled) execute byte-for-byte the code they always
// did.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace e2efa {

/// Static write-footprint declaration for owner-tagged events. Entry v lists
/// every node whose state an event owned by v may read or write
/// synchronously — for the wireless stack that is {v} ∪ I(v): a transmission
/// from v deposits energy at every interference neighbor and MAC receive
/// callbacks run at those neighbors, inside v's event.
struct ParallelPlan {
  std::vector<std::vector<std::int32_t>> footprint;
};

/// Records declared-footprint violations when installed via
/// `Simulator::set_conflict_audit`. In audit mode batches are still selected
/// by footprint disjointness but executed serially, and every
/// `Simulator::note_touch(v)` from instrumented code (the PHY channel) is
/// checked against the running event's declared footprint. A plan whose
/// footprints are too small — i.e. a lookahead shrunk below the interference
/// bound — shows up here deterministically instead of as a silent race.
class ConflictAudit {
 public:
  struct Violation {
    TimeNs time;
    std::int32_t owner;  ///< Owner of the event that strayed.
    std::int32_t node;   ///< Node it touched outside its footprint.
  };

  const std::vector<Violation>& violations() const { return violations_; }
  bool clean() const { return violations_.empty(); }

 private:
  friend class Simulator;
  std::vector<std::uint32_t> allowed_;  // stamp per node id
  std::uint32_t epoch_ = 0;
  bool active_ = false;  // checking only while an owned batch item runs
  std::int32_t owner_ = -1;
  TimeNs time_ = 0;
  std::vector<Violation> violations_;
};

class Simulator {
 public:
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;
  /// Owner tag for events with no declared footprint. They are serial
  /// barriers in parallel mode: the batch in progress is flushed and the
  /// event runs alone with the whole simulation to itself.
  static constexpr std::int32_t kGlobalOwner = -1;

  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  TimeNs now() const { return now_; }

  /// Schedules `fn` at absolute time t (>= now). Returns a cancellable id.
  /// The callable is constructed directly in the event record (no
  /// intermediate Callback); passing a Callback moves it in as-is.
  template <typename F>
  EventId schedule_at(TimeNs t, F&& fn) {
    return schedule_at_owned(t, kGlobalOwner, std::forward<F>(fn));
  }

  /// Schedules `fn` after `delay` (>= 0) from now.
  template <typename F>
  EventId schedule_in(TimeNs delay, F&& fn) {
    check_delay(delay);
    return schedule_at_owned(now_ + delay, kGlobalOwner, std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute time t, owned by node `owner`: the handler
  /// promises to touch only state inside the ParallelPlan footprint of
  /// `owner`, which lets the parallel drain run it concurrently with
  /// footprint-disjoint events at the same timestamp. With parallel mode
  /// off the tag is carried but ignored; behavior is identical to
  /// `schedule_at`.
  template <typename F>
  EventId schedule_at_owned(TimeNs t, std::int32_t owner, F&& fn) {
    return schedule_impl(t, now_, 0, owner, std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute time t, ordered among same-time events as if
  /// it had been scheduled at `as_of` (now <= as_of <= t) with tie rank
  /// `rank` (1 <= rank < kMaxRank): after every ordinary event scheduled at
  /// as_of, after keyed events of lower rank with the same (t, as_of), and
  /// in scheduling order among equal ranks.
  template <typename F>
  EventId schedule_keyed(TimeNs t, TimeNs as_of, std::uint64_t rank,
                         std::int32_t owner, F&& fn) {
    E2EFA_ASSERT_MSG(as_of >= now_ && as_of <= t, "as_of outside [now, t]");
    E2EFA_ASSERT_MSG(rank >= 1 && rank < kMaxRank, "tie rank out of range");
    return schedule_impl(t, as_of, rank, owner, std::forward<F>(fn));
  }

  /// Exclusive bound on schedule_keyed ranks: the rank occupies the key
  /// bits above the 44-bit sequence number.
  static constexpr std::uint64_t kMaxRank = std::uint64_t{1} << 20;

  /// Schedules `fn` after `delay` (>= 0) from now, owned by `owner`.
  template <typename F>
  EventId schedule_in_owned(TimeNs delay, std::int32_t owner, F&& fn) {
    check_delay(delay);
    return schedule_at_owned(now_ + delay, owner, std::forward<F>(fn));
  }

  /// Cancels a pending event; cancelling an already-fired or invalid id is
  /// a harmless no-op (returns false). O(1): the handle's generation tag
  /// rejects stale ids even after the slot has been recycled.
  bool cancel(EventId id);

  /// Runs events until the queue empties or the next event is after
  /// `t_end`; the clock finishes at min(t_end, last event time). Returns
  /// the number of events processed by this call.
  std::uint64_t run_until(TimeNs t_end);

  /// Runs until the event queue is empty (single drain loop); the clock
  /// finishes at the last *executed* event's time.
  std::uint64_t run();

  /// Total events processed over the simulator's lifetime.
  std::uint64_t events_processed() const { return processed_; }

  /// Pending (non-cancelled) events. Exact even though cancellation is
  /// lazy: disarmed records still occupy heap entries but are not counted.
  std::size_t pending() const { return live_; }

  /// Switches the drain loop to conservative parallel batching with
  /// `threads` total executors (the draining thread counts; threads - 1
  /// workers are spawned). The plan declares each owner's write footprint;
  /// owners must be < plan.footprint.size(). Call before running; the
  /// serial path stays untouched when this is never called.
  void enable_parallel(ParallelPlan plan, int threads);

  /// Joins the worker pool and reverts to the serial drain loop.
  void disable_parallel();

  bool parallel_enabled() const { return parallel_; }

  /// Installs a footprint auditor (see ConflictAudit). Audited batches run
  /// serially, so this is a verification mode, not a fast path. Pass
  /// nullptr to remove. Only meaningful together with enable_parallel.
  void set_conflict_audit(ConflictAudit* audit) { audit_ = audit; }

  /// Instrumentation hook: code executed by events reports the node whose
  /// state it is about to touch. A no-op (single predictable branch) unless
  /// a ConflictAudit is installed.
  void note_touch(std::int32_t node) {
    if (audit_ != nullptr && audit_->active_) audit_touch(node);
  }

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  /// Batches shorter than this run inline on the draining thread — the
  /// dispatch handshake costs more than a couple of cache-resident
  /// callbacks. Inline execution is in batch order with direct (serial)
  /// scheduling, so results are identical either way.
  static constexpr std::size_t kMinDispatchBatch = 4;
  /// Cap on batch length so the claim counter's size field fits 16 bits.
  /// Splitting a maximal batch is always safe: the suffix simply forms the
  /// next batch, and commit order (hence seq assignment) is unchanged.
  static constexpr std::size_t kMaxBatch = 0xffff;

  /// Slab record, exactly one cache line. The callback's inline buffer
  /// makes this the only memory an event needs; `gen` tags handles so
  /// recycled slots reject stale ids. Armed state is the generation's
  /// parity: odd = armed, even = free or retired (no separate flag).
  struct Event {
    Callback fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNilSlot;
  };
  static_assert(sizeof(Callback) == 56);

  static constexpr int kSeqBits = 44;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << kSeqBits;

  /// Compact heap entry (32 bytes): comparisons never touch the slab.
  struct HeapEntry {
    TimeNs time;
    TimeNs as_of;       ///< When the event counts as scheduled (see header).
    std::uint64_t key;  ///< rank << 44 | scheduling sequence number.
    std::uint32_t slot;
    std::int32_t owner;
  };

  /// A selected batch item: the callback is moved out of the slab before
  /// execution so workers never touch event records except through the
  /// locked schedule/cancel paths.
  struct BatchItem {
    Callback fn;
    std::int32_t owner;
  };

  /// Deferred scheduling record from inside a batch; committed in batch
  /// order after the join, which is when the seq number is assigned.
  struct Deferred {
    TimeNs time;
    TimeNs as_of;
    std::uint64_t rank;
    std::uint32_t slot;
    std::int32_t owner;
  };

  struct DeferCtx {
    Simulator* sim;
    std::vector<Deferred>* buf;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.as_of != b.as_of) return a.as_of < b.as_of;
    return a.key < b.key;
  }

  template <typename F>
  EventId schedule_impl(TimeNs t, TimeNs as_of, std::uint64_t rank,
                        std::int32_t owner, F&& fn) {
    static_assert(std::is_invocable_r_v<void, std::decay_t<F>&>,
                  "event handler must be callable as void()");
    if (DeferCtx* ctx = tls_defer_; ctx != nullptr && ctx->sim == this) {
      // Called from inside a parallel batch: take a slot under the slab
      // lock, but defer the (seq, heap) insertion to the ordered commit so
      // sequence numbers come out exactly as in a serial run.
      E2EFA_ASSERT_MSG(t >= now_, "cannot schedule in the past");
      std::uint32_t slot;
      std::uint32_t gen;
      {
        std::lock_guard<std::mutex> lock(slab_mu_);
        slot = acquire_slot();
        gen = ++slab_[slot].gen;  // even -> odd: armed
        ++live_;
        if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
          slab_[slot].fn = std::forward<F>(fn);
        } else {
          slab_[slot].fn.emplace(std::forward<F>(fn));
        }
      }
      ctx->buf->push_back({t, as_of, rank, slot, owner});
      return make_id(slot, gen);
    }
    const std::uint32_t slot = prepare(t, as_of, rank, owner);
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      slab_[slot].fn = std::forward<F>(fn);
    } else {
      slab_[slot].fn.emplace(std::forward<F>(fn));
    }
    return make_id(slot, slab_[slot].gen);
  }

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | (slot + 1);
  }

  std::uint32_t prepare(TimeNs t, TimeNs as_of, std::uint64_t rank,
                        std::int32_t owner);
  /// Tie key: rank above the 44-bit sequence number.
  std::uint64_t take_key(std::uint64_t rank) {
    E2EFA_ASSERT_MSG(next_seq_ < kSeqLimit, "event sequence exhausted");
    return (rank << kSeqBits) | next_seq_++;
  }
  void check_delay(TimeNs delay) const;
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void heap_push(HeapEntry e);
  HeapEntry heap_pop();
  /// Pops entries <= t_end, firing armed ones; shared by run/run_until.
  std::uint64_t drain(TimeNs t_end);
  std::uint64_t drain_parallel(TimeNs t_end);

  // Parallel internals (simulator_parallel section of simulator.cpp).
  bool footprint_free(std::int32_t owner) const;
  void stamp_footprint(std::int32_t owner);
  void execute_batch();
  void exec_item(std::size_t i);
  void commit_deferred();
  void worker_main();
  std::uint16_t run_claims();
  void wait_for_batch(std::uint16_t last_gen);
  void audit_begin(std::int32_t owner);
  void audit_end();
  void audit_touch(std::int32_t node);

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  std::vector<Event> slab_;
  std::vector<HeapEntry> heap_;
  std::uint32_t free_head_ = kNilSlot;

  // --- parallel mode state (untouched unless enable_parallel is called) ---
  bool parallel_ = false;
  ParallelPlan plan_;
  ConflictAudit* audit_ = nullptr;
  std::vector<std::uint32_t> stamp_;  // footprint occupancy, epoch-tagged
  std::uint32_t stamp_epoch_ = 0;
  std::vector<BatchItem> batch_;
  std::vector<std::vector<Deferred>> defer_;  // per batch position
  std::mutex slab_mu_;  // guards slab/free-list/live_ during batch execution

  // Worker-pool handshake. `ctl_` packs [gen:16][size:16][index:32]; a
  // dispatch release-stores a fresh gen and size with index 0, and every
  // executor claims work with a fetch_add(1) whose acquire half makes the
  // batch data visible. Claims at or past `size` mean "no work": the batch
  // is over (or was never this executor's — gen changed), and the worker
  // goes back to waiting. Because a claim reads gen, size, and index in one
  // atomic op, a straggler can never pair a stale index with a fresh size.
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> ctl_{0};
  std::atomic<std::uint32_t> done_{0};
  std::atomic<bool> quit_{false};
  std::uint16_t ctl_gen_ = 0;
  std::uint32_t batch_n_ = 0;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<int> sleepers_{0};

  // Constant-initialized in the header, so other translation units read it
  // directly instead of through a TLS init wrapper (which UBSan's null
  // check misreports).
  static inline thread_local DeferCtx* tls_defer_ = nullptr;
};

}  // namespace e2efa
