// Discrete-event simulation engine (the ns-2 stand-in's core).
//
// A pooled, cache-friendly design: event records live in a slab (vector
// slots recycled through a free list), handles are generation-tagged slot
// references, and the ready queue is a 4-ary implicit min-heap over compact
// (time, as_of, key, slot) entries so sifts touch one cache line per level
// and never dereference the slab. Callbacks are small-buffer-optimized
// (`Callback`), so steady-state MAC/PHY/scheduler timers allocate nothing.
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
// expiry per backoff countdown (DESIGN.md, "Event engine").
//
// Cancellation is eager: a slot -> heap-index array, kept current on every
// sift move, lets `cancel` take its entry out of the heap with one
// O(log n) sift and recycle the slot at once. The heap therefore holds
// exactly `pending()` entries. Handlers may schedule and cancel further
// events freely, including at the current time.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace e2efa {

class Simulator {
 public:
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  TimeNs now() const { return now_; }

  /// Schedules `fn` at absolute time t (>= now). Returns a cancellable id.
  /// The callable is constructed directly in the event record (no
  /// intermediate Callback); passing a Callback moves it in as-is.
  template <typename F>
  EventId schedule_at(TimeNs t, F&& fn) {
    return schedule_impl(t, now_, 0, std::forward<F>(fn));
  }

  /// Schedules `fn` after `delay` (>= 0) from now.
  template <typename F>
  EventId schedule_in(TimeNs delay, F&& fn) {
    check_delay(delay);
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute time t, ordered among same-time events as if
  /// it had been scheduled at `as_of` (now <= as_of <= t) with tie rank
  /// `rank` (1 <= rank < kMaxRank): after every ordinary event scheduled at
  /// as_of, after keyed events of lower rank with the same (t, as_of), and
  /// in scheduling order among equal ranks.
  template <typename F>
  EventId schedule_keyed(TimeNs t, TimeNs as_of, std::uint64_t rank, F&& fn) {
    E2EFA_ASSERT_MSG(as_of >= now_ && as_of <= t, "as_of outside [now, t]");
    E2EFA_ASSERT_MSG(rank >= 1 && rank < kMaxRank, "tie rank out of range");
    return schedule_impl(t, as_of, rank, std::forward<F>(fn));
  }

  /// Exclusive bound on schedule_keyed ranks: the rank occupies the key
  /// bits above the 44-bit sequence number.
  static constexpr std::uint64_t kMaxRank = std::uint64_t{1} << 20;

  /// Cancels a pending event; cancelling an already-fired or invalid id is
  /// a harmless no-op (returns false). O(log n): the entry leaves the heap
  /// now, and the handle's generation tag rejects stale ids even after the
  /// slot has been recycled.
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

  /// Pending (scheduled, not yet fired or cancelled) events.
  std::size_t pending() const { return live_; }

  /// Entries in the ready queue. Always equals pending(): cancellation
  /// removes its entry at once. Exposed so tests can pin that invariant.
  std::size_t heap_size() const { return heap_.size(); }

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

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
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.as_of != b.as_of) return a.as_of < b.as_of;
    return a.key < b.key;
  }

  template <typename F>
  EventId schedule_impl(TimeNs t, TimeNs as_of, std::uint64_t rank, F&& fn) {
    static_assert(std::is_invocable_r_v<void, std::decay_t<F>&>,
                  "event handler must be callable as void()");
    const std::uint32_t slot = prepare(t, as_of, rank);
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

  std::uint32_t prepare(TimeNs t, TimeNs as_of, std::uint64_t rank);
  /// Tie key: rank above the 44-bit sequence number.
  std::uint64_t take_key(std::uint64_t rank) {
    E2EFA_ASSERT_MSG(next_seq_ < kSeqLimit, "event sequence exhausted");
    return (rank << kSeqBits) | next_seq_++;
  }
  void check_delay(TimeNs delay) const;
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Writes `e` at heap position i and records where its slot now lives.
  void place(std::size_t i, const HeapEntry& e) {
    heap_[i] = e;
    heap_index_[e.slot] = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i, HeapEntry e);
  void sift_down(std::size_t i, HeapEntry e);
  /// Removes the entry at heap position i, refilling the hole from the
  /// back with one sift (up or down).
  void heap_remove(std::size_t i);
  /// Pops entries <= t_end and fires them; shared by run/run_until.
  std::uint64_t drain(TimeNs t_end);

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  std::vector<Event> slab_;
  std::vector<HeapEntry> heap_;
  std::vector<std::uint32_t> heap_index_;  ///< Per slot; valid while armed.
  std::uint32_t free_head_ = kNilSlot;
};

}  // namespace e2efa
