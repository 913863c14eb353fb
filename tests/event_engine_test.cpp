// Unit and stress coverage for the pooled event engine: FIFO ordering at
// equal timestamps, generation-tagged handle safety across slot reuse,
// eager cancellation (the heap holds exactly pending() entries), the
// (time, as_of, key) order of keyed schedules, a randomized differential
// against a brute-force reference, and the Callback small-buffer machinery
// (inline vs heap storage, move-only semantics).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "sim/callback.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace e2efa {
namespace {

TEST(EventEngine, FifoAtEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) sim.schedule_at(42, [&order, i] { order.push_back(i); });
  sim.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(sim.now(), 42);
}

TEST(EventEngine, InterleavedScheduleCancelRescheduleSameTime) {
  Simulator sim;
  std::vector<int> order;
  // Schedule ten events at t=10, cancel the odd ones, then schedule five
  // more at the same time: survivors fire in scheduling order 0,2,4,6,8,
  // then 10..14.
  std::vector<Simulator::EventId> ids;
  for (int i = 0; i < 10; ++i)
    ids.push_back(sim.schedule_at(10, [&order, i] { order.push_back(i); }));
  for (int i = 1; i < 10; i += 2) EXPECT_TRUE(sim.cancel(ids[i]));
  for (int i = 10; i < 15; ++i)
    sim.schedule_at(10, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8, 10, 11, 12, 13, 14}));
}

TEST(EventEngine, OrdinaryEventsFireInTimeThenScheduleOrder) {
  // Events aimed at one instant from different scheduling times, and at
  // other instants in between, fire by time and then by scheduling
  // sequence — whatever instant each was scheduled at.
  Simulator sim;
  std::vector<int> order;
  auto log = [&order](int tag) { return [&order, tag] { order.push_back(tag); }; };
  sim.schedule_at(100, log(0));
  sim.schedule_at(50, [&] {
    sim.schedule_at(100, log(2));
    sim.schedule_at(60, log(1));
  });
  sim.schedule_at(90, [&] { sim.schedule_at(100, log(3)); });
  sim.schedule_at(100, [&] {
    order.push_back(4);
    sim.schedule_at(100, log(5));
  });
  sim.schedule_at(150, log(6));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 4, 2, 3, 5, 6}));
}

TEST(EventEngine, KeyedEntriesSortByAsOfThenRankThenSequence) {
  // At T = 100 with as_of = 80: ordinary events scheduled before 80 come
  // first, then ordinary ones scheduled at 80, then keyed entries by rank
  // (scheduling order within a rank), then everything scheduled after 80.
  Simulator sim;
  std::vector<std::string> order;
  auto log = [&order](std::string tag) {
    return [&order, tag] { order.push_back(tag); };
  };
  sim.schedule_keyed(100, 80, 3, log("k3"));
  sim.schedule_keyed(100, 80, 1, log("k1a"));
  sim.schedule_at(100, log("early"));
  sim.schedule_at(80, [&] {
    sim.schedule_at(100, log("at80"));
    sim.schedule_keyed(100, 80, 1, log("k1b"));
  });
  sim.schedule_at(90, [&] { sim.schedule_at(100, log("at90")); });
  sim.schedule_keyed(100, 90, 1, log("k1@90"));
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"early", "at80", "k1a", "k1b",
                                             "k3", "at90", "k1@90"}));
}

TEST(EventEngine, KeyedScheduleRejectsBadOrderKeys) {
  Simulator sim;
  sim.run_until(10);
  EXPECT_THROW(sim.schedule_keyed(20, 5, 1, [] {}),
               ContractViolation);  // as_of before now
  EXPECT_THROW(sim.schedule_keyed(20, 25, 1, [] {}),
               ContractViolation);  // as_of after the fire time
  EXPECT_THROW(sim.schedule_keyed(20, 15, 0, [] {}),
               ContractViolation);  // rank 0 is the ordinary schedule
  EXPECT_THROW(sim.schedule_keyed(20, 15, Simulator::kMaxRank, [] {}),
               ContractViolation);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EventEngine, CancelSemantics) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_at(5, [&fired] { fired = true; });
  EXPECT_FALSE(sim.cancel(Simulator::kInvalidEvent));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double-cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);

  const auto id2 = sim.schedule_at(sim.now() + 1, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id2));  // already fired
}

TEST(EventEngine, StaleHandleDoesNotCancelRecycledSlot) {
  Simulator sim;
  // Cancellation recycles the slot at once, so the very next schedule
  // reuses it under a new generation.
  const auto stale = sim.schedule_at(1, [] {});
  EXPECT_TRUE(sim.cancel(stale));
  EXPECT_EQ(sim.heap_size(), 0u);

  bool fired = false;
  const auto fresh = sim.schedule_at(3, [&fired] { fired = true; });
  EXPECT_NE(stale, fresh);
  EXPECT_FALSE(sim.cancel(stale));  // stale generation must not match
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(EventEngine, HandleReuseAcrossManyGenerations) {
  Simulator sim;
  // Repeatedly schedule+cancel; with a single slot cycling through
  // generations, every stale id must stay dead.
  std::vector<Simulator::EventId> history;
  for (int i = 0; i < 50; ++i) {
    const auto id = sim.schedule_at(sim.now() + 1, [] {});
    for (const auto old : history) EXPECT_FALSE(sim.cancel(old));
    EXPECT_TRUE(sim.cancel(id));
    history.push_back(id);
    sim.run_until(sim.now() + 1);
  }
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_processed(), 0u);
}

// (Named for the lazy engine it predates; cancellation is eager now, so
// the heap itself shrinks with pending().)
TEST(EventEngine, PendingIsExactUnderLazyCancellation) {
  Simulator sim;
  std::vector<Simulator::EventId> ids;
  for (int i = 0; i < 20; ++i) ids.push_back(sim.schedule_at(100 + i, [] {}));
  EXPECT_EQ(sim.pending(), 20u);
  for (int i = 0; i < 20; i += 2) sim.cancel(ids[i]);
  EXPECT_EQ(sim.pending(), 10u);
  EXPECT_EQ(sim.heap_size(), 10u);
  sim.run_until(104);
  EXPECT_EQ(sim.pending(), 8u);  // 101 and 103 fired
  EXPECT_EQ(sim.heap_size(), 8u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_processed(), 10u);
}

TEST(EventEngine, CallbacksMayScheduleAtCurrentTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] {
    order.push_back(0);
    sim.schedule_at(5, [&] { order.push_back(2); });
    sim.schedule_at(sim.now(), [&] { order.push_back(3); });
  });
  sim.schedule_at(5, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now(), 5);
}

TEST(EventEngine, RunUntilAdvancesClockRunStopsAtLastEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&fired] { ++fired; });
  EXPECT_EQ(sim.run_until(3), 0u);
  EXPECT_EQ(sim.now(), 3);
  EXPECT_EQ(sim.run_until(100), 1u);
  EXPECT_EQ(sim.now(), 100);

  sim.schedule_at(150, [&fired] { ++fired; });
  sim.schedule_at(120, [&fired] { ++fired; });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(sim.now(), 150);  // run() ends at the last executed event
  EXPECT_EQ(fired, 3);
}

TEST(EventEngine, SchedulingInThePastIsRejected) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), ContractViolation);
  EXPECT_THROW(sim.schedule_in(-1, [] {}), ContractViolation);
}

// Deterministic stress: a pseudo-random interleaving of schedules, cancels
// and reschedules (many at equal timestamps) checked against engine
// invariants — non-decreasing firing time, FIFO among same-time events,
// exact bookkeeping of fired vs cancelled.
TEST(EventEngine, StressInterleavedScheduleCancelReschedule) {
  Simulator sim;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  struct Live {
    Simulator::EventId id;
    std::uint64_t seq;
  };
  std::vector<Live> live;
  std::uint64_t seq = 0, scheduled = 0, cancelled = 0, fired = 0;
  TimeNs last_time = 0;
  std::uint64_t last_seq = 0;

  // Fired events check global (time, seq) order; same-time events must
  // come out FIFO.
  auto on_fire = [&](TimeNs t, std::uint64_t s) {
    EXPECT_GE(t, last_time);
    if (t == last_time) {
      EXPECT_GT(s, last_seq);
    }
    last_time = t;
    last_seq = s;
    ++fired;
  };

  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t r = next();
    const int op = static_cast<int>(r % 100);
    if (op < 55 || live.empty()) {
      // Schedule at now + one of only 8 distinct offsets, forcing heavy
      // same-time pileups.
      const TimeNs t = sim.now() + static_cast<TimeNs>((r >> 8) % 8);
      const std::uint64_t s = seq++;
      const auto id = sim.schedule_at(t, [&, t, s] { on_fire(t, s); });
      live.push_back({id, s});
      ++scheduled;
    } else if (op < 80) {
      const std::size_t i = static_cast<std::size_t>((r >> 8) % live.size());
      if (sim.cancel(live[i].id)) ++cancelled;
      live[i] = live.back();
      live.pop_back();
    } else {
      // Drain a little, letting events fire and slots recycle.
      sim.run_until(sim.now() + static_cast<TimeNs>((r >> 8) % 4));
      live.clear();  // ids may have fired; drop tracking (cancels above
                     // tolerate stale ids by checking cancel()'s result)
    }
    ASSERT_EQ(sim.pending(), scheduled - cancelled - fired);
    ASSERT_EQ(sim.heap_size(), sim.pending());
  }
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(fired, scheduled - cancelled);
}

// ---- Eager cancellation ----

// Events scheduled in non-decreasing time order never sift, so entry i sits
// at heap position i. These times make a valid 4-ary heap in which the back
// entry (position 9, time 5, under position 2) is smaller than position 1:
// removing position 5 must sift the back entry *up* into position 1.
constexpr TimeNs kHeapShape[] = {1, 50, 4, 60, 70, 100, 101, 102, 103, 5};

std::vector<TimeNs> fire_times_after_cancel(std::vector<int> victims) {
  Simulator sim;
  std::vector<TimeNs> fired;
  std::vector<Simulator::EventId> ids;
  for (const TimeNs t : kHeapShape)
    ids.push_back(sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); }));
  for (const int v : victims) {
    EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>(v)])) << v;
    EXPECT_EQ(sim.heap_size(), sim.pending());
  }
  sim.run();
  return fired;
}

TEST(EventEngine, CancelRefillsTheHoleWithOneSiftUpOrDown) {
  // Middle entry whose replacement must move up past its new parent.
  EXPECT_EQ(fire_times_after_cancel({5}),
            (std::vector<TimeNs>{1, 4, 5, 50, 60, 70, 101, 102, 103}));
  // With time 5 gone the back entry is 103: removing position 1 must sift
  // it down below 100.
  EXPECT_EQ(fire_times_after_cancel({9, 1}),
            (std::vector<TimeNs>{1, 4, 60, 70, 100, 101, 102, 103}));
  // The top, the last entry, and all three in a row.
  EXPECT_EQ(fire_times_after_cancel({0}),
            (std::vector<TimeNs>{4, 5, 50, 60, 70, 100, 101, 102, 103}));
  EXPECT_EQ(fire_times_after_cancel({9}),
            (std::vector<TimeNs>{1, 4, 50, 60, 70, 100, 101, 102, 103}));
  EXPECT_EQ(fire_times_after_cancel({0, 9, 5}),
            (std::vector<TimeNs>{4, 50, 60, 70, 101, 102, 103}));
}

TEST(EventEngine, CancelsFromInsideHandlers) {
  Simulator sim;
  std::vector<int> order;
  Simulator::EventId self = Simulator::kInvalidEvent;
  Simulator::EventId same_time = Simulator::kInvalidEvent;
  Simulator::EventId later = Simulator::kInvalidEvent;
  self = sim.schedule_at(10, [&] {
    order.push_back(0);
    EXPECT_FALSE(sim.cancel(self));  // a firing event is already retired
    EXPECT_TRUE(sim.cancel(same_time));
    EXPECT_TRUE(sim.cancel(later));
    EXPECT_FALSE(sim.cancel(later));
    EXPECT_EQ(sim.heap_size(), sim.pending());
    // The freed slots are reused at once; the new events still fire in
    // (time, scheduling order).
    sim.schedule_at(10, [&] { order.push_back(3); });
    sim.schedule_at(20, [&] { order.push_back(4); });
  });
  same_time = sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(10, [&] { order.push_back(2); });
  later = sim.schedule_at(20, [&] { order.push_back(5); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 4}));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.heap_size(), 0u);
}

TEST(EventEngine, DoubleCancelAndStaleIdsAfterSlotReuse) {
  Simulator sim;
  const auto a = sim.schedule_at(5, [] {});
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_FALSE(sim.cancel(a));
  bool b_fired = false;
  const auto b = sim.schedule_at(5, [&b_fired] { b_fired = true; });
  EXPECT_EQ(a & 0xffffffffu, b & 0xffffffffu);  // same slot, reused at once
  EXPECT_NE(a, b);
  EXPECT_FALSE(sim.cancel(a));  // a's handle must not reach b
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.heap_size(), 1u);
  sim.run();
  EXPECT_TRUE(b_fired);
  EXPECT_FALSE(sim.cancel(b));  // fired
  const auto c = sim.schedule_at(6, [] {});
  EXPECT_FALSE(sim.cancel(b));  // fired, and its slot now holds c
  EXPECT_TRUE(sim.cancel(c));
  EXPECT_EQ(sim.heap_size(), 0u);
}

// Randomized differential: the engine against a brute-force reference that
// keeps every scheduled event in a plain list and fires the least live one
// by (time, as_of, rank, scheduling order). Operations come from one seeded
// stream at top level and from inside handlers: ordinary and keyed
// schedules with heavy same-time ties and some far-out times, cancels of the next event to fire,
// of the newest event and of random (often fired, cancelled or recycled)
// handles, and partial drains. Every firing must be the reference's
// minimum, every cancel must return whether the event was live, and the
// heap must hold exactly pending() entries after every operation.
class EngineDifferential {
 public:
  explicit EngineDifferential(std::uint64_t seed) : rng_(seed) {}

  void run(int steps) {
    for (int i = 0; i < steps && !failed_; ++i) {
      const std::uint64_t op = rng_.uniform_u64(10);
      if (op < 7) {
        random_op();
      } else {
        sim_.run_until(sim_.now() + static_cast<TimeNs>(rng_.uniform_u64(4)));
        check_sizes();
      }
    }
    sim_.run();
    check_sizes();
    for (const Ref& r : ref_) EXPECT_FALSE(r.live) << "never fired: " << r.order;
    EXPECT_GT(fired_, 0);
    EXPECT_GT(cancelled_, 0);
  }

 private:
  struct Ref {
    TimeNs time;
    TimeNs as_of;
    std::uint64_t rank;
    std::uint64_t order;
    bool live;
    auto sort_key() const { return std::tie(time, as_of, rank, order); }
  };

  void random_op() {
    const std::uint64_t op = rng_.uniform_u64(10);
    if (op < 6 || live_ == 0) {
      schedule();
    } else {
      cancel(op);
    }
    check_sizes();
  }

  void schedule() {
    const TimeNs now = sim_.now();
    // Mostly near-term (heavy ties), sometimes far out (a deeper heap).
    const TimeNs t = now + static_cast<TimeNs>(
                               rng_.uniform_u64(rng_.uniform_u64(4) == 0 ? 64 : 8));
    const std::size_t tag = ref_.size();
    auto fire = [this, tag] { on_fire(tag); };
    if (rng_.uniform_u64(3) == 0) {
      const TimeNs as_of = now + static_cast<TimeNs>(rng_.uniform_u64(
                                     static_cast<std::uint64_t>(t - now) + 1));
      const std::uint64_t rank = 1 + rng_.uniform_u64(3);
      ref_.push_back({t, as_of, rank, tag, true});
      ids_.push_back(sim_.schedule_keyed(t, as_of, rank, fire));
    } else {
      ref_.push_back({t, now, 0, tag, true});
      ids_.push_back(sim_.schedule_at(t, fire));
    }
    ++live_;
  }

  void cancel(std::uint64_t op) {
    std::size_t victim;
    if (op == 6) {
      victim = next_to_fire();  // the heap's top
    } else if (op == 7) {
      victim = ref_.size() - 1;  // the newest entry, often the heap's last
    } else {
      victim = static_cast<std::size_t>(rng_.uniform_u64(ref_.size()));
    }
    const bool expected = ref_[victim].live;
    const bool got = sim_.cancel(ids_[victim]);
    if (got != expected) {
      ADD_FAILURE() << "cancel of event " << victim << " returned " << got;
      failed_ = true;
    }
    if (expected) {
      ref_[victim].live = false;
      --live_;
      ++cancelled_;
    }
  }

  std::size_t next_to_fire() const {
    std::size_t best = ref_.size();
    for (std::size_t i = 0; i < ref_.size(); ++i)
      if (ref_[i].live && (best == ref_.size() || ref_[i].sort_key() < ref_[best].sort_key()))
        best = i;
    return best;
  }

  void on_fire(std::size_t tag) {
    if (failed_) return;
    const std::size_t want = next_to_fire();
    if (tag != want || sim_.now() != ref_[tag].time) {
      ADD_FAILURE() << "fired event " << tag << " at " << sim_.now()
                    << ", reference expected " << want;
      failed_ = true;
      return;
    }
    ref_[tag].live = false;
    --live_;
    ++fired_;
    check_sizes();
    if (sim_.cancel(ids_[tag])) {
      ADD_FAILURE() << "a firing event was still cancellable";
      failed_ = true;
    }
    for (std::uint64_t k = rng_.uniform_u64(3); k > 0; --k) random_op();
  }

  void check_sizes() {
    if (sim_.pending() != live_ || sim_.heap_size() != live_) {
      ADD_FAILURE() << "pending " << sim_.pending() << ", heap "
                    << sim_.heap_size() << ", reference " << live_;
      failed_ = true;
    }
  }

  Simulator sim_;
  Rng rng_;
  std::vector<Ref> ref_;
  std::vector<Simulator::EventId> ids_;
  std::size_t live_ = 0;
  int fired_ = 0;
  int cancelled_ = 0;
  bool failed_ = false;
};

TEST(EventEngine, DifferentialAgainstBruteForceReference) {
  for (std::uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
    SCOPED_TRACE(seed);
    EngineDifferential(seed).run(3000);
  }
}

// ---- Callback (SBO) unit coverage ----

TEST(CallbackSbo, InlineAndHeapStorageBothInvoke) {
  int hits = 0;
  Callback small([&hits] { ++hits; });  // 8 bytes: inline
  small();
  EXPECT_EQ(hits, 1);

  struct Big {
    int* hits;
    char pad[120];  // > kInlineCapacity: heap fallback
    void operator()() const { ++*hits; }
  };
  Callback big(Big{&hits, {}});
  big();
  EXPECT_EQ(hits, 2);
}

TEST(CallbackSbo, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  Callback a([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  Callback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(*counter, 1);
  b.reset();
  EXPECT_EQ(counter.use_count(), 1);  // capture destroyed exactly once
}

TEST(CallbackSbo, MoveOnlyCapturesWork) {
  auto value = std::make_unique<int>(41);
  Callback cb([v = std::move(value)] { ++*v; });
  Callback moved(std::move(cb));
  moved();
  EXPECT_TRUE(static_cast<bool>(moved));
}

TEST(CallbackSbo, SchedulingACallbackObjectWorks) {
  // The engine accepts a pre-built Callback (moved in as-is, not wrapped).
  Simulator sim;
  int hits = 0;
  Callback cb([&hits] { ++hits; });
  sim.schedule_at(1, std::move(cb));
  sim.run();
  EXPECT_EQ(hits, 1);
}

TEST(CallbackSbo, LargeCapturesSurviveSlotRecycling) {
  // Heap-fallback callbacks must stay valid while the slab slot cycles.
  Simulator sim;
  std::string out;
  struct Big {
    std::string text;
    std::string* out;
    char pad[64];
    void operator()() const { *out += text; }
  };
  sim.schedule_at(1, Big{"a", &out, {}});
  sim.schedule_at(1, Big{"b", &out, {}});
  const auto dead = sim.schedule_at(2, Big{"X", &out, {}});
  sim.cancel(dead);
  sim.schedule_at(3, Big{"c", &out, {}});
  sim.run();
  EXPECT_EQ(out, "abc");
}

}  // namespace
}  // namespace e2efa
