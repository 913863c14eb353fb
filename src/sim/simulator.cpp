#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace e2efa {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

Simulator::~Simulator() { disable_parallel(); }

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slab_[slot].next_free;
    slab_[slot].next_free = kNilSlot;
    return slot;
  }
  E2EFA_ASSERT_MSG(slab_.size() < kNilSlot, "event slab exhausted");
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  slab_[slot].next_free = free_head_;
  free_head_ = slot;
}

void Simulator::heap_push(HeapEntry e) {
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t p = (i - 1) >> 2;
    if (!earlier(e, heap_[p])) break;
    heap_[i] = heap_[p];
    i = p;
  }
  heap_[i] = e;
}

Simulator::HeapEntry Simulator::heap_pop() {
  const HeapEntry top = heap_.front();
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t c = 4 * i + 1;
      if (c >= n) break;
      std::size_t m = c;
      const std::size_t end = std::min(c + 4, n);
      for (std::size_t k = c + 1; k < end; ++k)
        if (earlier(heap_[k], heap_[m])) m = k;
      if (!earlier(heap_[m], last)) break;
      heap_[i] = heap_[m];
      i = m;
    }
    heap_[i] = last;
  }
  return top;
}

std::uint32_t Simulator::prepare(TimeNs t, TimeNs as_of, std::uint64_t rank,
                                 std::int32_t owner) {
  E2EFA_ASSERT_MSG(t >= now_, "cannot schedule in the past");
  const std::uint32_t slot = acquire_slot();
  ++slab_[slot].gen;  // even -> odd: armed
  heap_push({t, as_of, take_key(rank), slot, owner});
  ++live_;
  return slot;
}

void Simulator::check_delay(TimeNs delay) const {
  E2EFA_ASSERT_MSG(delay >= 0, "negative delay");
}

bool Simulator::cancel(EventId id) {
  if (id == kInvalidEvent) return false;
  // During a parallel batch, workers may cancel concurrently with slot
  // acquisition in schedule_at_owned; the slab lock covers both. Outside
  // batches the lock is uncontended.
  if (parallel_) {
    std::lock_guard<std::mutex> lock(slab_mu_);
    const std::uint64_t slot64 = (id & 0xffffffffu) - 1;
    if (slot64 >= slab_.size()) return false;
    Event& ev = slab_[static_cast<std::uint32_t>(slot64)];
    if ((ev.gen & 1u) == 0 || ev.gen != static_cast<std::uint32_t>(id >> 32))
      return false;
    ++ev.gen;
    ev.fn.reset();
    --live_;
    return true;
  }
  const std::uint64_t slot64 = (id & 0xffffffffu) - 1;
  if (slot64 >= slab_.size()) return false;
  Event& ev = slab_[static_cast<std::uint32_t>(slot64)];
  if ((ev.gen & 1u) == 0 || ev.gen != static_cast<std::uint32_t>(id >> 32))
    return false;
  // Lazy cancel: disarm and release the closure now (O(1)); the heap entry
  // is skipped and the slot recycled when it reaches the top.
  ++ev.gen;  // odd -> even: retired; stale handles now mismatch
  ev.fn.reset();
  --live_;
  return true;
}

std::uint64_t Simulator::drain(TimeNs t_end) {
  std::uint64_t count = 0;
  while (!heap_.empty() && heap_.front().time <= t_end) {
    __builtin_prefetch(&slab_[heap_.front().slot]);
    const HeapEntry e = heap_pop();
    Event& ev = slab_[e.slot];
    if ((ev.gen & 1u) == 0) {  // lazily cancelled; recycle and move on
      release_slot(e.slot);
      continue;
    }
    ++ev.gen;  // odd -> even: retire the handle before callbacks reuse it
    release_slot(e.slot);
    --live_;
    now_ = e.time;
    ev.fn.consume_invoke();
    ++count;
    ++processed_;
  }
  return count;
}

std::uint64_t Simulator::run_until(TimeNs t_end) {
  const std::uint64_t count = parallel_ ? drain_parallel(t_end) : drain(t_end);
  now_ = std::max(now_, t_end);
  return count;
}

std::uint64_t Simulator::run() {
  const TimeNs t_end = std::numeric_limits<TimeNs>::max();
  return parallel_ ? drain_parallel(t_end) : drain(t_end);
}

// --------------------------------------------------------------------------
// Parallel mode.
// --------------------------------------------------------------------------

void Simulator::enable_parallel(ParallelPlan plan, int threads) {
  disable_parallel();
  plan_ = std::move(plan);
  stamp_.assign(plan_.footprint.size(), 0);
  stamp_epoch_ = 0;
  parallel_ = true;
  const int executors = std::max(1, threads);
  quit_.store(false, std::memory_order_relaxed);
  workers_.reserve(static_cast<std::size_t>(executors - 1));
  for (int i = 1; i < executors; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

void Simulator::disable_parallel() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lk(wake_mu_);
      quit_.store(true, std::memory_order_release);
    }
    wake_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
    workers_.clear();
  }
  parallel_ = false;
  audit_ = nullptr;
}

bool Simulator::footprint_free(std::int32_t owner) const {
  for (const std::int32_t v : plan_.footprint[static_cast<std::size_t>(owner)])
    if (stamp_[static_cast<std::size_t>(v)] == stamp_epoch_) return false;
  return true;
}

void Simulator::stamp_footprint(std::int32_t owner) {
  for (const std::int32_t v : plan_.footprint[static_cast<std::size_t>(owner)])
    stamp_[static_cast<std::size_t>(v)] = stamp_epoch_;
}

std::uint64_t Simulator::drain_parallel(TimeNs t_end) {
  std::uint64_t count = 0;
  while (!heap_.empty() && heap_.front().time <= t_end) {
    const TimeNs t = heap_.front().time;
    now_ = t;
    // Select a batch: the longest prefix of armed same-time events, in seq
    // order, whose declared footprints are pairwise disjoint. No event is
    // ever skipped over — selection stops at the first conflict, so the
    // batch is exactly a prefix of the serial firing order at time t.
    batch_.clear();
    ++stamp_epoch_;
    if (stamp_epoch_ == 0) {  // epoch wrapped: flush stale stamps
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      stamp_epoch_ = 1;
    }
    while (!heap_.empty() && heap_.front().time == t &&
           batch_.size() < kMaxBatch) {
      const HeapEntry e = heap_.front();
      Event& ev = slab_[e.slot];
      if ((ev.gen & 1u) == 0) {  // lazily cancelled
        heap_pop();
        release_slot(e.slot);
        continue;
      }
      if (e.owner < 0) {
        if (!batch_.empty()) break;  // flush the batch; barrier runs next
        // Global-owner event: serial barrier, run inline right here with
        // direct scheduling (no workers are active).
        heap_pop();
        ++ev.gen;
        release_slot(e.slot);
        --live_;
        ev.fn.consume_invoke();
        ++count;
        ++processed_;
        continue;
      }
      E2EFA_ASSERT_MSG(
          static_cast<std::size_t>(e.owner) < plan_.footprint.size(),
          "event owner outside the parallel plan");
      if (!footprint_free(e.owner)) break;  // conflicts with the batch
      stamp_footprint(e.owner);
      heap_pop();
      ++ev.gen;
      release_slot(e.slot);
      --live_;
      batch_.push_back({std::move(ev.fn), e.owner});
    }
    if (batch_.empty()) continue;
    execute_batch();
    count += batch_.size();
    processed_ += batch_.size();
  }
  return count;
}

void Simulator::execute_batch() {
  const std::size_t n = batch_.size();
  if (audit_ != nullptr || workers_.empty() || n < kMinDispatchBatch) {
    // Inline, in batch order, with direct scheduling — serially equivalent
    // by construction. Audit mode additionally checks every note_touch
    // against the running event's declared footprint.
    for (std::size_t i = 0; i < n; ++i) {
      if (audit_ != nullptr) audit_begin(batch_[i].owner);
      batch_[i].fn.consume_invoke();
      if (audit_ != nullptr) audit_end();
    }
    return;
  }
  if (defer_.size() < n) defer_.resize(n);
  done_.store(0, std::memory_order_relaxed);
  batch_n_ = static_cast<std::uint32_t>(n);
  ctl_gen_ = static_cast<std::uint16_t>(ctl_gen_ + 1);
  ctl_.store((static_cast<std::uint64_t>(ctl_gen_) << 48) |
                 (static_cast<std::uint64_t>(n) << 32),
             std::memory_order_release);
  if (sleepers_.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> lk(wake_mu_);
    wake_cv_.notify_all();
  }
  run_claims();  // the draining thread is executor 0
  while (done_.load(std::memory_order_acquire) != batch_n_) cpu_relax();
  commit_deferred();
}

void Simulator::exec_item(std::size_t i) {
  DeferCtx ctx{this, &defer_[i]};
  DeferCtx* const prev = tls_defer_;
  tls_defer_ = &ctx;
  batch_[i].fn.consume_invoke();
  tls_defer_ = prev;
}

void Simulator::commit_deferred() {
  // Walk batch positions in order, assigning sequence numbers exactly as a
  // serial run would have: everything item 0 scheduled, then everything
  // item 1 scheduled, and so on. Entries cancelled between defer and commit
  // are pushed anyway — serial lazy-cancel semantics — and get recycled
  // when they surface with an even generation.
  for (std::uint32_t i = 0; i < batch_n_; ++i) {
    for (const Deferred& d : defer_[i])
      heap_push({d.time, d.as_of, take_key(d.rank), d.slot, d.owner});
    defer_[i].clear();
  }
}

std::uint16_t Simulator::run_claims() {
  for (;;) {
    const std::uint64_t c = ctl_.fetch_add(1, std::memory_order_acq_rel);
    const std::uint32_t i = static_cast<std::uint32_t>(c);
    const std::uint32_t size = static_cast<std::uint32_t>(c >> 32) & 0xffffu;
    if (i >= size) return static_cast<std::uint16_t>(c >> 48);
    exec_item(i);
    done_.fetch_add(1, std::memory_order_release);
  }
}

void Simulator::wait_for_batch(std::uint16_t last_gen) {
  for (int spins = 0; spins < 4096; ++spins) {
    const std::uint64_t c = ctl_.load(std::memory_order_acquire);
    if (static_cast<std::uint16_t>(c >> 48) != last_gen ||
        quit_.load(std::memory_order_acquire))
      return;
    cpu_relax();
  }
  std::unique_lock<std::mutex> lk(wake_mu_);
  ++sleepers_;
  wake_cv_.wait(lk, [&] {
    return static_cast<std::uint16_t>(ctl_.load(std::memory_order_acquire) >>
                                      48) != last_gen ||
           quit_.load(std::memory_order_acquire);
  });
  --sleepers_;
}

void Simulator::worker_main() {
  std::uint16_t last_gen = 0;
  for (;;) {
    wait_for_batch(last_gen);
    if (quit_.load(std::memory_order_acquire)) return;
    last_gen = run_claims();
  }
}

void Simulator::audit_begin(std::int32_t owner) {
  ConflictAudit& a = *audit_;
  if (a.allowed_.size() < stamp_.size()) a.allowed_.resize(stamp_.size(), 0);
  ++a.epoch_;
  if (a.epoch_ == 0) {
    std::fill(a.allowed_.begin(), a.allowed_.end(), 0u);
    a.epoch_ = 1;
  }
  for (const std::int32_t v : plan_.footprint[static_cast<std::size_t>(owner)])
    a.allowed_[static_cast<std::size_t>(v)] = a.epoch_;
  a.owner_ = owner;
  a.time_ = now_;
  a.active_ = true;
}

void Simulator::audit_end() { audit_->active_ = false; }

void Simulator::audit_touch(std::int32_t node) {
  ConflictAudit& a = *audit_;
  const std::size_t v = static_cast<std::size_t>(node);
  if (v < a.allowed_.size() && a.allowed_[v] == a.epoch_) return;
  a.violations_.push_back({a.time_, a.owner_, node});
}

}  // namespace e2efa
