#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace e2efa {

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slab_[slot].next_free;
    slab_[slot].next_free = kNilSlot;
    return slot;
  }
  E2EFA_ASSERT_MSG(slab_.size() < kNilSlot, "event slab exhausted");
  slab_.emplace_back();
  heap_index_.push_back(0);
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  slab_[slot].next_free = free_head_;
  free_head_ = slot;
}

void Simulator::sift_up(std::size_t i, HeapEntry e) {
  while (i > 0) {
    const std::size_t p = (i - 1) >> 2;
    if (!earlier(e, heap_[p])) break;
    place(i, heap_[p]);
    i = p;
  }
  place(i, e);
}

void Simulator::sift_down(std::size_t i, HeapEntry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t c = 4 * i + 1;
    if (c >= n) break;
    std::size_t m = c;
    const std::size_t end = std::min(c + 4, n);
    for (std::size_t k = c + 1; k < end; ++k)
      if (earlier(heap_[k], heap_[m])) m = k;
    if (!earlier(heap_[m], e)) break;
    place(i, heap_[m]);
    i = m;
  }
  place(i, e);
}

void Simulator::heap_remove(std::size_t i) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // the removed entry was the last one
  // The back entry fills the hole. It can belong above the hole's parent
  // only when the hole is in another subtree than the back, so at most one
  // of the two sifts moves anything.
  if (i > 0 && earlier(last, heap_[(i - 1) >> 2])) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

std::uint32_t Simulator::prepare(TimeNs t, TimeNs as_of, std::uint64_t rank) {
  E2EFA_ASSERT_MSG(t >= now_, "cannot schedule in the past");
  const std::uint32_t slot = acquire_slot();
  ++slab_[slot].gen;  // even -> odd: armed
  heap_.emplace_back();
  sift_up(heap_.size() - 1, {t, as_of, take_key(rank), slot});
  ++live_;
  return slot;
}

void Simulator::check_delay(TimeNs delay) const {
  E2EFA_ASSERT_MSG(delay >= 0, "negative delay");
}

bool Simulator::cancel(EventId id) {
  if (id == kInvalidEvent) return false;
  const std::uint64_t slot64 = (id & 0xffffffffu) - 1;
  if (slot64 >= slab_.size()) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>(slot64);
  Event& ev = slab_[slot];
  if ((ev.gen & 1u) == 0 || ev.gen != static_cast<std::uint32_t>(id >> 32))
    return false;
  heap_remove(heap_index_[slot]);
  ++ev.gen;  // odd -> even: retired; stale handles now mismatch
  ev.fn.reset();
  release_slot(slot);
  --live_;
  return true;
}

std::uint64_t Simulator::drain(TimeNs t_end) {
  std::uint64_t count = 0;
  while (!heap_.empty() && heap_.front().time <= t_end) {
    const HeapEntry top = heap_.front();
    __builtin_prefetch(&slab_[top.slot]);
    heap_remove(0);
    Event& ev = slab_[top.slot];
    ++ev.gen;  // odd -> even: retire the handle before callbacks reuse it
    release_slot(top.slot);
    --live_;
    now_ = top.time;
    ev.fn.consume_invoke();
    ++count;
    ++processed_;
  }
  return count;
}

std::uint64_t Simulator::run_until(TimeNs t_end) {
  const std::uint64_t count = drain(t_end);
  now_ = std::max(now_, t_end);
  return count;
}

std::uint64_t Simulator::run() {
  return drain(std::numeric_limits<TimeNs>::max());
}

}  // namespace e2efa
