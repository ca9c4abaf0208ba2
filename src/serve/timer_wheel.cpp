#include "serve/timer_wheel.hpp"

#include <bit>
#include <cstring>

namespace bm::serve {

TimerWheel::TimerWheel(sim::Time granularity)
    : granularity_(granularity > 0 ? granularity : 1) {
  std::memset(heads_, 0xFF, sizeof(heads_));  // kNil == -1 in every slot
  std::memset(l0_bitmap_, 0, sizeof(l0_bitmap_));
  std::memset(l_bitmap_, 0, sizeof(l_bitmap_));
}

std::uint32_t TimerWheel::lowest_bit(std::uint64_t bits) {
  return static_cast<std::uint32_t>(std::countr_zero(bits));
}

std::int32_t TimerWheel::bucket_for(std::uint64_t tick) const {
  const std::uint64_t delta = tick - current_tick_;
  if (delta < kL0Slots)
    return static_cast<std::int32_t>(tick & (kL0Slots - 1));
  if (delta < (1ull << (kL0Bits + kLBits)))
    return static_cast<std::int32_t>(kL0Slots + ((tick >> kL0Bits) & (kLSlots - 1)));
  if (delta < (1ull << (kL0Bits + 2 * kLBits)))
    return static_cast<std::int32_t>(kL0Slots + kLSlots +
                                     ((tick >> (kL0Bits + kLBits)) & (kLSlots - 1)));
  return static_cast<std::int32_t>(kL0Slots + 2 * kLSlots +
                                   ((tick >> (kL0Bits + 2 * kLBits)) & (kLSlots - 1)));
}

void TimerWheel::mark(std::int32_t bucket, bool occupied) {
  const std::uint32_t b = static_cast<std::uint32_t>(bucket);
  std::uint64_t* word;
  std::uint32_t bit;
  if (b < kL0Slots) {
    word = &l0_bitmap_[b >> 6];
    bit = b & 63;
  } else {
    const std::uint32_t level = (b - kL0Slots) >> kLBits;
    word = &l_bitmap_[level];
    bit = (b - kL0Slots) & (kLSlots - 1);
  }
  if (occupied)
    *word |= 1ull << bit;
  else
    *word &= ~(1ull << bit);
}

void TimerWheel::link(Key key, std::uint64_t tick) {
  Entry& e = entries_[key];
  const std::int32_t bucket = bucket_for(tick);
  e.tick = tick;
  e.bucket = bucket;
  e.prev = kNil;
  e.next = heads_[bucket];
  if (e.next != kNil) entries_[static_cast<std::size_t>(e.next)].prev =
      static_cast<std::int32_t>(key);
  heads_[bucket] = static_cast<std::int32_t>(key);
  mark(bucket, true);
}

void TimerWheel::unlink(Key key) {
  Entry& e = entries_[key];
  if (e.prev != kNil)
    entries_[static_cast<std::size_t>(e.prev)].next = e.next;
  else
    heads_[e.bucket] = e.next;
  if (e.next != kNil)
    entries_[static_cast<std::size_t>(e.next)].prev = e.prev;
  if (heads_[e.bucket] == kNil) mark(e.bucket, false);
  e.next = e.prev = kNil;
  e.bucket = kNil;
}

void TimerWheel::arm(Key key, sim::Time deadline) {
  if (key >= entries_.size()) entries_.resize(key + 1);
  Entry& e = entries_[key];
  if (e.bucket != kNil)
    unlink(key);
  else
    ++armed_count_;
  link(key, deadline_tick(deadline));
}

void TimerWheel::disarm(Key key) {
  if (key >= entries_.size()) return;
  if (entries_[key].bucket == kNil) return;
  unlink(key);
  --armed_count_;
}

bool TimerWheel::armed(Key key) const {
  return key < entries_.size() && entries_[key].bucket != kNil;
}

void TimerWheel::cascade(std::uint64_t window_start) {
  // Top-down so level-2 entries can land in level 1 and then level 0 within
  // this one crossing. A level-k slot is cascaded when window_start is
  // aligned to that level's span.
  for (int level = 3; level >= 1; --level) {
    const std::uint32_t shift =
        kL0Bits + static_cast<std::uint32_t>(level - 1) * kLBits;
    if (level > 1 && (window_start & ((1ull << shift) - 1)) != 0) continue;
    const std::uint32_t slot =
        static_cast<std::uint32_t>((window_start >> shift) & (kLSlots - 1));
    const std::uint32_t bucket =
        kL0Slots + static_cast<std::uint32_t>(level - 1) * kLSlots + slot;
    std::int32_t head = heads_[bucket];
    if (head == kNil) continue;
    heads_[bucket] = kNil;
    mark(static_cast<std::int32_t>(bucket), false);
    while (head != kNil) {
      const Key key = static_cast<Key>(head);
      Entry& e = entries_[static_cast<std::size_t>(head)];
      head = e.next;
      e.next = e.prev = kNil;
      e.bucket = kNil;
      ++work_done_;
      link(key, e.tick);
    }
  }
}

sim::Time TimerWheel::next_due() const {
  if (armed_count_ == 0) return kNever;
  // Exact within the current 256-tick window...
  const std::uint64_t window_end = current_tick_ | (kL0Slots - 1);
  for (std::uint64_t t = current_tick_ + 1; t <= window_end;) {
    const std::uint32_t slot = static_cast<std::uint32_t>(t & (kL0Slots - 1));
    const std::uint64_t bits = l0_bitmap_[slot >> 6] >> (slot & 63);
    if (bits == 0) {
      t += 64 - (slot & 63);
      continue;
    }
    t += lowest_bit(bits);
    if (t > window_end) break;
    return static_cast<sim::Time>(t) * granularity_;
  }
  // ...conservative beyond it: wake at the boundary, cascade, re-evaluate.
  return static_cast<sim::Time>(window_end + 1) * granularity_;
}

}  // namespace bm::serve
