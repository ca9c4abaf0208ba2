// Hierarchical timer wheel for O(1) idle-timeout management.
//
// The session layer must arm, re-arm and cancel one idle timer per active
// session at 10^6-session scale; a binary heap would cost O(log n) per event
// and tombstone-heavy cancellation, and a naive scan O(n) per tick. This is
// the classic hashed hierarchical wheel (Varghese & Lauck): four levels of
// power-of-two slot arrays, per-slot intrusive doubly-linked lists, and
// per-level occupancy bitmaps so advancing skips empty slots in O(1).
//
//   level 0: 256 slots x 1 tick       (ticks      0 .. 2^8-1  ahead)
//   level 1:  64 slots x 2^8 ticks    (ticks    2^8 .. 2^14-1 ahead)
//   level 2:  64 slots x 2^14 ticks   (ticks   2^14 .. 2^20-1 ahead)
//   level 3:  64 slots x 2^20 ticks   (ticks   2^20 ..        ahead)
//
// A tick is `granularity` nanoseconds of simulated time. Deadlines are
// quantized up to the next tick, so a timer armed for T fires at the first
// wheel tick >= T. Entries beyond level 3's horizon simply re-cascade
// through level 3; every entry cascades at most a constant number of times
// per 2^20 ticks, keeping arm/disarm/fire O(1) amortized.
//
// Keys are dense small integers (the session layer uses slot indices), so
// the wheel stores one entry per key in a flat vector: arm(key) on an
// armed key is an O(1) unlink + relink, and memory is linear in the
// largest key ever armed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/simulation.hpp"

namespace bm::serve {

class TimerWheel {
 public:
  using Key = std::uint32_t;

  static constexpr sim::Time kNever = INT64_MAX;

  explicit TimerWheel(sim::Time granularity);

  /// Arm (or re-arm) `key` to fire at absolute simulated time `deadline`.
  void arm(Key key, sim::Time deadline);

  /// Cancel `key`'s timer; no-op when not armed.
  void disarm(Key key);

  bool armed(Key key) const;

  /// Advance wheel time to `now`, invoking `fire(key)` for every timer
  /// whose (quantized) deadline is <= now. Fire order is deterministic.
  /// The callback may arm/disarm any key, including its own.
  template <typename F>
  void advance(sim::Time now, F&& fire) {
    const std::uint64_t target = tick_of(now);
    while (current_tick_ < target) {
      const std::uint64_t window_end = (current_tick_ | (kL0Slots - 1));
      if (current_tick_ < window_end) {
        const std::uint64_t chunk = window_end < target ? window_end : target;
        fire_l0_range(current_tick_ + 1, chunk, fire);
        current_tick_ = chunk;
        if (current_tick_ >= target) break;
      }
      // Crossing into the next 256-tick window: cascade the higher-level
      // slots that cover it, then fire anything landing on the first tick.
      current_tick_ = window_end + 1;
      cascade(current_tick_);
      fire_l0_range(current_tick_, current_tick_, fire);
    }
  }

  /// Earliest simulated time at which advance() could fire or cascade
  /// something; kNever when no timers are armed. Conservative: when only
  /// higher levels are occupied this returns the next window boundary, so a
  /// wakeup may fire nothing and simply cascade.
  sim::Time next_due() const;

  std::size_t size() const { return armed_count_; }
  sim::Time granularity() const { return granularity_; }

  /// Total timer fires + cascade relinks, for O(1)-cost assertions in tests.
  std::uint64_t work_done() const { return work_done_; }

 private:
  static constexpr std::uint32_t kL0Bits = 8;
  static constexpr std::uint32_t kLBits = 6;
  static constexpr std::uint32_t kL0Slots = 1u << kL0Bits;   // 256
  static constexpr std::uint32_t kLSlots = 1u << kLBits;     // 64
  static constexpr std::int32_t kNil = -1;

  struct Entry {
    std::uint64_t tick = 0;   // quantized deadline, in ticks
    std::int32_t next = kNil;
    std::int32_t prev = kNil;
    std::int32_t bucket = kNil;  // flat bucket index, kNil when not armed
  };

  std::uint64_t tick_of(sim::Time t) const {
    if (t <= 0) return 0;
    return static_cast<std::uint64_t>(t) /
           static_cast<std::uint64_t>(granularity_);
  }
  std::uint64_t deadline_tick(sim::Time deadline) const {
    if (deadline <= 0) return current_tick_ + 1;
    const std::uint64_t g = static_cast<std::uint64_t>(granularity_);
    std::uint64_t tick = (static_cast<std::uint64_t>(deadline) + g - 1) / g;
    if (tick <= current_tick_) tick = current_tick_ + 1;
    return tick;
  }

  /// Flat bucket index for a deadline tick, given the current tick.
  std::int32_t bucket_for(std::uint64_t tick) const;
  void link(Key key, std::uint64_t tick);
  void unlink(Key key);
  void cascade(std::uint64_t window_start);
  void mark(std::int32_t bucket, bool occupied);

  template <typename F>
  void fire_l0_range(std::uint64_t from, std::uint64_t to, F&& fire) {
    // All ticks in [from, to] share one 256-slot window; walk only the
    // occupied slots via the level-0 bitmap words.
    for (std::uint64_t t = from; t <= to;) {
      const std::uint32_t slot = static_cast<std::uint32_t>(t & (kL0Slots - 1));
      const std::uint32_t word = slot >> 6;
      std::uint64_t bits = l0_bitmap_[word] >> (slot & 63);
      if (bits == 0) {  // skip to the next bitmap word boundary
        t += 64 - (slot & 63);
        continue;
      }
      const std::uint32_t skip = lowest_bit(bits);
      t += skip;
      if (t > to) break;
      fire_slot(static_cast<std::uint32_t>(t & (kL0Slots - 1)), fire);
      ++t;
    }
  }

  template <typename F>
  void fire_slot(std::uint32_t slot, F&& fire) {
    // Detach the whole list first: the callback may re-arm into this slot
    // for a later lap of the wheel.
    std::int32_t head = heads_[slot];
    heads_[slot] = kNil;
    mark(static_cast<std::int32_t>(slot), false);
    while (head != kNil) {
      const Key key = static_cast<Key>(head);
      Entry& e = entries_[static_cast<std::size_t>(head)];
      head = e.next;
      e.next = e.prev = kNil;
      e.bucket = kNil;
      --armed_count_;
      ++work_done_;
      fire(key);
    }
  }

  static std::uint32_t lowest_bit(std::uint64_t bits);

  sim::Time granularity_;
  std::uint64_t current_tick_ = 0;
  std::size_t armed_count_ = 0;
  std::uint64_t work_done_ = 0;
  std::vector<Entry> entries_;  // indexed by key
  // Flat bucket heads: [0,256) level 0, then 3 x 64 higher levels.
  std::int32_t heads_[kL0Slots + 3 * kLSlots];
  std::uint64_t l0_bitmap_[kL0Slots / 64];
  std::uint64_t l_bitmap_[3];
};

}  // namespace bm::serve
