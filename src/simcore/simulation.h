// The discrete-event simulation kernel: a virtual clock and a deterministic
// event queue. Single-threaded by design (see DESIGN.md §6.4); the model is
// concurrent, the engine is not, which gives reproducible experiments and a
// trivially race-free substrate. Each Simulation is fully self-contained
// (its event arena and queue are instance state, no globals), so
// independent runs are thread-safe by isolation and can execute
// concurrently — see experiments/parallel.h for the run-level fan-out, and
// simcore/lanes/ for the intra-run fan-out that runs several Simulations
// (one per lane) under a conservative window barrier.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/time_units.h"
#include "simcore/event.h"

namespace conscale {

namespace detail {

/// The queue key of time `t`: its IEEE-754 bits, with -0.0 normalised to 0.
inline std::uint64_t time_key(SimTime t) {
  return std::bit_cast<std::uint64_t>(t + 0.0);
}

/// One queued event, 24 bytes. `key` is the IEEE-754 bit pattern of the
/// event time normalised by `+ 0.0` (so -0.0 keys as 0); for the
/// non-negative times the kernel queues, unsigned order on the bits is
/// numeric order, +infinity included.
struct QueuedEvent {
  std::uint64_t key;
  std::uint64_t sequence;  ///< arrival counter (plain) or stream seq (keyed)
  std::uint32_t group;     ///< 0 = plain event; >0 = keyed stream id
  std::uint32_t slot;      ///< EventArena slot
  bool operator>(const QueuedEvent& other) const {
    if (key != other.key) return key > other.key;
    if (group != other.group) return group > other.group;
    return sequence > other.sequence;
  }
};

/// Monotone radix heap over QueuedEvent, ordered by (key, group, sequence).
///
/// `last_` is the key of the minimum taken at the last refill; it never
/// decreases. Events with key <= last_ live in `near_`, a binary heap on the
/// full order: the current instant, plus anything scheduled below a head
/// that was looked at but left queued (run_until / run_before /
/// next_event_time leave the clock below the head). An event with a larger
/// key sits in bucket `63 - countl_zero(key ^ last_)`, the highest bit where
/// it differs from last_. When `near_` runs dry, the lowest non-empty
/// bucket's tracked minimum becomes the new last_ and the bucket's events
/// move to `near_` (those equal to it) or to strictly lower buckets, so an
/// event moves at most 63 times and push is O(1).
///
/// Buckets are singly linked chains of fixed-size chunks drawn from one
/// free list. Refill returns a bucket's chunks to the list as it reads
/// them, keeping only the newest for the bucket's next events, so the queue
/// holds its pending events plus at most one chunk per bucket, never a
/// bucket's high-water mark. Nothing is allocated once the pool has grown
/// to the run's peak.
class EventQueue {
 public:
  EventQueue() { min_key_.fill(kNoKey); }

  bool empty() const { return near_.empty() && mask_ == 0; }

  void push(const QueuedEvent& event) {
    if (event.key <= last_) {
      near_.push_back(event);
      std::push_heap(near_.begin(), near_.end(), std::greater<>{});
    } else {
      append(63 - std::countl_zero(event.key ^ last_), event);
    }
  }

  /// The minimum event; the queue must not be empty.
  const QueuedEvent& top() {
    if (near_.empty()) refill();
    return near_.front();
  }

  /// Removes the minimum; top() must have been called since the last push.
  void pop() {
    std::pop_heap(near_.begin(), near_.end(), std::greater<>{});
    near_.pop_back();
  }

 private:
  static constexpr int kBuckets = 64;
  static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

  /// Every chunk in a bucket's chain is full except the newest, its head,
  /// which holds `fill_[bucket]` events.
  struct Chunk {
    static constexpr std::uint32_t kCapacity = 64;
    Chunk* next = nullptr;
    std::array<QueuedEvent, kCapacity> events;
  };

  void append(int bucket, const QueuedEvent& event) {
    Chunk* chunk = head_[bucket];
    if (chunk == nullptr || fill_[bucket] == Chunk::kCapacity) [[unlikely]] {
      chunk = grow(bucket);
    }
    chunk->events[fill_[bucket]++] = event;
    min_key_[bucket] = std::min(min_key_[bucket], event.key);
    mask_ |= std::uint64_t{1} << bucket;
  }

  /// Links a chunk from the free list (or a new one) in front of `bucket`.
  Chunk* grow(int bucket);
  /// Moves the lowest bucket's events to `near_` and lower buckets.
  void refill();

  std::uint64_t last_ = 0;
  std::vector<QueuedEvent> near_;
  std::uint64_t mask_ = 0;  ///< bit b set <=> bucket b holds events
  std::array<Chunk*, kBuckets> head_{};
  std::array<std::uint32_t, kBuckets> fill_{};
  std::array<std::uint64_t, kBuckets> min_key_;
  Chunk* free_ = nullptr;
  std::vector<std::unique_ptr<Chunk>> chunks_;  ///< owns every chunk
};

/// Indexed binary min-heap of re-armable timers, kept beside the EventQueue.
///
/// A timer is a slot holding a fire function and its context; arming gives
/// it a (key, sequence) like any plain event and places it in `heap_`, and
/// re-arming moves it in place, so an owner that re-times one completion
/// over and over (the processor-sharing station) leaves no cancelled
/// entries behind. The heap only ever holds the armed timers, a handful per
/// Simulation, so its sifts are short. Released slots are recycled.
class TimerHeap {
 public:
  using Fire = void (*)(void*);

  struct Entry {
    std::uint64_t key;
    std::uint64_t sequence;
    std::uint32_t slot;
  };

  /// Claims a disarmed slot that calls `fire(context)`.
  std::uint32_t add(Fire fire, void* context) {
    std::uint32_t slot;
    if (free_head_ != kNone) {
      slot = free_head_;
      free_head_ = slots_[slot].next_free;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[slot] = Slot{fire, context, kNone, kNone};
    return slot;
  }

  /// Disarms `slot` and returns it to the free list.
  void remove(std::uint32_t slot) {
    disarm(slot);
    slots_[slot].next_free = free_head_;
    free_head_ = slot;
  }

  /// Arms (or re-arms) `slot` at (key, sequence).
  void arm(std::uint32_t slot, std::uint64_t key, std::uint64_t sequence) {
    std::uint32_t pos = slots_[slot].pos;
    if (pos == kNone) {
      pos = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back(Entry{key, sequence, slot});
    } else {
      heap_[pos].key = key;
      heap_[pos].sequence = sequence;
    }
    place(sift_up(pos));
  }

  void disarm(std::uint32_t slot) {
    const std::uint32_t pos = slots_[slot].pos;
    if (pos == kNone) return;
    slots_[slot].pos = kNone;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) return;
    heap_[pos] = last;
    place(sift_up(pos));
  }

  bool armed(std::uint32_t slot) const {
    return slots_[slot].pos != kNone;
  }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// The earliest armed timer; the heap must not be empty.
  const Entry& top() const { return heap_.front(); }

  /// Disarms the earliest timer and hands back what it calls.
  std::pair<Fire, void*> pop() {
    const Slot& slot = slots_[heap_.front().slot];
    const std::pair<Fire, void*> target{slot.fire, slot.context};
    disarm(heap_.front().slot);
    return target;
  }

 private:
  /// No heap position (disarmed), or the end of the free list.
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Slot {
    Fire fire = nullptr;
    void* context = nullptr;
    std::uint32_t pos = kNone;        ///< index in heap_ while armed
    std::uint32_t next_free = kNone;  ///< free-list link while released
  };

  static bool before(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.sequence < b.sequence;
  }

  /// Moves heap_[pos] up past larger parents; returns where it now sits.
  std::uint32_t sift_up(std::uint32_t pos) {
    const Entry entry = heap_[pos];
    while (pos > 0) {
      const std::uint32_t parent = (pos - 1) / 2;
      if (!before(entry, heap_[parent])) break;
      heap_[pos] = heap_[parent];
      slots_[heap_[pos].slot].pos = pos;
      pos = parent;
    }
    heap_[pos] = entry;
    return pos;
  }

  /// Moves heap_[pos] down past smaller children and records every slot's
  /// final position.
  void place(std::uint32_t pos) {
    const Entry entry = heap_[pos];
    const auto size = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      std::uint32_t child = 2 * pos + 1;
      if (child >= size) break;
      if (child + 1 < size && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], entry)) break;
      heap_[pos] = heap_[child];
      slots_[heap_[pos].slot].pos = pos;
      pos = child;
    }
    heap_[pos] = entry;
    slots_[entry.slot].pos = pos;
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNone;
};

}  // namespace detail

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Schedules `callback` at absolute time `when`; times in the past are
  /// clamped to `now()` (fires next, after already-queued events at now()).
  /// Throws std::invalid_argument if `when` is NaN.
  EventHandle schedule_at(SimTime when, EventCallback callback);

  /// Schedules `callback` after `delay` seconds (negative clamps to 0; NaN
  /// throws, as in schedule_at).
  EventHandle schedule_after(SimDuration delay, EventCallback callback);

  /// Schedules `callback` under an explicit ordering key. Events execute in
  /// (time, group, seq) order; plain schedule_at/schedule_after events carry
  /// group 0 and the kernel's arrival counter, so at equal times they run
  /// before every keyed event and keep their historical relative order.
  /// Keyed events exist for the lane engine (simcore/lanes/): a lane actor
  /// keys its events by its globally-unique stream id and a per-stream
  /// counter, which makes same-time ordering a property of the *model*
  /// rather than of which Simulation instance the event landed in — the
  /// bit-for-bit lanes=1 vs lanes=K contract rests on this. `group` must be
  /// non-zero and (group, seq) pairs must never repeat at the same time.
  /// Throws std::invalid_argument if `when` is NaN or `group` does not fit
  /// in 32 bits (the queue stores it in 32).
  EventHandle schedule_keyed(SimTime when, std::uint64_t group,
                             std::uint64_t seq, EventCallback callback);

  /// Runs events until the queue is empty or the next event is after
  /// `deadline`; the clock is left at min(deadline, last event time).
  void run_until(SimTime deadline);

  /// Executes every event with time strictly below `bound` and stops; the
  /// clock is left at the last executed event (never advanced to `bound`).
  /// This is the lane engine's window primitive: events at or after the
  /// window edge stay queued for later windows.
  void run_before(SimTime bound);

  /// Time of the earliest live (non-cancelled) event, or +infinity when the
  /// queue is empty. Prunes cancelled heads as a side effect.
  SimTime next_event_time();

  /// Advances the clock to `t` without executing anything (no-op if `t` is
  /// in the past). The lane engine uses this to park every lane exactly at
  /// the run's end time after the final window.
  void advance_to(SimTime t) { now_ = std::max(now_, t); }

  /// Convenience: run_until(now() + duration).
  void run_for(SimDuration duration) { run_until(now_ + duration); }

  /// Executes the single next event. Returns false if the queue is empty.
  bool step();

  /// Drains every queued event (use only in tests / bounded scenarios).
  void run_all();

  /// Queued events (cancelled ones included until they reach the head)
  /// plus armed timers.
  std::size_t pending_events() const { return live_events_ + timers_.size(); }
  /// Events and timer firings executed so far.
  std::uint64_t events_executed() const { return executed_; }
  /// Event slots the arena holds (its high-water mark; timers take none).
  std::size_t event_slots() const { return arena_.size(); }

 private:
  friend class Timer;

  /// Drops cancelled queue heads; true if an event or a timer is pending.
  bool prune() {
    while (!queue_.empty() && arena_.cancelled(queue_.top().slot)) {
      pop_and_release();
    }
    return !queue_.empty() || !timers_.empty();
  }
  /// Time key of the earliest pending event or timer; prune() must have
  /// returned true.
  std::uint64_t head_key() {
    if (timers_.empty()) return queue_.top().key;
    if (queue_.empty()) return timers_.top().key;
    return std::min(timers_.top().key, queue_.top().key);
  }
  /// Executes the earliest pending event or timer; prune() must have
  /// returned true.
  void fire_next();
  /// Queues `callback` at max(when, now()) under (group, seq).
  EventHandle enqueue(SimTime when, std::uint32_t group, std::uint64_t seq,
                      EventCallback&& callback);

  /// Pops the queue head and recycles its arena slot.
  void pop_and_release();

  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_events_ = 0;
  detail::EventArena arena_;
  detail::EventQueue queue_;
  detail::TimerHeap timers_;
};

/// A re-armable one-shot timer on a Simulation. It fires as a plain event:
/// each arm takes the next arrival counter and the clamped time exactly as
/// schedule_at() would, so replacing a cancel + schedule pair with a re-arm
/// fires at the same place in the event order. Arming an armed timer moves
/// it; firing disarms it before `fire(context)` runs, and the kernel touches
/// none of the timer's state afterwards, so the callback may re-arm it or
/// destroy its owner. The timer must not outlive its Simulation.
class Timer {
 public:
  using Fire = detail::TimerHeap::Fire;

  Timer(Simulation& sim, Fire fire, void* context)
      : sim_(sim), slot_(sim.timers_.add(fire, context)) {}
  ~Timer() { sim_.timers_.remove(slot_); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Arms the timer at absolute time `when`, clamped to now(). Throws
  /// std::invalid_argument if `when` is NaN.
  void arm_at(SimTime when) {
    if (std::isnan(when)) {
      throw std::invalid_argument("Timer::arm_at: NaN time");
    }
    sim_.timers_.arm(slot_, detail::time_key(std::max(when, sim_.now_)),
                     sim_.next_sequence_++);
  }
  /// Arms the timer `delay` seconds from now (negative clamps to 0).
  void arm_after(SimDuration delay) {
    arm_at(sim_.now_ + std::max(delay, 0.0));
  }
  void disarm() { sim_.timers_.disarm(slot_); }
  bool armed() const { return sim_.timers_.armed(slot_); }

 private:
  Simulation& sim_;
  std::uint32_t slot_;
};

/// Repeats a callback at a fixed period until stopped. Used for the 1 s
/// monitoring-agent ticks and 50 ms metric intervals.
class PeriodicTask {
 public:
  /// `callback` receives the firing time. The first firing is at
  /// `start + period` unless `fire_immediately` is set.
  PeriodicTask(Simulation& sim, SimDuration period,
               std::function<void(SimTime)> callback,
               bool fire_immediately = false);
  ~PeriodicTask() { stop(); }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop();
  bool running() const { return running_; }
  SimDuration period() const { return period_; }

 private:
  void arm();

  Simulation& sim_;
  SimDuration period_;
  std::function<void(SimTime)> callback_;
  EventHandle next_;
  bool running_ = true;
};

}  // namespace conscale
