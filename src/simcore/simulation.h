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
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/time_units.h"
#include "simcore/event.h"

namespace conscale {

namespace detail {

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

  std::size_t pending_events() const { return live_events_; }
  std::uint64_t events_executed() const { return executed_; }

 private:
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
