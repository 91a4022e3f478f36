// Event primitives for the discrete-event engine.
//
// Events run in (time, group, sequence) order: the Simulation's queue is a
// monotone radix heap (simulation.h) over that order. Plain events share
// group 0 and take an arrival counter as their sequence, so simultaneous
// events fire FIFO in scheduling order, which the reproduction relies on for
// bit-for-bit repeatable runs; keyed events (the lane engine) order by their
// stream id and per-stream sequence.
//
// Storage: callbacks live in an EventArena owned by the Simulation — a
// slot + generation pool with a free list, so scheduling an event on a warm
// simulation performs no heap allocation (the dominant cost of the old
// one-shared_ptr-per-event scheme). The callback itself is a Callback
// (simcore/callback.h), whose 32-byte inline buffer holds every
// request-path closure, so the 48-byte slot needs no allocation either.
// An owner that keeps re-timing one future event (the processor-sharing
// station's next completion) uses a re-armable Timer instead
// (simulation.h): it takes no arena slot and leaves no cancelled entry.
//
// An EventHandle is a {slot index, generation} pair: the generation check
// makes handles to fired or cancelled-and-reused slots inert, keeping
// cancel() O(1) and lazy (the queue drops cancelled entries when they
// surface).
//
// Lifetime rule: a handle must not be used after the Simulation that issued
// it is destroyed (handles are meant to be held by model objects, whose
// lifetime is bounded by the run's).
#pragma once

#include <cstdint>
#include <vector>

#include "common/time_units.h"
#include "simcore/callback.h"

namespace conscale {

using EventCallback = Callback;

namespace detail {

/// Slot + generation pool for scheduled-event state. Owned by Simulation;
/// one slot per in-queue event, recycled through a free list.
///
/// A slot's `next_free` word doubles as its state: while the slot is in the
/// queue it holds kLive or kCancelled, and once released it links the free
/// list (a slot index, or kNone at the end). That keeps the slot at 48 bytes.
class EventArena {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Claims a slot for `callback`; returns its index. Reuses a free slot if
  /// available, otherwise grows the pool.
  std::uint32_t allocate(EventCallback&& callback) {
    std::uint32_t index;
    if (free_head_ != kNone) {
      index = free_head_;
      free_head_ = slots_[index].next_free;
      slots_[index].callback = std::move(callback);
      slots_[index].next_free = kLive;
    } else {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{std::move(callback), kLive, 0});
    }
    return index;
  }

  /// Releases a slot: bumps the generation (invalidating outstanding
  /// handles), drops the callback, and returns the slot to the free list.
  void release(std::uint32_t index) {
    Slot& slot = slots_[index];
    ++slot.generation;
    slot.callback = nullptr;
    slot.next_free = free_head_;
    free_head_ = index;
  }

  /// Slots ever allocated: the pool's high-water mark.
  std::size_t size() const { return slots_.size(); }

  std::uint32_t generation(std::uint32_t index) const {
    return slots_[index].generation;
  }

  /// True for a queued slot whose event was cancelled.
  bool cancelled(std::uint32_t index) const {
    return slots_[index].next_free == kCancelled;
  }

  /// Moves the callback out of a slot (caller releases afterwards).
  EventCallback take_callback(std::uint32_t index) {
    return std::move(slots_[index].callback);
  }

  /// O(1) lazy cancel; returns true if this call performed the cancellation.
  bool cancel(std::uint32_t index, std::uint32_t generation) {
    if (!pending(index, generation)) return false;
    slots_[index].next_free = kCancelled;
    return true;
  }

  /// A matching generation means the slot is still queued (release bumps
  /// it), so the handle's event is pending unless it was cancelled.
  bool pending(std::uint32_t index, std::uint32_t generation) const {
    if (index >= slots_.size()) return false;
    const Slot& slot = slots_[index];
    return slot.generation == generation && slot.next_free == kLive;
  }

 private:
  /// Queued-slot states of `next_free`; no slot index reaches them.
  static constexpr std::uint32_t kLive = 0xfffffffeu;
  static constexpr std::uint32_t kCancelled = 0xfffffffdu;

  struct Slot {
    EventCallback callback;
    std::uint32_t next_free = kLive;  ///< kLive / kCancelled / free-list link
    std::uint32_t generation = 0;
  };
  static_assert(sizeof(Slot) <= 48,
                "the session workloads keep ~1.2 M event slots pending");

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNone;
};

}  // namespace detail

/// Handle to a scheduled event; cheap to copy, safe to outlive the event
/// (but not the Simulation).
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(detail::EventArena* arena, std::uint32_t index,
              std::uint32_t generation)
      : arena_(arena), index_(index), generation_(generation) {}

  /// Cancels the event if it has not fired yet. Returns true if this call
  /// performed the cancellation.
  bool cancel() { return arena_ && arena_->cancel(index_, generation_); }

  /// True while the event is scheduled and not cancelled.
  bool pending() const {
    return arena_ && arena_->pending(index_, generation_);
  }

 private:
  detail::EventArena* arena_ = nullptr;
  std::uint32_t index_ = 0;
  std::uint32_t generation_ = 0;
};

}  // namespace conscale
