#include "simcore/simulation.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace conscale {

namespace {

using detail::time_key;

SimTime key_time(std::uint64_t key) { return std::bit_cast<SimTime>(key); }

/// True if `timer` runs before `event` under the full (time, group, seq)
/// order. A timer is a plain event: group 0, sequence from the same arrival
/// counter as schedule_at(), so the merge reproduces the single-queue order.
bool timer_first(const detail::TimerHeap::Entry& timer,
                 const detail::QueuedEvent& event) {
  constexpr std::uint32_t kTimerGroup = 0;
  if (timer.key != event.key) return timer.key < event.key;
  if (kTimerGroup != event.group) return kTimerGroup < event.group;
  return timer.sequence < event.sequence;
}

}  // namespace

namespace detail {

EventQueue::Chunk* EventQueue::grow(int bucket) {
  Chunk* chunk = free_;
  if (chunk == nullptr) {
    chunks_.push_back(std::make_unique<Chunk>());
    chunk = chunks_.back().get();
  } else {
    free_ = chunk->next;
  }
  chunk->next = head_[bucket];
  head_[bucket] = chunk;
  fill_[bucket] = 0;
  return chunk;
}

void EventQueue::refill() {
  const int bucket = std::countr_zero(mask_);
  last_ = min_key_[bucket];
  // Every event here differs from the old last_ first at bit `bucket`, and
  // so does the new last_: the events equal to it form the near heap, the
  // others land in buckets below `bucket`.
  Chunk* const newest = head_[bucket];
  Chunk* chunk = newest;
  std::uint32_t size = fill_[bucket];
  while (chunk != nullptr) {
    for (std::uint32_t i = 0; i < size; ++i) {
      const QueuedEvent& event = chunk->events[i];
      if (event.key == last_) {
        near_.push_back(event);
      } else {
        append(63 - std::countl_zero(event.key ^ last_), event);
      }
    }
    Chunk* next = chunk->next;
    if (chunk != newest) {
      chunk->next = free_;
      free_ = chunk;
    }
    chunk = next;
    size = Chunk::kCapacity;
  }
  newest->next = nullptr;
  fill_[bucket] = 0;
  min_key_[bucket] = kNoKey;
  mask_ &= ~(std::uint64_t{1} << bucket);
  if (near_.size() > 1) {
    std::make_heap(near_.begin(), near_.end(), std::greater<>{});
  }
}

}  // namespace detail

EventHandle Simulation::enqueue(SimTime when, std::uint32_t group,
                                std::uint64_t seq, EventCallback&& callback) {
  const std::uint32_t slot = arena_.allocate(std::move(callback));
  queue_.push(
      detail::QueuedEvent{time_key(std::max(when, now_)), seq, group, slot});
  ++live_events_;
  return EventHandle(&arena_, slot, arena_.generation(slot));
}

EventHandle Simulation::schedule_at(SimTime when, EventCallback callback) {
  if (std::isnan(when)) {
    throw std::invalid_argument("Simulation::schedule_at: NaN event time");
  }
  return enqueue(when, 0, next_sequence_++, std::move(callback));
}

EventHandle Simulation::schedule_keyed(SimTime when, std::uint64_t group,
                                       std::uint64_t seq,
                                       EventCallback callback) {
  if (std::isnan(when)) {
    throw std::invalid_argument("Simulation::schedule_keyed: NaN event time");
  }
  if (group > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "Simulation::schedule_keyed: group exceeds 2^32 - 1");
  }
  return enqueue(when, static_cast<std::uint32_t>(group), seq,
                 std::move(callback));
}

EventHandle Simulation::schedule_after(SimDuration delay,
                                       EventCallback callback) {
  return schedule_at(now_ + std::max(delay, 0.0), std::move(callback));
}

void Simulation::pop_and_release() {
  arena_.release(queue_.top().slot);
  queue_.pop();
  --live_events_;
}

void Simulation::fire_next() {
  if (!timers_.empty() &&
      (queue_.empty() || timer_first(timers_.top(), queue_.top()))) {
    now_ = key_time(timers_.top().key);
    ++executed_;
    // pop() disarms the timer and copies out its target, so the kernel
    // holds nothing of the timer while it runs.
    const auto [fire, context] = timers_.pop();
    fire(context);
    return;
  }
  const detail::QueuedEvent entry = queue_.top();
  now_ = key_time(entry.key);
  ++executed_;
  // Move the callback out and recycle the slot before invoking: a handle
  // held by the callback's owner reports !pending() during the call (the
  // generation already moved on), and the callback may schedule freely —
  // including reusing this very slot — without touching freed state.
  EventCallback callback = arena_.take_callback(entry.slot);
  pop_and_release();
  callback();
}

bool Simulation::step() {
  if (!prune()) return false;
  fire_next();
  return true;
}

void Simulation::run_until(SimTime deadline) {
  // prune() skips cancelled entries without advancing the clock.
  while (prune() && key_time(head_key()) <= deadline) fire_next();
  now_ = std::max(now_, deadline);
}

void Simulation::run_before(SimTime bound) {
  while (prune() && key_time(head_key()) < bound) fire_next();
}

SimTime Simulation::next_event_time() {
  if (!prune()) return std::numeric_limits<SimTime>::infinity();
  return key_time(head_key());
}

void Simulation::run_all() {
  while (step()) {
  }
}

PeriodicTask::PeriodicTask(Simulation& sim, SimDuration period,
                           std::function<void(SimTime)> callback,
                           bool fire_immediately)
    : sim_(sim), period_(period), callback_(std::move(callback)) {
  if (fire_immediately) {
    next_ = sim_.schedule_after(0.0, [this] {
      if (!running_) return;
      callback_(sim_.now());
      if (running_) arm();
    });
  } else {
    arm();
  }
}

void PeriodicTask::arm() {
  next_ = sim_.schedule_after(period_, [this] {
    if (!running_) return;
    callback_(sim_.now());
    if (running_) arm();
  });
}

void PeriodicTask::stop() {
  running_ = false;
  next_.cancel();
}

}  // namespace conscale
