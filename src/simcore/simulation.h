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
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/time_units.h"
#include "simcore/event.h"

namespace conscale {

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Schedules `callback` at absolute time `when`; times in the past are
  /// clamped to `now()` (fires next, after already-queued events at now()).
  EventHandle schedule_at(SimTime when, EventCallback callback);

  /// Schedules `callback` after `delay` seconds (negative clamps to 0).
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
  struct QueuedEvent {
    SimTime time;
    std::uint64_t group;     ///< 0 = plain event; >0 = keyed stream id
    std::uint64_t sequence;  ///< arrival counter (plain) or stream seq (keyed)
    std::uint32_t slot;
    std::uint32_t generation;
    bool operator>(const QueuedEvent& other) const {
      if (time != other.time) return time > other.time;
      if (group != other.group) return group > other.group;
      return sequence > other.sequence;
    }
  };

  /// Pops the queue head and recycles its arena slot.
  void pop_and_release();

  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_events_ = 0;
  detail::EventArena arena_;
  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>,
                      std::greater<QueuedEvent>>
      queue_;
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
