// LaneEngine: conservative-synchronization parallel DES (DESIGN.md §6.6).
//
// One run's event loop is partitioned into `lanes` — each lane owns a full
// Simulation (its own event arena, queue and clock: the arena sharding) and
// hosts a disjoint set of model components. Lanes interact only through
// timestamped inter-lane messages carrying at least the model's lookahead
// window `L` of delay (the client<->frontend network latency in the laned
// runners). The engine repeats a time-window barrier round:
//
//   1. t_all = earliest activity anywhere (lane events + pending messages)
//   2. bound = min(t_all + L, end)
//   3. deliver every pending message with deliver_time < bound into its
//      destination lane as a *keyed* event
//   4. every lane with work below the bound runs it — in parallel, or
//      inline on the coordinator when only one lane is active
//   5. collect the messages each lane posted; any with deliver_time < bound
//      is a lookahead violation (the model sent with delay < L) and throws
//
// Safety: a message posted at send >= t_all with delay >= L delivers at
// send+delay >= t_all+L >= bound (floating-point addition is monotone), so
// nothing a lane does inside a round can affect that same round — each
// lane's round execution is causally closed.
//
// Determinism (the lanes=1 vs lanes=K bit-for-bit contract): every lane
// actor schedules its events and stamps its messages with a canonical
// (time, stream, seq) key — the stream id is globally unique per actor and
// the seq a per-actor counter, so keys never depend on which lane (or how
// many lanes) the actor landed in. Within one Simulation, keyed events
// execute in key order regardless of which round delivered them; across
// Simulations, same-time events belong to non-interacting components
// (interaction = a message, and messages carry their origin's canonical
// key), so their relative order is unobservable. Round structure — window
// sizes, solo fast paths — can change *when* an event runs but never its
// key order, so a run with K=1 replays the exact same state evolution byte
// for byte, with zero threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/time_units.h"
#include "simcore/simulation.h"

namespace conscale::lanes {

/// A timestamped cross-lane interaction. `stream`/`seq` are the *origin*
/// actor's canonical key; the destination lane schedules the callback as a
/// keyed event under exactly this key, so delivery order at equal times is
/// a property of the model, not of the partition.
struct LaneMessage {
  SimTime deliver_time = 0.0;
  std::uint64_t stream = 0;
  std::uint64_t seq = 0;
  std::size_t dest = 0;
  EventCallback fn;
};

struct LaneEngineStats {
  std::uint64_t windows = 0;      ///< rounds executed
  std::uint64_t messages = 0;     ///< cross-lane messages routed
  std::uint64_t events = 0;       ///< events executed, summed over lanes
  std::uint64_t solo_rounds = 0;  ///< rounds with one active lane (no barrier)
};

/// One partition of the run: a self-contained Simulation plus the outbox
/// the engine drains at every barrier. The outbox is touched only by the
/// lane's executing thread during a round and by the coordinator between
/// rounds; the barrier's mutex orders the two.
class Lane {
 public:
  explicit Lane(std::size_t index) : index_(index) {}
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  Simulation& sim() { return sim_; }
  std::size_t index() const { return index_; }

 private:
  friend class LaneEngine;
  std::size_t index_;
  Simulation sim_;
  std::vector<LaneMessage> outbox_;
};

class LaneEngine {
 public:
  struct Options {
    std::size_t lanes = 1;
    /// The synchronization window: no cross-lane message may carry less
    /// than this much delay. Must be > 0 — zero lookahead admits no
    /// conservative parallelism.
    SimDuration lookahead = 0.0;
  };

  explicit LaneEngine(Options options);
  ~LaneEngine();
  LaneEngine(const LaneEngine&) = delete;
  LaneEngine& operator=(const LaneEngine&) = delete;

  std::size_t lane_count() const { return lanes_.size(); }
  Lane& lane(std::size_t index) { return *lanes_[index]; }
  SimDuration lookahead() const { return lookahead_; }

  /// Hands out the next globally-unique actor stream id (starts at 1; 0 is
  /// the plain-event group). Allocation order must be partition-independent:
  /// construct actors in a fixed order regardless of the lane count.
  std::uint64_t new_stream() { return next_stream_++; }

  /// Posts a message from `from` (which must be the lane currently
  /// executing, or any lane between rounds). `deliver_time` must be at
  /// least the lookahead window in the future (validated at the next
  /// barrier). Prefer LaneActor::post.
  void post(std::size_t from, std::size_t dest, SimTime deliver_time,
            std::uint64_t stream, std::uint64_t seq, EventCallback fn);

  /// Runs every lane to `duration` (inclusive, like Simulation::run_until)
  /// under the conservative round loop, then parks every lane clock at
  /// `duration`. Throws std::runtime_error on a lookahead violation and
  /// rethrows the first model exception raised on a worker lane.
  void run(SimTime duration);

  const LaneEngineStats& stats() const { return stats_; }

 private:
  void start_workers();
  void run_round(SimTime t_all);
  void deliver_pending(std::size_t dest, SimTime bound);
  void collect_outboxes(SimTime check_bound);
  void worker_loop();
  void drain_work_queue();
  SimTime next_activity(std::size_t lane_index);

  SimDuration lookahead_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::uint64_t next_stream_ = 1;
  /// Per-destination min-heaps (by deliver_time) of routed-but-undelivered
  /// messages. Only the coordinator touches them, always between rounds.
  std::vector<std::vector<LaneMessage>> pending_;
  SimTime end_bound_ = 0.0;
  LaneEngineStats stats_;

  // --- worker pool (work-pulling; the coordinator pulls too) ---
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t round_generation_ = 0;
  /// The current round's active lanes and shared bound; written by the
  /// coordinator under the mutex before the generation bump, read by
  /// workers after observing it.
  std::vector<std::size_t> round_lanes_;
  SimTime round_bound_ = 0.0;
  std::atomic<std::size_t> work_cursor_{0};
  std::size_t workers_running_ = 0;
  bool shutdown_ = false;
  std::vector<std::exception_ptr> worker_errors_;
  std::vector<std::thread> workers_;
};

}  // namespace conscale::lanes
