#include "simcore/lanes/lane_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace conscale::lanes {

namespace {

constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

/// Heap order for the pending-message min-heaps: earliest delivery first.
/// Ties need no order here — delivery injects keyed events, and the
/// destination queue orders equal times by (stream, seq) regardless of
/// injection order.
bool later_delivery(const LaneMessage& a, const LaneMessage& b) {
  return a.deliver_time > b.deliver_time;
}

}  // namespace

LaneEngine::LaneEngine(Options options) : lookahead_(options.lookahead) {
  if (options.lanes == 0) options.lanes = 1;
  if (!(lookahead_ > 0.0)) {
    throw std::invalid_argument(
        "LaneEngine: lookahead must be > 0 (conservative synchronization "
        "needs a positive cross-lane delay floor)");
  }
  lanes_.reserve(options.lanes);
  for (std::size_t i = 0; i < options.lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>(i));
  }
  pending_.resize(options.lanes);
  worker_errors_.resize(options.lanes);
}

LaneEngine::~LaneEngine() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void LaneEngine::post(std::size_t from, std::size_t dest,
                      SimTime deliver_time, std::uint64_t stream,
                      std::uint64_t seq, EventCallback fn) {
  if (dest >= lanes_.size()) {
    throw std::out_of_range("LaneEngine::post: no such destination lane");
  }
  lanes_[from]->outbox_.push_back(
      LaneMessage{deliver_time, stream, seq, dest, std::move(fn)});
}

void LaneEngine::start_workers() {
  if (!workers_.empty() || lanes_.size() <= 1) return;
  workers_.reserve(lanes_.size() - 1);
  for (std::size_t i = 1; i < lanes_.size(); ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void LaneEngine::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] {
        return shutdown_ || round_generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = round_generation_;
    }
    drain_work_queue();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--workers_running_ == 0) done_cv_.notify_one();
    }
  }
}

void LaneEngine::drain_work_queue() {
  // Work-pulling: each participating thread (workers + the coordinator)
  // claims the next active lane. Which thread runs a lane is unobservable —
  // lanes are causally closed within a round.
  for (;;) {
    const std::size_t index =
        work_cursor_.fetch_add(1, std::memory_order_relaxed);
    if (index >= round_lanes_.size()) return;
    const std::size_t lane_index = round_lanes_[index];
    try {
      lanes_[lane_index]->sim().run_before(round_bound_);
    } catch (...) {
      worker_errors_[lane_index] = std::current_exception();
    }
  }
}

SimTime LaneEngine::next_activity(std::size_t lane_index) {
  SimTime t = lanes_[lane_index]->sim().next_event_time();
  if (!pending_[lane_index].empty()) {
    t = std::min(t, pending_[lane_index].front().deliver_time);
  }
  return t;
}

void LaneEngine::deliver_pending(std::size_t dest, SimTime bound) {
  std::vector<LaneMessage>& heap = pending_[dest];
  Simulation& sim = lanes_[dest]->sim();
  while (!heap.empty() && heap.front().deliver_time < bound) {
    std::pop_heap(heap.begin(), heap.end(), later_delivery);
    LaneMessage message = std::move(heap.back());
    heap.pop_back();
    if (message.deliver_time < sim.now()) {
      std::ostringstream what;
      what << "LaneEngine: causality violation delivering to lane " << dest
           << ": message (stream " << message.stream << ", seq " << message.seq
           << ") arrives at " << message.deliver_time
           << " but the lane already executed to " << sim.now();
      throw std::runtime_error(what.str());
    }
    sim.schedule_keyed(message.deliver_time, message.stream, message.seq,
                       std::move(message.fn));
  }
}

void LaneEngine::collect_outboxes(SimTime check_bound) {
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    for (LaneMessage& message : lane->outbox_) {
      if (message.deliver_time < check_bound) {
        std::ostringstream what;
        what << "lane " << lane->index() << " lookahead violation: message "
             << "(stream " << message.stream << ", seq " << message.seq
             << ") delivers at " << message.deliver_time
             << " inside the current window (bound " << check_bound
             << ", lookahead " << lookahead_
             << ") — a cross-lane channel carries less delay than the "
                "engine's window";
        throw std::runtime_error(what.str());
      }
      ++stats_.messages;
      std::vector<LaneMessage>& heap = pending_[message.dest];
      heap.push_back(std::move(message));
      std::push_heap(heap.begin(), heap.end(), later_delivery);
    }
    lane->outbox_.clear();
  }
}

void LaneEngine::run_round(SimTime t_all) {
  const SimTime bound = std::min(t_all + lookahead_, end_bound_);
  round_lanes_.clear();
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (next_activity(i) < bound) {
      round_lanes_.push_back(i);
      deliver_pending(i, bound);
    }
  }
  if (round_lanes_.size() == 1 || workers_.empty()) {
    // Solo fast path: a round with one active lane (or a single-lane
    // engine) needs no barrier round-trip — run inline on the coordinator.
    if (round_lanes_.size() == 1) ++stats_.solo_rounds;
    for (const std::size_t lane_index : round_lanes_) {
      lanes_[lane_index]->sim().run_before(bound);
    }
  } else {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      round_bound_ = bound;
      work_cursor_.store(0, std::memory_order_relaxed);
      workers_running_ = workers_.size();
      ++round_generation_;
    }
    start_cv_.notify_all();
    drain_work_queue();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [&] { return workers_running_ == 0; });
    }
    for (std::exception_ptr& error : worker_errors_) {
      if (error) {
        const std::exception_ptr raised = std::exchange(error, nullptr);
        std::rethrow_exception(raised);
      }
    }
  }
  collect_outboxes(bound);
  ++stats_.windows;
}

void LaneEngine::run(SimTime duration) {
  // Events scheduled at exactly `duration` must execute (run_until
  // semantics), so the final exclusive bound is the next double above it.
  end_bound_ =
      std::nextafter(duration, std::numeric_limits<SimTime>::infinity());
  start_workers();
  // Messages posted during model construction (before any round) enter the
  // routing heaps here; deliver_time >= 0 + lookahead, nothing is due.
  collect_outboxes(0.0);
  for (;;) {
    SimTime t_all = kInf;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      t_all = std::min(t_all, next_activity(i));
    }
    if (t_all >= end_bound_) break;
    run_round(t_all);
  }
  stats_.events = 0;
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    lane->sim().advance_to(duration);
    stats_.events += lane->sim().events_executed();
  }
}

}  // namespace conscale::lanes
