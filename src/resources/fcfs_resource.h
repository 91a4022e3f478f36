// FcfsResource: a first-come-first-served multi-channel service station.
// Models the database disk (the critical resource under the paper's
// read/write-mix I/O-intensive workload, §III-C.3): requests queue for one of
// `channels` identical servers and are served for their full demand without
// preemption. Unlike the CPU, adding concurrency to a saturated disk buys
// nothing — which is why the I/O-bound Q_lower in Fig 7(f) is so small.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "simcore/simulation.h"

namespace conscale {

class FcfsResource {
 public:
  using CompletionCallback = Callback;

  FcfsResource(Simulation& sim, int channels = 1, double speed = 1.0);
  FcfsResource(const FcfsResource&) = delete;
  FcfsResource& operator=(const FcfsResource&) = delete;

  /// Enqueues a job with `work` service-seconds of demand.
  void submit(double work, CompletionCallback on_complete);

  void set_speed(double speed);
  void set_channels(int channels);

  /// Drops every *queued* job (no callbacks fire). Jobs already in service
  /// run to completion — a real disk controller finishes the transfer it
  /// started — so channel accounting needs no special casing. Returns the
  /// number of jobs dropped.
  std::size_t clear_queue();

  int channels() const { return channels_; }
  double speed() const { return speed_; }
  std::size_t busy_channels() const { return busy_; }
  std::size_t queued() const { return queue_.size(); }
  /// Jobs in service plus jobs waiting.
  std::size_t active_jobs() const { return busy_ + queue_.size(); }

  /// Cumulative busy-channel-seconds (for disk utilization reporting).
  double busy_channel_seconds() const;

 private:
  struct PendingJob {
    double work;
    CompletionCallback on_complete;
  };

  void try_dispatch();
  void on_service_done(std::uint32_t slot);
  void account_to_now();

  Simulation& sim_;
  int channels_;
  double speed_;
  std::size_t busy_ = 0;
  std::deque<PendingJob> queue_;
  /// Callbacks of the jobs in service, by recycled slot: the service event
  /// captures only the slot, so it fits a Callback's inline buffer.
  std::vector<CompletionCallback> serving_;
  std::vector<std::uint32_t> free_serving_;
  double busy_channel_seconds_ = 0.0;
  SimTime last_update_ = 0.0;
};

}  // namespace conscale
