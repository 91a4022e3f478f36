#include "resources/fcfs_resource.h"

#include <algorithm>
#include <cassert>

namespace conscale {

FcfsResource::FcfsResource(Simulation& sim, int channels, double speed)
    : sim_(sim), channels_(channels), speed_(speed), last_update_(sim.now()) {
  assert(channels_ >= 1);
  assert(speed_ > 0.0);
}

void FcfsResource::account_to_now() {
  const SimTime now = sim_.now();
  const double elapsed = now - last_update_;
  last_update_ = now;
  if (elapsed > 0.0) {
    busy_channel_seconds_ += elapsed * static_cast<double>(busy_);
  }
}

void FcfsResource::submit(double work, CompletionCallback on_complete) {
  queue_.push_back(PendingJob{std::max(work, 0.0), std::move(on_complete)});
  try_dispatch();
}

void FcfsResource::try_dispatch() {
  while (busy_ < static_cast<std::size_t>(channels_) && !queue_.empty()) {
    account_to_now();
    PendingJob job = std::move(queue_.front());
    queue_.pop_front();
    ++busy_;
    std::uint32_t slot;
    if (free_serving_.empty()) {
      slot = static_cast<std::uint32_t>(serving_.size());
      serving_.emplace_back();
    } else {
      slot = free_serving_.back();
      free_serving_.pop_back();
    }
    serving_[slot] = std::move(job.on_complete);
    const double service_time = job.work / speed_;
    sim_.schedule_after(service_time, [this, slot] { on_service_done(slot); });
  }
}

void FcfsResource::on_service_done(std::uint32_t slot) {
  account_to_now();
  assert(busy_ > 0);
  --busy_;
  CompletionCallback callback = std::move(serving_[slot]);
  free_serving_.push_back(slot);
  // Free the channel before the callback: the callback may submit follow-up
  // work that should be able to start immediately.
  try_dispatch();
  callback();
}

std::size_t FcfsResource::clear_queue() {
  const std::size_t dropped = queue_.size();
  queue_.clear();
  return dropped;
}

void FcfsResource::set_speed(double speed) {
  assert(speed > 0.0);
  // Jobs already in service keep their original service time; new dispatches
  // use the new speed. (Disk speed changes only happen between experiment
  // phases, so the simplification is invisible in practice.)
  speed_ = speed;
}

void FcfsResource::set_channels(int channels) {
  assert(channels >= 1);
  account_to_now();
  channels_ = channels;
  try_dispatch();
}

double FcfsResource::busy_channel_seconds() const {
  double busy = busy_channel_seconds_;
  const double elapsed = sim_.now() - last_update_;
  if (elapsed > 0.0) busy += elapsed * static_cast<double>(busy_);
  return busy;
}

}  // namespace conscale
