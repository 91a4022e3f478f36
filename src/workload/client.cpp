#include "workload/client.h"

#include <cmath>

namespace conscale {

ClientPopulation::ClientPopulation(Simulation& sim, const WorkloadTrace& trace,
                                   const RequestMix& mix, SubmitFn submit,
                                   Params params)
    : ClientPopulation(sim, trace, mix, std::move(submit), nullptr, params) {}

ClientPopulation::ClientPopulation(Simulation& sim, const WorkloadTrace& trace,
                                   const RequestMix& mix,
                                   OutcomeSubmitFn submit, Params params)
    : ClientPopulation(sim, trace, mix, nullptr, std::move(submit), params) {}

ClientPopulation::ClientPopulation(Simulation& sim, const WorkloadTrace& trace,
                                   const RequestMix& mix,
                                   SubmitFn plain_submit,
                                   OutcomeSubmitFn submit, Params params)
    : sim_(sim), trace_(trace), mix_(&mix),
      plain_submit_(std::move(plain_submit)), submit_(std::move(submit)),
      params_(params), rng_(params.seed) {
  adjust_population(sim_.now());
  adjust_task_ = std::make_unique<PeriodicTask>(
      sim_, params_.adjust_period,
      [this](SimTime now) { adjust_population(now); });
}

ClientPopulation::~ClientPopulation() {
  adjust_task_.reset();
  // A free slot's handle is already inert, so cancelling every slot is safe.
  for (User& user : users_) user.think_event.cancel();
}

void ClientPopulation::adjust_population(SimTime now) {
  const auto target = static_cast<std::size_t>(
      std::llround(std::max(trace_.users_at(now), 0.0)));
  const std::size_t active = active_;
  // Users logically alive = active minus those already marked for retirement.
  const std::size_t alive = active - std::min(retire_pending_, active);
  if (target > alive) {
    const std::size_t to_spawn = target - alive;
    // Cancel pending retirements first (a user about to leave "stays").
    const std::size_t cancelled = std::min(retire_pending_, to_spawn);
    retire_pending_ -= cancelled;
    for (std::size_t i = 0; i < to_spawn - cancelled; ++i) spawn_user();
  } else if (target < alive) {
    retire_pending_ += alive - target;
  }
}

void ClientPopulation::spawn_user() {
  std::uint32_t slot = free_head_;
  if (slot != kNoUser) {
    free_head_ = users_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(users_.size());
    users_.emplace_back();
  }
  ++active_;
  user_think(slot);
}

void ClientPopulation::user_think(std::uint32_t slot) {
  if (maybe_retire(slot)) return;
  const double think =
      params_.think_time_mean > 0.0
          ? rng_.exponential(params_.think_time_mean)
          : 0.0;
  users_[slot].think_event =
      sim_.schedule_after(think, [this, slot] { user_submit(slot); });
}

void ClientPopulation::user_submit(std::uint32_t slot) {
  if (maybe_retire(slot)) return;
  RequestContext ctx;
  ctx.id = next_request_id_++;
  ctx.request_class = &mix_->pick(rng_);
  ctx.issued_at = sim_.now();
  ++issued_;
  User& user = users_[slot];
  user.request_class = ctx.request_class;
  user.issued_at = ctx.issued_at;
  if (plain_submit_) {
    plain_submit_(ctx,
                  [this, slot] { on_response(slot, RequestOutcome::kServed); });
  } else {
    submit_(ctx, [this, slot](RequestOutcome outcome) {
      on_response(slot, outcome);
    });
  }
}

void ClientPopulation::on_response(std::uint32_t slot, RequestOutcome outcome) {
  if (outcome == RequestOutcome::kServed) {
    const SimTime issued_at = users_[slot].issued_at;
    const RequestClass& request_class = *users_[slot].request_class;
    ++completed_;
    const double rt = sim_.now() - issued_at;
    rt_histogram_.add(rt);
    if (hook_) hook_(issued_at, rt, request_class);
  } else {
    ++rejected_;
    if (rejection_hook_) rejection_hook_(sim_.now());
  }
  user_think(slot);
}

bool ClientPopulation::maybe_retire(std::uint32_t slot) {
  if (retire_pending_ == 0) return false;
  --retire_pending_;
  User& user = users_[slot];
  user.think_event.cancel();
  user.next_free = free_head_;
  free_head_ = slot;
  --active_;
  return true;
}

}  // namespace conscale
