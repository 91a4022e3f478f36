#include "tier/server.h"

#include <bit>
#include <cassert>
#include <stdexcept>

#include "common/logging.h"

namespace conscale {

Server::Server(Simulation& sim, Params params)
    : sim_(sim), params_(std::move(params)), rng_(params_.seed),
      cpu_(sim, params_.cores, params_.speed, params_.contention),
      disk_(sim, params_.disk_channels, params_.disk_speed),
      threads_(params_.name + ".threads",
               std::max<std::size_t>(params_.thread_pool_size, 1)) {
  if (params_.downstream_pool_size > 0) {
    downstream_pool_ = std::make_unique<TokenPool>(
        params_.name + ".dbconn", params_.downstream_pool_size);
  }
}

void Server::set_downstream(DownstreamFn downstream) {
  downstream_ = std::move(downstream);
}

void Server::set_thread_pool_size(std::size_t size) {
  threads_.resize(std::max<std::size_t>(size, 1));
}

void Server::set_downstream_pool_size(std::size_t size) {
  if (!downstream_pool_) {
    if (size == 0) return;
    downstream_pool_ =
        std::make_unique<TokenPool>(params_.name + ".dbconn", size);
    return;
  }
  downstream_pool_->resize(std::max<std::size_t>(size, 1));
}

void Server::set_cores(int cores) { cpu_.set_cores(cores); }

Server::VisitRef Server::claim_visit() {
  std::uint32_t slot = free_head_;
  if (slot != kNoVisit) {
    free_head_ = visits_[slot].next;
  } else {
    slot = static_cast<std::uint32_t>(visits_.size());
    visits_.emplace_back();
  }
  Visit& visit = visits_[slot];
  visit.admitted = false;
  visit.calls_remaining = 0;
  visit.prev = live_tail_;
  visit.next = kNoVisit;
  if (live_tail_ != kNoVisit) {
    visits_[live_tail_].next = slot;
  } else {
    live_head_ = slot;
  }
  live_tail_ = slot;
  return {slot, visit.generation};
}

void Server::release_visit(std::uint32_t slot) {
  Visit& visit = visits_[slot];
  if (visit.prev != kNoVisit) {
    visits_[visit.prev].next = visit.next;
  } else {
    live_head_ = visit.next;
  }
  if (visit.next != kNoVisit) {
    visits_[visit.next].prev = visit.prev;
  } else {
    live_tail_ = visit.prev;
  }
  ++visit.generation;  // every continuation still holding the ref no-ops
  visit.done = nullptr;
  visit.prev = kNoVisit;
  visit.next = free_head_;
  free_head_ = slot;
}

double Server::draw_demand(double mean, double cv) {
  const std::uint64_t hash =
      (std::bit_cast<std::uint64_t>(mean) ^
       std::rotl(std::bit_cast<std::uint64_t>(cv), 29)) *
      0x9e3779b97f4a7c15ULL;
  LognormalParams& params = lognormal_memo_[hash >> (64 - kMemoBits)];
  if (params.mean != mean || params.cv != cv) params = {mean, cv};
  return rng_.lognormal(params);
}

void Server::handle(const RequestContext& ctx, Completion done) {
  const auto tier = static_cast<std::size_t>(params_.tier_index);
  if (ctx.request_class == nullptr ||
      tier >= ctx.request_class->tiers.size()) {
    throw std::logic_error("Server '" + params_.name +
                           "': request class has no demand for tier " +
                           std::to_string(params_.tier_index));
  }
  const VisitRef ref = claim_visit();
  Visit& visit = visits_[ref.slot];
  visit.ctx = ctx;
  visit.done = std::move(done);
  visit.arrival = sim_.now();
  visit.demand = &ctx.request_class->tiers[tier];
  ++in_flight_;
  threads_.acquire([this, ref] { start_processing(ref); });
}

// Each stage below reads what it needs from its visit before calling out:
// a submit, grant or downstream call may run other visits synchronously,
// and only handle() grows (and so may move) the pool.

void Server::start_processing(VisitRef ref) {
  Visit* visit = live(ref);
  if (visit == nullptr) return;
  visit->admitted = true;
  const PhaseDemand& demand = *visit->demand;
  const double cv = visit->ctx.request_class->demand_cv;
  for (auto& h : hooks_) {
    if (h.on_admitted) h.on_admitted(sim_.now());
  }
  const double cpu_pre =
      demand.cpu_pre <= 0.0 ? 0.0 : draw_demand(demand.cpu_pre, cv);
  if (cpu_pre > 0.0) {
    cpu_.submit(cpu_pre, [this, ref] { after_cpu(ref); });
  } else {
    after_cpu(ref);
  }
}

void Server::after_cpu(VisitRef ref) {
  const Visit* visit = live(ref);
  if (visit == nullptr) return;
  const double cv = visit->ctx.request_class->demand_cv;
  const double disk_demand =
      visit->demand->disk <= 0.0
          ? 0.0
          : draw_demand(visit->demand->disk, cv);
  if (disk_demand > 0.0) {
    disk_.submit(disk_demand, [this, ref] { after_disk(ref); });
  } else {
    after_disk(ref);
  }
}

void Server::after_disk(VisitRef ref) {
  const Visit* visit = live(ref);
  if (visit == nullptr) return;
  const double cv = visit->ctx.request_class->demand_cv;
  const double delay =
      visit->demand->pure_delay <= 0.0
          ? 0.0
          : draw_demand(visit->demand->pure_delay, cv);
  if (delay > 0.0) {
    sim_.schedule_after(delay, [this, ref] { after_delay(ref); });
  } else {
    after_delay(ref);
  }
}

void Server::after_delay(VisitRef ref) {
  Visit* visit = live(ref);
  if (visit == nullptr) return;
  visit->calls_remaining = visit->demand->downstream_calls;
  run_downstream_calls(ref);
}

void Server::run_downstream_calls(VisitRef ref) {
  Visit* visit = live(ref);
  if (visit == nullptr) return;
  if (visit->calls_remaining <= 0 || !downstream_) {
    // Final CPU burst, then depart.
    const double cv = visit->ctx.request_class->demand_cv;
    const double cpu_post =
        visit->demand->cpu_post <= 0.0
            ? 0.0
            : draw_demand(visit->demand->cpu_post, cv);
    if (cpu_post > 0.0) {
      cpu_.submit(cpu_post, [this, ref] { finish(ref); });
    } else {
      finish(ref);
    }
    return;
  }
  --visit->calls_remaining;
  if (downstream_pool_) {
    downstream_pool_->acquire([this, ref] { call_downstream(ref, true); });
  } else {
    call_downstream(ref, false);
  }
}

void Server::call_downstream(VisitRef ref, bool pooled) {
  const Visit* visit = live(ref);
  if (visit == nullptr) return;  // crashed while waiting for a connection
  const RequestContext ctx = visit->ctx;
  downstream_(ctx, [this, ref, pooled] { on_downstream_reply(ref, pooled); });
}

void Server::on_downstream_reply(VisitRef ref, bool pooled) {
  // If this server crashed while the sub-request was downstream, the pool
  // has been reset — the token this visit held no longer exists.
  if (live(ref) == nullptr) return;
  if (pooled) downstream_pool_->release();
  run_downstream_calls(ref);
}

std::size_t Server::fail() {
  // Phase 1: error every live visit in arrival order: retire admitted ones
  // from the concurrency integrators and take their completions. Releasing
  // the slot bumps its generation, which makes every continuation held by
  // pending events / downstream completions a no-op.
  std::vector<Completion> doomed;
  doomed.reserve(in_flight_);
  std::size_t aborted = 0;
  for (std::uint32_t slot = live_head_; slot != kNoVisit;) {
    Visit& visit = visits_[slot];
    const std::uint32_t next = visit.next;
    if (visit.admitted) {
      for (auto& h : hooks_) {
        if (h.on_aborted) h.on_aborted(sim_.now());
      }
    }
    if (visit.done) doomed.push_back(std::move(visit.done));
    ++aborted;
    release_visit(slot);
    slot = next;
  }
  // Phase 2: wipe resources before any completion runs, so upstream
  // reactions see a consistent (empty) server.
  cpu_.abort_all();
  disk_.clear_queue();
  threads_.reset();
  if (downstream_pool_) downstream_pool_->reset();
  in_flight_ = 0;
  aborted_ += aborted;
  // Phase 3: error the requests — the upstream gets its reply (a reset
  // connection) immediately, in arrival order.
  for (auto& done : doomed) done();
  return aborted;
}

void Server::finish(VisitRef ref) {
  Visit* visit = live(ref);
  if (visit == nullptr) return;
  const double rt = sim_.now() - visit->arrival;
  Completion done = std::move(visit->done);
  release_visit(ref.slot);
  threads_.release();
  assert(in_flight_ > 0);
  --in_flight_;
  ++completed_;
  for (auto& h : hooks_) {
    if (h.on_departed) h.on_departed(sim_.now(), rt);
  }
  if (done) done();
}

}  // namespace conscale
