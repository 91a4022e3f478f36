#include "cluster/load_balancer.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace conscale {

std::string to_string(LbPolicy policy) {
  switch (policy) {
    case LbPolicy::kRoundRobin:
      return "roundrobin";
    case LbPolicy::kLeastConnections:
      return "leastconn";
  }
  return "?";
}

LoadBalancer::LoadBalancer(std::string name, LbPolicy policy)
    : name_(std::move(name)), policy_(policy) {}

void LoadBalancer::add_backend(Server* server) {
  ever_had_backend_ = true;
  if (std::find(backends_.begin(), backends_.end(), server) !=
      backends_.end()) {
    return;
  }
  backends_.push_back(server);
  flush_surge_queue();
}

void LoadBalancer::remove_backend(Server* server) {
  std::erase(backends_, server);
  // Its in-flight requests complete normally and leave the server's count.
}

Server* LoadBalancer::choose_backend() {
  switch (policy_) {
    case LbPolicy::kRoundRobin: {
      rr_index_ = (rr_index_ + 1) % backends_.size();
      return backends_[rr_index_];
    }
    case LbPolicy::kLeastConnections: {
      Server* best = nullptr;
      std::size_t best_count = std::numeric_limits<std::size_t>::max();
      // Scan order makes ties deterministic (first added wins); no
      // address is ever compared.
      for (Server* server : backends_) {
        const std::size_t count = server->in_flight();
        if (count < best_count) {
          best = server;
          best_count = count;
        }
      }
      return best;
    }
  }
  return backends_.front();
}

void LoadBalancer::dispatch(const RequestContext& ctx, Completion done) {
  if (backends_.empty()) {
    if (!ever_had_backend_) {
      throw std::runtime_error("LoadBalancer '" + name_ + "': no backends");
    }
    // Every backend is down (tier-wide crash). Park the request; it resumes
    // FIFO when a backend re-registers.
    waiting_.push_back(Parked{ctx, std::move(done)});
    return;
  }
  Server* target = choose_backend();
  ++dispatched_;
  target->handle(ctx, std::move(done));
}

void LoadBalancer::flush_surge_queue() {
  if (flushing_) return;  // dispatch completions may re-enter add_backend
  flushing_ = true;
  while (!waiting_.empty() && !backends_.empty()) {
    Parked parked = std::move(waiting_.front());
    waiting_.pop_front();
    dispatch(parked.ctx, std::move(parked.done));
  }
  flushing_ = false;
}

}  // namespace conscale
