#include "topology/service_graph.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

namespace conscale::topology {

double CacheModel::hit_ratio_at(SimTime t) const {
  double ws = working_set;
  if (churn_period > 0.0 && churn_amplitude != 0.0) {
    const double cycles = t / churn_period;
    const double phase = cycles - std::floor(cycles);
    // Triangle wave: -1 at the period edges, +1 mid-period. The working set
    // starts small (hit ratio at its best), swells to its peak halfway
    // through each churn cycle, and recedes again.
    const double tri = 1.0 - 4.0 * std::abs(phase - 0.5);
    ws = working_set * (1.0 + churn_amplitude * tri);
  }
  const double coverage = ws > 0.0 ? std::min(1.0, capacity / ws) : 1.0;
  return std::clamp(base_hit_ratio * coverage, 0.0, 1.0);
}

void ServiceGraph::validate(const ServiceGraphConfig& config) const {
  if (config.nodes.empty()) {
    throw std::invalid_argument("ServiceGraph: no nodes configured");
  }
  const std::size_t n = config.nodes.size();
  std::set<std::string> names;
  for (std::size_t i = 0; i < n; ++i) {
    const GraphNodeConfig& node = config.nodes[i];
    if (!names.insert(node.tier.name).second) {
      throw std::invalid_argument("ServiceGraph: duplicate node name '" +
                                  node.tier.name + "'");
    }
    for (const RouteStage& stage : node.route) {
      for (const GraphCall& call : stage.calls) {
        if (call.node >= n) {
          throw std::invalid_argument(
              "ServiceGraph: node '" + node.tier.name +
              "' routes to out-of-range node index " +
              std::to_string(call.node));
        }
        if (call.node == i) {
          throw std::invalid_argument("ServiceGraph: node '" +
                                      node.tier.name + "' calls itself");
        }
      }
    }
  }
  // Cycle check (iterative three-color DFS) + reachability from the entry.
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(n, Color::kWhite);
  struct Frame {
    std::size_t node;
    std::size_t stage = 0;
    std::size_t call = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({0});
  color[0] = Color::kGray;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const GraphNodeConfig& node = config.nodes[frame.node];
    // Advance to the next unvisited edge of this node.
    while (frame.stage < node.route.size() &&
           frame.call >= node.route[frame.stage].calls.size()) {
      ++frame.stage;
      frame.call = 0;
    }
    if (frame.stage >= node.route.size()) {
      color[frame.node] = Color::kBlack;
      stack.pop_back();
      continue;
    }
    const std::size_t child = node.route[frame.stage].calls[frame.call].node;
    ++frame.call;
    if (color[child] == Color::kGray) {
      throw std::invalid_argument(
          "ServiceGraph: cycle through node '" +
          config.nodes[child].tier.name + "'");
    }
    if (color[child] == Color::kWhite) {
      color[child] = Color::kGray;
      stack.push_back({child});
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (color[i] == Color::kWhite) {
      throw std::invalid_argument("ServiceGraph: node '" +
                                  config.nodes[i].tier.name +
                                  "' is unreachable from the entry");
    }
  }
}

ServiceGraph::ServiceGraph(Simulation& sim, ServiceGraphConfig config,
                           const RunContext* context)
    : sim_(sim), ctx_(context ? context : &RunContext::global()),
      config_(std::move(config)) {
  validate(config_);
  const std::size_t n = config_.nodes.size();
  cache_stats_.resize(n);
  cache_rngs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Fixed per-node stream derivation so cache draws replay byte-identically
    // and are independent of every other RNG consumer in the run.
    cache_rngs_.emplace_back(config_.seed ^
                             (0x9e3779b97f4a7c15ULL * (i + 1)));
    TierConfig tc = config_.nodes[i].tier;
    tc.tier_index = static_cast<int>(i);
    tiers_.push_back(std::make_unique<TierGroup>(sim_, tc, ctx_));
  }
  // Wire each routing node's servers to the graph router. Leaf nodes with no
  // cache keep a null downstream, exactly like the chain's last tier.
  for (std::size_t i = 0; i < n; ++i) {
    const GraphNodeConfig& node = config_.nodes[i];
    if (node.route.empty() && !node.cache.enabled) continue;
    tiers_[i]->set_downstream_factory([this, i]() {
      return [this, i](const RequestContext& ctx, Server::Completion done) {
        const CacheModel& cache = config_.nodes[i].cache;
        if (cache.enabled) {
          const double h = cache.hit_ratio_at(sim_.now());
          if (cache_rngs_[i].bernoulli(h)) {
            ++cache_stats_[i].hits;
            done();  // hit: the whole subtree is short-circuited
            return;
          }
          ++cache_stats_[i].misses;
        }
        run_route(i, ctx, 0, std::move(done));
      };
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    tiers_[i]->set_vm_ready_callback([this, i](Vm& vm) {
      for (auto& callback : on_vm_ready_) callback(i, vm);
    });
  }
  // Bootstrap after wiring so even time-zero VMs get their downstream set.
  for (std::size_t i = 0; i < n; ++i) {
    tiers_[i]->bootstrap(config_.nodes[i].initial_vms);
  }
}

void ServiceGraph::run_route(std::size_t node_index, const RequestContext& ctx,
                             std::size_t stage_index,
                             Server::Completion done) {
  const auto& route = config_.nodes[node_index].route;
  while (stage_index < route.size() &&
         route[stage_index].calls.empty()) {
    ++stage_index;
  }
  if (stage_index >= route.size()) {
    done();
    return;
  }
  const RouteStage& stage = route[stage_index];
  Server::Completion next;
  if (stage_index + 1 >= route.size()) {
    next = std::move(done);
  } else {
    next = [this, node_index, ctx, stage_index,
            done = std::move(done)]() mutable {
      run_route(node_index, ctx, stage_index + 1, std::move(done));
    };
  }
  if (stage.calls.size() == 1) {
    // Sequential call: no join bookkeeping — this is the chain's downstream
    // dispatch verbatim (the linear-equivalence contract rides on it).
    tiers_[stage.calls[0].node]->lb().dispatch(ctx, std::move(next));
    return;
  }
  // Parallel fan-out with join-on-all: the last reply continues the route.
  struct JoinState {
    std::size_t remaining;
    Server::Completion next;
  };
  auto join = std::make_shared<JoinState>();
  join->remaining = stage.calls.size();
  join->next = std::move(next);
  for (const GraphCall& call : stage.calls) {
    tiers_[call.node]->lb().dispatch(ctx, [join] {
      if (--join->remaining == 0) join->next();
    });
  }
}

bool ServiceGraph::admit() {
  const AdmissionPolicy& policy = config_.admission;
  if (policy.queue_limit > 0) {
    LoadBalancer& lb = tiers_.front()->lb();
    std::size_t depth = lb.surge_queued();
    for (Server* server : lb.backends()) depth += server->queued();
    if (depth >= policy.queue_limit) {
      ++admission_stats_.rejected_occupancy;
      return false;
    }
  }
  if (policy.max_queue_age > 0.0) {
    prune_inflight();
    if (!inflight_.empty() &&
        sim_.now() - inflight_.front().admitted_at > policy.max_queue_age) {
      ++admission_stats_.rejected_age;
      return false;
    }
  }
  return true;
}

void ServiceGraph::prune_inflight() {
  while (!inflight_.empty() &&
         completed_ids_.erase(inflight_.front().id) > 0) {
    inflight_.pop_front();
  }
}

void ServiceGraph::submit(const RequestContext& ctx,
                          std::function<void(RequestOutcome)> done) {
  if (config_.admission.enabled && !admit()) {
    done(RequestOutcome::kRejected);
    return;
  }
  ++admission_stats_.admitted;
  const bool track =
      config_.admission.enabled && config_.admission.max_queue_age > 0.0;
  if (track) inflight_.push_back({ctx.id, sim_.now()});
  tiers_.front()->lb().dispatch(
      ctx, [this, track, id = ctx.id, done = std::move(done)] {
        if (track) {
          completed_ids_.insert(id);
          prune_inflight();
        }
        done(RequestOutcome::kServed);
      });
}

void ServiceGraph::add_vm_ready_callback(VmReadyCallback callback) {
  on_vm_ready_.push_back(std::move(callback));
}

}  // namespace conscale::topology
