// ServiceGraph: the DAG generalization of NTierSystem (DESIGN.md §"Service
// graphs"). Each graph node owns one horizontally scalable TierGroup plus a
// routing spec: an ordered list of stages executed sequentially, where every
// stage fans out to one or more child nodes in parallel and joins on all
// replies before the next stage runs (synchronous RPC semantics throughout —
// the serving thread is held across the whole route, exactly like the
// chain's downstream calls). Nodes may share children ("shared backend"), so
// cross-traffic from several parents meets at one tier and per-node SCT
// ranges must be estimated under interference.
//
// Two node behaviors ride on top of plain routing:
//   * cache nodes — a deterministic hit-ratio model; a hit short-circuits
//     the node's whole subtree. The hit ratio follows the cache's coverage
//     of a (possibly churning) working set, so the critical resource can
//     migrate between nodes mid-run.
//   * admission control at the graph entry — occupancy- and queue-age-based
//     shedding that reports RequestOutcome::kRejected instead of queueing
//     into an overloaded system.
//
// ServiceGraph implements TierSystem with node index == tier index, so every
// scaling framework, estimator, monitor, and fault plan runs against a graph
// unmodified; a linear chain expressed as a graph replays the exact event
// sequence NTierSystem produces (pinned by tests/topology).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "cluster/tier_group.h"
#include "cluster/tier_system.h"
#include "common/rng.h"
#include "common/run_context.h"
#include "simcore/simulation.h"
#include "workload/request.h"

namespace conscale::topology {

/// One call inside a route stage: dispatch into `node`'s load balancer.
struct GraphCall {
  std::size_t node = 0;
};

/// One sequential step of a node's route. All calls in a stage are issued
/// together (parallel fan-out) and joined on *all* replies before the next
/// stage starts; a single-call stage degenerates to the chain's sequential
/// RPC with zero extra bookkeeping.
struct RouteStage {
  std::vector<GraphCall> calls;
};

/// Deterministic cache model: each downstream invocation of the node draws
/// hit/miss from the node's own RNG stream (forked off the graph seed, so
/// runs replay byte-identically). The hit ratio is the base ratio scaled by
/// how much of the working set the cache covers:
///
///   h(t) = base_hit_ratio * min(1, capacity / ws(t))
///
/// where ws(t) rides a triangle wave of `churn_amplitude` around
/// `working_set` with period `churn_period` (0 = static). A growing working
/// set mid-period drops the hit ratio and pushes load into the subtree —
/// the critical resource migrates between nodes within one run.
struct CacheModel {
  bool enabled = false;
  double base_hit_ratio = 0.8;
  double capacity = 1.0;     ///< cache size, in working-set units
  double working_set = 1.0;  ///< nominal working-set size
  double churn_period = 0.0;     ///< seconds; 0 disables churn
  double churn_amplitude = 0.0;  ///< fractional swing of the working set

  double hit_ratio_at(SimTime t) const;
};

/// Entry-point shedding. A request is rejected (never enters any server)
/// when either bound trips:
///   * occupancy — requests waiting at the entry node (thread-pool queues
///     plus the LB surge backlog) have reached `queue_limit`;
///   * queue age — the oldest still-in-flight admitted request is older
///     than `max_queue_age` (the "queues aged out" signal: responses are
///     already slower than any client would wait for).
/// Either limit set to 0 disables that check.
struct AdmissionPolicy {
  bool enabled = false;
  std::size_t queue_limit = 0;
  double max_queue_age = 0.0;  ///< seconds
};

struct GraphNodeConfig {
  TierConfig tier;  ///< tier_index is overwritten with the node index
  std::size_t initial_vms = 1;
  std::vector<RouteStage> route;  ///< empty = leaf node
  CacheModel cache;
};

struct ServiceGraphConfig {
  /// Node 0 is the graph entry. Routes must form a DAG over the indices and
  /// every node must be reachable from the entry.
  std::vector<GraphNodeConfig> nodes;
  AdmissionPolicy admission;
  std::uint64_t seed = 1;  ///< cache hit/miss streams fork off this
};

struct AdmissionStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected_occupancy = 0;
  std::uint64_t rejected_age = 0;

  std::uint64_t rejected() const { return rejected_occupancy + rejected_age; }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

class ServiceGraph final : public TierSystem {
 public:
  /// Validates the config (throws std::invalid_argument on cycles,
  /// out-of-range route targets, self-calls, duplicate node names, or
  /// nodes unreachable from the entry), builds one TierGroup per node,
  /// wires the routers, and bootstraps the initial VMs.
  ServiceGraph(Simulation& sim, ServiceGraphConfig config,
               const RunContext* context = nullptr);

  const RunContext& context() const override { return *ctx_; }

  /// Client entry point. The continuation reports whether the request was
  /// served or shed; rejections fire synchronously at submit time.
  void submit(const RequestContext& ctx,
              std::function<void(RequestOutcome)> done);

  // ---- TierSystem (node index == tier index) ----
  std::size_t tier_count() const override { return tiers_.size(); }
  TierGroup& tier(std::size_t index) override { return *tiers_[index]; }
  const TierGroup& tier(std::size_t index) const override {
    return *tiers_[index];
  }
  void add_vm_ready_callback(VmReadyCallback callback) override;

  // ---- Graph-specific observability ----
  const ServiceGraphConfig& config() const { return config_; }
  const AdmissionStats& admission_stats() const { return admission_stats_; }
  const CacheStats& cache_stats(std::size_t node) const {
    return cache_stats_[node];
  }
  /// The cache model's hit ratio at time t (tests pin the churn shape).
  double cache_hit_ratio(std::size_t node, SimTime t) const {
    return config_.nodes[node].cache.hit_ratio_at(t);
  }

 private:
  struct InFlight {
    std::uint64_t id;
    SimTime admitted_at;
  };

  void validate(const ServiceGraphConfig& config) const;
  void run_route(std::size_t node, const RequestContext& ctx,
                 std::size_t stage, Server::Completion done);
  bool admit();
  void prune_inflight();

  Simulation& sim_;
  const RunContext* ctx_;
  ServiceGraphConfig config_;
  std::vector<std::unique_ptr<TierGroup>> tiers_;
  std::vector<VmReadyCallback> on_vm_ready_;
  std::vector<Rng> cache_rngs_;          ///< per node (unused if no cache)
  std::vector<CacheStats> cache_stats_;  ///< per node
  AdmissionStats admission_stats_;
  /// Age tracking (only populated when the age check is armed): admitted
  /// requests in admission order + lazily-pruned completion marks. Keyed
  /// access only — never iterated (determinism audit, DESIGN.md §8).
  std::deque<InFlight> inflight_;
  std::unordered_set<std::uint64_t> completed_ids_;
};

}  // namespace conscale::topology
