// LaneGateway: the system-lane endpoint of the shard protocol
// (DESIGN.md §6.6). It terminates the client<->frontend network channel:
// requests posted by SessionShards arrive here after the one-way network
// latency, get re-stamped to their arrival instant, and enter the serving
// system through a generic outcome-aware submit function (the laned runners
// pass topology::ServiceGraph's). When the
// system finishes a request, the gateway fires the metrics hooks at the
// client-perceived completion instant and posts the reply back across the
// same channel to the owning shard.
//
// The hooks are plain std::functions rather than a MonitoringAgent* so the
// cluster layer does not grow a dependency on metrics (metrics already
// links cluster); the laned runners wire them to the monitor exactly like
// ClientPopulation's hooks.
//
// Determinism: the gateway is a LaneActor on the system lane, so its reply
// posts carry canonical (stream, seq) keys drawn in lane-0 execution order
// — which the ordering contract (DESIGN.md §8) already makes identical for
// lanes=1 and lanes=K.
#pragma once

#include <cstdint>
#include <functional>

#include "common/time_units.h"
#include "simcore/lanes/actor.h"
#include "workload/request.h"
#include "workload/session_shard.h"

namespace conscale {

/// Deterministic shard->lane placement: the system owns lane 0 exclusively,
/// session shards round-robin over the worker lanes 1..K-1. With a single
/// lane everything shares lane 0 (the engine then runs windows inline with
/// zero threads — the byte-identity baseline).
inline std::size_t shard_lane(std::size_t shard_index,
                              std::size_t lane_count) {
  if (lane_count <= 1) return 0;
  return 1 + shard_index % (lane_count - 1);
}

class LaneGateway final : public ShardGateway, public lanes::LaneActor {
 public:
  /// Outcome-aware system entry point (same shape as
  /// ClientPopulation::OutcomeSubmitFn).
  using SubmitFn =
      std::function<void(const RequestContext&,
                         std::function<void(RequestOutcome)> on_response)>;
  /// Observer of completed requests: (client issue time, client-perceived
  /// response time, request class).
  using CompletionHook =
      std::function<void(SimTime issued, double rt, const RequestClass&)>;
  /// Observer of shed requests (fires at the rejection instant).
  using RejectionHook = std::function<void(SimTime rejected_at)>;

  struct Params {
    /// Client<->frontend one-way network latency; must match the shards'.
    SimDuration net_delay = 0.05;
  };

  LaneGateway(lanes::LaneEngine& engine, std::size_t lane, SubmitFn submit,
              Params params)
      : LaneActor(engine, lane), submit_(std::move(submit)), params_(params) {}

  void set_completion_hook(CompletionHook hook) {
    completion_hook_ = std::move(hook);
  }
  void set_rejection_hook(RejectionHook hook) {
    rejection_hook_ = std::move(hook);
  }

  void on_request(const RequestContext& ctx, SessionShard& from,
                  std::uint32_t user_slot) override;

  /// The client<->frontend one-way latency this gateway models. The laned
  /// runners validate it against the LookaheadAnalysis channel delay and
  /// the shards' configured delay, so the three cannot silently diverge.
  SimDuration net_delay() const { return params_.net_delay; }

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t served() const { return served_; }
  std::uint64_t rejected() const { return rejected_; }

 private:
  SubmitFn submit_;
  Params params_;
  CompletionHook completion_hook_;
  RejectionHook rejection_hook_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace conscale
