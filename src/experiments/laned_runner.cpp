#include "experiments/laned_runner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/lane_gateway.h"
#include "experiments/run_assembly.h"
#include "metrics/shard_stats.h"
#include "workload/session_shard.h"

namespace conscale {

namespace {

/// The LookaheadAnalysis channel the gateway terminates must be the delay
/// the gateway (and the shards) actually model — the engine's safety rests
/// on it, so drift is a logic error, not a tuning knob.
void validate_net_delay(const lanes::LookaheadAnalysis& analysis,
                        const LaneGateway& gateway) {
  for (const lanes::LookaheadSource& source : analysis.sources()) {
    if (!source.is_channel || source.name != "client->frontend net") continue;
    if (source.delay == gateway.net_delay()) return;
    throw std::logic_error(
        "laned runner: gateway net_delay diverged from the analyzed "
        "client channel delay");
  }
  throw std::logic_error(
      "laned runner: lookahead analysis lost the client channel");
}

/// The lane engine's driver: the gateway on lane 0, where the whole system
/// runs, and the session shards on the worker lanes.
class LaneDriver final : public RunDriver {
 public:
  LaneDriver(RunAssembly& run, lanes::LaneEngine& engine,
             const lanes::LookaheadAnalysis& analysis,
             const LanedRunOptions& options, std::size_t shard_count)
      : gateway_(engine, /*lane=*/0,
                 [&system = run.system](
                     const RequestContext& request,
                     std::function<void(RequestOutcome)> done) {
                   system.submit(request, std::move(done));
                 },
                 LaneGateway::Params{options.net_delay}) {
    validate_net_delay(analysis, gateway_);
    MonitoringAgent& monitor = run.monitor;
    gateway_.set_completion_hook(
        [&monitor](SimTime issued, double rt, const RequestClass&) {
          monitor.on_client_completion(issued, rt);
        });
    gateway_.set_rejection_hook(
        [&monitor](SimTime at) { monitor.on_client_rejection(at); });
    // Shard seeds derive from the same client seed the serial runners use
    // (seed ^ 0xc11e) via one splitmix-style draw per shard in index order
    // — a function of (seed, shard_index) only, never of the lane or
    // thread count.
    const ScenarioParams& base = run.scenario.base;
    Rng seeder(base.seed ^ 0xc11e);
    shards_.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) {
      SessionShard::Params params;
      params.think_time_mean = base.think_time;
      params.seed = seeder.next();
      params.net_delay = options.net_delay;
      shards_.push_back(std::make_unique<SessionShard>(
          engine, shard_lane(i, engine.lane_count()), i, shard_count,
          run.trace, run.mix, gateway_, /*gateway_lane=*/0, params));
    }
  }

  void fill_client_stats(ScalingRunResult& run) const override {
    std::vector<const SessionShard*> ptrs;
    ptrs.reserve(shards_.size());
    for (const auto& shard : shards_) ptrs.push_back(shard.get());
    const ClientStats clients = merge_shard_stats(ptrs);
    conscale::fill_client_stats(run, clients.response_times,
                                clients.requests_issued,
                                clients.requests_completed,
                                clients.requests_rejected);
  }

  void report(LaneRunInfo& info, const lanes::LaneEngine& engine,
              const lanes::LookaheadAnalysis& analysis,
              bool shards_autotuned) const {
    info.active_sessions = 0;
    for (const auto& shard : shards_) {
      info.active_sessions += shard->active_users();
    }
    info.stats = engine.stats();
    info.lookahead = engine.lookahead();
    info.lookahead_summary = analysis.summary();
    info.lanes = engine.lane_count();
    info.shards = shards_.size();
    info.shards_autotuned = shards_autotuned;
  }

 private:
  LaneGateway gateway_;
  std::vector<std::unique_ptr<SessionShard>> shards_;
};

template <typename Result>
Result run_laned(const GraphScenario& scenario, const WorkloadTrace& trace,
                 const std::string& framework_ref,
                 const LanedRunOptions& options, LaneRunInfo* info) {
  validate_run(scenario, options.base, /*laned=*/true);
  const ScenarioParams& base = scenario.base;
  const bool shards_autotuned = options.shards == 0;
  const std::size_t shard_count =
      shards_autotuned
          ? autotune_shards(base.scaled_users(base.max_users), base.think_time)
          : options.shards;
  const lanes::LookaheadAnalysis analysis = analyze_lookahead(base, options);

  lanes::LaneEngine engine({options.lanes, analysis.window()});
  RunAssembly run(engine.lane(0).sim(), scenario, trace, framework_ref,
                  options.base, std::is_same_v<Result, GraphRunResult>);
  LaneDriver driver(run, engine, analysis, options, shard_count);
  run.start(driver);
  engine.run(options.base.duration);

  Result result;
  run.extract(result);
  if (info) driver.report(*info, engine, analysis, shards_autotuned);
  return result;
}

}  // namespace

std::size_t autotune_shards(double peak_sessions, double think_time_mean) {
  constexpr double kRequestsPerShardSecond = 300.0;
  const double think = std::max(think_time_mean, 1e-6);
  const double aggregate_rate = std::max(peak_sessions, 0.0) / think;
  const double shards = std::ceil(aggregate_rate / kRequestsPerShardSecond);
  if (!(shards >= 1.0)) return 1;
  if (shards >= 64.0) return 64;
  return static_cast<std::size_t>(shards);
}

lanes::LookaheadAnalysis analyze_lookahead(const ScenarioParams& params,
                                           const LanedRunOptions& options) {
  lanes::LookaheadAnalysis analysis;
  // The client<->frontend network, both directions — the only cross-lane
  // delay of the partition.
  analysis.add_source("client->frontend net", options.net_delay, true);
  analysis.add_source("frontend->client net", options.net_delay, true);
  // Documented slack that never crosses a lane boundary: lane 0 keeps the
  // whole scaling loop local.
  analysis.add_source("vm prep delay", params.vm_prep_delay, false);
  analysis.add_source("monitoring coarse period",
                      options.base.monitoring.coarse_period, false);
  return analysis;
}

ScalingRunResult run_scaling_laned(const ScenarioParams& params,
                                   TraceKind kind,
                                   const std::string& framework_ref,
                                   const LanedRunOptions& options,
                                   LaneRunInfo* info) {
  return run_scaling_laned(
      params, make_run_trace(params, kind, options.base.duration),
      framework_ref, options, info);
}

ScalingRunResult run_scaling_laned(const ScenarioParams& params,
                                   const WorkloadTrace& trace,
                                   const std::string& framework_ref,
                                   const LanedRunOptions& options,
                                   LaneRunInfo* info) {
  return run_laned<ScalingRunResult>(make_linear_scenario(params), trace,
                                     framework_ref, options, info);
}

GraphRunResult run_graph_scaling_laned(const GraphScenario& scenario,
                                       TraceKind kind,
                                       const std::string& framework_ref,
                                       const LanedRunOptions& options,
                                       LaneRunInfo* info) {
  return run_graph_scaling_laned(
      scenario, make_run_trace(scenario.base, kind, options.base.duration),
      framework_ref, options, info);
}

GraphRunResult run_graph_scaling_laned(const GraphScenario& scenario,
                                       const WorkloadTrace& trace,
                                       const std::string& framework_ref,
                                       const LanedRunOptions& options,
                                       LaneRunInfo* info) {
  return run_laned<GraphRunResult>(scenario, trace, framework_ref, options,
                                   info);
}

}  // namespace conscale
