#include "experiments/laned_runner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cluster/lane_gateway.h"
#include "metrics/shard_stats.h"
#include "workload/session_shard.h"

namespace conscale {

namespace {

std::size_t resolve_shard_count(const ScenarioParams& params,
                                const LanedRunOptions& options,
                                bool* autotuned) {
  if (options.shards > 0) {
    *autotuned = false;
    return options.shards;
  }
  *autotuned = true;
  return autotune_shards(params.scaled_users(params.max_users),
                         params.think_time);
}

void validate_options(const char* who, const LanedRunOptions& options) {
  if (options.base.session_workload) {
    throw std::invalid_argument(std::string(who) +
                                ": session workloads are not supported on "
                                "lanes");
  }
}

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

/// Builds the shard population for either runner. Shard seeds derive from
/// the same client seed the serial runners use (params.seed ^ 0xc11e) via
/// one splitmix-style draw per shard in index order — a function of
/// (seed, shard_index) only, never of the lane or thread count.
std::vector<std::unique_ptr<SessionShard>> make_shards(
    lanes::LaneEngine& engine, const ScenarioParams& params,
    const WorkloadTrace& trace, const RequestMix& mix, LaneGateway& gateway,
    const LanedRunOptions& options, std::size_t shard_count) {
  Rng seeder(params.seed ^ 0xc11e);
  std::vector<std::unique_ptr<SessionShard>> shards;
  shards.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    SessionShard::Params sp;
    sp.think_time_mean = params.think_time;
    sp.seed = seeder.next();
    sp.net_delay = options.net_delay;
    shards.push_back(std::make_unique<SessionShard>(
        engine, shard_lane(i, engine.lane_count()), i, shard_count, trace,
        mix, gateway, /*gateway_lane=*/0, sp));
  }
  return shards;
}

void fill_client_stats(ScalingRunResult& run,
                       const std::vector<std::unique_ptr<SessionShard>>& shards,
                       const MonitoringAgent& monitor) {
  std::vector<const SessionShard*> ptrs;
  ptrs.reserve(shards.size());
  for (const auto& shard : shards) ptrs.push_back(shard.get());
  const ClientStats clients = merge_shard_stats(ptrs);
  const LogHistogram& rts = clients.response_times;
  run.mean_rt_ms = to_ms(rts.mean());
  run.p50_ms = to_ms(rts.percentile(50.0));
  run.p95_ms = to_ms(rts.percentile(95.0));
  run.p99_ms = to_ms(rts.percentile(99.0));
  run.max_rt_ms = to_ms(rts.max_recorded());
  run.sla_500ms = rts.fraction_below(0.5);
  run.requests_issued = clients.requests_issued;
  run.requests_completed = clients.requests_completed;
  run.requests_rejected = clients.requests_rejected;
  run.hook_underflows = monitor.hook_underflows();
}

void fill_info(LaneRunInfo* info, const lanes::LaneEngine& engine,
               const lanes::LookaheadAnalysis& analysis,
               bool shards_autotuned,
               const std::vector<std::unique_ptr<SessionShard>>& shards) {
  if (!info) return;
  info->active_sessions = 0;
  for (const auto& shard : shards) {
    info->active_sessions += shard->active_users();
  }
  info->stats = engine.stats();
  info->lookahead = engine.lookahead();
  info->lookahead_summary = analysis.summary();
  info->lanes = engine.lane_count();
  info->shards = shards.size();
  info->shards_autotuned = shards_autotuned;
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
  TraceParams tp;
  tp.duration = options.base.duration;
  tp.max_users = params.scaled_users(params.max_users);
  tp.seed = params.seed ^ 0xbeef;
  const WorkloadTrace trace = make_trace(kind, tp);
  return run_scaling_laned(params, trace, framework_ref, options, info);
}

ScalingRunResult run_scaling_laned(const ScenarioParams& params,
                                   const WorkloadTrace& trace,
                                   const std::string& framework_ref,
                                   const LanedRunOptions& options,
                                   LaneRunInfo* info) {
  validate_options("run_scaling_laned", options);
  bool shards_autotuned = false;
  const std::size_t shard_count =
      resolve_shard_count(params, options, &shards_autotuned);
  const lanes::LookaheadAnalysis analysis = analyze_lookahead(params, options);

  lanes::LaneEngine engine({options.lanes, analysis.window()});
  Simulation& sim = engine.lane(0).sim();

  // From here the assembly mirrors run_scaling: same construction order,
  // same seed derivations, so lane-0 state is identical run to run.
  RequestMix mix = params.make_mix();
  if (options.base.runtime_dataset_scale != 1.0) {
    mix.apply_dataset_scale(options.base.runtime_dataset_scale);
  }

  const RunContext* ctx = &options.base.context;
  NTierSystem system(sim, params.system_config(), ctx);
  auto warehouse = std::make_shared<MetricsWarehouse>();
  MonitoringParams monitoring = options.base.monitoring;
  monitoring.fine_period *= params.work_scale;
  MonitoringAgent monitor(sim, system, *warehouse, monitoring, ctx);

  FrameworkConfig config = options.base.framework_config
                               ? *options.base.framework_config
                               : make_framework_config(params);
  ScalingFramework framework(sim, system, *warehouse, framework_ref, config,
                             ctx);

  // NTierSystem's submit has no rejection path; adapt it to the gateway's
  // outcome-aware shape.
  LaneGateway::SubmitFn submit =
      [&system](const RequestContext& request,
                std::function<void(RequestOutcome)> done) {
        system.submit(request, [done = std::move(done)] {
          done(RequestOutcome::kServed);
        });
      };
  LaneGateway::Params gateway_params;
  gateway_params.net_delay = options.net_delay;
  LaneGateway gateway(engine, /*lane=*/0, std::move(submit), gateway_params);
  validate_net_delay(analysis, gateway);
  gateway.set_completion_hook(
      [&monitor](SimTime issued, double rt, const RequestClass&) {
        monitor.on_client_completion(issued, rt);
      });
  gateway.set_rejection_hook(
      [&monitor](SimTime at) { monitor.on_client_rejection(at); });

  const auto shards =
      make_shards(engine, params, trace, mix, gateway, options, shard_count);

  std::unique_ptr<FaultInjector> injector;
  if (!options.base.faults.empty()) {
    injector = std::make_unique<FaultInjector>(sim, system, warehouse.get(),
                                               options.base.faults, ctx);
    injector->arm();
  }

  engine.run(options.base.duration);

  ScalingRunResult result;
  result.framework_name = framework.name();
  result.framework_key = framework.key();
  result.trace_name = trace.name();
  result.controller_counters = framework.controller().counters();
  result.system = warehouse->system_series();
  for (std::size_t i = 0; i < system.tier_count(); ++i) {
    const std::string& name = system.tier(i).name();
    result.tiers[name] = warehouse->tier_series(name);
  }
  result.events = framework.all_events();
  if (auto* estimator = framework.estimator_service()) {
    result.sct_history = estimator->history();
  }
  fill_client_stats(result, shards, monitor);
  if (injector) {
    result.fault_stats = injector->stats();
    result.fault_windows = injector->windows();
    result.fault_plan_text = injector->plan().to_text();
    result.requests_aborted = system.total_aborted_requests();
    result.dropped_samples = warehouse->dropped_samples();
  }
  result.warehouse = std::move(warehouse);
  fill_info(info, engine, analysis, shards_autotuned, shards);
  return result;
}

GraphRunResult run_graph_scaling_laned(const GraphScenario& scenario,
                                       TraceKind kind,
                                       const std::string& framework_ref,
                                       const LanedRunOptions& options,
                                       LaneRunInfo* info) {
  TraceParams tp;
  tp.duration = options.base.duration;
  tp.max_users = scenario.base.scaled_users(scenario.base.max_users);
  tp.seed = scenario.base.seed ^ 0xbeef;
  const WorkloadTrace trace = make_trace(kind, tp);
  return run_graph_scaling_laned(scenario, trace, framework_ref, options,
                                 info);
}

GraphRunResult run_graph_scaling_laned(const GraphScenario& scenario,
                                       const WorkloadTrace& trace,
                                       const std::string& framework_ref,
                                       const LanedRunOptions& options,
                                       LaneRunInfo* info) {
  validate_options("run_graph_scaling_laned", options);
  bool shards_autotuned = false;
  const std::size_t shard_count =
      resolve_shard_count(scenario.base, options, &shards_autotuned);
  const lanes::LookaheadAnalysis analysis =
      analyze_lookahead(scenario.base, options);

  lanes::LaneEngine engine({options.lanes, analysis.window()});
  Simulation& sim = engine.lane(0).sim();

  RequestMix mix = scenario.mix;
  if (options.base.runtime_dataset_scale != 1.0) {
    mix.apply_dataset_scale(options.base.runtime_dataset_scale);
  }

  const RunContext* ctx = &options.base.context;
  topology::ServiceGraph system(sim, scenario.graph, ctx);
  auto warehouse = std::make_shared<MetricsWarehouse>();
  MonitoringParams monitoring = options.base.monitoring;
  monitoring.fine_period *= scenario.base.work_scale;
  MonitoringAgent monitor(sim, system, *warehouse, monitoring, ctx);

  FrameworkConfig config = options.base.framework_config
                               ? *options.base.framework_config
                               : scenario.framework;
  ScalingFramework framework(sim, system, *warehouse, framework_ref, config,
                             ctx);
  LatencyBreakdown breakdown(system);

  LaneGateway::SubmitFn submit =
      [&system](const RequestContext& request,
                std::function<void(RequestOutcome)> done) {
        system.submit(request, std::move(done));
      };
  LaneGateway::Params gateway_params;
  gateway_params.net_delay = options.net_delay;
  LaneGateway gateway(engine, /*lane=*/0, std::move(submit), gateway_params);
  validate_net_delay(analysis, gateway);
  gateway.set_completion_hook(
      [&monitor](SimTime issued, double rt, const RequestClass&) {
        monitor.on_client_completion(issued, rt);
      });
  gateway.set_rejection_hook(
      [&monitor](SimTime at) { monitor.on_client_rejection(at); });

  const auto shards =
      make_shards(engine, scenario.base, trace, mix, gateway, options,
                  shard_count);

  std::unique_ptr<FaultInjector> injector;
  if (!options.base.faults.empty()) {
    injector = std::make_unique<FaultInjector>(sim, system, warehouse.get(),
                                               options.base.faults, ctx);
    injector->arm();
  }

  engine.run(options.base.duration);

  GraphRunResult result;
  ScalingRunResult& run = result.run;
  run.framework_name = framework.name();
  run.framework_key = framework.key();
  run.trace_name = trace.name();
  run.controller_counters = framework.controller().counters();
  run.system = warehouse->system_series();
  for (std::size_t i = 0; i < system.tier_count(); ++i) {
    const std::string& name = system.tier(i).name();
    run.tiers[name] = warehouse->tier_series(name);
  }
  run.events = framework.all_events();
  if (auto* estimator = framework.estimator_service()) {
    run.sct_history = estimator->history();
  }
  fill_client_stats(run, shards, monitor);
  if (injector) {
    run.fault_stats = injector->stats();
    run.fault_windows = injector->windows();
    run.fault_plan_text = injector->plan().to_text();
    run.requests_aborted = system.total_aborted_requests();
    run.dropped_samples = warehouse->dropped_samples();
  }
  run.warehouse = std::move(warehouse);

  result.admission = system.admission_stats();
  for (std::size_t i = 0; i < system.tier_count(); ++i) {
    if (scenario.graph.nodes[i].cache.enabled) {
      result.caches.emplace_back(system.tier(i).name(),
                                 system.cache_stats(i));
    }
  }
  result.node_latency = breakdown.by_tier();
  fill_info(info, engine, analysis, shards_autotuned, shards);
  return result;
}

}  // namespace conscale
