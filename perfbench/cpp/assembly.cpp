#include "assembly.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <set>

#include "experiments/runner.h"
#include "metrics/latency_breakdown.h"
#include "topology/service_graph.h"
#include "workload/client.h"

namespace perfbench {

using namespace conscale;

namespace {

/// Counts every server's admissions, departures and aborts by tier, for the
/// servers present now and every VM brought up later (restarted VMs fire
/// vm-ready again with the same server, hence the name set).
class TierCounters {
 public:
  TierCounters(TierSystem& system, TracedRun& out) : out_(out) {
    out_.tier_names.clear();
    out_.tier_visits.assign(system.tier_count(), 0);
    for (std::size_t i = 0; i < system.tier_count(); ++i) {
      out_.tier_names.push_back(system.tier(i).name());
      for (Vm* vm : system.tier(i).all_vms()) attach(i, *vm);
    }
    system.add_vm_ready_callback(
        [this](std::size_t tier, Vm& vm) { attach(tier, vm); });
  }
  TierCounters(const TierCounters&) = delete;
  TierCounters& operator=(const TierCounters&) = delete;

 private:
  void attach(std::size_t tier, Vm& vm) {
    if (!attached_.insert(vm.name()).second) return;
    Server::Hooks hooks;
    TracedRun* out = &out_;
    hooks.on_departed = [out, tier](SimTime, double) {
      ++out->tier_visits[tier];
    };
    hooks.on_aborted = [out](SimTime) { ++out->aborted; };
    vm.server().add_hooks(std::move(hooks));
  }

  TracedRun& out_;
  std::set<std::string> attached_;
};

/// run_until in 1 s simulated slices, one span each; the kernel's pending
/// queue is sampled at every slice edge.
void run_sliced(Simulation& sim, SimDuration duration, TracedRun& out) {
  for (SimTime edge = 1.0;; edge += 1.0) {
    const SimTime deadline = std::min(edge, duration);
    {
      ScopedSpan span(out.tracer, SpanKind::kRunUntil);
      sim.run_until(deadline);
    }
    out.pending_peak = std::max(out.pending_peak, sim.pending_events());
    if (deadline >= duration) break;
  }
  out.events = sim.events_executed();
}

std::size_t largest_pool(TierSystem& system) {
  std::size_t largest = 0;
  for (std::size_t i = 0; i < system.tier_count(); ++i) {
    const TierGroup& tier = system.tier(i);
    largest = std::max({largest, tier.thread_pool_size(),
                        tier.downstream_pool_size()});
  }
  return largest;
}

/// The runners' result extraction, shared by both assemblies.
void extract(ScalingRunResult& run, ScalingFramework& framework,
             TierSystem& system, std::shared_ptr<MetricsWarehouse> warehouse,
             MonitoringAgent& monitor, const ClientPopulation& clients,
             const WorkloadTrace& trace, FaultInjector* injector) {
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
  const LogHistogram& rts = clients.response_times();
  run.mean_rt_ms = to_ms(rts.mean());
  run.p50_ms = to_ms(rts.percentile(50.0));
  run.p95_ms = to_ms(rts.percentile(95.0));
  run.p99_ms = to_ms(rts.percentile(99.0));
  run.max_rt_ms = to_ms(rts.max_recorded());
  run.sla_500ms = rts.fraction_below(0.5);
  run.requests_issued = clients.requests_issued();
  run.requests_completed = clients.requests_completed();
  run.requests_rejected = clients.requests_rejected();
  run.hook_underflows = monitor.hook_underflows();
  if (injector) {
    run.fault_stats = injector->stats();
    run.fault_windows = injector->windows();
    run.fault_plan_text = injector->plan().to_text();
    run.requests_aborted = system.total_aborted_requests();
    run.dropped_samples = warehouse->dropped_samples();
  }
  run.warehouse = std::move(warehouse);
}

void finish(TracedRun& out, TierSystem& system, std::int64_t start) {
  out.peak_pool = largest_pool(system);
  out.wall_s = seconds_since(start);
}

}  // namespace

ScalingRunResult run_chain_traced(const ChainInputs& in, TracedRun& out) {
  const std::int64_t start = now_ns();
  const ScenarioParams& params = in.params;
  const ScalingRunOptions& options = in.options;
  Tracer& tracer = out.tracer;

  Simulation sim;
  RequestMix mix = params.make_mix();
  if (options.runtime_dataset_scale != 1.0) {
    mix.apply_dataset_scale(options.runtime_dataset_scale);
  }
  const RunContext* ctx = &options.context;
  NTierSystem system(sim, params.system_config(), ctx);
  auto warehouse = std::make_shared<MetricsWarehouse>();
  MonitoringParams monitoring = options.monitoring;
  monitoring.fine_period *= params.work_scale;
  MonitoringAgent monitor(sim, system, *warehouse, monitoring, ctx);
  FrameworkConfig config = options.framework_config
                               ? *options.framework_config
                               : make_framework_config(params);
  ScalingFramework framework(sim, system, *warehouse, kFramework, config, ctx);
  TierCounters counters(system, out);

  auto submit_fn = [&system, &tracer, &out](const RequestContext& request,
                                            std::function<void()> done) {
    ++out.entry_requests;
    const std::uint64_t id = request.id;
    ScopedSpan span(tracer, SpanKind::kSubmit, id);
    system.submit(request, [&tracer, id, done = std::move(done)] {
      ScopedSpan reply(tracer, SpanKind::kDone, id);
      done();
    });
  };
  ClientPopulation::Params client_params;
  client_params.think_time_mean = params.think_time;
  client_params.seed = params.seed ^ 0xc11e;
  ClientPopulation clients(sim, in.trace, mix, submit_fn, client_params);
  clients.set_completion_hook(
      [&monitor, &tracer](SimTime issued, double rt, const RequestClass&) {
        ScopedSpan span(tracer, SpanKind::kHook);
        monitor.on_client_completion(issued, rt);
      });

  std::unique_ptr<FaultInjector> injector;
  if (!options.faults.empty()) {
    injector = std::make_unique<FaultInjector>(sim, system, warehouse.get(),
                                               options.faults, ctx);
    injector->arm();
  }

  run_sliced(sim, options.duration, out);

  ScalingRunResult result;
  extract(result, framework, system, std::move(warehouse), monitor, clients,
          in.trace, injector.get());
  finish(out, system, start);
  return result;
}

GraphRunResult run_graph_traced(const GraphScenario& scenario,
                                const WorkloadTrace& trace,
                                const ScalingRunOptions& options,
                                TracedRun& out) {
  const std::int64_t start = now_ns();
  Tracer& tracer = out.tracer;

  Simulation sim;
  RequestMix mix = scenario.mix;
  if (options.runtime_dataset_scale != 1.0) {
    mix.apply_dataset_scale(options.runtime_dataset_scale);
  }
  const RunContext* ctx = &options.context;
  topology::ServiceGraph system(sim, scenario.graph, ctx);
  auto warehouse = std::make_shared<MetricsWarehouse>();
  MonitoringParams monitoring = options.monitoring;
  monitoring.fine_period *= scenario.base.work_scale;
  MonitoringAgent monitor(sim, system, *warehouse, monitoring, ctx);
  FrameworkConfig config = options.framework_config
                               ? *options.framework_config
                               : scenario.framework;
  ScalingFramework framework(sim, system, *warehouse, kFramework, config, ctx);
  LatencyBreakdown breakdown(system);
  TierCounters counters(system, out);

  auto submit_fn = [&system, &tracer, &out](
                       const RequestContext& request,
                       std::function<void(RequestOutcome)> done) {
    ++out.entry_requests;
    const std::uint64_t id = request.id;
    ScopedSpan span(tracer, SpanKind::kSubmit, id);
    system.submit(request,
                  [&tracer, id, done = std::move(done)](RequestOutcome o) {
                    ScopedSpan reply(tracer, SpanKind::kDone, id);
                    done(o);
                  });
  };
  ClientPopulation::Params client_params;
  client_params.think_time_mean = scenario.base.think_time;
  client_params.seed = scenario.base.seed ^ 0xc11e;
  ClientPopulation clients(sim, trace, mix, submit_fn, client_params);
  clients.set_completion_hook(
      [&monitor, &tracer](SimTime issued, double rt, const RequestClass&) {
        ScopedSpan span(tracer, SpanKind::kHook);
        monitor.on_client_completion(issued, rt);
      });
  clients.set_rejection_hook([&monitor, &tracer](SimTime at) {
    ScopedSpan span(tracer, SpanKind::kHook);
    monitor.on_client_rejection(at);
  });

  std::unique_ptr<FaultInjector> injector;
  if (!options.faults.empty()) {
    injector = std::make_unique<FaultInjector>(sim, system, warehouse.get(),
                                               options.faults, ctx);
    injector->arm();
  }

  run_sliced(sim, options.duration, out);

  GraphRunResult result;
  extract(result.run, framework, system, std::move(warehouse), monitor,
          clients, trace, injector.get());
  result.admission = system.admission_stats();
  for (std::size_t i = 0; i < system.tier_count(); ++i) {
    if (scenario.graph.nodes[i].cache.enabled) {
      result.caches.emplace_back(system.tier(i).name(),
                                 system.cache_stats(i));
    }
  }
  result.node_latency = breakdown.by_tier();
  finish(out, system, start);
  return result;
}

}  // namespace perfbench
