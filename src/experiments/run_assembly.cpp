#include "experiments/run_assembly.h"

#include <stdexcept>
#include <type_traits>
#include <utility>

#include "workload/client.h"
#include "workload/session_population.h"

namespace conscale {

namespace {

RequestMix run_mix(const GraphScenario& scenario,
                   const ScalingRunOptions& options) {
  RequestMix mix = scenario.mix;
  if (options.runtime_dataset_scale != 1.0) {
    mix.apply_dataset_scale(options.runtime_dataset_scale);
  }
  return mix;
}

MonitoringParams run_monitoring(const GraphScenario& scenario,
                                const ScalingRunOptions& options) {
  MonitoringParams monitoring = options.monitoring;
  // Keep the fine interval matched to the service-demand scale (see the
  // same adjustment in collect_scatter): at work_scale k, "50 ms" means
  // 50k ms or each window holds k× fewer completions than the paper's.
  monitoring.fine_period *= scenario.base.work_scale;
  return monitoring;
}

/// The one-thread drivers: i.i.d. users, or Markov-session users when
/// options.session_workload is set (validate_run has ruled out admission).
class PopulationDriver final : public RunDriver {
 public:
  explicit PopulationDriver(RunAssembly& run) {
    const ScenarioParams& base = run.scenario.base;
    topology::ServiceGraph& system = run.system;
    MonitoringAgent& monitor = run.monitor;
    auto completion_hook = [&monitor](SimTime issued, double rt,
                                      const RequestClass&) {
      monitor.on_client_completion(issued, rt);
    };
    if (run.options.session_workload) {
      model_ = std::make_unique<SessionModel>(
          SessionModel::rubbos_browse(run.mix));
      SessionPopulation::Params params;
      params.seed = base.seed ^ 0xc11e;
      sessions_ = std::make_unique<SessionPopulation>(
          run.sim, run.trace, run.mix, *model_,
          [&system](const RequestContext& request,
                    std::function<void()> done) {
            system.submit(request, std::move(done));
          },
          params);
      sessions_->set_completion_hook(completion_hook);
      return;
    }
    ClientPopulation::Params params;
    params.think_time_mean = base.think_time;
    params.seed = base.seed ^ 0xc11e;
    clients_ = std::make_unique<ClientPopulation>(
        run.sim, run.trace, run.mix,
        [&system](const RequestContext& request,
                  std::function<void(RequestOutcome)> done) {
          system.submit(request, std::move(done));
        },
        params);
    clients_->set_completion_hook(completion_hook);
    clients_->set_rejection_hook(
        [&monitor](SimTime at) { monitor.on_client_rejection(at); });
  }

  void fill_client_stats(ScalingRunResult& run) const override {
    if (clients_) {
      conscale::fill_client_stats(
          run, clients_->response_times(), clients_->requests_issued(),
          clients_->requests_completed(), clients_->requests_rejected());
    } else {
      conscale::fill_client_stats(run, sessions_->response_times(),
                                  sessions_->requests_issued(),
                                  sessions_->requests_completed(), 0);
    }
  }

 private:
  std::unique_ptr<ClientPopulation> clients_;
  std::unique_ptr<SessionModel> model_;
  std::unique_ptr<SessionPopulation> sessions_;
};

}  // namespace

void validate_run(const GraphScenario& scenario,
                  const ScalingRunOptions& options, bool laned) {
  if (!options.session_workload) return;
  if (laned) {
    throw std::invalid_argument(
        "scaling run: session_workload on lanes is not supported (the "
        "lane engine's shards drive their own sessions)");
  }
  if (scenario.graph.admission.enabled) {
    throw std::invalid_argument(
        "scaling run: session_workload with admission control is not "
        "supported (a session user cannot observe a rejection)");
  }
}

WorkloadTrace make_run_trace(const ScenarioParams& base, TraceKind kind,
                             SimDuration duration) {
  TraceParams tp;
  tp.duration = duration;
  tp.max_users = base.scaled_users(base.max_users);
  tp.seed = base.seed ^ 0xbeef;
  return make_trace(kind, tp);
}

void fill_client_stats(ScalingRunResult& run, const LogHistogram& rts,
                       std::uint64_t issued, std::uint64_t completed,
                       std::uint64_t rejected) {
  run.mean_rt_ms = to_ms(rts.mean());
  run.p50_ms = to_ms(rts.percentile(50.0));
  run.p95_ms = to_ms(rts.percentile(95.0));
  run.p99_ms = to_ms(rts.percentile(99.0));
  run.max_rt_ms = to_ms(rts.max_recorded());
  run.sla_500ms = rts.fraction_below(0.5);
  run.requests_issued = issued;
  run.requests_completed = completed;
  run.requests_rejected = rejected;
}

RunAssembly::RunAssembly(Simulation& simulation,
                         const GraphScenario& graph_scenario,
                         const WorkloadTrace& workload_trace,
                         const std::string& framework_ref,
                         const ScalingRunOptions& run_options,
                         bool node_breakdown)
    : scenario(graph_scenario), trace(workload_trace), options(run_options),
      sim(simulation), mix(run_mix(scenario, options)),
      system(sim, scenario.graph, &options.context),
      warehouse(std::make_shared<MetricsWarehouse>()),
      monitor(sim, system, *warehouse, run_monitoring(scenario, options),
              &options.context),
      framework(sim, system, *warehouse, framework_ref,
                options.framework_config ? *options.framework_config
                                         : scenario.framework,
                &options.context) {
  // Passive RT recorders only: attaching them creates no events and draws
  // no randomness, so they cannot perturb the run.
  if (node_breakdown) breakdown = std::make_unique<LatencyBreakdown>(system);
}

void RunAssembly::start(RunDriver& workload_driver) {
  driver = &workload_driver;
  // Fault injection is opt-in per run: with an empty plan no injector is
  // even constructed, so fault-free runs execute the exact event sequence
  // they did before the subsystem existed.
  if (!options.faults.empty()) {
    injector = std::make_unique<FaultInjector>(
        sim, system, warehouse.get(), options.faults, &options.context);
    injector->arm();
  }
}

void RunAssembly::extract(ScalingRunResult& run) {
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
  driver->fill_client_stats(run);
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

void RunAssembly::extract(GraphRunResult& result) {
  extract(result.run);
  result.admission = system.admission_stats();
  for (std::size_t i = 0; i < system.tier_count(); ++i) {
    if (scenario.graph.nodes[i].cache.enabled) {
      result.caches.emplace_back(system.tier(i).name(),
                                 system.cache_stats(i));
    }
  }
  if (breakdown) result.node_latency = breakdown->by_tier();
}

template <typename Result>
Result run_serial(const GraphScenario& scenario, const WorkloadTrace& trace,
                  const std::string& framework_ref,
                  const ScalingRunOptions& options) {
  validate_run(scenario, options, /*laned=*/false);
  Simulation sim;
  RunAssembly run(sim, scenario, trace, framework_ref, options,
                  std::is_same_v<Result, GraphRunResult>);
  PopulationDriver driver(run);
  run.start(driver);
  sim.run_until(options.duration);
  Result result;
  run.extract(result);
  return result;
}

template ScalingRunResult run_serial<ScalingRunResult>(
    const GraphScenario&, const WorkloadTrace&, const std::string&,
    const ScalingRunOptions&);
template GraphRunResult run_serial<GraphRunResult>(
    const GraphScenario&, const WorkloadTrace&, const std::string&,
    const ScalingRunOptions&);

}  // namespace conscale
