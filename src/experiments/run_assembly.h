// RunAssembly: the one construction of a scaling run, internal to
// src/experiments; run_scaling (the linear GraphScenario), run_graph_scaling
// and both laned runners build through it. It fixes the order every RNG
// consumer and event source is created in (DESIGN.md §8): the constructor
// builds mix, system, warehouse, monitor, framework and [latency breakdown];
// the runner then builds its workload driver — the only part that differs:
// a Client/SessionPopulation, or the lanes' gateway and session shards —
// and start() arms the fault injector.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/histogram.h"
#include "conscale/framework.h"
#include "experiments/graph_runner.h"
#include "faults/injector.h"
#include "metrics/latency_breakdown.h"
#include "metrics/monitor.h"
#include "simcore/simulation.h"
#include "topology/service_graph.h"
#include "workload/trace.h"

namespace conscale {

/// The one config-time gate: throws std::invalid_argument naming the
/// combination for session workloads with admission control (a session
/// user cannot observe a rejection) and session workloads on lanes.
void validate_run(const GraphScenario& scenario,
                  const ScalingRunOptions& options, bool laned);

/// The trace a TraceKind overload runs: the scenario's user scale, seed
/// derived as base.seed ^ 0xbeef.
WorkloadTrace make_run_trace(const ScenarioParams& base, TraceKind kind,
                             SimDuration duration);

/// Whatever drives requests into the assembled system. Runners own their
/// driver; the assembly only borrows it.
class RunDriver {
 public:
  /// Fills the client-perceived fields of `run`: the response-time summary
  /// and the issued / completed / rejected counts.
  virtual void fill_client_stats(ScalingRunResult& run) const = 0;

 protected:
  ~RunDriver() = default;
};

/// Client-perceived fields of `run` from one merged set of client stats.
void fill_client_stats(ScalingRunResult& run, const LogHistogram& rts,
                       std::uint64_t issued, std::uint64_t completed,
                       std::uint64_t rejected);

class RunAssembly {
 public:
  /// `node_breakdown` attaches the per-node latency recorders that only a
  /// GraphRunResult reports. Every reference must outlive the assembly.
  RunAssembly(Simulation& simulation, const GraphScenario& graph_scenario,
              const WorkloadTrace& workload_trace,
              const std::string& framework_ref,
              const ScalingRunOptions& run_options, bool node_breakdown);
  RunAssembly(const RunAssembly&) = delete;
  RunAssembly& operator=(const RunAssembly&) = delete;

  /// Records the workload driver (built against this assembly; it must
  /// outlive extract()), then arms the fault injector when the plan is not
  /// empty. Call once, before the simulation advances.
  void start(RunDriver& workload_driver);

  /// Moves the run's outcome (and its warehouse) into the result; call once,
  /// after the run. The GraphRunResult overload adds admission and cache
  /// stats and the per-node latency breakdown.
  void extract(ScalingRunResult& run);
  void extract(GraphRunResult& result);

  const GraphScenario& scenario;
  const WorkloadTrace& trace;
  const ScalingRunOptions& options;
  Simulation& sim;
  RequestMix mix;
  topology::ServiceGraph system;
  std::shared_ptr<MetricsWarehouse> warehouse;
  MonitoringAgent monitor;
  ScalingFramework framework;
  std::unique_ptr<LatencyBreakdown> breakdown;
  RunDriver* driver = nullptr;
  std::unique_ptr<FaultInjector> injector;
};

/// One-thread run of `scenario`. Result is ScalingRunResult or
/// GraphRunResult; the latter attaches the per-node latency breakdown.
template <typename Result>
Result run_serial(const GraphScenario& scenario, const WorkloadTrace& trace,
                  const std::string& framework_ref,
                  const ScalingRunOptions& options);

}  // namespace conscale
