// Traced assembly: the chain and graph runs rebuilt from the simulator's
// public layer classes (Simulation, NTierSystem / ServiceGraph,
// MetricsWarehouse, MonitoringAgent, ScalingFramework, ClientPopulation,
// FaultInjector) in exactly the construction order of run_scaling and
// run_graph_scaling, so the result must equal the top-level runner's.
//
// Owning the assembly lets the benchmark sit on every boundary from
// outside: it runs the simulation in 1 s simulated run_until slices, wraps
// the client's submit and done closures and the monitoring completion
// hook in spans, and counts server admissions, departures and aborts
// through Server::add_hooks. None of these schedule events or draw
// randomness, so they cannot perturb the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tracer.h"
#include "workloads.h"

namespace perfbench {

struct TracedRun {
  Tracer tracer;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::size_t pending_peak = 0;
  std::uint64_t entry_requests = 0;  ///< submit calls
  std::vector<std::string> tier_names;
  std::vector<std::uint64_t> tier_visits;  ///< departures, by tier index
  std::uint64_t aborted = 0;
  /// Largest thread or connection pool of any tier when the run ended.
  std::size_t peak_pool = 0;
};

conscale::ScalingRunResult run_chain_traced(const ChainInputs& in,
                                            TracedRun& out);

conscale::GraphRunResult run_graph_traced(
    const conscale::GraphScenario& scenario,
    const conscale::WorkloadTrace& trace,
    const conscale::ScalingRunOptions& options, TracedRun& out);

}  // namespace perfbench
