// run_graph_scaling: a scaling run on any GraphScenario. It builds through
// the same RunAssembly as run_scaling (experiments/run_assembly.h), so on
// make_linear_scenario its ScalingRunResult equals run_scaling's byte for
// byte (pinned by tests/topology). On top it reports what only a graph
// result carries: admission/shedding accounting, per-cache-node hit
// statistics, and a per-node latency breakdown.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "experiments/graph_scenario.h"
#include "experiments/runner.h"
#include "metrics/latency_breakdown.h"
#include "topology/service_graph.h"

namespace conscale {

struct GraphRunResult {
  /// Everything a chain run reports (summary percentiles, 1 s series,
  /// events, SCT history, counters, requests_rejected, warehouse).
  ScalingRunResult run;
  topology::AdmissionStats admission;
  /// (node name, stats) for every cache node, in node order.
  std::vector<std::pair<std::string, topology::CacheStats>> caches;
  /// Per-node in-server response-time distributions (replicas merged),
  /// ordered by node name — the "where does the tail live" view.
  std::vector<LatencyBreakdown::ServerStats> node_latency;
};

/// `framework_ref` is a controller-registry reference, exactly as in
/// run_scaling. Session workloads run on graphs without admission control;
/// with admission enabled, options.session_workload throws
/// std::invalid_argument.
GraphRunResult run_graph_scaling(const GraphScenario& scenario,
                                 const WorkloadTrace& trace,
                                 const std::string& framework_ref,
                                 const ScalingRunOptions& options = {});

/// Convenience: build the trace from a kind with the scenario's user scale
/// (seed derivation identical to the chain runner's).
GraphRunResult run_graph_scaling(const GraphScenario& scenario,
                                 TraceKind trace,
                                 const std::string& framework_ref,
                                 const ScalingRunOptions& options = {});

/// Full-field equality over the wrapped run *and* the graph extras; used by
/// the jobs=N-vs-serial determinism contract of the graph benches.
bool graph_results_equivalent(const GraphRunResult& a, const GraphRunResult& b,
                              std::string* diff = nullptr);

/// System timeline CSV with the shedding column the chain dump doesn't have:
/// t, throughput_rps, mean_rt_ms, max_rt_ms, total_vms, rejected.
void dump_graph_system_csv(const std::string& path,
                           const GraphRunResult& result);

/// One row per node: node, completions, mean_ms, p50_ms, p95_ms, p99_ms,
/// max_ms — the per-node latency breakdown consumed by plot_results.py.
void dump_node_latency_csv(const std::string& path,
                           const GraphRunResult& result);

}  // namespace conscale
