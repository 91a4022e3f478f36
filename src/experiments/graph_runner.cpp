#include "experiments/graph_runner.h"

#include <cstdio>
#include <sstream>

#include "common/csv.h"
#include "experiments/parallel.h"
#include "experiments/run_assembly.h"

namespace conscale {

GraphRunResult run_graph_scaling(const GraphScenario& scenario,
                                 TraceKind kind,
                                 const std::string& framework_ref,
                                 const ScalingRunOptions& options) {
  return run_graph_scaling(
      scenario, make_run_trace(scenario.base, kind, options.duration),
      framework_ref, options);
}

GraphRunResult run_graph_scaling(const GraphScenario& scenario,
                                 const WorkloadTrace& trace,
                                 const std::string& framework_ref,
                                 const ScalingRunOptions& options) {
  return run_serial<GraphRunResult>(scenario, trace, framework_ref, options);
}

bool graph_results_equivalent(const GraphRunResult& a, const GraphRunResult& b,
                              std::string* diff) {
  if (!results_equivalent(a.run, b.run, diff)) return false;
  auto fail = [diff](const std::string& message) {
    if (diff) *diff = message;
    return false;
  };
  if (a.admission.admitted != b.admission.admitted ||
      a.admission.rejected_occupancy != b.admission.rejected_occupancy ||
      a.admission.rejected_age != b.admission.rejected_age) {
    return fail("admission stats");
  }
  if (a.caches.size() != b.caches.size()) return fail("cache node count");
  for (std::size_t i = 0; i < a.caches.size(); ++i) {
    if (a.caches[i].first != b.caches[i].first ||
        a.caches[i].second.hits != b.caches[i].second.hits ||
        a.caches[i].second.misses != b.caches[i].second.misses) {
      std::ostringstream message;
      message << "cache stats [" << i << "]";
      return fail(message.str());
    }
  }
  if (a.node_latency.size() != b.node_latency.size()) {
    return fail("node_latency length");
  }
  for (std::size_t i = 0; i < a.node_latency.size(); ++i) {
    const auto& x = a.node_latency[i];
    const auto& y = b.node_latency[i];
    if (x.tier != y.tier || x.completions != y.completions ||
        x.mean_ms != y.mean_ms || x.p50_ms != y.p50_ms ||
        x.p95_ms != y.p95_ms || x.p99_ms != y.p99_ms ||
        x.max_ms != y.max_ms) {
      std::ostringstream message;
      message << "node_latency [" << i << "]";
      return fail(message.str());
    }
  }
  return true;
}

void dump_graph_system_csv(const std::string& path,
                           const GraphRunResult& result) {
  CsvWriter csv(path);
  csv.header({"t", "throughput_rps", "mean_rt_ms", "max_rt_ms", "total_vms",
              "rejected"});
  for (const auto& s : result.run.system) {
    csv.row({s.t, s.throughput, s.mean_rt * 1e3, s.max_rt * 1e3,
             static_cast<double>(s.total_vms),
             static_cast<double>(s.rejected)});
  }
}

void dump_node_latency_csv(const std::string& path,
                           const GraphRunResult& result) {
  CsvWriter csv(path);
  csv.header({"node", "completions", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
              "max_ms"});
  char buffer[64];
  auto fmt = [&buffer](double value) {
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    return std::string(buffer);
  };
  for (const auto& row : result.node_latency) {
    csv.raw_row({row.tier, std::to_string(row.completions), fmt(row.mean_ms),
                 fmt(row.p50_ms), fmt(row.p95_ms), fmt(row.p99_ms),
                 fmt(row.max_ms)});
  }
}

}  // namespace conscale
