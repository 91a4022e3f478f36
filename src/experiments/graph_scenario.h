// Service-graph scenario presets: the topologies the graph benches run —
// a 3-service fan-out DAG with a shared backend, a cache chain whose hit
// ratio churns mid-run, and the paper's linear chain, which is what
// run_scaling runs.
//
// A GraphScenario bundles everything run_graph_scaling needs: the DAG
// config, a request mix whose per-"tier" demand vectors are indexed by node,
// and a FrameworkConfig with per-node SCT targets (thread-adapt nodes,
// connection-adapt edges, and an analytic DCM profile so the offline-trained
// framework runs on topologies it was never profiled on).
#pragma once

#include <string>

#include "conscale/framework.h"
#include "experiments/scenario.h"
#include "topology/service_graph.h"
#include "workload/mix.h"

namespace conscale {

struct GraphScenario {
  std::string name;
  /// Carries the run-level knobs (seed, work_scale, think_time, max_users,
  /// vm_prep_delay) shared with the chain experiments.
  ScenarioParams base;
  topology::ServiceGraphConfig graph;
  RequestMix mix;
  /// Default framework wiring for this topology; per-run overrides go
  /// through ScalingRunOptions::framework_config as usual.
  FrameworkConfig framework;
};

/// 3-service DAG: Gateway fans out to {SvcA ∥ SvcB} in parallel (join on
/// both replies); each service queries the same SharedDB node, so the
/// backend sees cross-traffic from two independently scaled parents:
///
///   Gateway ──┬── SvcA ──┐
///             └── SvcB ──┴── SharedDB
///
/// Per-node SCT wiring: thread pools adapt on SvcA/SvcB, connection pools
/// on both edges into SharedDB. Note apply_optima sizes each edge pool for
/// the *whole* downstream optimum — two parents together can offer 2× the
/// DB optimum, which is exactly the shared-backend estimation hazard the
/// topology exists to exercise.
GraphScenario make_fanout_scenario(const ScenarioParams& base);

/// Cache chain: Frontend → Cache → Db, where the cache node short-circuits
/// its subtree on a hit and the hit ratio follows a churning working set —
/// as the working set swells mid-cycle, misses flood the Db node and the
/// critical resource migrates from Frontend to Db within one run.
GraphScenario make_cache_scenario(const ScenarioParams& base);

/// The paper's 3-tier chain (Apache → Tomcat → MySQL): the graph of
/// base.system_config() (topology::linear_graph_config, the helper
/// NTierSystem is built with), base.make_mix() and make_framework_config.
/// run_scaling(base, ...) is run_graph_scaling on this scenario, less the
/// graph extras.
GraphScenario make_linear_scenario(const ScenarioParams& base);

}  // namespace conscale
