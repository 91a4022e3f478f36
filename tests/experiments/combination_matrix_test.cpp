// Every combination of topology, workload, faults and execution mode either
// runs with consistent accounting or is rejected at config time by the one
// gate (validate_run) with std::invalid_argument. The runs are short (20 s
// simulated at work_scale 16): the matrix checks that each cell assembles
// and accounts for its requests, not what the controllers achieve.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "experiments/graph_runner.h"
#include "experiments/graph_scenario.h"
#include "experiments/laned_runner.h"
#include "experiments/runner.h"

namespace conscale {
namespace {

enum class Topology { kLinear, kFanout, kCache, kLinearAdmission };

struct Cell {
  Topology topology;
  bool sessions;
  bool faults;
  bool lanes;
};

std::string name(const Cell& cell) {
  static const char* const kTopologies[] = {"linear", "fanout3", "cache",
                                            "linear+admission"};
  return std::string(kTopologies[static_cast<int>(cell.topology)]) +
         (cell.sessions ? " sessions" : " iid") +
         (cell.faults ? " faults" : " no-faults") +
         (cell.lanes ? " lanes=2" : " serial");
}

ScenarioParams quick_params() {
  ScenarioParams p = ScenarioParams::paper_default();
  p.work_scale = 16.0;
  p.seed = 4242;
  return p;
}

GraphScenario make_scenario(Topology topology) {
  switch (topology) {
    case Topology::kFanout: return make_fanout_scenario(quick_params());
    case Topology::kCache: return make_cache_scenario(quick_params());
    case Topology::kLinear: return make_linear_scenario(quick_params());
    case Topology::kLinearAdmission: break;
  }
  GraphScenario scenario = make_linear_scenario(quick_params());
  scenario.graph.admission.enabled = true;
  scenario.graph.admission.queue_limit = 40;
  scenario.graph.admission.max_queue_age = 2.0;
  return scenario;
}

/// The chain entry points for the plain linear scenario, the graph ones
/// for everything else.
ScalingRunResult run_cell(const Cell& cell, const ScalingRunOptions& options) {
  const GraphScenario scenario = make_scenario(cell.topology);
  const bool chain = cell.topology == Topology::kLinear;
  if (cell.lanes) {
    LanedRunOptions laned;
    laned.base = options;
    laned.lanes = 2;
    if (chain) {
      return run_scaling_laned(scenario.base, TraceKind::kBigSpike, "conscale",
                               laned);
    }
    return run_graph_scaling_laned(scenario, TraceKind::kBigSpike, "conscale",
                                   laned)
        .run;
  }
  if (chain) {
    return run_scaling(scenario.base, TraceKind::kBigSpike, "conscale",
                       options);
  }
  return run_graph_scaling(scenario, TraceKind::kBigSpike, "conscale",
                           options)
      .run;
}

TEST(CombinationMatrix, EveryCellRunsOrIsRejectedAtConfigTime) {
  int ran = 0;
  int rejected = 0;
  for (Topology topology : {Topology::kLinear, Topology::kFanout,
                            Topology::kCache, Topology::kLinearAdmission}) {
    const std::string crashed =
        make_scenario(topology).graph.nodes[1].tier.name;
    for (bool sessions : {false, true}) {
      for (bool faults : {false, true}) {
        for (bool lanes : {false, true}) {
          const Cell cell{topology, sessions, faults, lanes};
          SCOPED_TRACE(name(cell));
          ScalingRunOptions options;
          options.duration = 20.0;
          options.session_workload = sessions;
          if (faults) {
            options.faults = FaultPlan::parse("crash t=5 tier=" + crashed +
                                              " vm=0; drop t=8 dur=3");
          }
          const bool expect_reject =
              sessions && (lanes || topology == Topology::kLinearAdmission);
          if (expect_reject) {
            EXPECT_THROW(run_cell(cell, options), std::invalid_argument);
            ++rejected;
            continue;
          }
          const ScalingRunResult run = run_cell(cell, options);
          EXPECT_GT(run.requests_issued, 0u);
          EXPECT_EQ(run.hook_underflows, 0u);
          // A crashed server answers each request it held with an error
          // reply, which the client counts as completed; so aborted requests
          // overlap the completed ones and are bounded separately (one
          // crash errors a request at most once).
          EXPECT_LE(run.requests_completed + run.requests_rejected,
                    run.requests_issued);
          EXPECT_LE(run.requests_aborted, run.requests_issued);
          if (faults) {
            EXPECT_EQ(run.fault_stats.crashes_injected, 1u);
            EXPECT_EQ(run.fault_stats.dropout_windows, 1u);
            EXPECT_GT(run.requests_aborted, 0u);
          }
          ++ran;
        }
      }
    }
  }
  EXPECT_EQ(ran, 22);
  EXPECT_EQ(rejected, 10);
}

}  // namespace
}  // namespace conscale
