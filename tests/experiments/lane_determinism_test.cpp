// Byte-identity contract of the laned runners (DESIGN.md §6.6): lanes is a
// thread-placement knob, not a model parameter, so lanes=1 and lanes=4 must
// produce bit-identical results — equivalent in-memory payloads AND
// byte-identical rendered CSV/JSON artifacts — for every registry
// controller, on both the linear chain and the fan-out DAG. The runs fan
// out through parallel_map with jobs=4, so laned engines (each with their
// own worker threads) also run concurrently with each other, the way the
// CI smoke drives them.
#include "experiments/laned_runner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/analytic.h"
#include "experiments/json_export.h"
#include "experiments/parallel.h"
#include "experiments/report.h"

namespace conscale {
namespace {

const std::vector<std::string> kAllControllers = {
    "ec2", "dcm",      "conscale",     "pi",
    "fuzzy", "vertical", "holt-winters", "hybrid"};

ScenarioParams quick_params() {
  ScenarioParams p = ScenarioParams::paper_default();
  p.work_scale = 16.0;
  p.seed = 4242;
  return p;
}

LanedRunOptions laned_options(const ScenarioParams& params,
                              std::size_t lanes) {
  LanedRunOptions options;
  options.base.duration = 60.0;
  // The chain's default config carries no DCM profile; supply the analytic
  // one so "dcm" assembles (identical on both sides of the comparison).
  FrameworkConfig config = make_framework_config(params);
  config.dcm_profile = train_dcm_profile_analytical(params);
  options.base.framework_config = config;
  options.lanes = lanes;
  return options;
}

std::string slurp_and_remove(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

/// CSV + JSON bytes of a chain result, exactly as reports render them.
std::string render_chain(const std::string& stem,
                         const ScalingRunResult& result) {
  const std::string base = ::testing::TempDir() + "/" + stem;
  dump_system_csv(base + ".csv", result);
  JsonExportOptions json_options;
  json_options.include_counters = true;
  export_run_json(base + ".json", result, json_options);
  return slurp_and_remove(base + ".csv") + slurp_and_remove(base + ".json");
}

/// CSV (system + per-node latency) + JSON bytes of a graph result.
std::string render_graph(const std::string& stem,
                         const GraphRunResult& result) {
  const std::string base = ::testing::TempDir() + "/" + stem;
  dump_graph_system_csv(base + ".csv", result);
  dump_node_latency_csv(base + "_nodes.csv", result);
  JsonExportOptions json_options;
  json_options.include_counters = true;
  export_run_json(base + ".json", result.run, json_options);
  return slurp_and_remove(base + ".csv") +
         slurp_and_remove(base + "_nodes.csv") +
         slurp_and_remove(base + ".json");
}

TEST(LaneDeterminism, ChainLanes4MatchesLanes1ForEveryController) {
  const ScenarioParams params = quick_params();
  // One cell per (controller, lane count); jobs=4 runs them concurrently.
  struct Cell {
    std::string framework;
    std::size_t lanes;
  };
  std::vector<Cell> cells;
  for (const std::string& framework : kAllControllers) {
    cells.push_back({framework, 1});
    cells.push_back({framework, 4});
  }
  const auto results = parallel_map<ScalingRunResult>(
      cells.size(), 4, [&](std::size_t i) {
        return run_scaling_laned(params, TraceKind::kBigSpike,
                                 cells[i].framework,
                                 laned_options(params, cells[i].lanes));
      });
  for (std::size_t i = 0; i < cells.size(); i += 2) {
    SCOPED_TRACE(cells[i].framework);
    std::string diff;
    EXPECT_TRUE(results_equivalent(results[i], results[i + 1], &diff))
        << diff;
    EXPECT_EQ(render_chain("lane_chain_1_" + cells[i].framework, results[i]),
              render_chain("lane_chain_4_" + cells[i].framework,
                           results[i + 1]));
    EXPECT_GT(results[i].requests_completed, 0u);
  }
}

TEST(LaneDeterminism, GraphLanes4MatchesLanes1ForEveryController) {
  const GraphScenario scenario = make_fanout_scenario(quick_params());
  struct Cell {
    std::string framework;
    std::size_t lanes;
  };
  std::vector<Cell> cells;
  for (const std::string& framework : kAllControllers) {
    cells.push_back({framework, 1});
    cells.push_back({framework, 4});
  }
  LanedRunOptions base_options;
  base_options.base.duration = 60.0;
  const auto results = parallel_map<GraphRunResult>(
      cells.size(), 4, [&](std::size_t i) {
        LanedRunOptions options = base_options;
        options.lanes = cells[i].lanes;
        return run_graph_scaling_laned(scenario, TraceKind::kBigSpike,
                                       cells[i].framework, options);
      });
  for (std::size_t i = 0; i < cells.size(); i += 2) {
    SCOPED_TRACE(cells[i].framework);
    std::string diff;
    EXPECT_TRUE(
        graph_results_equivalent(results[i], results[i + 1], &diff))
        << diff;
    EXPECT_EQ(render_graph("lane_dag_1_" + cells[i].framework, results[i]),
              render_graph("lane_dag_4_" + cells[i].framework,
                           results[i + 1]));
    EXPECT_GT(results[i].run.requests_completed, 0u);
  }
}

TEST(LaneDeterminism, FaultPlansLanes4MatchLanes1OnChainAndGraph) {
  // Faults act on lane 0 (crash, restart, monitoring dropout) while the
  // shards keep issuing from the worker lanes; the lane count must still be
  // invisible in the results.
  const ScenarioParams params = quick_params();
  const GraphScenario scenario = make_fanout_scenario(params);
  const FaultPlan plan =
      FaultPlan::parse("crash t=10 tier=1 vm=0 restart=10; drop t=20 dur=10");
  const auto run = [&](std::size_t lanes, bool graph) {
    LanedRunOptions options = laned_options(params, lanes);
    options.base.faults = plan;
    GraphRunResult result;
    if (graph) {
      options.base.framework_config.reset();
      result = run_graph_scaling_laned(scenario, TraceKind::kBigSpike,
                                       "conscale", options);
    } else {
      result.run = run_scaling_laned(params, TraceKind::kBigSpike,
                                     "conscale", options);
    }
    return result;
  };
  const auto results = parallel_map<GraphRunResult>(
      4, 4, [&](std::size_t i) { return run(i % 2 == 0 ? 1 : 4, i >= 2); });

  std::string diff;
  EXPECT_TRUE(results_equivalent(results[0].run, results[1].run, &diff))
      << diff;
  EXPECT_EQ(render_chain("lane_fault_chain_1", results[0].run),
            render_chain("lane_fault_chain_4", results[1].run));
  EXPECT_TRUE(graph_results_equivalent(results[2], results[3], &diff))
      << diff;
  EXPECT_EQ(render_graph("lane_fault_dag_1", results[2]),
            render_graph("lane_fault_dag_4", results[3]));
  for (const GraphRunResult& result : results) {
    EXPECT_EQ(result.run.fault_stats.crashes_injected, 1u);
    EXPECT_EQ(result.run.fault_stats.dropout_windows, 1u);
    EXPECT_GT(result.run.dropped_samples, 0u);
    EXPECT_GT(result.run.requests_completed, 0u);
  }
}

TEST(AutotuneShards, ScalesWithPeakRateAndClamps) {
  // 1.2M sessions thinking 300 s -> 4000 req/s -> ceil(4000/300) = 14.
  EXPECT_EQ(autotune_shards(1.2e6, 300.0), 14u);
  // Light scenarios collapse to a single shard.
  EXPECT_EQ(autotune_shards(100.0, 1.5), 1u);
  EXPECT_EQ(autotune_shards(0.0, 1.0), 1u);
  // The cap bounds pathological rates.
  EXPECT_EQ(autotune_shards(1e9, 0.001), 64u);
}

TEST(AutotuneShards, ShardsZeroSelectsThePlan) {
  const ScenarioParams params = quick_params();
  LanedRunOptions options = laned_options(params, 2);
  options.shards = 0;
  LaneRunInfo info;
  const ScalingRunResult result = run_scaling_laned(
      params, TraceKind::kBigSpike, "ec2", options, &info);
  EXPECT_GT(result.requests_completed, 0u);
  EXPECT_TRUE(info.shards_autotuned);
  EXPECT_EQ(info.shards,
            autotune_shards(params.scaled_users(params.max_users),
                            params.think_time));
  EXPECT_GE(info.shards, 1u);
}

TEST(LaneDeterminism, RepeatLanedRunIsBitIdentical) {
  const ScenarioParams params = quick_params();
  const LanedRunOptions options = laned_options(params, 4);
  LaneRunInfo first_info;
  LaneRunInfo second_info;
  const ScalingRunResult first = run_scaling_laned(
      params, TraceKind::kBigSpike, "conscale", options, &first_info);
  const ScalingRunResult second = run_scaling_laned(
      params, TraceKind::kBigSpike, "conscale", options, &second_info);
  std::string diff;
  EXPECT_TRUE(results_equivalent(first, second, &diff)) << diff;
  EXPECT_EQ(first_info.stats.windows, second_info.stats.windows);
  EXPECT_EQ(first_info.stats.messages, second_info.stats.messages);
  EXPECT_EQ(first_info.stats.events, second_info.stats.events);
  EXPECT_GT(first_info.stats.windows, 0u);
  EXPECT_DOUBLE_EQ(first_info.lookahead, options.net_delay);
}

}  // namespace
}  // namespace conscale
