// Pins the two contracts the graph experiments layer rides on:
//
//  * Linear equivalence — run_scaling and run_graph_scaling on the linear
//    scenario must agree byte for byte, for every controller family
//    (threshold, profile-driven, SCT) and for session workloads: the graph
//    runner's per-node latency recorders may not perturb the run.
//  * Run determinism — graph runs (fan-out DAG with a shared backend, cache
//    chain with churn, admission shedding) are bit-identical across serial
//    repeats and jobs=4 thread fan-out.
#include "experiments/graph_runner.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/laned_runner.h"
#include "experiments/parallel.h"

namespace conscale {
namespace {

ScenarioParams quick_params() {
  ScenarioParams p = ScenarioParams::paper_default();
  p.work_scale = 16.0;
  p.seed = 4242;
  return p;
}

ScalingRunOptions quick_options() {
  ScalingRunOptions options;
  options.duration = 60.0;
  return options;
}

TEST(LinearEquivalence, ChainAsDagMatchesNTierSystemByteForByte) {
  const ScenarioParams params = quick_params();
  const GraphScenario linear = make_linear_scenario(params);
  // One controller per family: threshold scale-out (ec2), the paper's SCT
  // loop (conscale), and a zoo feedback policy (pi). All three must see the
  // exact same world through either system implementation.
  for (const char* framework : {"ec2", "conscale", "pi"}) {
    const ScalingRunResult chain =
        run_scaling(params, TraceKind::kBigSpike, framework, quick_options());
    const GraphRunResult graph = run_graph_scaling(
        linear, TraceKind::kBigSpike, framework, quick_options());
    std::string diff;
    EXPECT_TRUE(results_equivalent(chain, graph.run, &diff))
        << framework << ": " << diff;
    // No graph feature may activate on the trivial DAG.
    EXPECT_EQ(graph.run.requests_rejected, 0u) << framework;
    EXPECT_TRUE(graph.caches.empty()) << framework;
  }
}

TEST(LinearEquivalence, LinearScenarioMirrorsChainTopology) {
  const GraphScenario linear = make_linear_scenario(quick_params());
  const SystemConfig chain = quick_params().system_config();
  ASSERT_EQ(linear.graph.nodes.size(), chain.tiers.size());
  for (std::size_t i = 0; i < chain.tiers.size(); ++i) {
    EXPECT_EQ(linear.graph.nodes[i].tier.name, chain.tiers[i].name);
    EXPECT_EQ(linear.graph.nodes[i].initial_vms, chain.initial_vms[i]);
    EXPECT_FALSE(linear.graph.nodes[i].cache.enabled);
  }
  EXPECT_FALSE(linear.graph.admission.enabled);
}

TEST(GraphDeterminism, FanoutSerialRepeatIsBitIdentical) {
  const GraphScenario scenario = make_fanout_scenario(quick_params());
  const GraphRunResult first = run_graph_scaling(
      scenario, TraceKind::kBigSpike, "conscale", quick_options());
  const GraphRunResult second = run_graph_scaling(
      scenario, TraceKind::kBigSpike, "conscale", quick_options());
  std::string diff;
  EXPECT_TRUE(graph_results_equivalent(first, second, &diff)) << diff;
}

TEST(GraphDeterminism, CacheChurnReplaysAcrossJobs4) {
  // The cache RNG stream is the one graph-only randomness consumer; four
  // concurrent copies of the churning-cache run must reproduce the serial
  // baseline exactly.
  const GraphScenario scenario = make_cache_scenario(quick_params());
  const GraphRunResult baseline = run_graph_scaling(
      scenario, TraceKind::kDualPhase, "conscale", quick_options());
  ASSERT_FALSE(baseline.caches.empty());
  EXPECT_GT(baseline.caches[0].second.hits, 0u);

  const std::vector<GraphRunResult> results =
      parallel_map<GraphRunResult>(4, 4, [&scenario](std::size_t) {
        return run_graph_scaling(scenario, TraceKind::kDualPhase, "conscale",
                                 quick_options());
      });
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::string diff;
    EXPECT_TRUE(graph_results_equivalent(results[i], baseline, &diff))
        << "jobs=4 copy " << i << ": " << diff;
  }
}

TEST(GraphDeterminism, SheddingRunAccountsEveryRequest) {
  // 2x overload on the fan-out DAG with admission on: rejections must be
  // deterministic, folded into the monitor's per-second series, and every
  // issued request must be served, shed, or still in flight at cutoff.
  ScenarioParams params = quick_params();
  params.max_users *= 2.0;
  GraphScenario scenario = make_fanout_scenario(params);
  scenario.graph.admission.enabled = true;
  scenario.graph.admission.queue_limit = 40;
  scenario.graph.admission.max_queue_age = 2.0;

  const GraphRunResult first = run_graph_scaling(
      scenario, TraceKind::kBigSpike, "ec2", quick_options());
  const GraphRunResult second = run_graph_scaling(
      scenario, TraceKind::kBigSpike, "ec2", quick_options());
  std::string diff;
  EXPECT_TRUE(graph_results_equivalent(first, second, &diff)) << diff;

  EXPECT_GT(first.run.requests_rejected, 0u);
  EXPECT_EQ(first.run.requests_rejected, first.admission.rejected());
  EXPECT_EQ(first.admission.admitted + first.admission.rejected(),
            first.run.requests_issued);
  EXPECT_GE(first.run.requests_issued,
            first.run.requests_completed + first.run.requests_rejected);
  std::uint64_t series_rejections = 0;
  for (const SystemSample& s : first.run.system) {
    series_rejections += s.rejected;
  }
  EXPECT_GT(series_rejections, 0u);
  EXPECT_LE(series_rejections, first.run.requests_rejected);
}

TEST(GraphRunner, SessionsOnLinearGraphMatchRunScaling) {
  // Session workloads run on any graph without admission control; on the
  // linear scenario they must replay run_scaling's session run exactly.
  const ScenarioParams params = quick_params();
  ScalingRunOptions options = quick_options();
  options.session_workload = true;
  const ScalingRunResult chain =
      run_scaling(params, TraceKind::kBigSpike, "conscale", options);
  const GraphRunResult graph = run_graph_scaling(
      make_linear_scenario(params), TraceKind::kBigSpike, "conscale",
      options);
  std::string diff;
  EXPECT_TRUE(results_equivalent(chain, graph.run, &diff)) << diff;
  EXPECT_GT(chain.requests_completed, 0u);
}

TEST(GraphRunner, RejectsSessionsWithAdmissionAndOnLanes) {
  ScalingRunOptions options = quick_options();
  options.session_workload = true;
  GraphScenario shedding = make_fanout_scenario(quick_params());
  shedding.graph.admission.enabled = true;
  shedding.graph.admission.queue_limit = 40;
  try {
    run_graph_scaling(shedding, TraceKind::kBigSpike, "conscale", options);
    ADD_FAILURE() << "sessions with admission control must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("admission"), std::string::npos)
        << e.what();
  }
  LanedRunOptions laned;
  laned.base = options;
  try {
    run_scaling_laned(quick_params(), TraceKind::kBigSpike, "conscale",
                      laned);
    ADD_FAILURE() << "sessions on lanes must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("lanes"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace conscale
