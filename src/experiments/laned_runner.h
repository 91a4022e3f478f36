// Laned experiment runners: run_scaling / run_graph_scaling executed on the
// lane-partitioned PDES engine (src/simcore/lanes/, DESIGN.md §6.6).
//
// Partitioning: lane 0 hosts the entire serving system — NTierSystem or
// topology::ServiceGraph, warehouse, monitor, scaling framework, fault
// injector — completely unchanged, so every registry controller runs
// unmodified. The closed-loop session population is what gets parallel:
// it is split into `shards` SessionShards placed round-robin on the worker
// lanes, talking to a LaneGateway on lane 0 across the client<->frontend
// network channel. That channel's latency is the lookahead that makes the
// partition safe; the inter-tier hops have no natural delay, so the client
// edge is the only cut.
//
// Determinism contract: `lanes` controls thread placement only. lanes=1 and
// lanes=K execute the identical keyed event sequence, so their results are
// byte-identical (pinned by tests/experiments/lane_determinism_test and the
// CI bench_scale smoke). `shards`, by contrast, is a model parameter —
// changing it re-partitions the session population and legitimately
// changes RNG consumption.
#pragma once

#include <cstddef>
#include <string>

#include "experiments/graph_runner.h"
#include "experiments/runner.h"
#include "simcore/lanes/lane_engine.h"
#include "simcore/lanes/lookahead.h"

namespace conscale {

struct LanedRunOptions {
  /// Everything run_scaling accepts (duration, monitoring, framework
  /// overrides, faults, context). session_workload is not supported on the
  /// laned path (throws std::invalid_argument).
  ScalingRunOptions base;
  /// Event-loop partitions, one worker thread each. 1 = serial reference
  /// execution (zero threads, same window schedule). Results are
  /// independent of this value.
  std::size_t lanes = 1;
  /// Session-population partitions. Fixed independently of `lanes` so the
  /// model (and its RNG consumption) does not change with the thread count.
  /// 0 = autotune from the scenario's peak sessions and think time (see
  /// autotune_shards); the chosen plan is reported in LaneRunInfo.
  std::size_t shards = 12;
  /// Client<->frontend one-way network latency — the cross-lane channel
  /// delay and therefore the engine's lookahead window.
  SimDuration net_delay = 0.05;
};

/// Execution report of a laned run (not part of the determinism-compared
/// result payload — wall-clock-free, but kept separate for clarity).
struct LaneRunInfo {
  lanes::LaneEngineStats stats;
  SimDuration lookahead = 0.0;
  std::string lookahead_summary;
  std::size_t lanes = 0;
  std::size_t shards = 0;
  /// True when `shards == 0` selected the count via autotune_shards.
  bool shards_autotuned = false;
  /// Sessions still alive across every shard when the run ended (the
  /// bench_scale "concurrent sessions" figure).
  std::uint64_t active_sessions = 0;
};

/// Shard-count autotune (`shards = 0`): a shard is sized to carry roughly
/// 300 request round-trips per simulated second, and each active session
/// contributes ~1/think_time of them — so the count is
/// ceil(peak_sessions / think_time / 300), clamped to [1, 64]. A pure
/// function of the model parameters (never of lane or thread counts).
std::size_t autotune_shards(double peak_sessions, double think_time_mean);

/// Chain counterpart of run_scaling on the lane engine. The result has the
/// exact shape run_scaling produces (same dumps, same results_equivalent),
/// with client statistics merged from the shards in shard-index order.
ScalingRunResult run_scaling_laned(const ScenarioParams& params,
                                   const WorkloadTrace& trace,
                                   const std::string& framework_ref,
                                   const LanedRunOptions& options = {},
                                   LaneRunInfo* info = nullptr);

/// Convenience: trace from a kind, seed derivation identical to
/// run_scaling's (seed ^ 0xbeef).
ScalingRunResult run_scaling_laned(const ScenarioParams& params,
                                   TraceKind trace,
                                   const std::string& framework_ref,
                                   const LanedRunOptions& options = {},
                                   LaneRunInfo* info = nullptr);

/// Service-graph counterpart of run_graph_scaling on the lane engine.
GraphRunResult run_graph_scaling_laned(const GraphScenario& scenario,
                                       const WorkloadTrace& trace,
                                       const std::string& framework_ref,
                                       const LanedRunOptions& options = {},
                                       LaneRunInfo* info = nullptr);

/// Convenience: trace from a kind (seed ^ 0xbeef, as above).
GraphRunResult run_graph_scaling_laned(const GraphScenario& scenario,
                                       TraceKind trace,
                                       const std::string& framework_ref,
                                       const LanedRunOptions& options = {},
                                       LaneRunInfo* info = nullptr);

/// The lookahead analysis a laned run performs before constructing the
/// engine, exposed for tests and bench_scale's banner: the client channel
/// (both directions) bounds the window; VM prep delay and the monitoring
/// coarse period are documented as non-channel slack.
lanes::LookaheadAnalysis analyze_lookahead(const ScenarioParams& params,
                                           const LanedRunOptions& options);

}  // namespace conscale
