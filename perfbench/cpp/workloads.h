// The benchmark's three workloads, built from the workload seed, and their
// untraced execution through the simulator's top-level entry points
// (run_scaling, run_scaling_laned, run_graph_scaling fanned out with
// parallel_map from experiments/parallel.h).
//
// All three are closed loops: every simulated user waits for its reply
// before thinking again.
//   chain_paper     the paper's §V run: ConScale on the 1/1/1 RUBBoS chain,
//                   large_variations trace (<= 7 500 users, 1.5 s think),
//                   720 s simulated, one thread.
//   sessions_laned  1.2 M constant closed-loop sessions (300 s think) in 12
//                   shards on the client-edge lane engine at lanes=4, wide
//                   chain tiers, ConScale, 120 s simulated.
//   dag_blackout    the fanout3 service graph under ConScale with staleness
//                   guards, a flash crowd (900 -> 6 000 users) and a
//                   monitoring blackout over the surge; 4 seed replicates
//                   at jobs=4, 480 s simulated each.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "experiments/graph_runner.h"
#include "experiments/graph_scenario.h"
#include "experiments/laned_runner.h"
#include "experiments/runner.h"

namespace perfbench {

enum class Workload { kChainPaper, kSessionsLaned, kDagBlackout };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload workload);

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Seed of stream `stream` derived from the workload seed (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

inline constexpr const char* kFramework = "conscale";

struct ChainInputs {
  conscale::ScenarioParams params;
  conscale::WorkloadTrace trace;
  conscale::ScalingRunOptions options;
};
/// `zero_length` keeps the spec and sets the run duration to 0 (set-up only).
ChainInputs chain_paper_inputs(std::uint64_t seed, bool zero_length);

struct LanedInputs {
  conscale::ScenarioParams params;
  conscale::WorkloadTrace trace;
  conscale::LanedRunOptions options;
};
LanedInputs sessions_laned_inputs(std::uint64_t seed, bool zero_length,
                                  std::size_t lanes = 4);

/// dag_blackout's full runs fan their replicates over this many threads.
inline constexpr std::size_t kDagJobs = 4;

struct DagInputs {
  std::vector<conscale::GraphScenario> replicates;
  conscale::WorkloadTrace trace;
  conscale::ScalingRunOptions options;
};
DagInputs dag_blackout_inputs(std::uint64_t seed, bool zero_length);

/// Replicate seeds of dag_blackout (and the single run seed of the others),
/// for the run record.
std::vector<std::uint64_t> run_seeds(Workload workload, std::uint64_t seed);

/// The simulated outcome of one workload execution. Replicated workloads
/// report the median over replicates for the per-run statistics and sums
/// for the request counts.
struct Outcome {
  double rt_p50_ms = 0.0;
  double rt_p99_ms = 0.0;
  double sla_500ms = 0.0;  ///< within 500 ms out of issued
  double vm_s = 0.0;
  double goodput_rps = 0.0;  ///< completed per simulated second
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t aborted = 0;
  std::uint64_t hook_underflows = 0;
  /// FNV-1a over the exported result JSON (plus graph extras).
  std::uint64_t digest = 0;
};

Outcome summarize(const conscale::ScalingRunResult& run);
Outcome summarize(const std::vector<conscale::GraphRunResult>& replicates);

/// dag_blackout's replicates through run_graph_scaling, fanned out with
/// parallel_map on `jobs` threads; each replicate's wall time lands in
/// `replicate_wall_s` when given.
std::vector<conscale::GraphRunResult> run_replicates(
    const DagInputs& in, std::size_t jobs,
    std::vector<double>* replicate_wall_s = nullptr);

/// One untraced execution through the top-level entry point. Trace and
/// scenario construction are inside, so a zero-length execution times the
/// set-up of the same spec. dag_blackout's zero-length execution builds its
/// replicates one after another: at kDagJobs, thread start-up swings a
/// sub-millisecond set-up between 0.3 and 1.1 ms from one process to the
/// next.
struct Execution {
  Outcome outcome;
  double wall_s = 0.0;
};
Execution execute(Workload workload, std::uint64_t seed, bool zero_length);

}  // namespace perfbench
