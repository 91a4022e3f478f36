// Scenario presets: the RUBBoS-like deployment of §II-A, calibrated so the
// paper's concurrency optima and their shifts reproduce (DESIGN.md §4).
// Everything an experiment varies — topology, workload mode, dataset size,
// core counts, soft-resource allocation, trace, scale — is a field here.
#pragma once

#include <cstdint>
#include <string>

#include "resources/contention.h"
#include "topology/service_graph.h"
#include "workload/client.h"
#include "workload/mix.h"
#include "workload/trace.h"

namespace conscale {

enum class WorkloadMode { kBrowseOnly, kReadWriteMix };

struct ScenarioParams {
  // ---- workload ----
  WorkloadMode mode = WorkloadMode::kBrowseOnly;
  MixParams mix;           ///< per-tier demand means (see workload/mix.h)
  double think_time = 1.5; ///< client think time mean [s]
  double max_users = 7500.0;
  std::uint64_t seed = 12345;

  /// Speed/fidelity knob: multiplies every service demand by `work_scale`
  /// and divides the user count by it. Throughput scales down by the same
  /// factor while every concurrency optimum — which depends only on demand
  /// *ratios* — stays put. 1.0 = the paper's scale.
  double work_scale = 1.0;

  // ---- initial topology (#Web/#App/#DB) and scaling limits ----
  std::size_t web_init = 1, app_init = 1, db_init = 1;
  std::size_t web_max = 1, app_max = 6, db_max = 5;
  std::size_t web_min = 1, app_min = 1, db_min = 1;
  SimDuration vm_prep_delay = 15.0;  ///< §IV-A preparation period
  LbPolicy lb_policy = LbPolicy::kLeastConnections;

  // ---- hardware per VM ----
  int web_cores = 1, app_cores = 1, db_cores = 1;

  // ---- multithreading overhead (descending-stage strength) ----
  ContentionModel web_contention{200.0, 0.004, 1.0};
  ContentionModel app_contention{40.0, 0.012, 1.0};
  ContentionModel db_contention{20.0, 0.028, 1.0};

  // ---- initial soft resources: the paper's 1000-60-40 ----
  std::size_t web_threads = 1000;
  std::size_t app_threads = 60;
  std::size_t app_dbconn = 40;
  std::size_t db_threads = 400;  ///< MySQL accepts what the conn pools send

  /// Builds the three-tier SystemConfig for these parameters.
  SystemConfig system_config() const;

  /// Builds the request mix for the current mode (work_scale and the mix's
  /// dataset_scale already applied).
  RequestMix make_mix() const;

  /// Effective user count after work_scale compression.
  double scaled_users(double users) const { return users / work_scale; }

  /// Named presets.
  static ScenarioParams paper_default();
  /// Compressed preset for unit/integration tests (work_scale ≈ 8).
  static ScenarioParams test_scale();
};

/// Tier indices in the standard 3-tier layout.
inline constexpr std::size_t kWebTier = 0;
inline constexpr std::size_t kAppTier = 1;
inline constexpr std::size_t kDbTier = 2;

}  // namespace conscale
