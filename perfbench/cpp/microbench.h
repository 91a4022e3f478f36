// Standalone layer microbenchmarks for the traced run: each one drives a
// layer's public entry point in isolation and returns host nanoseconds (or
// microseconds) per operation, timed with the steady clock. Each is sized
// from the traced run it follows (its backend count, observed concurrency,
// pool size, operation counts and recorded series), not from fixed
// constants.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "experiments/runner.h"

namespace perfbench {

/// What the traced run observed; the microbenchmarks size themselves from it.
struct MicrobenchSizing {
  std::size_t peak_backends = 1;     ///< most running VMs in any tier
  std::size_t peak_concurrency = 1;  ///< highest 50 ms server concurrency
  std::size_t pool_size = 1;         ///< largest thread/connection pool
  std::uint64_t operations = 1;      ///< request visits in the run
};
MicrobenchSizing size_from(const conscale::ScalingRunResult& run,
                       std::size_t pool_size);

/// LoadBalancer::dispatch (least connections) over `peak_backends` servers
/// with `peak_concurrency` requests outstanding; includes the backend's
/// synchronous admission. ns per dispatch.
double lb_dispatch_ns(const MicrobenchSizing& sizing);

/// TokenPool waiter path: a full pool of `pool_size` tokens with
/// `peak_concurrency` queued waiters; one op is a queued acquire plus a
/// release that grants the head waiter. ns per op.
double token_op_ns(const MicrobenchSizing& sizing);

/// ProcessorSharingResource kept at `peak_concurrency` jobs; one op is a
/// submit plus the completion event that retires a job. ns per op.
double ps_op_ns(const MicrobenchSizing& sizing);

/// IntervalAggregator admission + departure hook pair (the monitoring hook
/// every server visit fires). ns per pair.
double aggregator_hook_ns(const MicrobenchSizing& sizing);

struct SeriesReplay {
  double query_us = 0.0;     ///< server_window(180 s) query
  double estimate_ms = 0.0;  ///< SctEstimator::estimate
  /// estimate() calls that returned a range / calls.
  double range_found_ratio = 0.0;
};
/// Replays the estimator's refresh over the run's own recorded series:
/// at every refresh instant, each tier's server windows are queried and the
/// tier's scatter estimated.
SeriesReplay replay_series(const conscale::ScalingRunResult& run,
                           const conscale::FrameworkConfig& config,
                           conscale::SimDuration duration);

/// A controller tick: a fresh system of the same shape under the same
/// framework, fed the run's recorded warehouse series second by second (no
/// clients), timed per 1 s run_until step. Microseconds per tick.
using SystemFactory =
    std::function<std::unique_ptr<conscale::TierSystem>(conscale::Simulation&)>;
double controller_tick_us(const conscale::ScalingRunResult& run,
                          const SystemFactory& make_system,
                          const conscale::FrameworkConfig& config,
                          conscale::SimDuration duration);

}  // namespace perfbench
