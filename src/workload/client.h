// ClientPopulation: the closed-loop workload generator.
//
// The paper's generator simulates a number of concurrent users whose request
// stream follows a Poisson process (§II-A): each simulated user repeatedly
// thinks (exponential think time) and issues one request, waiting for the
// response before thinking again. The population size tracks a WorkloadTrace
// (the six bursty shapes of Fig 9); the profiling experiments of Fig 3/7 use
// a constant population with zero think time to pin the processing
// concurrency exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "simcore/simulation.h"
#include "workload/mix.h"
#include "workload/request.h"
#include "workload/trace.h"

namespace conscale {

class ClientPopulation {
 public:
  /// The system entry point: deliver `ctx` and invoke the continuation when
  /// the response returns.
  using SubmitFn = std::function<void(const RequestContext&,
                                      std::function<void()> on_response)>;
  /// Outcome-aware entry point: the continuation reports whether the request
  /// was served or shed by admission control (topology::ServiceGraph).
  using OutcomeSubmitFn =
      std::function<void(const RequestContext&,
                         std::function<void(RequestOutcome)> on_response)>;
  /// Observer of completed end-to-end requests (issued time, response time).
  using CompletionHook =
      std::function<void(SimTime issued, double rt, const RequestClass&)>;
  /// Observer of shed requests (fires at the rejection instant).
  using RejectionHook = std::function<void(SimTime rejected_at)>;

  struct Params {
    double think_time_mean = 1.5;  ///< seconds; 0 = closed-loop stress mode
    SimDuration adjust_period = 0.5;  ///< how often population tracks trace
    std::uint64_t seed = 7;
  };

  ClientPopulation(Simulation& sim, const WorkloadTrace& trace,
                   const RequestMix& mix, SubmitFn submit, Params params);
  /// Outcome-aware variant: systems with admission control report
  /// RequestOutcome::kRejected for shed requests. A rejected user goes back
  /// to thinking (retry-after-backoff behavior); the request counts toward
  /// requests_issued()/requests_rejected() but not the RT histogram.
  ClientPopulation(Simulation& sim, const WorkloadTrace& trace,
                   const RequestMix& mix, OutcomeSubmitFn submit,
                   Params params);
  ~ClientPopulation();
  ClientPopulation(const ClientPopulation&) = delete;
  ClientPopulation& operator=(const ClientPopulation&) = delete;

  void set_completion_hook(CompletionHook hook) { hook_ = std::move(hook); }
  void set_rejection_hook(RejectionHook hook) {
    rejection_hook_ = std::move(hook);
  }

  /// Swap the request mix at runtime (workload-type change experiments).
  void set_mix(const RequestMix& mix) { mix_ = &mix; }

  std::size_t active_users() const { return active_; }
  std::uint64_t requests_issued() const { return issued_; }
  std::uint64_t requests_completed() const { return completed_; }
  /// Requests shed by admission control (always zero for plain SubmitFn).
  std::uint64_t requests_rejected() const { return rejected_; }
  /// End-to-end (client-perceived) response times of the whole run.
  const LogHistogram& response_times() const { return rt_histogram_; }

 private:
  static constexpr std::uint32_t kNoUser = 0xffffffffu;

  /// One slot of the user table. A user has at most one request in flight;
  /// its class and issue time live here, so the reply closure captures only
  /// `this` and the slot and fits std::function's inline buffer.
  struct User {
    EventHandle think_event;
    const RequestClass* request_class = nullptr;  ///< of the request in flight
    SimTime issued_at = 0.0;
    std::uint32_t next_free = kNoUser;  ///< free-list link while free
  };

  /// Both public constructors land here; exactly one entry point is set.
  ClientPopulation(Simulation& sim, const WorkloadTrace& trace,
                   const RequestMix& mix, SubmitFn plain_submit,
                   OutcomeSubmitFn submit, Params params);

  void adjust_population(SimTime now);
  void spawn_user();
  void user_think(std::uint32_t slot);
  void user_submit(std::uint32_t slot);
  void on_response(std::uint32_t slot, RequestOutcome outcome);
  bool maybe_retire(std::uint32_t slot);

  Simulation& sim_;
  const WorkloadTrace& trace_;
  const RequestMix* mix_;
  SubmitFn plain_submit_;
  OutcomeSubmitFn submit_;
  Params params_;
  Rng rng_;
  CompletionHook hook_;
  RejectionHook rejection_hook_;

  std::vector<User> users_;  ///< recycled slot table
  std::uint32_t free_head_ = kNoUser;
  std::size_t active_ = 0;
  std::uint64_t next_request_id_ = 1;
  std::size_t retire_pending_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  LogHistogram rt_histogram_;
  std::unique_ptr<PeriodicTask> adjust_task_;
};

}  // namespace conscale
