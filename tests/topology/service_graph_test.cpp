// Unit tests for the ServiceGraph subsystem: config validation, DAG routing
// with join-on-all fan-out, the deterministic cache model, and entry-point
// admission control. Demands use demand_cv = 0 so every service time is
// exact and completion instants can be asserted analytically.
#include "topology/service_graph.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "simcore/simulation.h"
#include "workload/request.h"

namespace conscale::topology {
namespace {

GraphNodeConfig leaf(const std::string& name, std::uint64_t seed,
                     std::size_t threads = 64) {
  GraphNodeConfig node;
  node.tier.name = name;
  node.tier.server_template.cores = 1;
  node.tier.server_template.thread_pool_size = threads;
  node.tier.server_template.seed = seed;
  node.tier.vm_prep_delay = 0.0;
  node.tier.min_vms = 1;
  node.tier.max_vms = 4;
  node.initial_vms = 1;
  return node;
}

/// Pure-delay demand: holds a thread for exactly `delay` (no CPU, so no
/// processor-sharing interaction) and then issues `calls` downstream RPCs.
PhaseDemand hold(double delay, int calls = 0) {
  PhaseDemand d;
  d.pure_delay = delay;
  d.downstream_calls = calls;
  return d;
}

/// A single deterministic request class over `demands` (demand_cv = 0).
RequestClass exact_class(std::vector<PhaseDemand> demands) {
  RequestClass c;
  c.name = "exact";
  c.demand_cv = 0.0;
  c.tiers = std::move(demands);
  return c;
}

RequestContext request_for(const RequestClass& cls, std::uint64_t id,
                           SimTime issued) {
  RequestContext ctx;
  ctx.id = id;
  ctx.request_class = &cls;
  ctx.issued_at = issued;
  return ctx;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

TEST(GraphValidation, RejectsEmptyGraph) {
  Simulation sim;
  ServiceGraphConfig config;
  EXPECT_THROW(ServiceGraph(sim, config), std::invalid_argument);
}

TEST(GraphValidation, RejectsDuplicateNames) {
  Simulation sim;
  ServiceGraphConfig config;
  config.nodes = {leaf("A", 1), leaf("A", 2)};
  config.nodes[0].route = {RouteStage{{{1}}}};
  EXPECT_THROW(ServiceGraph(sim, config), std::invalid_argument);
}

TEST(GraphValidation, RejectsOutOfRangeRoute) {
  Simulation sim;
  ServiceGraphConfig config;
  config.nodes = {leaf("A", 1)};
  config.nodes[0].route = {RouteStage{{{7}}}};
  EXPECT_THROW(ServiceGraph(sim, config), std::invalid_argument);
}

TEST(GraphValidation, RejectsSelfCall) {
  Simulation sim;
  ServiceGraphConfig config;
  config.nodes = {leaf("A", 1)};
  config.nodes[0].route = {RouteStage{{{0}}}};
  EXPECT_THROW(ServiceGraph(sim, config), std::invalid_argument);
}

TEST(GraphValidation, RejectsCycle) {
  Simulation sim;
  ServiceGraphConfig config;
  config.nodes = {leaf("A", 1), leaf("B", 2), leaf("C", 3)};
  config.nodes[0].route = {RouteStage{{{1}}}};
  config.nodes[1].route = {RouteStage{{{2}}}};
  config.nodes[2].route = {RouteStage{{{1}}}};
  EXPECT_THROW(ServiceGraph(sim, config), std::invalid_argument);
}

TEST(GraphValidation, RejectsUnreachableNode) {
  Simulation sim;
  ServiceGraphConfig config;
  config.nodes = {leaf("A", 1), leaf("B", 2), leaf("Orphan", 3)};
  config.nodes[0].route = {RouteStage{{{1}}}};
  EXPECT_THROW(ServiceGraph(sim, config), std::invalid_argument);
}

TEST(GraphValidation, AcceptsSharedBackendDag) {
  Simulation sim;
  ServiceGraphConfig config;
  config.nodes = {leaf("Gw", 1), leaf("A", 2), leaf("B", 3), leaf("Db", 4)};
  config.nodes[0].route = {RouteStage{{{1}, {2}}}};
  config.nodes[1].route = {RouteStage{{{3}}}};
  config.nodes[2].route = {RouteStage{{{3}}}};
  EXPECT_NO_THROW(ServiceGraph(sim, config));
}

// ---------------------------------------------------------------------------
// Routing and joins
// ---------------------------------------------------------------------------

TEST(GraphRouting, ParallelFanOutJoinsOnAllReplies) {
  // Gw fans out to {A (1 s), B (2 s)} in one stage: the route continues only
  // when BOTH replies are in, so the request completes at t = 2 s, and each
  // child sees exactly one visit.
  Simulation sim;
  ServiceGraphConfig config;
  config.nodes = {leaf("Gw", 1), leaf("A", 2), leaf("B", 3)};
  config.nodes[0].route = {RouteStage{{{1}, {2}}}};
  ServiceGraph graph(sim, config);

  const RequestClass cls =
      exact_class({hold(0.0, 1), hold(1.0), hold(2.0)});
  SimTime done_at = -1.0;
  int done_count = 0;
  sim.schedule_after(0.0, [&] {
    graph.submit(request_for(cls, 1, sim.now()),
                 [&](RequestOutcome outcome) {
                   EXPECT_EQ(outcome, RequestOutcome::kServed);
                   done_at = sim.now();
                   ++done_count;
                 });
  });
  sim.run_until(10.0);

  EXPECT_EQ(done_count, 1);
  EXPECT_DOUBLE_EQ(done_at, 2.0);
  EXPECT_EQ(graph.tier(1).all_vms()[0]->server().completed_requests(), 1u);
  EXPECT_EQ(graph.tier(2).all_vms()[0]->server().completed_requests(), 1u);
}

TEST(GraphRouting, SequentialStagesRunInOrder) {
  // Same children, but as two sequential stages: 1 s + 2 s = 3 s.
  Simulation sim;
  ServiceGraphConfig config;
  config.nodes = {leaf("Gw", 1), leaf("A", 2), leaf("B", 3)};
  config.nodes[0].route = {RouteStage{{{1}}}, RouteStage{{{2}}}};
  ServiceGraph graph(sim, config);

  const RequestClass cls =
      exact_class({hold(0.0, 1), hold(1.0), hold(2.0)});
  SimTime done_at = -1.0;
  sim.schedule_after(0.0, [&] {
    graph.submit(request_for(cls, 1, sim.now()),
                 [&](RequestOutcome) { done_at = sim.now(); });
  });
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(done_at, 3.0);
}

TEST(GraphRouting, DownstreamCallsRepeatTheWholeRoute) {
  // downstream_calls = 2 on the entry: the route runs twice sequentially
  // (two 1 s queries into A), completing at t = 2 s with 2 visits on A.
  Simulation sim;
  ServiceGraphConfig config;
  config.nodes = {leaf("Svc", 1), leaf("A", 2)};
  config.nodes[0].route = {RouteStage{{{1}}}};
  ServiceGraph graph(sim, config);

  const RequestClass cls = exact_class({hold(0.0, 2), hold(1.0)});
  SimTime done_at = -1.0;
  sim.schedule_after(0.0, [&] {
    graph.submit(request_for(cls, 1, sim.now()),
                 [&](RequestOutcome) { done_at = sim.now(); });
  });
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(done_at, 2.0);
  EXPECT_EQ(graph.tier(1).all_vms()[0]->server().completed_requests(), 2u);
}

TEST(GraphRouting, SharedBackendSeesCrossTraffic) {
  // Gw -> {A || B} -> Db: one submit produces one visit on A and B and two
  // on the shared Db (one per parent).
  Simulation sim;
  ServiceGraphConfig config;
  config.nodes = {leaf("Gw", 1), leaf("A", 2), leaf("B", 3), leaf("Db", 4)};
  config.nodes[0].route = {RouteStage{{{1}, {2}}}};
  config.nodes[1].route = {RouteStage{{{3}}}};
  config.nodes[2].route = {RouteStage{{{3}}}};
  ServiceGraph graph(sim, config);

  const RequestClass cls = exact_class(
      {hold(0.0, 1), hold(0.5, 1), hold(1.0, 1), hold(0.25)});
  int done_count = 0;
  sim.schedule_after(0.0, [&] {
    graph.submit(request_for(cls, 1, sim.now()),
                 [&](RequestOutcome) { ++done_count; });
  });
  sim.run_until(10.0);
  EXPECT_EQ(done_count, 1);
  EXPECT_EQ(graph.tier(3).all_vms()[0]->server().completed_requests(), 2u);
}

// ---------------------------------------------------------------------------
// Cache model
// ---------------------------------------------------------------------------

TEST(CacheModel, HitRatioFollowsWorkingSetChurn) {
  CacheModel cache;
  cache.base_hit_ratio = 0.8;
  cache.capacity = 1.0;
  cache.working_set = 1.0;
  cache.churn_period = 100.0;
  cache.churn_amplitude = 0.5;
  // Period edge: working set at its smallest (0.5), fully covered.
  EXPECT_DOUBLE_EQ(cache.hit_ratio_at(0.0), 0.8);
  EXPECT_DOUBLE_EQ(cache.hit_ratio_at(100.0), 0.8);
  // Quarter period: triangle wave crosses zero, nominal working set.
  EXPECT_DOUBLE_EQ(cache.hit_ratio_at(25.0), 0.8);
  // Mid-period peak: working set 1.5, coverage 2/3.
  EXPECT_NEAR(cache.hit_ratio_at(50.0), 0.8 * (1.0 / 1.5), 1e-12);
}

TEST(CacheModel, StaticWhenChurnDisabled) {
  CacheModel cache;
  cache.base_hit_ratio = 0.6;
  cache.capacity = 2.0;
  cache.working_set = 1.0;  // over-provisioned cache: coverage clamps to 1
  EXPECT_DOUBLE_EQ(cache.hit_ratio_at(0.0), 0.6);
  EXPECT_DOUBLE_EQ(cache.hit_ratio_at(1234.5), 0.6);
}

ServiceGraphConfig cache_chain(double base_hit_ratio, std::uint64_t seed) {
  ServiceGraphConfig config;
  config.seed = seed;
  config.nodes = {leaf("F", 1), leaf("C", 2), leaf("D", 3)};
  config.nodes[0].route = {RouteStage{{{1}}}};
  config.nodes[1].route = {RouteStage{{{2}}}};
  config.nodes[1].cache.enabled = true;
  config.nodes[1].cache.base_hit_ratio = base_hit_ratio;
  return config;
}

struct CacheDriveResult {
  CacheStats stats;
  std::uint64_t backend_visits = 0;
};

CacheDriveResult drive_cache_chain(double base_hit_ratio,
                                   std::uint64_t seed, int requests) {
  Simulation sim;
  ServiceGraph graph(sim, cache_chain(base_hit_ratio, seed));
  const RequestClass cls =
      exact_class({hold(0.0, 1), hold(0.1, 1), hold(0.1)});
  for (int i = 0; i < requests; ++i) {
    sim.schedule_after(i * 0.5, [&graph, &cls, &sim, i] {
      graph.submit(request_for(cls, static_cast<std::uint64_t>(i + 1),
                               sim.now()),
                   [](RequestOutcome) {});
    });
  }
  sim.run_until(requests * 0.5 + 5.0);
  CacheDriveResult result;
  result.stats = graph.cache_stats(1);
  result.backend_visits =
      graph.tier(2).all_vms()[0]->server().completed_requests();
  return result;
}

TEST(CacheNode, CertainHitShortCircuitsSubtree) {
  const CacheDriveResult r = drive_cache_chain(1.0, 42, 20);
  EXPECT_EQ(r.stats.hits, 20u);
  EXPECT_EQ(r.stats.misses, 0u);
  EXPECT_EQ(r.backend_visits, 0u);
}

TEST(CacheNode, CertainMissAlwaysReachesBackend) {
  const CacheDriveResult r = drive_cache_chain(0.0, 42, 20);
  EXPECT_EQ(r.stats.hits, 0u);
  EXPECT_EQ(r.stats.misses, 20u);
  EXPECT_EQ(r.backend_visits, 20u);
}

TEST(CacheNode, HitMissStreamReplaysByteIdentically) {
  const CacheDriveResult a = drive_cache_chain(0.5, 42, 60);
  const CacheDriveResult b = drive_cache_chain(0.5, 42, 60);
  EXPECT_EQ(a.stats.hits, b.stats.hits);
  EXPECT_EQ(a.stats.misses, b.stats.misses);
  EXPECT_EQ(a.backend_visits, b.backend_visits);
  EXPECT_EQ(a.stats.hits + a.stats.misses, 60u);
  // Both outcomes occur at p = 0.5 over 60 draws (probability of a
  // degenerate all-one-side stream is 2^-59).
  EXPECT_GT(a.stats.hits, 0u);
  EXPECT_GT(a.stats.misses, 0u);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(Admission, OccupancyBoundShedsExcessArrivals) {
  // One server, one worker thread, 10 s service time, queue_limit = 2.
  // Five back-to-back submits: #1 takes the thread, #2 and #3 queue
  // (depths 0 and 1 at admission time), #4 and #5 see depth 2 and shed.
  Simulation sim;
  ServiceGraphConfig config;
  config.nodes = {leaf("S", 1, /*threads=*/1)};
  config.admission.enabled = true;
  config.admission.queue_limit = 2;
  ServiceGraph graph(sim, config);

  const RequestClass cls = exact_class({hold(10.0)});
  int served = 0;
  int rejected = 0;
  sim.schedule_after(0.5, [&] {
    for (int i = 0; i < 5; ++i) {
      graph.submit(request_for(cls, static_cast<std::uint64_t>(i + 1),
                               sim.now()),
                   [&](RequestOutcome outcome) {
                     if (outcome == RequestOutcome::kServed) {
                       ++served;
                     } else {
                       ++rejected;
                     }
                   });
    }
    // Rejections fire synchronously at submit time.
    EXPECT_EQ(rejected, 2);
  });
  sim.run_until(60.0);

  EXPECT_EQ(served, 3);
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(graph.admission_stats().admitted, 3u);
  EXPECT_EQ(graph.admission_stats().rejected_occupancy, 2u);
  EXPECT_EQ(graph.admission_stats().rejected_age, 0u);
  EXPECT_EQ(graph.tier(0).all_vms()[0]->server().completed_requests(), 3u);
}

TEST(Admission, QueueAgeBoundShedsWhenResponsesStall) {
  // Plenty of threads but 10 s service: the oldest in-flight request ages
  // past max_queue_age = 1 s, so a submit at t = 2 is shed; once the early
  // requests complete, admission opens again.
  Simulation sim;
  ServiceGraphConfig config;
  config.nodes = {leaf("S", 1, /*threads=*/8)};
  config.admission.enabled = true;
  config.admission.max_queue_age = 1.0;
  ServiceGraph graph(sim, config);

  const RequestClass cls = exact_class({hold(10.0)});
  std::vector<RequestOutcome> outcomes;
  auto submit_one = [&](std::uint64_t id) {
    graph.submit(request_for(cls, id, sim.now()),
                 [&outcomes](RequestOutcome outcome) {
                   outcomes.push_back(outcome);
                 });
  };
  sim.schedule_after(0.5, [&] { submit_one(1); });
  sim.schedule_after(2.0, [&] { submit_one(2); });   // aged out: shed
  sim.schedule_after(12.0, [&] { submit_one(3); });  // #1 done: admitted
  sim.run_until(60.0);

  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0], RequestOutcome::kRejected);  // #2, synchronous
  EXPECT_EQ(outcomes[1], RequestOutcome::kServed);    // #1 at t = 10.5
  EXPECT_EQ(outcomes[2], RequestOutcome::kServed);    // #3 at t = 22
  EXPECT_EQ(graph.admission_stats().admitted, 2u);
  EXPECT_EQ(graph.admission_stats().rejected_age, 1u);
  EXPECT_EQ(graph.admission_stats().rejected_occupancy, 0u);
}

TEST(Admission, DisabledPolicyNeverSheds) {
  Simulation sim;
  ServiceGraphConfig config;
  config.nodes = {leaf("S", 1, /*threads=*/1)};
  ServiceGraph graph(sim, config);

  const RequestClass cls = exact_class({hold(10.0)});
  int rejected = 0;
  int served = 0;
  sim.schedule_after(0.5, [&] {
    for (int i = 0; i < 20; ++i) {
      graph.submit(request_for(cls, static_cast<std::uint64_t>(i + 1),
                               sim.now()),
                   [&](RequestOutcome outcome) {
                     outcome == RequestOutcome::kServed ? ++served
                                                        : ++rejected;
                   });
    }
  });
  sim.run_until(500.0);
  EXPECT_EQ(rejected, 0);
  EXPECT_EQ(served, 20);
  EXPECT_EQ(graph.admission_stats().rejected(), 0u);
}

TEST(Admission, OutcomeBlindSubmitRequiresAdmissionOff) {
  // The void-continuation entry point serves like the outcome one when
  // admission is off, and refuses to run when a rejection could happen.
  ServiceGraphConfig config;
  config.nodes = {leaf("S", 1, /*threads=*/1)};
  Simulation sim;
  ServiceGraph graph(sim, config);
  config.admission.enabled = true;
  config.admission.queue_limit = 2;
  Simulation shedding_sim;
  ServiceGraph shedding(shedding_sim, config);

  const RequestClass cls = exact_class({hold(1.0)});
  int served = 0;
  sim.schedule_after(0.5, [&] {
    graph.submit(request_for(cls, 1, sim.now()), [&served] { ++served; });
  });
  sim.run_until(10.0);
  EXPECT_EQ(served, 1);
  EXPECT_EQ(graph.admission_stats().admitted, 1u);
  EXPECT_THROW(shedding.submit(request_for(cls, 1, 0.0), [] {}),
               std::logic_error);
}

}  // namespace
}  // namespace conscale::topology
