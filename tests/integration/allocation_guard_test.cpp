// Allocation guard: the steady-state request path must not touch the heap.
//
// A 1/1/1 NTierSystem driven by a ClientPopulation is warmed up until every
// pool, slot table and queue has reached its working size; over the window
// that follows, the global operator new (replaced below to count calls) may
// run at most 0.5 times per completed request. The byte-identity suites
// cannot see a closure that silently outgrows Callback's inline buffer or
// std::function's small-object buffer; this count can. The fanout3 service
// graph is held to the same rule through its outcome-reporting entry point,
// parallel fan-out and join. A further case holds the event queue's chunk
// pool to the rule under 100 000 pending timers, and another holds
// processor-sharing churn to re-arming its completion timer: no event
// slots, no cancelled entries piling up in the queue.
//
// Built only without -DSANITIZE: the sanitizers interpose the allocator
// themselves.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "experiments/graph_scenario.h"
#include "resources/ps_resource.h"
#include "simcore/simulation.h"
#include "topology/service_graph.h"
#include "workload/client.h"

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace conscale {
namespace {

/// Warms `clients` up, then returns heap allocations per completed request
/// over the following minute of simulated time.
double allocations_per_request(Simulation& sim,
                               const ClientPopulation& clients) {
  sim.run_until(40.0);  // warm-up: pools and queues reach working size
  const std::uint64_t allocations_before = g_allocations;
  const std::uint64_t completed_before = clients.requests_completed();
  sim.run_until(100.0);
  const std::uint64_t allocations = g_allocations - allocations_before;
  const std::uint64_t completed =
      clients.requests_completed() - completed_before;
  EXPECT_GT(completed, 10000u);
  ::testing::Test::RecordProperty("allocations",
                                  static_cast<int>(allocations));
  ::testing::Test::RecordProperty("completed", static_cast<int>(completed));
  return static_cast<double>(allocations) /
         static_cast<double>(std::max<std::uint64_t>(completed, 1));
}

TEST(AllocationGuard, SteadyStateRequestPathIsAllocationFree) {
  ScenarioParams params = ScenarioParams::paper_default();
  params.web_init = 1;
  params.app_init = 1;
  params.db_init = 1;
  Simulation sim;
  const RequestMix mix = params.make_mix();
  NTierSystem system(sim, params.system_config());
  const WorkloadTrace trace = make_constant_trace(2000.0, 120.0);
  ClientPopulation::Params client_params;
  client_params.think_time_mean = params.think_time;
  ClientPopulation clients(
      sim, trace, mix,
      [&system](const RequestContext& ctx, std::function<void()> done) {
        system.submit(ctx, std::move(done));
      },
      client_params);
  EXPECT_LT(allocations_per_request(sim, clients), 0.5);
}

TEST(AllocationGuard, FanoutGraphRequestPathIsAllocationFree) {
  const GraphScenario scenario =
      make_fanout_scenario(ScenarioParams::paper_default());
  Simulation sim;
  topology::ServiceGraph system(sim, scenario.graph);
  const WorkloadTrace trace = make_constant_trace(1500.0, 120.0);
  ClientPopulation::Params client_params;
  client_params.think_time_mean = scenario.base.think_time;
  ClientPopulation clients(
      sim, trace, scenario.mix,
      [&system](const RequestContext& ctx,
                std::function<void(RequestOutcome)> done) {
        system.submit(ctx, std::move(done));
      },
      client_params);
  EXPECT_LT(allocations_per_request(sim, clients), 0.5);
}

TEST(AllocationGuard, EventQueueRecyclesBucketChunks) {
  // 100 000 think timers (exponential, mean 7 s) re-arm as they fire. Once
  // the queue's chunk pool has reached the run's peak, refilling a bucket
  // hands its chunks back to the free list, so re-arming allocates nothing.
  struct Timers {
    Simulation sim;
    Rng rng{5};
    void arm() {
      sim.schedule_after(rng.exponential(7.0), [this] { arm(); });
    }
  } timers;
  for (int i = 0; i < 100000; ++i) timers.arm();

  timers.sim.run_until(60.0);  // warm-up: every bucket has cycled
  const std::uint64_t allocations_before = g_allocations;
  const std::uint64_t executed_before = timers.sim.events_executed();
  timers.sim.run_until(200.0);
  const std::uint64_t allocations = g_allocations - allocations_before;

  ASSERT_GT(timers.sim.events_executed() - executed_before, 1000000u);
  RecordProperty("allocations", static_cast<int>(allocations));
  EXPECT_LE(allocations, 8u);
}

TEST(AllocationGuard, PsChurnReArmsWithoutEventSlots) {
  // Four contended PS stations, eight closed-loop jobs each: a completion
  // waits a short think event, then resubmits. Every arrival and departure
  // re-times the station's completion, which re-arms its timer in place, so
  // once warm the event arena keeps its size and the pending count stays at
  // the think events plus one timer per station.
  constexpr int kStations = 4;
  constexpr int kJobs = 8;
  struct Churn {
    Simulation sim;
    Rng rng{9};
    std::vector<std::unique_ptr<ProcessorSharingResource>> cpus;
    std::uint64_t completed = 0;
    void submit(std::size_t cpu) {
      cpus[cpu]->submit(rng.exponential(0.004), [this, cpu] {
        ++completed;
        sim.schedule_after(rng.exponential(0.001), [this, cpu] {
          submit(cpu);
        });
      });
    }
  } churn;
  for (int i = 0; i < kStations; ++i) {
    churn.cpus.push_back(std::make_unique<ProcessorSharingResource>(
        churn.sim, 2, 1.0, ContentionModel{3.0, 0.05, 1.0}));
    for (int j = 0; j < kJobs; ++j) churn.submit(churn.cpus.size() - 1);
  }

  churn.sim.run_until(5.0);  // warm-up
  const std::size_t slots_before = churn.sim.event_slots();
  const std::uint64_t allocations_before = g_allocations;
  const std::uint64_t completed_before = churn.completed;
  std::size_t pending_peak = 0;
  for (int slice = 1; slice <= 200; ++slice) {
    churn.sim.run_until(5.0 + 0.1 * slice);
    pending_peak = std::max(pending_peak, churn.sim.pending_events());
  }
  const std::uint64_t allocations = g_allocations - allocations_before;

  ASSERT_GT(churn.completed - completed_before, 20000u);
  EXPECT_EQ(churn.sim.event_slots(), slots_before);
  EXPECT_LE(pending_peak,
            static_cast<std::size_t>(kStations * kJobs + kStations));
  EXPECT_LE(allocations, 8u);
}

}  // namespace
}  // namespace conscale
