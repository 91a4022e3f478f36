#include "topology/service_graph.h"

#include <gtest/gtest.h>

#include "experiments/scenario.h"

namespace conscale {
namespace {

// A small 3-tier system built from the standard scenario.
struct SystemFixture : ::testing::Test {
  SystemFixture()
      : params(make_params()), mix(params.make_mix()),
        system(sim, params.system_config()) {
    sim.run_until(0.01);  // let bootstrap VMs come online
  }

  static ScenarioParams make_params() {
    ScenarioParams p = ScenarioParams::test_scale();
    p.web_init = 1;
    p.app_init = 1;
    p.db_init = 2;
    return p;
  }

  RequestContext ctx() {
    RequestContext c;
    c.id = next_id++;
    c.request_class = &mix.classes().front();
    c.issued_at = sim.now();
    return c;
  }

  Simulation sim;
  ScenarioParams params;
  RequestMix mix;
  NTierSystem system;
  std::uint64_t next_id = 1;
};

TEST_F(SystemFixture, TopologyMatchesConfig) {
  ASSERT_EQ(system.tier_count(), 3u);
  EXPECT_EQ(system.tier(0).name(), "Apache");
  EXPECT_EQ(system.tier(1).name(), "Tomcat");
  EXPECT_EQ(system.tier(2).name(), "MySQL");
  EXPECT_EQ(system.tier(0).running_vms(), 1u);
  EXPECT_EQ(system.tier(2).running_vms(), 2u);
  EXPECT_EQ(system.total_billed_vms(), 4u);
}

TEST_F(SystemFixture, TierByNameLookup) {
  EXPECT_EQ(&system.tier_by_name("MySQL"), &system.tier(2));
  EXPECT_THROW(system.tier_by_name("NoSuch"), std::out_of_range);
}

TEST_F(SystemFixture, RequestFlowsThroughAllTiers) {
  bool done = false;
  system.submit(ctx(), [&] { done = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(done);
  // Every tier saw work: the request visited web -> app -> db (twice).
  EXPECT_EQ(system.tier(0).running_servers()[0]->completed_requests(), 1u);
  EXPECT_EQ(system.tier(1).running_servers()[0]->completed_requests(), 1u);
  std::uint64_t db_queries = 0;
  for (Server* s : system.tier(2).running_servers()) {
    db_queries += s->completed_requests();
  }
  EXPECT_EQ(db_queries, 2u);  // app_db_queries = 2
}

TEST_F(SystemFixture, ManyRequestsAllComplete) {
  int done = 0;
  for (int i = 0; i < 200; ++i) system.submit(ctx(), [&] { ++done; });
  sim.run_until(30.0);
  EXPECT_EQ(done, 200);
}

TEST_F(SystemFixture, ScaledOutVmReceivesTraffic) {
  system.tier(1).scale_out();
  sim.run_until(20.0);
  ASSERT_EQ(system.tier(1).running_vms(), 2u);
  int done = 0;
  for (int i = 0; i < 100; ++i) system.submit(ctx(), [&] { ++done; });
  sim.run_until(40.0);
  EXPECT_EQ(done, 100);
  // leastconn should spread requests across both Tomcats.
  for (Server* s : system.tier(1).running_servers()) {
    EXPECT_GT(s->completed_requests(), 20u) << s->name();
  }
}

TEST_F(SystemFixture, VmReadyCallbacksMulticast) {
  int calls_a = 0, calls_b = 0;
  system.add_vm_ready_callback([&](std::size_t, Vm&) { ++calls_a; });
  system.add_vm_ready_callback([&](std::size_t, Vm&) { ++calls_b; });
  system.tier(2).scale_out();
  sim.run_until(20.0);
  EXPECT_EQ(calls_a, 1);
  EXPECT_EQ(calls_b, 1);
}

// The tier chain is generic: a 4-tier deployment (e.g. web -> app ->
// microservice -> db) wires and serves end to end.
TEST(NTierSystem, FourTierChainWorks) {
  Simulation sim;
  SystemConfig config;
  for (int i = 0; i < 4; ++i) {
    TierConfig tc;
    tc.name = "T" + std::to_string(i);
    tc.server_template.thread_pool_size = 64;
    tc.server_template.seed = 100 + static_cast<std::uint64_t>(i);
    config.tiers.push_back(tc);
  }
  config.initial_vms = {1, 1, 2, 1};
  NTierSystem system(sim, config);

  RequestClass cls;
  cls.name = "deep";
  cls.demand_cv = 0.0;
  cls.tiers.resize(4);
  for (int i = 0; i < 3; ++i) {
    cls.tiers[static_cast<std::size_t>(i)].cpu_pre = 0.001;
    cls.tiers[static_cast<std::size_t>(i)].downstream_calls = 1;
  }
  cls.tiers[3].cpu_pre = 0.002;

  int done = 0;
  sim.run_until(0.01);
  for (int i = 0; i < 50; ++i) {
    RequestContext ctx;
    ctx.id = static_cast<std::uint64_t>(i);
    ctx.request_class = &cls;
    system.submit(ctx, [&] { ++done; });
  }
  sim.run_until(10.0);
  EXPECT_EQ(done, 50);
  // Every tier processed every request (tier 2 split across 2 replicas).
  for (std::size_t t = 0; t < 4; ++t) {
    std::uint64_t completed = 0;
    for (Server* s : system.tier(t).running_servers()) {
      completed += s->completed_requests();
    }
    EXPECT_EQ(completed, 50u) << "tier " << t;
  }
}

TEST(NTierSystem, RejectsBadConfig) {
  Simulation sim;
  SystemConfig empty;
  EXPECT_THROW(NTierSystem(sim, empty), std::invalid_argument);
  SystemConfig mismatched;
  mismatched.tiers.resize(2);
  mismatched.initial_vms = {1};
  EXPECT_THROW(NTierSystem(sim, mismatched), std::invalid_argument);
}

}  // namespace
}  // namespace conscale
