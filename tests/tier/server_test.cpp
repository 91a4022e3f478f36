#include "tier/server.h"
#include "common/stats.h"
#include <vector>
#include <functional>
#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

namespace conscale {
namespace {

// A request class with configurable demands on one tier.
RequestClass make_class(PhaseDemand demand, int tier = 0, double cv = 0.0) {
  RequestClass c;
  c.name = "test";
  c.demand_cv = cv;
  c.tiers.resize(static_cast<std::size_t>(tier) + 1);
  c.tiers[static_cast<std::size_t>(tier)] = demand;
  return c;
}

RequestContext make_ctx(const RequestClass& cls, std::uint64_t id = 1) {
  RequestContext ctx;
  ctx.id = id;
  ctx.request_class = &cls;
  return ctx;
}

Server::Params base_params() {
  Server::Params p;
  p.name = "srv";
  p.cores = 1;
  p.thread_pool_size = 4;
  return p;
}

TEST(Server, CpuOnlyRequestTiming) {
  Simulation sim;
  Server server(sim, base_params());
  PhaseDemand d;
  d.cpu_pre = 1.0;
  d.cpu_post = 0.5;
  const RequestClass cls = make_class(d);
  double done_at = -1;
  server.handle(make_ctx(cls), [&] { done_at = sim.now(); });
  sim.run_all();
  EXPECT_DOUBLE_EQ(done_at, 1.5);
  EXPECT_EQ(server.completed_requests(), 1u);
  EXPECT_EQ(server.in_flight(), 0u);
}

TEST(Server, PureDelayHoldsThreadWithoutCpu) {
  Simulation sim;
  Server server(sim, base_params());
  PhaseDemand d;
  d.pure_delay = 2.0;
  const RequestClass cls = make_class(d);
  double done_at = -1;
  server.handle(make_ctx(cls), [&] { done_at = sim.now(); });
  sim.run_until(1.0);
  EXPECT_EQ(server.processing(), 1u);
  EXPECT_NEAR(server.cpu_busy_core_seconds(), 0.0, 1e-9);
  sim.run_all();
  EXPECT_DOUBLE_EQ(done_at, 2.0);
}

TEST(Server, DiskPhaseUsesFcfs) {
  Simulation sim;
  Server::Params p = base_params();
  p.disk_channels = 1;
  Server server(sim, p);
  PhaseDemand d;
  d.disk = 1.0;
  const RequestClass cls = make_class(d);
  std::vector<double> done;
  server.handle(make_ctx(cls, 1), [&] { done.push_back(sim.now()); });
  server.handle(make_ctx(cls, 2), [&] { done.push_back(sim.now()); });
  sim.run_all();
  // Disk serializes: completions at 1 and 2.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
  EXPECT_NEAR(server.disk_busy_seconds(), 2.0, 1e-9);
}

TEST(Server, ThreadPoolCapsProcessingConcurrency) {
  Simulation sim;
  Server::Params p = base_params();
  p.thread_pool_size = 2;
  Server server(sim, p);
  PhaseDemand d;
  d.pure_delay = 1.0;
  const RequestClass cls = make_class(d);
  int completions = 0;
  for (int i = 0; i < 5; ++i) {
    server.handle(make_ctx(cls, static_cast<std::uint64_t>(i)),
                  [&] { ++completions; });
  }
  EXPECT_EQ(server.processing(), 2u);
  EXPECT_EQ(server.queued(), 3u);
  EXPECT_EQ(server.in_flight(), 5u);
  sim.run_all();
  EXPECT_EQ(completions, 5);
  // 5 pure delays of 1 s through 2 threads: ceil(5/2) rounds = 3 s.
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Server, ResponseTimeIncludesQueueing) {
  Simulation sim;
  Server::Params p = base_params();
  p.thread_pool_size = 1;
  Server server(sim, p);
  PhaseDemand d;
  d.pure_delay = 1.0;
  const RequestClass cls = make_class(d);
  std::vector<double> rts;
  Server::Hooks hooks;
  hooks.on_departed = [&](SimTime, double rt) { rts.push_back(rt); };
  server.add_hooks(std::move(hooks));
  server.handle(make_ctx(cls, 1), [] {});
  server.handle(make_ctx(cls, 2), [] {});
  sim.run_all();
  ASSERT_EQ(rts.size(), 2u);
  EXPECT_DOUBLE_EQ(rts[0], 1.0);
  EXPECT_DOUBLE_EQ(rts[1], 2.0);  // waited 1 s for the thread
}

TEST(Server, DownstreamCallsAreSequentialAndHoldThread) {
  Simulation sim;
  Server server(sim, base_params());
  PhaseDemand d;
  d.downstream_calls = 3;
  const RequestClass cls = make_class(d);
  int downstream_seen = 0;
  std::size_t processing_during_downstream = 0;
  server.set_downstream(
      [&](const RequestContext&, Server::Completion reply) {
        ++downstream_seen;
        processing_during_downstream = server.processing();
        sim.schedule_after(1.0, std::move(reply));
      });
  double done_at = -1;
  server.handle(make_ctx(cls), [&] { done_at = sim.now(); });
  sim.run_all();
  EXPECT_EQ(downstream_seen, 3);
  EXPECT_EQ(processing_during_downstream, 1u);  // thread held throughout
  EXPECT_DOUBLE_EQ(done_at, 3.0);               // sequential, not parallel
}

TEST(Server, ConnectionPoolGatesDownstreamConcurrency) {
  Simulation sim;
  Server::Params p = base_params();
  p.thread_pool_size = 8;
  p.downstream_pool_size = 2;
  Server server(sim, p);
  PhaseDemand d;
  d.downstream_calls = 1;
  const RequestClass cls = make_class(d);
  int concurrent = 0, max_concurrent = 0;
  server.set_downstream(
      [&](const RequestContext&, Server::Completion reply) {
        ++concurrent;
        max_concurrent = std::max(max_concurrent, concurrent);
        sim.schedule_after(1.0, [&concurrent, reply = std::move(reply)] {
          --concurrent;
          reply();
        });
      });
  for (int i = 0; i < 6; ++i) {
    server.handle(make_ctx(cls, static_cast<std::uint64_t>(i)), [] {});
  }
  sim.run_all();
  EXPECT_EQ(max_concurrent, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);  // 6 calls through 2 connections
}

TEST(Server, ThreadPoolResizeTakesEffect) {
  Simulation sim;
  Server::Params p = base_params();
  p.thread_pool_size = 1;
  Server server(sim, p);
  PhaseDemand d;
  d.pure_delay = 1.0;
  const RequestClass cls = make_class(d);
  for (int i = 0; i < 4; ++i) {
    server.handle(make_ctx(cls, static_cast<std::uint64_t>(i)), [] {});
  }
  sim.schedule_at(0.5, [&] { server.set_thread_pool_size(4); });
  sim.run_all();
  // First request alone [0,1]; at 0.5 the pool grows and the other three
  // start together, completing at 1.5.
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
  EXPECT_EQ(server.thread_pool_size(), 4u);
}

TEST(Server, DownstreamPoolResizeLive) {
  Simulation sim;
  Server::Params p = base_params();
  p.thread_pool_size = 8;
  p.downstream_pool_size = 1;
  Server server(sim, p);
  EXPECT_EQ(server.downstream_pool_size(), 1u);
  server.set_downstream_pool_size(5);
  EXPECT_EQ(server.downstream_pool_size(), 5u);
}

TEST(Server, VerticalScalingSpeedsService) {
  Simulation sim;
  Server::Params p = base_params();
  p.cores = 1;
  Server server(sim, p);
  PhaseDemand d;
  d.cpu_pre = 1.0;
  const RequestClass cls = make_class(d);
  std::vector<double> done;
  server.handle(make_ctx(cls, 1), [&] { done.push_back(sim.now()); });
  server.handle(make_ctx(cls, 2), [&] { done.push_back(sim.now()); });
  server.set_cores(2);
  EXPECT_EQ(server.cores(), 2);
  sim.run_all();
  // Two cores: no sharing; both finish at 1.0.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 1.0);
}

TEST(Server, InterferenceSlowsCpuOnly) {
  Simulation sim;
  Server server(sim, base_params());
  EXPECT_DOUBLE_EQ(server.cpu_speed(), 1.0);
  server.set_cpu_speed(0.5);  // noisy neighbour takes half the cycles
  PhaseDemand d;
  d.cpu_pre = 1.0;
  const RequestClass cls = make_class(d);
  double done_at = -1;
  server.handle(make_ctx(cls), [&] { done_at = sim.now(); });
  sim.run_all();
  EXPECT_DOUBLE_EQ(done_at, 2.0);  // same work, half the speed
}

TEST(Server, HooksFireOnAdmissionAndDeparture) {
  Simulation sim;
  Server server(sim, base_params());
  PhaseDemand d;
  d.cpu_pre = 0.5;
  const RequestClass cls = make_class(d);
  int admitted = 0, departed = 0;
  Server::Hooks hooks;
  hooks.on_admitted = [&](SimTime) { ++admitted; };
  hooks.on_departed = [&](SimTime, double) { ++departed; };
  server.add_hooks(std::move(hooks));
  server.handle(make_ctx(cls), [] {});
  EXPECT_EQ(admitted, 1);
  EXPECT_EQ(departed, 0);
  sim.run_all();
  EXPECT_EQ(departed, 1);
}

TEST(Server, MissingTierDemandThrows) {
  Simulation sim;
  Server::Params p = base_params();
  p.tier_index = 2;
  Server server(sim, p);
  const RequestClass cls = make_class(PhaseDemand{}, 0);  // only tier 0
  EXPECT_THROW(server.handle(make_ctx(cls), [] {}), std::logic_error);
}

TEST(Server, DemandSamplingRespectsCv) {
  Simulation sim;
  Server server(sim, base_params());
  PhaseDemand d;
  d.cpu_pre = 0.01;
  RequestClass cls = make_class(d);
  cls.demand_cv = 0.5;
  std::vector<double> rts;
  Server::Hooks hooks;
  hooks.on_departed = [&](SimTime, double rt) { rts.push_back(rt); };
  server.add_hooks(std::move(hooks));
  // Serial requests (pool 4, one at a time) so RT == sampled demand.
  std::function<void(int)> submit = [&](int remaining) {
    if (remaining == 0) return;
    server.handle(make_ctx(cls), [&, remaining] { submit(remaining - 1); });
  };
  submit(2000);
  sim.run_all();
  RunningStats s;
  for (double rt : rts) s.add(rt);
  EXPECT_NEAR(s.mean(), 0.01, 0.001);
  EXPECT_NEAR(s.stddev() / s.mean(), 0.5, 0.06);
}

// Crash semantics of the visit pool. Six visits are caught by fail() at every
// pipeline stage; the continuations they leave behind (a disk job still in
// service, a delay timer, a downstream reply) must stay inert after fail(),
// even once new visits have recycled every pool slot.
struct CrashFixture : ::testing::Test {
  CrashFixture() {
    Server::Params p = base_params();
    p.thread_pool_size = 5;
    p.downstream_pool_size = 1;
    server = std::make_unique<Server>(sim, p);
    PhaseDemand d;
    d.cpu_pre = 10.0;
    cpu = make_class(d);
    d = PhaseDemand{};
    d.disk = 10.0;
    disk = make_class(d);
    d = PhaseDemand{};
    d.pure_delay = 10.0;
    delay = make_class(d);
    d = PhaseDemand{};
    d.downstream_calls = 1;
    downstream = make_class(d);
    server->set_downstream(
        [this](const RequestContext& ctx, Server::Completion reply) {
          downstream_ids.push_back(ctx.id);
          replies.push_back(std::move(reply));
        });
    Server::Hooks hooks;
    hooks.on_aborted = [this](SimTime) { ++aborted_hooks; };
    server->add_hooks(std::move(hooks));
  }

  void handle(const RequestClass& cls, std::uint64_t id) {
    server->handle(make_ctx(cls, id), [this, id] { done_ids.push_back(id); });
  }

  /// Arrivals 1..6 end up: in CPU, in disk service, in pure delay, awaiting
  /// a downstream reply (holding the one connection), waiting for that
  /// connection, and (pool of 5 threads) waiting for a thread.
  void fill_every_stage() {
    handle(cpu, 1);
    handle(disk, 2);
    handle(delay, 3);
    handle(downstream, 4);
    handle(downstream, 5);
    handle(cpu, 6);
    sim.run_until(1.0);
    ASSERT_EQ(server->processing(), 5u);
    ASSERT_EQ(server->queued(), 1u);
    ASSERT_EQ(downstream_ids, (std::vector<std::uint64_t>{4}));
  }

  Simulation sim;
  std::unique_ptr<Server> server;
  RequestClass cpu, disk, delay, downstream;
  std::vector<std::uint64_t> done_ids;
  std::vector<std::uint64_t> downstream_ids;
  std::vector<Server::Completion> replies;
  int aborted_hooks = 0;
};

TEST_F(CrashFixture, FailErrorsEveryStageOnceInArrivalOrder) {
  fill_every_stage();
  EXPECT_EQ(server->fail(), 6u);
  EXPECT_EQ(done_ids, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(aborted_hooks, 5);  // the thread waiter was never admitted
  EXPECT_EQ(server->in_flight(), 0u);
  EXPECT_EQ(server->processing(), 0u);
  EXPECT_EQ(server->queued(), 0u);
  EXPECT_EQ(server->aborted_requests(), 6u);
  // A second crash finds nothing left to error.
  EXPECT_EQ(server->fail(), 0u);
  // The disk job in service and the delay timer still fire at t=10, and the
  // downstream reply arrives late: none of them may touch a crashed visit.
  sim.run_all();
  replies.front()();
  EXPECT_EQ(done_ids.size(), 6u);
  EXPECT_EQ(server->completed_requests(), 0u);
  EXPECT_EQ(server->in_flight(), 0u);
}

TEST_F(CrashFixture, LateContinuationsIgnoreRecycledSlots) {
  fill_every_stage();
  ASSERT_EQ(server->fail(), 6u);
  done_ids.clear();
  // Six new downstream visits recycle all six slots: five take a thread,
  // the first of them takes the (reset) connection, the sixth waits.
  for (std::uint64_t id = 11; id <= 16; ++id) handle(downstream, id);
  ASSERT_EQ(downstream_ids, (std::vector<std::uint64_t>{4, 11}));
  ASSERT_EQ(server->processing(), 5u);
  ASSERT_EQ(server->queued(), 1u);
  // Late disk completion and delay timer (t=10), then the crashed visit's
  // downstream reply: a no-op each. In particular the stale reply must not
  // hand back a connection token, which would start visit 12's call.
  sim.run_until(20.0);
  replies[0]();
  EXPECT_TRUE(done_ids.empty());
  EXPECT_EQ(downstream_ids, (std::vector<std::uint64_t>{4, 11}));
  EXPECT_EQ(server->in_flight(), 6u);
  // The live visits still finish normally, one connection at a time.
  // (Each reply issues the next visit's call, which appends to `replies`.)
  for (std::size_t next = 1; next < replies.size(); ++next) {
    auto reply = std::move(replies[next]);
    reply();
  }
  EXPECT_EQ(done_ids, (std::vector<std::uint64_t>{11, 12, 13, 14, 15, 16}));
  EXPECT_EQ(server->completed_requests(), 6u);
  EXPECT_EQ(server->in_flight(), 0u);
}

}  // namespace
}  // namespace conscale
