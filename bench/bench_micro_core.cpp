// Microbenchmarks (google-benchmark) for the hot paths of the simulator and
// the SCT pipeline: event scheduling, processor-sharing churn, token-pool
// traffic, interval aggregation, scatter folding, and estimation. These
// bound the cost per simulated event — what the wall-clock time of every
// figure bench is made of.
#include <cstdint>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "metrics/interval.h"
#include "metrics/warehouse.h"
#include "resources/ps_resource.h"
#include "resources/token_pool.h"
#include "sct/estimator.h"
#include "sct/scatter.h"
#include "simcore/lanes/actor.h"
#include "simcore/lanes/lane_engine.h"
#include "simcore/simulation.h"
#include "tier/server.h"
#include "workload/trace.h"

namespace conscale {
namespace {

void BM_EventScheduleAndRun(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    Simulation sim;
    for (std::size_t i = 0; i < batch; ++i) {
      sim.schedule_at(rng.uniform(0.0, 100.0), [] {});
    }
    sim.run_all();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(batch) *
                          state.iterations());
}
BENCHMARK(BM_EventScheduleAndRun)->Arg(1024)->Arg(16384);

void BM_EventCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    std::vector<EventHandle> handles;
    handles.reserve(4096);
    for (int i = 0; i < 4096; ++i) {
      handles.push_back(sim.schedule_at(static_cast<double>(i), [] {}));
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
    sim.run_all();
    benchmark::DoNotOptimize(sim.events_executed());
  }
}
BENCHMARK(BM_EventCancelHeavy);

void BM_EventChurnScheduleCancelFire(benchmark::State& state) {
  // The cancel-and-replace pattern: schedule an event, cancel it, schedule
  // a replacement — the arena's allocate/release fast path under a live
  // queue. (The PS station re-arms a Timer instead; see BM_PsTimerRearm.)
  const auto live = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  for (auto _ : state) {
    Simulation sim;
    std::vector<EventHandle> handles(live);
    SimTime t = 0.0;
    for (std::size_t i = 0; i < live; ++i) {
      handles[i] = sim.schedule_at(t + rng.uniform(1.0, 2.0), [] {});
    }
    for (int round = 0; round < 64; ++round) {
      for (std::size_t i = 0; i < live; ++i) {
        handles[i].cancel();
        handles[i] = sim.schedule_at(t + rng.uniform(1.0, 2.0), [] {});
      }
      t += 0.5;
      sim.run_until(t);
    }
    sim.run_all();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(live) * 64 *
                          state.iterations());
}
BENCHMARK(BM_EventChurnScheduleCancelFire)->Arg(16)->Arg(256);

void BM_EventHoldModel(benchmark::State& state) {
  // The load a paper-scale run puts on the kernel: N think timers
  // (exponential, mean 7 s) stay pending and re-arm when they fire, while a
  // few millisecond-scale service chains churn near the clock. One item is
  // one executed event.
  struct Hold {
    Simulation sim;
    Rng rng{17};
    void think() {
      sim.schedule_after(rng.exponential(7.0), [this] { think(); });
    }
    void serve() {
      sim.schedule_after(rng.exponential(0.001), [this] { serve(); });
    }
  };
  Hold hold;
  for (std::int64_t i = 0; i < state.range(0); ++i) hold.think();
  for (int i = 0; i < 16; ++i) hold.serve();
  for (auto _ : state) hold.sim.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventHoldModel)->Arg(4096)->Arg(262144);

void BM_PsResourceChurn(benchmark::State& state) {
  const auto concurrency = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    ProcessorSharingResource cpu(sim, 2, 1.0, ContentionModel{8.0, 0.01, 1.0});
    Rng rng(7);
    int completions = 0;
    // Keep `concurrency` jobs alive; every completion resubmits.
    std::function<void()> resubmit = [&] {
      ++completions;
      if (completions < 2000) {
        cpu.submit(rng.exponential(0.001), resubmit);
      }
    };
    for (int i = 0; i < concurrency; ++i) {
      cpu.submit(rng.exponential(0.001), resubmit);
    }
    sim.run_all();
    benchmark::DoNotOptimize(completions);
  }
  state.SetItemsProcessed(2000 * state.iterations());
}
BENCHMARK(BM_PsResourceChurn)->Arg(4)->Arg(32)->Arg(128)->Arg(512)->Arg(2048);

void BM_PsTimerRearm(benchmark::State& state) {
  // The completion-timer path as a chain run drives it: N live PS stations
  // (one per VM), four closed-loop jobs each; a completion waits a short
  // think event, then resubmits. Every arrival and departure re-times its
  // station's completion timer. One item is one executed event.
  struct Churn {
    Simulation sim;
    Rng rng{23};
    std::vector<std::unique_ptr<ProcessorSharingResource>> cpus;
    void submit(std::size_t cpu) {
      cpus[cpu]->submit(rng.exponential(0.004), [this, cpu] {
        sim.schedule_after(rng.exponential(0.001),
                           [this, cpu] { submit(cpu); });
      });
    }
  };
  Churn churn;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    churn.cpus.push_back(std::make_unique<ProcessorSharingResource>(
        churn.sim, 2, 1.0, ContentionModel{3.0, 0.05, 1.0}));
    for (int j = 0; j < 4; ++j) churn.submit(churn.cpus.size() - 1);
  }
  for (auto _ : state) benchmark::DoNotOptimize(churn.sim.step());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PsTimerRearm)->Arg(1)->Arg(8);

void BM_WarehouseIngestQuery(benchmark::State& state) {
  // The monitoring hot path: 4 servers pushing 50 ms samples into the
  // warehouse with a windowed estimator query every 100 ingests (the 5 s
  // refresh), on top of an already-long series (realistic run lengths).
  const auto prefill = static_cast<std::size_t>(state.range(0));
  constexpr int kServers = 4;
  constexpr int kSteps = 2000;
  const std::vector<std::string> names = {"Tomcat1", "Tomcat2", "MySQL1",
                                          "MySQL2"};
  for (auto _ : state) {
    state.PauseTiming();
    MetricsWarehouse w;
    // The monitor interns each server name once at attach time and records
    // by dense id thereafter — mirror that here so the bench measures the
    // actual per-sample cost, not a string hash per ingest.
    std::vector<MetricsWarehouse::SeriesId> ids;
    for (const auto& name : names) ids.push_back(w.server_id(name));
    IntervalSample s;
    s.throughput = 1000.0;
    s.mean_rt = 0.01;
    s.concurrency = 8.0;
    s.completions = 50;
    for (std::size_t i = 0; i < prefill; ++i) {
      s.t_end = 0.05 * static_cast<double>(i + 1);
      for (auto id : ids) w.record_server(id, s);
    }
    state.ResumeTiming();
    double newest = 0.0;
    for (int step = 0; step < kSteps; ++step) {
      s.t_end = 0.05 * static_cast<double>(prefill + step + 1);
      newest = s.t_end;
      for (auto id : ids) w.record_server(id, s);
      if (step % 100 == 99) {
        for (auto id : ids) {
          const auto window = w.server_window(id, 180.0, newest);
          benchmark::DoNotOptimize(window.size());
        }
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kSteps) * kServers *
                          state.iterations());
}
BENCHMARK(BM_WarehouseIngestQuery)->Arg(3600)->Arg(14400);

void BM_TokenPoolAcquireRelease(benchmark::State& state) {
  TokenPool pool("bench", 16);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      pool.acquire([] {});
    }
    for (int i = 0; i < 64; ++i) pool.release();
  }
  state.SetItemsProcessed(64 * state.iterations());
}
BENCHMARK(BM_TokenPoolAcquireRelease);

void BM_ServerRequestPath(benchmark::State& state) {
  // Full per-request path through one server: thread pool, CPU phase,
  // pure delay, departure hooks.
  RequestClass cls;
  cls.name = "bench";
  cls.demand_cv = 0.2;
  cls.tiers.resize(1);
  cls.tiers[0].cpu_pre = 0.0005;
  cls.tiers[0].pure_delay = 0.002;
  for (auto _ : state) {
    Simulation sim;
    Server::Params params;
    params.thread_pool_size = 32;
    Server server(sim, params);
    int done = 0;
    std::function<void()> feed = [&] {
      if (done >= 1000) return;
      RequestContext ctx;
      ctx.id = static_cast<std::uint64_t>(done);
      ctx.request_class = &cls;
      server.handle(ctx, [&] { ++done; });
    };
    for (int i = 0; i < 1000; ++i) sim.schedule_at(i * 0.0005, feed);
    sim.run_all();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(1000 * state.iterations());
}
BENCHMARK(BM_ServerRequestPath);

void BM_ScatterFold(benchmark::State& state) {
  Rng rng(3);
  std::vector<IntervalSample> samples(10000);
  for (auto& s : samples) {
    s.concurrency = rng.uniform(1.0, 80.0);
    s.throughput = rng.uniform(100.0, 8000.0);
    s.mean_rt = rng.uniform(0.001, 0.2);
    s.completions = 5;
  }
  for (auto _ : state) {
    ScatterSet scatter;
    scatter.add_all(samples);
    benchmark::DoNotOptimize(scatter.bucket_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples.size()) *
                          state.iterations());
}
BENCHMARK(BM_ScatterFold);

void BM_SctEstimate(benchmark::State& state) {
  Rng rng(5);
  ScatterSet scatter;
  for (int rep = 0; rep < 40; ++rep) {
    for (int q = 1; q <= 80; ++q) {
      IntervalSample s;
      s.concurrency = q;
      const double tp = q <= 15 ? 5000.0 * q / 15.0
                       : q <= 35 ? 5000.0
                                 : 5000.0 - 40.0 * (q - 35);
      s.throughput = rng.normal(tp, 150.0);
      s.completions = 5;
      scatter.add(s);
    }
  }
  SctEstimator estimator;
  for (auto _ : state) {
    auto range = estimator.estimate(scatter);
    benchmark::DoNotOptimize(range);
  }
}
BENCHMARK(BM_SctEstimate);

// ---- lane engine (src/simcore/lanes) ---------------------------------------

/// System-lane stand-in: receives a request, replies across the channel.
class BenchEchoSink final : public lanes::LaneActor {
 public:
  explicit BenchEchoSink(lanes::LaneEngine& engine) : LaneActor(engine, 0) {}
  void on_request(std::size_t reply_lane, EventCallback reply) {
    post(reply_lane, 0.05, std::move(reply));
  }
};

/// Shard stand-in: `sessions` closed-loop sessions that think (exponential)
/// and round-trip one message through the sink — the SessionShard hot path
/// (keyed timer churn + cross-lane messaging) without the serving system.
class BenchShard final : public lanes::LaneActor {
 public:
  BenchShard(lanes::LaneEngine& engine, std::size_t lane, BenchEchoSink& sink,
             std::size_t sessions, std::uint64_t seed)
      : LaneActor(engine, lane), sink_(&sink), rng_(seed) {
    for (std::size_t i = 0; i < sessions; ++i) think();
  }

 private:
  void think() {
    schedule_after(rng_.exponential(5.0), [this] { submit(); });
  }
  void submit() {
    const std::size_t reply_lane = lane();
    post(0, 0.05, [this, reply_lane] {
      sink_->on_request(reply_lane, [this] { think(); });
    });
  }
  BenchEchoSink* sink_;
  Rng rng_;
};

void BM_LaneSessionChurn(benchmark::State& state) {
  // Per-event cost must stay near-flat in the session count: the pending
  // think timers live in the kernel's radix heap, so 16x more sessions may
  // cost a few more bucket moves and cache misses per event, never a linear
  // factor (check_bench_ratios.py gates the ratio).
  // The shard lane runs on a worker thread, so the rate is taken over wall
  // time (UseRealTime); main-thread CPU time would miss the worker's share.
  const auto sessions = static_cast<std::size_t>(state.range(0));
  std::int64_t events = 0;
  for (auto _ : state) {
    lanes::LaneEngine::Options options;
    options.lanes = 2;
    options.lookahead = 0.05;
    lanes::LaneEngine engine(options);
    BenchEchoSink sink(engine);
    BenchShard shard(engine, 1, sink, sessions, /*seed=*/29);
    engine.run(10.0);
    events += static_cast<std::int64_t>(engine.stats().events);
    benchmark::DoNotOptimize(engine.stats().messages);
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_LaneSessionChurn)->Arg(4096)->Arg(65536)->UseRealTime();

void BM_TraceGeneration(benchmark::State& state) {
  TraceParams params;
  for (auto _ : state) {
    for (TraceKind kind : all_trace_kinds()) {
      const WorkloadTrace trace = make_trace(kind, params);
      benchmark::DoNotOptimize(trace.peak_users());
    }
  }
}
BENCHMARK(BM_TraceGeneration);

}  // namespace
}  // namespace conscale

BENCHMARK_MAIN();
