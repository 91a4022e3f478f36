#include "microbench.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <vector>

#include "cluster/load_balancer.h"
#include "conscale/framework.h"
#include "metrics/interval.h"
#include "resources/ps_resource.h"
#include "resources/token_pool.h"
#include "sct/estimator.h"
#include "tier/server.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {

using namespace conscale;

namespace {

/// Operations per microbenchmark: the run's own count, clamped so one costs
/// tens of milliseconds, never seconds.
std::uint64_t microbench_ops(const MicrobenchSizing& sizing,
                             std::uint64_t cap) {
  return std::clamp<std::uint64_t>(sizing.operations, 4096, cap);
}

/// The server series of each tier, by the tier-group naming rule: a VM is
/// named after its tier followed by its ordinal.
std::map<std::string, std::vector<std::string>> servers_by_tier(
    const ScalingRunResult& run) {
  std::map<std::string, std::vector<std::string>> out;
  for (const std::string& server : run.warehouse->server_names()) {
    for (const auto& [tier, series] : run.tiers) {
      if (server.size() > tier.size() &&
          server.compare(0, tier.size(), tier) == 0 &&
          std::all_of(server.begin() + static_cast<long>(tier.size()),
                      server.end(),
                      [](unsigned char c) { return std::isdigit(c); })) {
        out[tier].push_back(server);
      }
    }
  }
  return out;
}

}  // namespace

MicrobenchSizing size_from(const ScalingRunResult& run, std::size_t pool_size) {
  MicrobenchSizing sizing;
  sizing.pool_size = std::max<std::size_t>(pool_size, 1);
  for (const auto& [tier, series] : run.tiers) {
    for (const TierSample& s : series) {
      sizing.peak_backends =
          std::max<std::size_t>(sizing.peak_backends, s.running_vms);
    }
  }
  std::uint64_t visits = 0;
  for (const std::string& server : run.warehouse->server_names()) {
    for (const IntervalSample& s : run.warehouse->server_series(server)) {
      sizing.peak_concurrency = std::max(
          sizing.peak_concurrency,
          static_cast<std::size_t>(std::ceil(s.concurrency)));
      visits += s.completions;
    }
  }
  sizing.operations = std::max<std::uint64_t>(visits, 1);
  return sizing;
}

double lb_dispatch_ns(const MicrobenchSizing& sizing) {
  Simulation sim;
  const std::size_t batch = sizing.peak_concurrency;
  LoadBalancer lb("microbench.lb", LbPolicy::kLeastConnections);
  std::vector<std::unique_ptr<Server>> servers;
  for (std::size_t i = 0; i < sizing.peak_backends; ++i) {
    Server::Params params;
    params.name = "microbench" + std::to_string(i);
    params.thread_pool_size = batch;  // dispatches never queue for a thread
    params.seed = i + 1;
    servers.push_back(std::make_unique<Server>(sim, params));
    lb.add_backend(servers.back().get());
  }
  RequestClass cls;
  cls.name = "microbench";
  cls.tiers = {PhaseDemand{1e-4, 0.0, 0.0, 0.0, 0}};
  const std::uint64_t ops = microbench_ops(sizing, 1u << 18);
  std::uint64_t done = 0;
  std::uint64_t id = 1;
  std::int64_t timed = 0;
  while (done < ops) {
    const std::int64_t start = now_ns();
    for (std::size_t b = 0; b < batch; ++b) {
      lb.dispatch(RequestContext{id++, &cls, sim.now()}, [] {});
    }
    timed += now_ns() - start;
    done += batch;
    sim.run_all();  // drain the batch untimed
  }
  return static_cast<double>(timed) / static_cast<double>(done);
}

double token_op_ns(const MicrobenchSizing& sizing) {
  TokenPool pool("microbench.tokens", sizing.pool_size);
  std::uint64_t granted = 0;
  const auto grant = [&granted] { ++granted; };
  for (std::size_t i = 0; i < sizing.pool_size; ++i) pool.acquire(grant);
  for (std::size_t i = 0; i < sizing.peak_concurrency; ++i) pool.acquire(grant);
  const std::uint64_t ops = microbench_ops(sizing, 1u << 20);
  const std::int64_t start = now_ns();
  for (std::uint64_t i = 0; i < ops; ++i) {
    pool.acquire(grant);  // queues behind the waiters
    pool.release();       // grants the head waiter
  }
  const std::int64_t timed = now_ns() - start;
  if (granted != sizing.pool_size + ops) {
    throw std::logic_error("token microbench: grant count mismatch");
  }
  return static_cast<double>(timed) / static_cast<double>(ops);
}

double ps_op_ns(const MicrobenchSizing& sizing) {
  Simulation sim;
  ProcessorSharingResource cpu(sim, 1, 1.0,
                               ScenarioParams::paper_default().app_contention);
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  const auto top_up = [&] {
    while (cpu.active_jobs() < sizing.peak_concurrency) {
      // Golden-ratio spread of demands around 1 ms, so finish tags differ.
      const double work =
          1e-3 * (0.5 + std::fmod(static_cast<double>(submitted++) *
                                      0.6180339887498949,
                                  1.0));
      cpu.submit(work, [&completed] { ++completed; });
    }
  };
  top_up();
  const std::uint64_t ops = microbench_ops(sizing, 1u << 19);
  const std::uint64_t first = submitted;
  const std::int64_t start = now_ns();
  while (completed < ops) {
    top_up();
    sim.step();
  }
  const std::int64_t timed = now_ns() - start;
  return static_cast<double>(timed) /
         static_cast<double>(std::max<std::uint64_t>(submitted - first, 1));
}

double aggregator_hook_ns(const MicrobenchSizing& sizing) {
  Simulation sim;
  Server server(sim, Server::Params{});
  IntervalAggregator aggregator(sim, server, 0.050);
  const std::uint64_t ops = microbench_ops(sizing, 1u << 21);
  double t = 0.0;
  const std::int64_t start = now_ns();
  for (std::uint64_t i = 0; i < ops; ++i) {
    aggregator.note_admitted(t);
    t += 1e-5;
    aggregator.note_departed(t, 1e-5);
  }
  const std::int64_t timed = now_ns() - start;
  if (aggregator.hook_underflows() != 0) {
    throw std::logic_error("aggregator microbench: hook underflow");
  }
  return static_cast<double>(timed) / static_cast<double>(ops);
}

SeriesReplay replay_series(const ScalingRunResult& run,
                           const FrameworkConfig& config,
                           SimDuration duration) {
  const MetricsWarehouse& warehouse = *run.warehouse;
  const auto tiers = servers_by_tier(run);
  const SctEstimator estimator(config.estimator.sct);
  SeriesReplay out;
  std::uint64_t queries = 0;
  std::uint64_t estimates = 0;
  std::uint64_t found = 0;
  std::int64_t query_ns = 0;
  std::int64_t estimate_ns = 0;
  for (SimTime t = config.estimator.refresh; t <= duration;
       t += config.estimator.refresh) {
    for (const auto& [tier, servers] : tiers) {
      ScatterSet scatter;
      for (const std::string& server : servers) {
        const std::int64_t start = now_ns();
        const auto window =
            warehouse.server_window(server, config.estimator.window, t);
        query_ns += now_ns() - start;
        ++queries;
        scatter.add_all(window);
      }
      const std::int64_t start = now_ns();
      const auto range = estimator.estimate(scatter);
      estimate_ns += now_ns() - start;
      ++estimates;
      if (range) ++found;
    }
  }
  if (queries) {
    out.query_us = static_cast<double>(query_ns) * 1e-3 /
                   static_cast<double>(queries);
  }
  if (estimates) {
    out.estimate_ms = static_cast<double>(estimate_ns) * 1e-6 /
                      static_cast<double>(estimates);
    out.range_found_ratio =
        static_cast<double>(found) / static_cast<double>(estimates);
  }
  return out;
}

double controller_tick_us(const ScalingRunResult& run,
                          const SystemFactory& make_system,
                          const FrameworkConfig& config,
                          SimDuration duration) {
  Simulation sim;
  const std::unique_ptr<TierSystem> system = make_system(sim);
  MetricsWarehouse warehouse;
  ScalingFramework framework(sim, *system, warehouse, kFramework, config);

  // Cursors over the recorded series; each second's samples are fed before
  // the step that would have seen them.
  const MetricsWarehouse& recorded = *run.warehouse;
  const std::vector<std::string> servers = recorded.server_names();
  std::vector<std::size_t> server_next(servers.size(), 0);
  std::map<std::string, std::size_t> tier_next;
  std::size_t system_next = 0;

  std::int64_t timed = 0;
  std::uint64_t ticks = 0;
  for (SimTime edge = 1.0; edge <= duration; edge += 1.0) {
    for (std::size_t i = 0; i < servers.size(); ++i) {
      const auto& series = recorded.server_series(servers[i]);
      while (server_next[i] < series.size() &&
             series[server_next[i]].t_end <= edge) {
        warehouse.record_server(servers[i], series[server_next[i]++]);
      }
    }
    for (const auto& [tier, series] : run.tiers) {
      std::size_t& next = tier_next[tier];
      while (next < series.size() && series[next].t <= edge) {
        warehouse.record_tier(tier, series[next++]);
      }
    }
    while (system_next < run.system.size() &&
           run.system[system_next].t <= edge) {
      warehouse.record_system(run.system[system_next++]);
    }
    const std::int64_t start = now_ns();
    sim.run_until(edge);
    timed += now_ns() - start;
    ++ticks;
  }
  return ticks ? static_cast<double>(timed) * 1e-3 / static_cast<double>(ticks)
               : 0.0;
}

}  // namespace perfbench
