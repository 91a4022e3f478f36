#include "metrics/monitor.h"

#include <algorithm>

namespace conscale {

MonitoringAgent::MonitoringAgent(Simulation& sim, TierSystem& system,
                                 MetricsWarehouse& warehouse, Params params,
                                 const RunContext* context)
    : sim_(sim), system_(system),
      ctx_(context ? context : &RunContext::global()), warehouse_(warehouse),
      params_(params) {
  system_.add_vm_ready_callback(
      [this](std::size_t, Vm& vm) { attach(vm); });
  coarse_task_ = std::make_unique<PeriodicTask>(
      sim_, params_.coarse_period, [this](SimTime now) { coarse_tick(now); });
}

void MonitoringAgent::attach(Vm& vm) {
  if (!attached_.insert(vm.name()).second) return;  // restarted VM
  auto aggregator = std::make_unique<IntervalAggregator>(
      sim_, vm.server(), params_.fine_period);
  // Intern the series once at attach; every 50 ms ingest is then an index.
  const MetricsWarehouse::SeriesId id = warehouse_.server_id(vm.name());
  aggregator->start([this, id](const IntervalSample& sample) {
    warehouse_.record_server(id, sample);
  });
  aggregators_.push_back(std::move(aggregator));
}

std::uint64_t MonitoringAgent::hook_underflows() const {
  std::uint64_t total = 0;
  for (const auto& aggregator : aggregators_) {
    total += aggregator->hook_underflows();
  }
  return total;
}

void MonitoringAgent::on_client_completion(SimTime, double rt) {
  ++window_completions_;
  window_rt_sum_ += rt;
  window_rt_max_ = std::max(window_rt_max_, rt);
}

void MonitoringAgent::on_client_rejection(SimTime) {
  ++window_rejections_;
}

void MonitoringAgent::coarse_tick(SimTime now) {
  for (std::size_t i = 0; i < system_.tier_count(); ++i) {
    TierGroup& tier = system_.tier(i);
    if (tier_ids_.size() <= i) {
      tier_ids_.push_back(warehouse_.tier_id(tier.name()));
    }
    TierSample sample;
    sample.t = now;
    sample.avg_cpu_utilization = tier.poll_avg_cpu_utilization();
    sample.billed_vms = static_cast<std::uint32_t>(tier.billed_vms());
    sample.running_vms = static_cast<std::uint32_t>(tier.running_vms());
    warehouse_.record_tier(tier_ids_[i], sample);
  }
  SystemSample sys;
  sys.t = now;
  sys.throughput = static_cast<double>(window_completions_) /
                   params_.coarse_period;
  sys.mean_rt = window_completions_
                    ? window_rt_sum_ / static_cast<double>(window_completions_)
                    : 0.0;
  sys.max_rt = window_rt_max_;
  sys.total_vms = static_cast<std::uint32_t>(system_.total_billed_vms());
  sys.rejected = static_cast<std::uint32_t>(window_rejections_);
  warehouse_.record_system(sys);
  window_completions_ = 0;
  window_rejections_ = 0;
  window_rt_sum_ = 0.0;
  window_rt_max_ = 0.0;
}

}  // namespace conscale
