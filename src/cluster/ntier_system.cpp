#include "cluster/ntier_system.h"

#include <stdexcept>

namespace conscale {

NTierSystem::NTierSystem(Simulation& sim, SystemConfig config,
                         const RunContext* context)
    : sim_(sim), ctx_(context ? context : &RunContext::global()) {
  if (config.tiers.empty()) {
    throw std::invalid_argument("NTierSystem: no tiers configured");
  }
  if (config.initial_vms.size() != config.tiers.size()) {
    throw std::invalid_argument(
        "NTierSystem: initial_vms must match tier count");
  }
  for (std::size_t i = 0; i < config.tiers.size(); ++i) {
    TierConfig tc = config.tiers[i];
    tc.tier_index = static_cast<int>(i);
    tiers_.push_back(std::make_unique<TierGroup>(sim_, tc, ctx_));
  }
  // Wire tier i's servers to dispatch into tier i+1's load balancer. The
  // factory form lets TierGroup hand the same wiring to VMs created later
  // by scale-out.
  for (std::size_t i = 0; i + 1 < tiers_.size(); ++i) {
    LoadBalancer* next_lb = &tiers_[i + 1]->lb();
    tiers_[i]->set_downstream_factory([next_lb]() {
      return [next_lb](const RequestContext& ctx,
                       Server::Completion done) {
        next_lb->dispatch(ctx, std::move(done));
      };
    });
  }
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    tiers_[i]->set_vm_ready_callback([this, i](Vm& vm) {
      for (auto& callback : on_vm_ready_) callback(i, vm);
    });
  }
  // Bootstrap after wiring so even time-zero VMs get their downstream set.
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    tiers_[i]->bootstrap(config.initial_vms[i]);
  }
}

void NTierSystem::submit(const RequestContext& ctx,
                         std::function<void()> done) {
  tiers_.front()->lb().dispatch(ctx, std::move(done));
}

void NTierSystem::add_vm_ready_callback(VmReadyCallback callback) {
  on_vm_ready_.push_back(std::move(callback));
}

}  // namespace conscale
