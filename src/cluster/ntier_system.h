// NTierSystem: the assembled web application — a chain of TierGroups
// (web -> app -> db in the RUBBoS default, deeper chains allowed) with
// synchronous RPC wiring between adjacent tiers. This is the system under
// test for every experiment: clients call submit(), scaling frameworks
// manipulate the tiers through the TierSystem interface. The linear chain
// is the trivial service graph (see src/topology/service_graph.h for the
// DAG generalization).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/tier_group.h"
#include "cluster/tier_system.h"
#include "common/run_context.h"
#include "simcore/simulation.h"
#include "workload/request.h"

namespace conscale {

struct SystemConfig {
  std::vector<TierConfig> tiers;
  /// Initial number of VMs per tier (the paper's #Web/#App/#DB notation;
  /// e.g. {1,1,1} for the 1/1/1 topology). Must match tiers.size().
  std::vector<std::size_t> initial_vms;
};

class NTierSystem final : public TierSystem {
 public:
  /// `context` (optional) scopes every tier's and VM's log output to the
  /// owning run (see common/run_context.h); pass the run's context when
  /// several systems share the process. It must outlive the system.
  NTierSystem(Simulation& sim, SystemConfig config,
              const RunContext* context = nullptr);

  const RunContext& context() const override { return *ctx_; }

  /// Client entry point: dispatch into the front tier.
  void submit(const RequestContext& ctx, std::function<void()> done);

  std::size_t tier_count() const override { return tiers_.size(); }
  TierGroup& tier(std::size_t index) override { return *tiers_[index]; }
  const TierGroup& tier(std::size_t index) const override {
    return *tiers_[index];
  }

  void add_vm_ready_callback(VmReadyCallback callback) override;

 private:
  Simulation& sim_;
  const RunContext* ctx_;
  std::vector<std::unique_ptr<TierGroup>> tiers_;
  std::vector<VmReadyCallback> on_vm_ready_;
};

}  // namespace conscale
