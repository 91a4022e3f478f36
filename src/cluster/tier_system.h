// TierSystem: the system-under-test contract that scaling frameworks,
// estimators, monitoring and fault injection program against: a tier is a
// named, index-addressable TierGroup. topology::ServiceGraph (with its chain
// preset NTierSystem) is the one implementation; the interface keeps the
// layers above the cluster free of the topology module.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "cluster/tier_group.h"
#include "common/run_context.h"

namespace conscale {

class TierSystem {
 public:
  /// (tier index, vm) — fired whenever any tier brings a VM online.
  using VmReadyCallback = std::function<void(std::size_t, Vm&)>;

  virtual ~TierSystem() = default;

  virtual const RunContext& context() const = 0;

  virtual std::size_t tier_count() const = 0;
  virtual TierGroup& tier(std::size_t index) = 0;
  virtual const TierGroup& tier(std::size_t index) const = 0;

  /// Multiple subscribers are supported (metrics, scaling policies, ...).
  virtual void add_vm_ready_callback(VmReadyCallback callback) = 0;

  /// Finds a tier by name; throws std::out_of_range if absent.
  TierGroup& tier_by_name(const std::string& name);
  /// Resolves a tier name to its index; returns tier_count() if absent
  /// (fault plans use this for validation without exceptions).
  std::size_t tier_index_by_name(const std::string& name) const;

  std::size_t total_billed_vms() const;
  /// Fault-injection totals across all tiers (zero in fault-free runs).
  std::uint64_t total_crashes() const;
  std::uint64_t total_aborted_requests() const;
};

}  // namespace conscale
