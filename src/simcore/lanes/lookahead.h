// Lookahead analysis for the lane-partitioned PDES engine (DESIGN.md §6.6).
//
// Conservative parallel DES is only correct when a lane can prove that no
// other lane will send it a message "from the past". The proof currency is
// *lookahead*: the minimum model delay on every cross-lane channel. This
// module collects the model's natural delays (client<->frontend network
// latency, VM preparation/boot delay, monitoring periods) and derives the
// safe time-window length: every lane runs [W, W+L) in parallel, and
// messages created in the window deliver at >= W+L by construction.
#pragma once

#include <string>
#include <vector>

#include "common/time_units.h"

namespace conscale::lanes {

/// One model delay feeding the analysis. `is_channel` marks delays that
/// cross-lane messages actually traverse (these bound the window); sources
/// with `is_channel = false` (VM prep delay, monitoring periods) document
/// additional slack but cannot relax the window on their own.
struct LookaheadSource {
  std::string name;
  SimDuration delay = 0.0;
  bool is_channel = true;
};

class LookaheadAnalysis {
 public:
  void add_source(std::string name, SimDuration delay, bool is_channel = true);

  /// The safe synchronization window: the minimum positive channel delay,
  /// or 0 when no channel source was added (no safe parallel execution).
  SimDuration window() const;

  const std::vector<LookaheadSource>& sources() const { return sources_; }

  /// Human-readable report (bench_scale prints it; tests pin the window).
  std::string summary() const;

 private:
  std::vector<LookaheadSource> sources_;
};

}  // namespace conscale::lanes
