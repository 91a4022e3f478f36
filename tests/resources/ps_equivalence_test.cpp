// Old-vs-new equivalence harness for the processor-sharing station: the
// virtual-time ProcessorSharingResource (O(log n) hot paths) must reproduce
// the per-job-decrement ReferencePsResource bit-for-bit in completion
// *order* and within 1e-9 relative tolerance in completion *time*, across
// randomized schedules of submits, aborts, resizes, speed changes,
// contention swaps, mass aborts, and callback-driven resubmission chains.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "reference_ps_resource.h"
#include "resources/ps_resource.h"

namespace conscale {
namespace {

enum class OpKind {
  kSubmit,
  kAbort,
  kAbortAll,
  kSetCores,
  kSetSpeed,
  kSetContention
};

struct Op {
  double t = 0.0;
  OpKind kind = OpKind::kSubmit;
  double work = 0.0;            // kSubmit
  std::size_t target = 0;       // kAbort: submit index to kill
  int cores = 1;                // kSetCores
  double speed = 1.0;           // kSetSpeed
  double onset = 8.0, alpha = 0.01, power = 1.0;  // kSetContention
};

struct Schedule {
  int initial_cores = 1;
  double initial_speed = 1.0;
  ContentionModel contention = ContentionModel::none();
  std::vector<Op> ops;                  // sorted by time
  std::vector<double> resubmit_works;   // demand for chained submissions
};

/// Deterministic 30 % resubmit-on-completion decision, by submission index.
bool resubmits(std::size_t index) {
  return (index * 2654435761ULL) % 10ULL < 3ULL;
}

Schedule make_schedule(std::uint64_t seed) {
  Rng rng(seed);
  Schedule sched;
  sched.initial_cores = 1 + static_cast<int>(rng.uniform_index(4));
  sched.initial_speed = rng.uniform(0.5, 3.0);
  if (rng.uniform() < 0.5) {
    sched.contention = ContentionModel{rng.uniform(2.0, 12.0),
                                       rng.uniform(0.005, 0.05), 1.0};
  }
  std::vector<double> times;
  for (int i = 0; i < 300; ++i) times.push_back(rng.uniform(0.0, 60.0));
  std::sort(times.begin(), times.end());
  std::size_t submitted = 0;
  for (double t : times) {
    Op op;
    op.t = t;
    const double pick = rng.uniform();
    if (pick < 0.60 || submitted == 0) {
      op.kind = OpKind::kSubmit;
      // Mostly short exponential demands, a few heavy ones, rare zero-work.
      const double u = rng.uniform();
      op.work = u < 0.02   ? 0.0
                : u < 0.90 ? rng.exponential(0.3)
                           : rng.uniform(2.0, 8.0);
      ++submitted;
    } else if (pick < 0.75) {
      op.kind = OpKind::kAbort;
      op.target = static_cast<std::size_t>(rng.uniform_index(submitted));
    } else if (pick < 0.83) {
      op.kind = OpKind::kSetCores;
      op.cores = 1 + static_cast<int>(rng.uniform_index(4));
    } else if (pick < 0.91) {
      op.kind = OpKind::kSetSpeed;
      op.speed = rng.uniform(0.5, 4.0);
    } else if (pick < 0.98) {
      op.kind = OpKind::kSetContention;
      op.onset = rng.uniform(2.0, 12.0);
      op.alpha = rng.uniform(0.005, 0.05);
      op.power = rng.uniform() < 0.5 ? 1.0 : 1.5;
    } else {
      op.kind = OpKind::kAbortAll;
    }
    sched.ops.push_back(op);
  }
  for (int i = 0; i < 4096; ++i) {
    sched.resubmit_works.push_back(rng.exponential(0.2));
  }
  return sched;
}

struct CompletionRecord {
  std::size_t index = 0;  ///< submission index (schedule + chained)
  double time = 0.0;
  /// Jobs still active when the callback runs: tied jobs all leave before
  /// the first of their callbacks.
  std::size_t active = 0;
};

struct RunOutcome {
  std::vector<CompletionRecord> completions;
  std::size_t active_at_end = 0;
  double work_done = 0.0;
  double busy_core_seconds = 0.0;
  double end_time = 0.0;
};

template <class Resource>
RunOutcome run_schedule(const Schedule& sched) {
  Simulation sim;
  Resource cpu(sim, sched.initial_cores, sched.initial_speed,
               sched.contention);
  RunOutcome out;
  std::vector<typename Resource::JobId> ids;  // by submission index
  std::size_t next_index = 0;

  // Chained resubmission must stop eventually; the works table is the cap.
  std::function<void(std::size_t)> on_complete =
      [&](std::size_t index) {
        out.completions.push_back({index, sim.now(), cpu.active_jobs()});
        if (resubmits(index) &&
            next_index < sched.resubmit_works.size()) {
          const std::size_t idx = next_index++;
          ids.push_back(cpu.submit(sched.resubmit_works[idx],
                                   [&on_complete, idx] { on_complete(idx); }));
        }
      };

  for (const Op& op : sched.ops) {
    sim.schedule_at(op.t, [&, op] {
      switch (op.kind) {
        case OpKind::kSubmit: {
          const std::size_t idx = next_index++;
          ids.push_back(cpu.submit(
              op.work, [&on_complete, idx] { on_complete(idx); }));
          break;
        }
        case OpKind::kAbort:
          if (op.target < ids.size()) cpu.abort(ids[op.target]);
          break;
        case OpKind::kAbortAll:
          cpu.abort_all();
          break;
        case OpKind::kSetCores:
          cpu.set_cores(op.cores);
          break;
        case OpKind::kSetSpeed:
          cpu.set_speed(op.speed);
          break;
        case OpKind::kSetContention:
          cpu.set_contention(ContentionModel{op.onset, op.alpha, op.power});
          break;
      }
    });
  }
  sim.run_all();
  out.active_at_end = cpu.active_jobs();
  out.work_done = cpu.work_done();
  out.busy_core_seconds = cpu.busy_core_seconds();
  out.end_time = sim.now();
  return out;
}

void expect_equivalent(const RunOutcome& vt, const RunOutcome& ref,
                       std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  ASSERT_EQ(vt.completions.size(), ref.completions.size());
  for (std::size_t i = 0; i < vt.completions.size(); ++i) {
    SCOPED_TRACE("completion #" + std::to_string(i));
    // Identical order: the virtual-time rewrite must not reorder anything,
    // including ties (both implementations break ties in submission order).
    ASSERT_EQ(vt.completions[i].index, ref.completions[i].index);
    EXPECT_EQ(vt.completions[i].active, ref.completions[i].active);
    const double tol =
        1e-9 * std::max(1.0, std::abs(ref.completions[i].time));
    EXPECT_NEAR(vt.completions[i].time, ref.completions[i].time, tol);
  }
  EXPECT_EQ(vt.active_at_end, ref.active_at_end);
  EXPECT_NEAR(vt.work_done, ref.work_done,
              1e-9 * std::max(1.0, ref.work_done));
  EXPECT_NEAR(vt.busy_core_seconds, ref.busy_core_seconds,
              1e-9 * std::max(1.0, ref.busy_core_seconds));
}

TEST(PsEquivalence, RandomizedSchedulesMatchReference) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Schedule sched = make_schedule(seed * 7919);
    const RunOutcome vt = run_schedule<ProcessorSharingResource>(sched);
    const RunOutcome ref = run_schedule<ReferencePsResource>(sched);
    ASSERT_GT(vt.completions.size(), 50u) << "degenerate schedule";
    expect_equivalent(vt, ref, seed);
  }
}

TEST(PsEquivalence, TiesCompleteTogetherInSubmissionOrder) {
  // Five identical jobs submitted at t=0 finish at the same instant; both
  // implementations must report them in submission order.
  auto run = [](auto* tag) {
    using Resource = std::remove_pointer_t<decltype(tag)>;
    Simulation sim;
    Resource cpu(sim, 2, 1.0, ContentionModel{2.0, 0.05, 1.0});
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
      cpu.submit(1.0, [&order, i] { order.push_back(i); });
    }
    sim.run_all();
    return order;
  };
  const auto vt = run(static_cast<ProcessorSharingResource*>(nullptr));
  const auto ref = run(static_cast<ReferencePsResource*>(nullptr));
  ASSERT_EQ(vt.size(), 5u);
  EXPECT_EQ(vt, ref);
  EXPECT_EQ(vt, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(PsEquivalence, LongBusyPeriodHighConcurrency) {
  // Paper-scale regime: a single busy period that climbs to ~256 in-flight
  // jobs, with completions resubmitting — the regime the O(log n) rewrite
  // targets. Times here grow past 10^2 s, so relative tolerance matters.
  for (std::uint64_t seed : {3ULL, 17ULL}) {
    Schedule sched;
    Rng rng(seed);
    sched.initial_cores = 2;
    sched.contention = ContentionModel{8.0, 0.01, 1.0};
    for (int i = 0; i < 256; ++i) {
      Op op;
      op.t = rng.uniform(0.0, 0.5);
      op.kind = OpKind::kSubmit;
      op.work = rng.exponential(0.05);
      sched.ops.push_back(op);
    }
    std::sort(sched.ops.begin(), sched.ops.end(),
              [](const Op& a, const Op& b) { return a.t < b.t; });
    for (int i = 0; i < 2048; ++i) {
      sched.resubmit_works.push_back(rng.exponential(0.05));
    }
    const RunOutcome vt = run_schedule<ProcessorSharingResource>(sched);
    const RunOutcome ref = run_schedule<ReferencePsResource>(sched);
    expect_equivalent(vt, ref, seed);
  }
}

TEST(PsEquivalence, ContentionSwapsMidBusyPeriodAndExactTies) {
  // Bursts of identical demands submitted at one instant share a finish tag
  // exactly (the tied, id-ordered completion path); a lone job after each
  // burst usually completes by itself (the one-job path). Contention swaps
  // land while jobs are in service, so an efficiency memoized per active
  // count under the old model would shift every later completion.
  Schedule sched;
  sched.initial_cores = 2;
  sched.contention = ContentionModel{2.0, 0.05, 1.0};
  Rng rng(41);
  double t = 0.0;
  for (int burst = 0; burst < 60; ++burst) {
    t += rng.exponential(0.1);
    Op op;
    op.t = t;
    op.kind = OpKind::kSubmit;
    op.work = rng.exponential(0.3);
    const int tied = 1 + static_cast<int>(rng.uniform_index(4));
    for (int i = 0; i < tied; ++i) sched.ops.push_back(op);
    op.t = t + 0.01;
    op.work = rng.exponential(0.3);
    sched.ops.push_back(op);
    if (burst % 4 == 3) {
      Op swap;
      swap.t = t + 0.02;
      swap.kind = OpKind::kSetContention;
      swap.onset = 1.0 + static_cast<double>(burst % 3);
      swap.alpha = burst % 8 == 3 ? 0.2 : 0.02;
      swap.power = burst % 8 == 3 ? 1.5 : 1.0;
      sched.ops.push_back(swap);
    }
  }
  for (int i = 0; i < 512; ++i) {
    sched.resubmit_works.push_back(rng.exponential(0.2));
  }
  const RunOutcome vt = run_schedule<ProcessorSharingResource>(sched);
  const RunOutcome ref = run_schedule<ReferencePsResource>(sched);
  expect_equivalent(vt, ref, 41);

  // Both completion paths ran: some completions share an instant with a
  // neighbour, others are alone.
  std::size_t tied = 0;
  std::size_t alone = 0;
  const auto& done = vt.completions;
  for (std::size_t i = 0; i < done.size(); ++i) {
    const bool with_prev = i > 0 && done[i - 1].time == done[i].time;
    const bool with_next =
        i + 1 < done.size() && done[i + 1].time == done[i].time;
    ++(with_prev || with_next ? tied : alone);
  }
  EXPECT_GT(tied, 20u);
  EXPECT_GT(alone, 20u);
}

}  // namespace
}  // namespace conscale
