// Event-queue order: every firing sequence must equal a stable sort of the
// scheduled events on (time, group, seq), with times clamped to the clock at
// scheduling. The cases aim at the radix queue's seams: equal keys split
// between the near heap and the buckets, the widest key range, events
// scheduled below a head that was looked at but left queued, and enough
// pending events that bucket chunks cycle through the free list. Timers
// (re-armable, kept beside the queue) join the same order as plain events:
// each arm takes the next arrival counter, and a re-arm or disarm retires
// the earlier firing.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "simcore/simulation.h"

namespace conscale {
namespace {

/// Mirrors the kernel's ordering contract on the side: plain events take a
/// test-side arrival counter in group 0, keyed ones their (group, seq).
class OrderHarness {
 public:
  int plain(double when) {
    const int id = add(when, 0, plain_seq_++);
    handles_.push_back(sim_.schedule_at(when, [this, id] { fire(id); }));
    return id;
  }

  int keyed(double when, std::uint64_t group, std::uint64_t seq) {
    const int id = add(when, group, seq);
    handles_.push_back(
        sim_.schedule_keyed(when, group, seq, [this, id] { fire(id); }));
    return id;
  }

  /// Adds a disarmed timer; returns its index for arm() and disarm().
  std::size_t timer() {
    timers_.push_back(std::make_unique<TestTimer>(*this));
    return timers_.size() - 1;
  }

  /// Arms (or re-arms) timer `t` at `when`; a pending earlier arm of the
  /// same timer will not fire.
  int arm(std::size_t t, double when) {
    TestTimer& timer = *timers_[t];
    if (timer.id >= 0) cancelled_[static_cast<std::size_t>(timer.id)] = true;
    timer.id = add(when, 0, plain_seq_++);
    handles_.emplace_back();
    timer.timer.arm_at(when);
    return timer.id;
  }

  void disarm(std::size_t t) {
    TestTimer& timer = *timers_[t];
    if (timer.id >= 0) cancelled_[static_cast<std::size_t>(timer.id)] = true;
    timer.id = -1;
    timer.timer.disarm();
  }

  bool armed(std::size_t t) const { return timers_[t]->timer.armed(); }

  /// Cancels `id` if it is still pending; returns whether it was.
  bool cancel(int id) {
    const auto index = static_cast<std::size_t>(id);
    if (!handles_[index].cancel()) return false;
    cancelled_[index] = true;
    return true;
  }

  /// The ids that must fire next, in order, if the queue runs up to `limit`
  /// (inclusive, or exclusive when `strict`); removes them from the model.
  std::vector<int> take_expected(double limit, bool strict) {
    const auto rest = std::stable_partition(
        pending_.begin(), pending_.end(), [&](const Expected& e) {
          return strict ? e.time < limit : e.time <= limit;
        });
    std::stable_sort(pending_.begin(), rest,
                     [](const Expected& a, const Expected& b) {
                       if (a.time != b.time) return a.time < b.time;
                       if (a.group != b.group) return a.group < b.group;
                       return a.seq < b.seq;
                     });
    std::vector<int> order;
    for (auto it = pending_.begin(); it != rest; ++it) {
      if (!cancelled_[static_cast<std::size_t>(it->id)]) {
        order.push_back(it->id);
      }
    }
    pending_.erase(pending_.begin(), rest);
    return order;
  }

  /// Runs `run` and checks the ids it fired against the model.
  template <typename Run>
  void check(Run run, double limit, bool strict = false) {
    fired_.clear();
    run(sim_);
    EXPECT_EQ(fired_, take_expected(limit, strict));
  }

  void check_run_all() {
    check([](Simulation& sim) { sim.run_all(); },
          std::numeric_limits<double>::infinity());
    EXPECT_EQ(sim_.pending_events(), 0u);
  }

  Simulation& sim() { return sim_; }

 private:
  struct Expected {
    double time;
    std::uint64_t group;
    std::uint64_t seq;
    int id;
  };

  int add(double when, std::uint64_t group, std::uint64_t seq) {
    const int id = next_id_++;
    cancelled_.push_back(false);
    pending_.push_back(
        Expected{std::max(when, sim_.now()) + 0.0, group, seq, id});
    return id;
  }

  void fire(int id) { fired_.push_back(id); }

  struct TestTimer {
    explicit TestTimer(OrderHarness& harness_in)
        : harness(harness_in),
          timer(harness_in.sim_, [](void* self) {
            auto* t = static_cast<TestTimer*>(self);
            const int fired = t->id;
            t->id = -1;
            t->harness.fire(fired);
          }, this) {}
    OrderHarness& harness;
    Timer timer;
    int id = -1;  ///< the pending arm's id, -1 while disarmed
  };

  Simulation sim_;
  std::vector<std::unique_ptr<TestTimer>> timers_;
  std::vector<EventHandle> handles_;
  std::vector<Expected> pending_;
  std::vector<bool> cancelled_;  ///< by id
  std::vector<int> fired_;
  std::uint64_t plain_seq_ = 0;
  int next_id_ = 0;
};

TEST(QueueOrder, MixedPlainAndKeyedAtEqualTimes) {
  Rng rng(7);
  OrderHarness h;
  std::vector<std::uint64_t> stream_seq(4, 0);
  for (int i = 0; i < 3000; ++i) {
    const double when = static_cast<double>(1 + rng.uniform_index(3));
    if (rng.uniform() < 0.5) {
      h.plain(when);
    } else {
      const std::uint64_t group = 1 + rng.uniform_index(3);
      // Per-stream seqs rise with gaps, so (group, seq) never repeats.
      stream_seq[group] += 1 + rng.uniform_index(5);
      h.keyed(when, group, stream_seq[group]);
    }
  }
  h.check_run_all();
}

TEST(QueueOrder, ManyExactTies) {
  OrderHarness h;
  for (int i = 0; i < 20000; ++i) h.plain(static_cast<double>(i % 3) * 0.25);
  h.check([](Simulation& sim) { sim.run_until(0.25); }, 0.25);
  for (int i = 0; i < 5000; ++i) h.plain(0.5);  // ties with queued events
  h.check_run_all();
  EXPECT_DOUBLE_EQ(h.sim().now(), 0.5);
}

TEST(QueueOrder, TimesFromNanosecondsToInfinityAndNegativeZero) {
  Rng rng(11);
  OrderHarness h;
  h.plain(std::numeric_limits<double>::infinity());
  h.plain(-0.0);
  h.plain(0.0);
  h.keyed(-0.0, 1, 0);
  h.plain(1e-9);
  h.plain(1e6);
  for (int i = 0; i < 4000; ++i) {
    h.plain(std::pow(10.0, rng.uniform(-9.0, 6.0)));
  }
  h.plain(std::numeric_limits<double>::infinity());
  h.check([](Simulation& sim) { sim.run_until(1e-3); }, 1e-3);
  h.check([](Simulation& sim) { sim.run_before(1e6); }, 1e6, true);
  h.check_run_all();
  EXPECT_EQ(h.sim().now(), std::numeric_limits<double>::infinity());
}

TEST(QueueOrder, SchedulesBelowAHeadLeftByRunUntil) {
  OrderHarness h;
  h.plain(10.0);
  h.plain(20.0);
  h.plain(1.0);
  h.check([](Simulation& sim) { sim.run_until(5.0); }, 5.0);
  ASSERT_DOUBLE_EQ(h.sim().now(), 5.0);
  h.plain(7.0);
  h.plain(5.0);
  h.plain(9.999);
  h.keyed(10.0, 1, 0);
  h.plain(10.0);
  h.plain(15.0);
  h.plain(2.0);  // clamps to now() = 5
  h.check_run_all();
}

TEST(QueueOrder, SchedulesBelowAHeadLeftByRunBefore) {
  OrderHarness h;
  h.plain(1.0);
  h.plain(3.0);
  h.plain(8.0);
  h.plain(64.0);
  h.check([](Simulation& sim) { sim.run_before(8.0); }, 8.0, true);
  ASSERT_DOUBLE_EQ(h.sim().now(), 3.0);  // the clock stays at the last event
  h.plain(4.0);
  h.plain(7.5);
  h.keyed(8.0, 2, 0);
  h.plain(8.0);
  h.plain(3.0);
  h.check([](Simulation& sim) { sim.run_before(8.0); }, 8.0, true);
  h.plain(8.0);
  h.check_run_all();
}

TEST(QueueOrder, SchedulesBelowAHeadSeenByNextEventTime) {
  OrderHarness h;
  h.plain(10.0);
  h.plain(40.0);
  EXPECT_DOUBLE_EQ(h.sim().next_event_time(), 10.0);
  h.plain(3.0);
  EXPECT_DOUBLE_EQ(h.sim().next_event_time(), 3.0);
  h.plain(0.5);
  h.plain(10.0);
  h.plain(11.0);
  h.check_run_all();
}

TEST(QueueOrder, CancelsAHeadLeftQueued) {
  OrderHarness h;
  const int head = h.plain(10.0);
  h.plain(12.0);
  h.plain(30.0);
  h.check([](Simulation& sim) { sim.run_until(4.0); }, 4.0);
  EXPECT_TRUE(h.cancel(head));
  EXPECT_DOUBLE_EQ(h.sim().next_event_time(), 12.0);
  // Below the cancelled head, between it and the new head, and past both.
  h.plain(6.0);
  h.plain(11.0);
  h.plain(31.0);
  const int second = h.plain(12.0);
  EXPECT_DOUBLE_EQ(h.sim().next_event_time(), 6.0);
  EXPECT_TRUE(h.cancel(second));
  h.check([](Simulation& sim) { sim.run_until(12.0); }, 12.0);
  h.check_run_all();
}

TEST(QueueOrder, HundredThousandPendingCycleChunks) {
  // A hold model: a large pending set of far timers, sliced with run_until
  // while near events churn and some timers are cancelled, so whole bucket
  // chains are redistributed and their chunks reused many times over.
  Rng rng(2024);
  OrderHarness h;
  std::vector<int> live;
  for (int i = 0; i < 120000; ++i) {
    live.push_back(h.plain(rng.exponential(7.0)));
  }
  std::uint64_t stream = 0;
  double t = 0.0;
  for (int slice = 0; slice < 200; ++slice) {
    for (int i = 0; i < 300; ++i) {
      const double when = h.sim().now() + rng.exponential(0.01);
      if (i % 3 == 0) {
        h.keyed(when, 1 + (stream % 5), stream);
        ++stream;
      } else {
        live.push_back(h.plain(when));
      }
    }
    for (int i = 0; i < 50; ++i) {
      const auto pick =
          static_cast<std::size_t>(rng.uniform_index(live.size()));
      h.cancel(live[pick]);
    }
    t += 0.004;
    const double deadline = t;
    h.check([deadline](Simulation& sim) { sim.run_until(deadline); },
            deadline);
  }
  EXPECT_GT(h.sim().pending_events(), 100000u);
  h.check_run_all();
}

TEST(QueueOrder, NaNTimeIsRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  OrderHarness h;
  h.plain(2.0);
  EXPECT_THROW(h.sim().schedule_at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(h.sim().schedule_after(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(h.sim().schedule_keyed(nan, 1, 0, [] {}),
               std::invalid_argument);
  EXPECT_EQ(h.sim().pending_events(), 1u);
  h.plain(1.0);
  h.check_run_all();
}

TEST(QueueOrder, KeyedGroupMustFitThirtyTwoBits) {
  OrderHarness h;
  EXPECT_THROW(h.sim().schedule_keyed(1.0, std::uint64_t{1} << 32, 0, [] {}),
               std::invalid_argument);
  EXPECT_EQ(h.sim().pending_events(), 0u);
  h.keyed(1.0, (std::uint64_t{1} << 32) - 1, 0);
  h.keyed(1.0, 1, 5);
  h.plain(1.0);
  h.check_run_all();
}

TEST(QueueOrder, TimersMixWithPlainAndKeyedEventsAtEqualTimes) {
  // Equal times everywhere, so the merge of the timer heap and the queue is
  // decided by group and sequence alone: keyed events carry small
  // per-stream seqs, timers and plain events the shared arrival counter.
  Rng rng(31);
  OrderHarness h;
  std::vector<std::size_t> timers;
  for (int i = 0; i < 8; ++i) timers.push_back(h.timer());
  std::vector<std::uint64_t> stream_seq(4, 0);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 300; ++i) {
      const double when =
          h.sim().now() + static_cast<double>(rng.uniform_index(3));
      const double pick = rng.uniform();
      if (pick < 0.35) {
        h.plain(when);
      } else if (pick < 0.65) {
        const std::uint64_t group = 1 + rng.uniform_index(3);
        stream_seq[group] += 1 + rng.uniform_index(5);
        h.keyed(when, group, stream_seq[group]);
      } else if (pick < 0.95) {
        h.arm(timers[rng.uniform_index(timers.size())], when);
      } else {
        h.disarm(timers[rng.uniform_index(timers.size())]);
      }
    }
    const double deadline = h.sim().now() + 1.0;
    h.check([deadline](Simulation& sim) { sim.run_until(deadline); },
            deadline);
  }
  h.check_run_all();
}

TEST(QueueOrder, TimerRearmsEarlierAndLaterThenDisarms) {
  OrderHarness h;
  const std::size_t a = h.timer();
  const std::size_t b = h.timer();
  h.plain(4.0);
  h.arm(a, 5.0);
  h.arm(b, 6.0);
  EXPECT_EQ(h.sim().pending_events(), 3u);
  h.arm(a, 2.0);  // earlier
  EXPECT_DOUBLE_EQ(h.sim().next_event_time(), 2.0);
  h.arm(a, 8.0);  // later, past b
  EXPECT_DOUBLE_EQ(h.sim().next_event_time(), 4.0);
  h.plain(8.0);   // armed before it, so `a` fires first at 8
  h.arm(b, 8.0);  // re-armed after the plain event: fires after it
  EXPECT_EQ(h.sim().pending_events(), 4u);
  h.check([](Simulation& sim) { sim.run_until(7.0); }, 7.0);
  EXPECT_TRUE(h.armed(a));
  h.disarm(a);
  EXPECT_FALSE(h.armed(a));
  h.disarm(a);  // disarming twice is harmless
  EXPECT_EQ(h.sim().pending_events(), 2u);
  h.check_run_all();
  EXPECT_FALSE(h.armed(b));
  EXPECT_EQ(h.sim().events_executed(), 3u);  // two plain events and b
}

TEST(QueueOrder, TimersArmBelowHeadsLeftQueued) {
  OrderHarness h;
  const std::size_t t = h.timer();
  const std::size_t u = h.timer();
  h.plain(10.0);
  h.plain(20.0);
  h.arm(t, 30.0);
  h.check([](Simulation& sim) { sim.run_until(5.0); }, 5.0);
  h.arm(t, 7.0);  // below the head that run_until left queued
  h.arm(u, 2.0);  // clamps to now() = 5
  h.plain(5.0);
  h.check([](Simulation& sim) { sim.run_before(10.0); }, 10.0, true);
  ASSERT_DOUBLE_EQ(h.sim().now(), 7.0);
  h.arm(u, 8.0);  // below the head that run_before left queued
  h.arm(t, 10.0);
  h.keyed(10.0, 3, 0);
  EXPECT_DOUBLE_EQ(h.sim().next_event_time(), 8.0);
  h.arm(t, 7.5);  // below the head next_event_time looked at
  EXPECT_DOUBLE_EQ(h.sim().next_event_time(), 7.5);
  h.check_run_all();
}

TEST(QueueOrder, TimerOwnerDestroyedInsideItsCallback) {
  // Each owner deletes itself from its own callback; another owner's timer
  // is destroyed while armed, and a new timer is created in a callback, so
  // slots are recycled while the kernel runs. Under AddressSanitizer any
  // kernel access to the dead owner's timer state fails this test.
  struct Owner {
    Owner(Simulation& sim, std::vector<int>& log_in, int name_in)
        : log(log_in), name(name_in), timer(sim, [](void* self) {
            auto* owner = static_cast<Owner*>(self);
            owner->log.push_back(owner->name);
            // The action may delete the owner, so it runs from a local.
            const std::function<void()> action = std::move(owner->on_fire);
            if (action) action();
          }, this) {}
    std::vector<int>& log;
    int name;
    std::function<void()> on_fire;
    Timer timer;
  };
  Simulation sim;
  std::vector<int> log;
  std::vector<std::unique_ptr<Owner>> owners;
  for (int i = 0; i < 4; ++i) {
    owners.push_back(std::make_unique<Owner>(sim, log, i));
  }
  owners[0]->on_fire = [&] { owners[0].reset(); };
  owners[1]->on_fire = [&] {
    owners[2].reset();  // armed at 3.0: must never fire
    owners[1].reset();
    owners.push_back(std::make_unique<Owner>(sim, log, 4));
    owners.back()->timer.arm_at(2.5);
  };
  owners[3]->on_fire = [&] { owners[3].reset(); };
  owners[0]->timer.arm_at(1.0);
  owners[1]->timer.arm_at(2.0);
  owners[2]->timer.arm_at(3.0);
  owners[3]->timer.arm_at(4.0);
  sim.schedule_at(2.0, [&] { log.push_back(100); });
  sim.run_all();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 100, 4, 3}));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(QueueOrder, TimerNaNTimeIsRejected) {
  Simulation sim;
  Timer timer(sim, [](void*) {}, nullptr);
  EXPECT_THROW(timer.arm_at(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_FALSE(timer.armed());
  timer.arm_after(-1.0);  // clamps to now()
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 0.0);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(timer.armed());
}

}  // namespace
}  // namespace conscale
