// Kernel-level tests of the lane-partitioned PDES engine: canonical keyed
// ordering, windowed execution primitives, cross-lane messaging, the
// lookahead-violation guard, and the lookahead analysis itself. The
// system-level byte-identity contract (lanes=1 vs lanes=K over full
// experiment runs) lives in tests/experiments/lane_determinism_test.cpp.
#include "simcore/lanes/lane_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/lanes/actor.h"
#include "simcore/lanes/lookahead.h"

namespace conscale {
namespace {

using lanes::LaneActor;
using lanes::LaneEngine;
using lanes::LookaheadAnalysis;

// ---- keyed scheduling on the plain Simulation -----------------------------

TEST(KeyedScheduling, PlainEventsRunBeforeKeyedAtEqualTime) {
  Simulation sim;
  std::string order;
  sim.schedule_keyed(1.0, /*group=*/7, /*seq=*/0, [&] { order += 'k'; });
  sim.schedule_at(1.0, [&] { order += 'p'; });
  sim.run_until(2.0);
  EXPECT_EQ(order, "pk");
}

TEST(KeyedScheduling, EqualTimeKeyedOrderIsByStreamThenSeq) {
  Simulation sim;
  std::string order;
  // Inserted in scrambled order; execution must follow (stream, seq).
  sim.schedule_keyed(1.0, 2, 0, [&] { order += 'c'; });
  sim.schedule_keyed(1.0, 1, 1, [&] { order += 'b'; });
  sim.schedule_keyed(1.0, 3, 5, [&] { order += 'd'; });
  sim.schedule_keyed(1.0, 1, 0, [&] { order += 'a'; });
  sim.run_until(2.0);
  EXPECT_EQ(order, "abcd");
}

TEST(KeyedScheduling, RunBeforeIsExclusiveAndNextEventTimeReports) {
  Simulation sim;
  int ran = 0;
  sim.schedule_at(1.0, [&] { ++ran; });
  sim.schedule_at(2.0, [&] { ++ran; });
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 1.0);
  sim.run_before(2.0);  // exclusive: the t=2 event must stay queued
  EXPECT_EQ(ran, 1);
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 2.0);
  sim.run_before(std::nextafter(2.0, 3.0));
  EXPECT_EQ(ran, 2);
  EXPECT_TRUE(std::isinf(sim.next_event_time()));
}

// ---- cross-lane ping-pong -------------------------------------------------

/// Appends "(tag, time)" marks to a lane-local trace; bounces a message to
/// its peer until the horizon. Only its own lane ever touches its trace.
class PingPonger final : public LaneActor {
 public:
  PingPonger(LaneEngine& engine, std::size_t lane, char tag,
             SimDuration net_delay)
      : LaneActor(engine, lane), tag_(tag), net_delay_(net_delay) {}

  void set_peer(PingPonger* peer) { peer_ = peer; }

  void bounce() {
    trace_.push_back(std::to_string(sim().now()) + tag_);
    if (sim().now() > 0.9) return;
    post(peer_->lane(), net_delay_, [peer = peer_] { peer->bounce(); });
  }

  void kick() {
    schedule_at(0.0, [this] { bounce(); });
  }

  const std::vector<std::string>& trace() const { return trace_; }

 private:
  char tag_;
  SimDuration net_delay_;
  PingPonger* peer_ = nullptr;
  std::vector<std::string> trace_;
};

std::vector<std::string> ping_pong_trace(std::size_t lanes, char which) {
  LaneEngine::Options options;
  options.lanes = lanes;
  options.lookahead = 0.05;
  LaneEngine engine(options);
  PingPonger a(engine, 0, 'a', 0.05);
  PingPonger b(engine, lanes - 1, 'b', 0.05);
  a.set_peer(&b);
  b.set_peer(&a);
  a.kick();
  engine.run(1.0);
  EXPECT_GT(engine.stats().windows, 0u);
  EXPECT_GT(engine.stats().messages, 0u);
  return which == 'a' ? a.trace() : b.trace();
}

TEST(LaneEngine, PingPongIsIdenticalAcrossLaneCounts) {
  // Same actors, same streams, different placement: one lane (inline, zero
  // threads) versus two (worker thread). The observable traces must match
  // element for element — the core of the lanes=1 ≡ lanes=K contract.
  EXPECT_EQ(ping_pong_trace(1, 'a'), ping_pong_trace(2, 'a'));
  EXPECT_EQ(ping_pong_trace(1, 'b'), ping_pong_trace(2, 'b'));
  EXPECT_FALSE(ping_pong_trace(1, 'a').empty());
}

TEST(LaneEngine, ConstructionTimePostsAreDelivered) {
  LaneEngine::Options options;
  options.lanes = 2;
  options.lookahead = 0.05;
  LaneEngine engine(options);
  PingPonger a(engine, 0, 'a', 0.05);
  PingPonger b(engine, 1, 'b', 0.05);
  a.set_peer(&b);
  b.set_peer(&a);
  a.kick();  // keyed event at t=0 on lane 0, posts to lane 1 from the run
  engine.run(0.2);
  EXPECT_FALSE(b.trace().empty());
}

TEST(LaneEngine, RejectsNonPositiveLookahead) {
  LaneEngine::Options options;
  options.lanes = 2;
  options.lookahead = 0.0;
  EXPECT_THROW(LaneEngine{options}, std::invalid_argument);
}

/// An actor that (incorrectly) posts with less delay than the engine's
/// lookahead window — the conservative-synchronization guard must refuse.
class Violator final : public LaneActor {
 public:
  Violator(LaneEngine& engine, std::size_t lane)
      : LaneActor(engine, lane) {}
  void kick() {
    schedule_at(0.1, [this] { post(lane() ^ 1, 0.001, [] {}); });
  }
};

TEST(LaneEngine, DetectsLookaheadViolation) {
  LaneEngine::Options options;
  options.lanes = 2;
  options.lookahead = 0.05;
  LaneEngine engine(options);
  Violator bad(engine, 0);
  bad.kick();
  EXPECT_THROW(engine.run(1.0), std::runtime_error);
}

TEST(LaneEngine, SoloRoundsRunInlineWhenOneLaneIsActive) {
  // Only lane 0 has events: every round has a single active lane and must
  // take the inline fast path (no barrier round-trip for idle lanes).
  LaneEngine::Options options;
  options.lanes = 3;
  options.lookahead = 0.05;
  LaneEngine engine(options);
  Simulation& sim = engine.lane(0).sim();
  int ran = 0;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(0.1 * (i + 1), [&] { ++ran; });
  }
  engine.run(1.0);
  EXPECT_EQ(ran, 5);
  EXPECT_GT(engine.stats().solo_rounds, 0u);
}

// ---- lookahead analysis ---------------------------------------------------

TEST(LookaheadAnalysis, WindowIsMinPositiveChannelDelay) {
  LookaheadAnalysis analysis;
  analysis.add_source("up", 0.05, true);
  analysis.add_source("down", 0.08, true);
  analysis.add_source("vm prep", 15.0, false);  // slack, not a channel
  EXPECT_DOUBLE_EQ(analysis.window(), 0.05);
}

TEST(LookaheadAnalysis, NoChannelsMeansNoWindow) {
  LookaheadAnalysis analysis;
  analysis.add_source("vm prep", 15.0, false);
  EXPECT_DOUBLE_EQ(analysis.window(), 0.0);
  EXPECT_FALSE(analysis.summary().empty());
}

}  // namespace
}  // namespace conscale
