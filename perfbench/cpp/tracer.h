// Span recorder for the traced benchmark run.
//
// Spans are opened and closed by the benchmark around the calls it makes
// into the simulator (the run_until slices, the client submit/done
// closures and the monitoring completion hook); nothing inside src/ knows
// about them. Every span is timed on the host's steady clock and folded into
// per-kind totals, where a span's self time is its duration minus the time
// its child spans cover. Each slice span, plus every span of one request in
// 64, is also kept in memory as a record (name, start, end, parent, request
// id) and written out when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench {

/// Host wall clock (steady_clock) in nanoseconds; never simulated time.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// The boundaries a span can sit on, each named after the src/ module
/// whose code runs inside it.
enum class SpanKind : std::uint8_t {
  kRunUntil,  ///< simcore: one Simulation::run_until slice
  kSubmit,    ///< cluster: the system's synchronous part of submit
  kDone,      ///< workload: the client continuation on a reply
  kHook,      ///< metrics: MonitoringAgent completion/rejection hook
};
inline constexpr std::size_t kSpanKinds = 4;
const char* span_name(SpanKind kind);

class Tracer {
 public:
  void begin(SpanKind kind, std::uint64_t request = 0);
  void end();

  struct Totals {
    std::uint64_t spans = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  const Totals& totals(SpanKind kind) const {
    return totals_[static_cast<std::size_t>(kind)];
  }
  /// Durations of every kept span of `kind`, in seconds.
  std::vector<double> kept_durations(SpanKind kind) const;
  std::size_t kept() const { return records_.size(); }

  /// One JSON object per kept span; `origin_ns` is subtracted from times.
  void write_jsonl(std::ostream& out, int replicate,
                   std::int64_t origin_ns) const;

 private:
  struct Frame {
    SpanKind kind;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int64_t record;  ///< index into records_, or -1 when not kept
  };
  struct Record {
    SpanKind kind;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  ///< nearest kept ancestor, or -1
    std::uint64_t request;
  };

  std::vector<Frame> stack_;
  std::vector<Record> records_;
  std::array<Totals, kSpanKinds> totals_{};
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, SpanKind kind, std::uint64_t request = 0)
      : tracer_(tracer) {
    tracer_.begin(kind, request);
  }
  ~ScopedSpan() { tracer_.end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
};

}  // namespace perfbench
