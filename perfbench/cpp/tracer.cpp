#include "tracer.h"

#include <stdexcept>

namespace perfbench {

namespace {
/// Request spans are kept for request ids divisible by this.
constexpr std::uint64_t kKeepStride = 64;
}  // namespace

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRunUntil: return "simcore.run_until";
    case SpanKind::kSubmit: return "cluster.submit";
    case SpanKind::kDone: return "workload.done";
    case SpanKind::kHook: return "metrics.hook";
  }
  return "?";
}

void Tracer::begin(SpanKind kind, std::uint64_t request) {
  // Slices are always kept; request spans for one request in kKeepStride,
  // and child spans whenever their parent is kept.
  const bool parent_kept = !stack_.empty() && stack_.back().record >= 0;
  const bool keep = kind == SpanKind::kRunUntil ||
                    (request != 0 ? request % kKeepStride == 0
                                  : parent_kept && stack_.back().kind !=
                                                       SpanKind::kRunUntil);
  std::int64_t record = -1;
  const std::int64_t start = now_ns();
  if (keep) {
    std::int64_t parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->record >= 0) {
        parent = it->record;
        break;
      }
    }
    record = static_cast<std::int64_t>(records_.size());
    records_.push_back({kind, start, start, parent, request});
  }
  stack_.push_back({kind, start, 0, record});
}

void Tracer::end() {
  if (stack_.empty()) throw std::logic_error("Tracer::end without begin");
  const std::int64_t end = now_ns();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end - frame.start_ns;
  Totals& totals = totals_[static_cast<std::size_t>(frame.kind)];
  ++totals.spans;
  totals.total_ns += duration;
  totals.self_ns += duration - frame.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (frame.record >= 0) {
    records_[static_cast<std::size_t>(frame.record)].end_ns = end;
  }
}

std::vector<double> Tracer::kept_durations(SpanKind kind) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.kind == kind) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-9);
    }
  }
  return out;
}

void Tracer::write_jsonl(std::ostream& out, int replicate,
                         std::int64_t origin_ns) const {
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << "{\"replicate\":" << replicate << ",\"id\":" << i
        << ",\"name\":\"" << span_name(r.kind)
        << "\",\"start_ns\":" << (r.start_ns - origin_ns)
        << ",\"end_ns\":" << (r.end_ns - origin_ns)
        << ",\"parent\":" << r.parent << ",\"request\":" << r.request
        << "}\n";
  }
}

}  // namespace perfbench
