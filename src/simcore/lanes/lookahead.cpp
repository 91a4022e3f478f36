#include "simcore/lanes/lookahead.h"

#include <limits>
#include <sstream>
#include <utility>

namespace conscale::lanes {

void LookaheadAnalysis::add_source(std::string name, SimDuration delay,
                                   bool is_channel) {
  sources_.push_back(LookaheadSource{std::move(name), delay, is_channel});
}

SimDuration LookaheadAnalysis::window() const {
  SimDuration min_delay = std::numeric_limits<SimDuration>::infinity();
  bool any = false;
  for (const LookaheadSource& source : sources_) {
    if (!source.is_channel || source.delay <= 0.0) continue;
    any = true;
    if (source.delay < min_delay) min_delay = source.delay;
  }
  return any ? min_delay : 0.0;
}

std::string LookaheadAnalysis::summary() const {
  std::ostringstream out;
  out << "lookahead sources:\n";
  for (const LookaheadSource& source : sources_) {
    out << "  " << source.name << " = " << source.delay << " s"
        << (source.is_channel ? " (channel)" : " (slack)") << "\n";
  }
  out << "window = " << window() << " s\n";
  return out.str();
}

}  // namespace conscale::lanes
