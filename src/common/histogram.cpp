#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace conscale {

namespace {
// Mantissas (in frexp's [0.5, 1)) at or above this lie within a relative
// 2^-30 of the next power of two, where std::log2 may round up. Infinity and
// NaN land there too, so they take the libm path as before.
constexpr double kLog2RoundingBand = 1.0 - 0x1.0p-30;
}  // namespace

LinearHistogram::LinearHistogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), width_((hi - lo) / static_cast<double>(buckets)) {
  if (buckets == 0 || hi <= lo) {
    throw std::invalid_argument("LinearHistogram: empty range");
  }
  counts_.assign(buckets, 0);
}

void LinearHistogram::add(double value, std::uint64_t count) {
  auto idx = static_cast<long>((value - lo_) / width_);
  idx = std::clamp<long>(idx, 0, static_cast<long>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)] += count;
  total_ += count;
  sum_ += value * static_cast<double>(count);
}

void LinearHistogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  sum_ = 0.0;
}

double LinearHistogram::bucket_value(std::size_t index) const {
  return lo_ + (static_cast<double>(index) + 0.5) * width_;
}

double LinearHistogram::percentile(double pct) const {
  if (total_ == 0) return 0.0;
  pct = std::clamp(pct, 0.0, 100.0);
  const double target = pct / 100.0 * static_cast<double>(total_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts_[i]);
    if (next >= target && counts_[i] > 0) {
      // Interpolate within the bucket.
      const double frac =
          counts_[i] ? (target - cumulative) / static_cast<double>(counts_[i])
                     : 0.0;
      return lo_ + (static_cast<double>(i) + frac) * width_;
    }
    cumulative = next;
  }
  return bucket_value(counts_.size() - 1);
}

double LinearHistogram::mean() const {
  return total_ ? sum_ / static_cast<double>(total_) : 0.0;
}

LogHistogram::LogHistogram(double unit, std::size_t sub_buckets)
    : unit_(unit), sub_buckets_(sub_buckets) {
  if (unit <= 0.0 || sub_buckets == 0) {
    throw std::invalid_argument("LogHistogram: bad parameters");
  }
  // 64 powers of two cover any double we will see in practice.
  counts_.assign(64 * sub_buckets_, 0);
}

std::size_t LogHistogram::index_for(double value) const {
  if (value <= unit_) return 0;
  const double scaled = value / unit_;
  // The octave is frexp's exponent minus one (scaled = m * 2^e, m in
  // [0.5, 1)). The bucket layout was defined by truncating std::log2, which
  // may round up to the next integer just below a power of two, so that
  // narrow band keeps the libm call and every index stays what it was.
  int exponent = 0;
  const double mantissa = std::frexp(scaled, &exponent);
  const int octave = mantissa < kLog2RoundingBand
                         ? exponent - 1
                         : static_cast<int>(std::log2(scaled));
  const int power = std::min(62, octave);
  const double base = std::ldexp(1.0, power);
  const double frac = (scaled - base) / base;  // [0,1) within the octave
  auto sub = static_cast<std::size_t>(frac * static_cast<double>(sub_buckets_));
  sub = std::min(sub, sub_buckets_ - 1);
  const std::size_t idx = static_cast<std::size_t>(power) * sub_buckets_ + sub;
  return std::min(idx, counts_.size() - 1);
}

double LogHistogram::value_for(std::size_t index) const {
  const std::size_t power = index / sub_buckets_;
  const std::size_t sub = index % sub_buckets_;
  const double base = std::exp2(static_cast<double>(power));
  const double frac =
      (static_cast<double>(sub) + 0.5) / static_cast<double>(sub_buckets_);
  return unit_ * base * (1.0 + frac);
}

void LogHistogram::add(double value, std::uint64_t count) {
  value = std::max(value, 0.0);
  counts_[index_for(value)] += count;
  total_ += count;
  sum_ += value * static_cast<double>(count);
  max_ = std::max(max_, value);
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.unit_ != unit_ || other.sub_buckets_ != sub_buckets_) {
    throw std::invalid_argument("LogHistogram::merge: layout mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

void LogHistogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  sum_ = 0.0;
  max_ = 0.0;
}

double LogHistogram::fraction_below(double threshold) const {
  if (total_ == 0) return 0.0;
  if (threshold < 0.0) return 0.0;
  const std::size_t limit = index_for(threshold);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i <= limit && i < counts_.size(); ++i) {
    below += counts_[i];
  }
  return static_cast<double>(below) / static_cast<double>(total_);
}

double LogHistogram::percentile(double pct) const {
  if (total_ == 0) return 0.0;
  pct = std::clamp(pct, 0.0, 100.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(pct / 100.0 * static_cast<double>(total_)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= target && counts_[i] > 0) {
      return std::min(value_for(i), max_);
    }
  }
  return max_;
}

}  // namespace conscale
