#include "perfbench/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + lo, samples.end());
  const double a = samples[lo];
  if (hi == lo) {
    return a;
  }
  // The next order statistic is the minimum of the upper partition.
  const double b = *std::min_element(samples.begin() + hi, samples.end());
  return a + (b - a) * (pos - static_cast<double>(lo));
}

taos::obs::Stats Delta(const taos::obs::Stats& before,
                       const taos::obs::Stats& after) {
  auto sub = [](std::uint64_t a, std::uint64_t b) { return a > b ? a - b : 0; };
  taos::obs::Stats d;
  for (int c = 0; c < taos::obs::kNumCounters; ++c) {
    d.counters[c] = sub(after.counters[c], before.counters[c]);
  }
  for (int h = 0; h < taos::obs::kNumHistograms; ++h) {
    for (int b = 0; b < taos::obs::kHistogramBuckets; ++b) {
      d.histograms[h][b] = sub(after.histograms[h][b], before.histograms[h][b]);
    }
  }
  return d;
}

HistPercentile HistQuantile(const taos::obs::Stats& stats,
                            taos::obs::Histogram h, double q) {
  const std::uint64_t* buckets = stats.histograms[static_cast<int>(h)];
  HistPercentile out;
  for (int b = 0; b < taos::obs::kHistogramBuckets; ++b) {
    out.samples += buckets[b];
  }
  if (out.samples == 0) {
    return out;
  }
  // Rank in [0, samples): the sample at that position in sorted order.
  const double rank = q * static_cast<double>(out.samples - 1);
  std::uint64_t below = 0;
  for (int b = 0; b < taos::obs::kHistogramBuckets; ++b) {
    const std::uint64_t n = buckets[b];
    if (n == 0 || rank >= static_cast<double>(below + n)) {
      below += n;
      continue;
    }
    if (b == 0) {
      return out;  // the value 0, exactly
    }
    out.lo = std::ldexp(1.0, b - 1);
    // The catch-all last bucket has no upper edge; treat it as one more
    // doubling so the estimate stays finite.
    out.hi = std::ldexp(1.0, b);
    // Spread the bucket's n samples evenly over [lo, hi): sample k sits at
    // the midpoint of the k-th of n equal slices.
    const double within = (rank - static_cast<double>(below) + 0.5) /
                          static_cast<double>(n);
    out.value = out.lo + (out.hi - out.lo) * within;
    return out;
  }
  return out;
}

int LatencyHist::Index(std::uint64_t v) {
  if (v < kSub) {
    return static_cast<int>(v);
  }
  const int e = std::min(static_cast<int>(std::bit_width(v)) - 1, kMaxExp);
  const std::uint64_t top = std::min<std::uint64_t>(v >> (e - kSubBits), 2 * kSub - 1);
  return kSub + (e - kSubBits) * kSub + static_cast<int>(top - kSub);
}

double LatencyHist::Lower(int i) {
  if (i < kSub) {
    return i;
  }
  const int e = kSubBits + (i - kSub) / kSub;
  return std::ldexp(kSub + (i - kSub) % kSub, e - kSubBits);
}

double LatencyHist::Width(int i) {
  return i < kSub ? 1 : std::ldexp(1.0, kSubBits + (i - kSub) / kSub - kSubBits);
}

void LatencyHist::Merge(const LatencyHist& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHist::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t below = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = buckets_[i];
    if (n == 0 || rank >= static_cast<double>(below + n)) {
      below += n;
      continue;
    }
    const double within =
        (rank - static_cast<double>(below) + 0.5) / static_cast<double>(n);
    return Lower(i) + Width(i) * within;
  }
  return Lower(kBuckets - 1);
}

}  // namespace perfbench
