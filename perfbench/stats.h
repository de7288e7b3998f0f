// Percentiles for the benchmark: exact ones from raw samples, and
// interpolated ones from the runtime's log2 histograms (src/obs/metrics.h),
// taken as a delta between two obs::Snapshot() calls.

#ifndef TAOS_PERFBENCH_STATS_H_
#define TAOS_PERFBENCH_STATS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/obs/metrics.h"

namespace perfbench {

// The q-quantile (0 <= q <= 1) of `samples`, interpolating linearly between
// the two nearest order statistics. Reorders `samples`. 0 when empty.
double Quantile(std::vector<double>& samples, double q);

// `after - before`, slot by slot. Both snapshots cover the same cells; a
// slot that went down (a cell reset in between) reads 0.
taos::obs::Stats Delta(const taos::obs::Stats& before,
                       const taos::obs::Stats& after);

// A percentile read from a log2 histogram. Bucket 0 holds the value 0 and
// bucket i >= 1 holds [2^(i-1), 2^i), so the rank is located exactly to a
// bucket and then placed by linear interpolation inside it. The true value
// lies in [lo, hi): the error is below the bucket width hi - lo, which is
// never more than the estimate itself (a factor of two).
struct HistPercentile {
  double value = 0;   // interpolated estimate
  double lo = 0;      // bucket bounds holding the rank
  double hi = 0;
  std::uint64_t samples = 0;
};

HistPercentile HistQuantile(const taos::obs::Stats& stats,
                            taos::obs::Histogram h, double q);

// A latency histogram of fixed size: values below 64 ns get a bucket each,
// and every power of two above is split into 64 buckets, so a bucket is at
// most 1/64 of its values wide. Quantiles interpolate inside the bucket.
// Its memory does not depend on how many ops a run completes, so it does
// not move peak RSS.
class LatencyHist {
 public:
  void Add(std::uint64_t ns) {
    ++buckets_[Index(ns)];
    ++count_;
  }
  void Merge(const LatencyHist& other);
  void Clear() {
    buckets_.fill(0);
    count_ = 0;
  }
  std::uint64_t count() const { return count_; }
  double Quantile(double q) const;  // in ns; 0 when empty

 private:
  static constexpr int kSubBits = 6;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kMaxExp = 47;  // values from 2^48 ns share a bucket
  static constexpr int kBuckets = kSub + (kMaxExp + 1 - kSubBits) * kSub;

  static int Index(std::uint64_t v);
  static double Lower(int i);
  static double Width(int i);

  std::uint64_t count_ = 0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

}  // namespace perfbench

#endif  // TAOS_PERFBENCH_STATS_H_
