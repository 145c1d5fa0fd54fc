// Shared helpers of the served-path benchmark: clocks, quantiles, the
// input digest, a seeded generator of its own and per-kind operation
// accounting.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return Seconds(a, Clock::now());
}

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> xs, double q);
inline double Median(std::vector<double> xs) {
  return Quantile(std::move(xs), 0.5);
}

/// Cuts `xs` (in arrival order) into as many equal consecutive windows of
/// at least `min_window` values as fit, takes the q-quantile of each, and
/// returns the `across`-quantile of those. A host stall slows the windows
/// it hits, so a low `across` reports the undisturbed windows.
double WindowedQuantile(const std::vector<double>& xs, double q,
                        std::size_t min_window, double across);

/// CPU time all CPUs lost to the hypervisor so far (the `steal` column of
/// /proc/stat), in seconds; negative when unavailable.
double StealSeconds();

/// FNV-1a 64 over the benchmark's own field-by-field serialisation of the
/// generated inputs, so equal seeds print equal digests.
class Digest {
 public:
  void Bytes(const void* data, std::size_t n);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void F64(double v);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// splitmix64: the benchmark's input generator. It is its own so the
/// request and update streams stay fixed for a seed whatever the library's
/// generators do.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : s_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

/// The operation kinds a run accounts for.
enum class OpKind { kQuery = 0, kUpdate, kCommit, kCheck };
inline constexpr int kNumOpKinds = 4;
const char* OpKindName(OpKind kind);

/// Attempted and failed operations per kind. A wrong answer is a failed
/// operation. Each client thread keeps its own and merges at the end.
struct Accounting {
  uint64_t attempted[kNumOpKinds] = {};
  uint64_t failed[kNumOpKinds] = {};

  void Add(OpKind kind, bool ok) {
    ++attempted[static_cast<int>(kind)];
    if (!ok) ++failed[static_cast<int>(kind)];
  }
  void Merge(const Accounting& other);
  uint64_t TotalAttempted() const;
  uint64_t TotalFailed() const;
};

/// One reported figure, printed in order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Prints a failure to stderr; only the first few are shown.
void ReportFailure(const std::string& what);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
