#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>

#include <unistd.h>

namespace perfbench {

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  const std::size_t k =
      rank < 1.0 ? 0 : std::min(xs.size() - 1, static_cast<std::size_t>(rank) - 1);
  return xs[k];
}

double WindowedQuantile(const std::vector<double>& xs, double q,
                        std::size_t min_window, double across) {
  const std::size_t windows = std::max<std::size_t>(1, xs.size() / min_window);
  const std::size_t size = xs.size() / windows;
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = xs.begin() + static_cast<std::ptrdiff_t>(w * size);
    const auto last = w + 1 == windows ? xs.end()
                                       : first + static_cast<std::ptrdiff_t>(size);
    per_window.push_back(Quantile(std::vector<double>(first, last), q));
  }
  return Quantile(per_window, across);
}

double StealSeconds() {
  std::ifstream f("/proc/stat");
  std::string line;
  if (!std::getline(f, line) || line.rfind("cpu ", 0) != 0) return -1;
  std::istringstream in(line.substr(4));
  double field[8] = {};
  for (double& x : field) {
    if (!(in >> x)) return -1;
  }
  return field[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

void Digest::Bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::U32(uint32_t v) {
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  Bytes(b, sizeof(b));
}

void Digest::U64(uint64_t v) {
  U32(static_cast<uint32_t>(v));
  U32(static_cast<uint32_t>(v >> 32));
}

void Digest::F64(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

uint64_t SplitMix::Next() {
  uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kQuery:
      return "query";
    case OpKind::kUpdate:
      return "update";
    case OpKind::kCommit:
      return "commit";
    case OpKind::kCheck:
      return "check";
  }
  return "?";
}

void Accounting::Merge(const Accounting& other) {
  for (int k = 0; k < kNumOpKinds; ++k) {
    attempted[k] += other.attempted[k];
    failed[k] += other.failed[k];
  }
}

uint64_t Accounting::TotalAttempted() const {
  uint64_t n = 0;
  for (const uint64_t a : attempted) n += a;
  return n;
}

uint64_t Accounting::TotalFailed() const {
  uint64_t n = 0;
  for (const uint64_t f : failed) n += f;
  return n;
}

void ReportFailure(const std::string& what) {
  static std::atomic<int> shown{0};
  static std::mutex mu;
  if (shown.fetch_add(1) >= 20) return;
  std::lock_guard lock(mu);
  std::fprintf(stderr, "# FAIL: %s\n", what.c_str());
}

}  // namespace perfbench
