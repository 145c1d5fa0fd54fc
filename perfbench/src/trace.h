// Spans recorded by the benchmark around its calls into the program. The
// program itself is not instrumented. Spans stay in memory and are
// written when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Request ids: a phase tag in the top byte keeps every phase's requests
/// apart; spans of one request share its id.
enum class Phase : uint64_t {
  kSetup = 1,
  kClosed = 2,
  kOpen = 3,
  kWriter = 4,
  kReplay = 5,
};
inline uint64_t RequestId(Phase phase, uint64_t n) {
  return (static_cast<uint64_t>(phase) << 56) | n;
}

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  ///< index in the same log, -1 for a root
  uint64_t request;
};

/// One thread's spans. When tracing is off every call is a no-op; past
/// `kMaxSpans` new spans are counted but not kept, which bounds the memory
/// and file of a long memo-hot closed loop.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = 200000;

  SpanLog(bool on, std::string thread) : on_(on), thread_(std::move(thread)) {}

  /// Records [a, b] and returns its index for children (-1 when off).
  int32_t Add(const char* name, Clock::time_point a, Clock::time_point b,
              uint64_t request, int32_t parent = -1);
  /// Moves the end of span `index` (a parent recorded before its
  /// children finished).
  void End(int32_t index, Clock::time_point b);
  bool on() const { return on_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::string& thread() const { return thread_; }
  uint64_t dropped() const { return dropped_; }

 private:
  bool on_;
  std::string thread_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Owns every thread's log and writes them out as one TSV file.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  bool on() const { return on_; }
  /// A new log for one thread; valid while the tracer lives.
  SpanLog* NewLog(const std::string& thread);
  std::size_t NumSpans() const;
  uint64_t NumDropped() const;
  /// Columns: thread, index, parent, request, name, start_ns, end_ns
  /// (times relative to the tracer's creation).
  bool Write(const std::string& path) const;

 private:
  bool on_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
