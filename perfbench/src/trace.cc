#include "trace.h"

#include <cstdio>

namespace perfbench {

int32_t SpanLog::Add(const char* name, Clock::time_point a,
                     Clock::time_point b, uint64_t request, int32_t parent) {
  if (!on_) return -1;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  const auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  };
  spans_.push_back({name, ns(a), ns(b), parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::End(int32_t index, Clock::time_point b) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b.time_since_epoch())
          .count();
}

SpanLog* Tracer::NewLog(const std::string& thread) {
  std::lock_guard lock(mu_);
  logs_.push_back(std::make_unique<SpanLog>(on_, thread));
  return logs_.back().get();
}

std::size_t Tracer::NumSpans() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& log : logs_) n += log->spans().size();
  return n;
}

uint64_t Tracer::NumDropped() const {
  std::lock_guard lock(mu_);
  uint64_t n = 0;
  for (const auto& log : logs_) n += log->dropped();
  return n;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             origin_.time_since_epoch())
                             .count();
  std::fprintf(f, "thread\tindex\tparent\trequest\tname\tstart_ns\tend_ns\n");
  std::lock_guard lock(mu_);
  for (const auto& log : logs_) {
    const std::vector<Span>& spans = log->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%s\t%zu\t%d\t%llx\t%s\t%lld\t%lld\n",
                   log->thread().c_str(), i, s.parent,
                   static_cast<unsigned long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns - origin),
                   static_cast<long long>(s.end_ns - origin));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
