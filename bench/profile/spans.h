#ifndef SKYPEER_BENCH_PROFILE_SPANS_H_
#define SKYPEER_BENCH_PROFILE_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace skypeer::bench {

using Clock = std::chrono::steady_clock;

/// One timed interval around a call into the library. `parent` is the id of
/// the enclosing span (-1 for the root); spans of one query share `query`
/// (-1 when the span belongs to no query).
struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  int64_t query = -1;
};

/// \brief In-memory span log of one traced benchmark run.
///
/// The benchmark times each call it makes into a layer's public function
/// and records the interval here after the call returns, so recording
/// costs nothing inside the timed interval. Span ids are indices; id 0 is
/// the root (`workload`) span, opened at construction and closed by
/// `CloseRoot`. Spans stay in memory until `WriteChromeTrace`. A disabled
/// recorder drops everything, which keeps the untraced run free of
/// tracing work.
class SpanRecorder {
 public:
  SpanRecorder(bool enabled, const char* root_name) : enabled_(enabled) {
    if (enabled_) {
      spans_.push_back({root_name, Clock::now(), Clock::time_point{}, -1, -1});
    }
  }

  /// Records a finished span as a child of the root.
  void Add(const char* name, Clock::time_point start, Clock::time_point end,
           int64_t query = -1) {
    if (enabled_) {
      spans_.push_back({name, start, end, 0, query});
    }
  }

  void CloseRoot() {
    if (enabled_) {
      spans_[0].end = Clock::now();
    }
  }

  /// Per span: its duration minus the part of it that its children's
  /// intervals cover (overlapping children are counted once).
  std::vector<Clock::duration> SelfTimes() const {
    std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
        children(spans_.size());
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        children[span.parent].emplace_back(span.start, span.end);
      }
    }
    std::vector<Clock::duration> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      Clock::duration covered{0};
      Clock::time_point reach = spans_[i].start;
      for (auto [start, end] : kids) {
        start = std::max(start, reach);
        end = std::min(end, spans_[i].end);
        if (end > start) {
          covered += end - start;
          reach = end;
        }
      }
      self[i] = (spans_[i].end - spans_[i].start) - covered;
    }
    return self;
  }

  /// Writes every span as a Chrome trace-event "complete" event (viewable
  /// in Perfetto); ids, parents, query ids and self times ride in `args`.
  /// Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    const std::vector<Clock::duration> self = SelfTimes();
    const auto us = [&](Clock::duration d) {
      return std::chrono::duration<double, std::micro>(d).count();
    };
    std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"query\":%lld,\"self_us\":%.3f}}\n",
                   i == 0 ? "" : ",", span.name,
                   us(span.start - spans_[0].start), us(span.end - span.start),
                   i, span.parent, static_cast<long long>(span.query),
                   us(self[i]));
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace skypeer::bench

#endif  // SKYPEER_BENCH_PROFILE_SPANS_H_
