// In-memory span recorder for the traced run. The benchmark wraps each
// call it makes into a layer of the program in a span (name, start, end,
// parent, op id); nothing inside src/ is instrumented. At exit the spans
// are written as Chrome trace JSON and summarized as self time per layer,
// where a span's layer is its name up to the first '.'.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t id = 0;
    int64_t parent = 0;  ///< 0: a root span.
    int64_t op = -1;     ///< Op the span belongs to; -1 when none.
    int tid = 0;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  /// Appends to the calling thread's buffer (no shared lock per span).
  void Record(const Span& span);

  /// Calls fn(span) for every recorded span, without copying them. Call
  /// after the recording threads have joined.
  template <typename Fn>
  void ForEachSpan(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      for (const Span& span : buffer->spans) fn(span);
    }
  }
  /// Durations in nanoseconds of every recorded span, by span name.
  std::map<std::string, std::vector<int64_t>> DurationsByName() const;

  /// Writes at most `max_events` spans (earliest first) as Chrome trace
  /// JSON. Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path, size_t max_events) const;
  /// Self time per layer and per span name, as a text table.
  std::string SelfTimeTable() const;

 private:
  struct Buffer {
    int tid = 0;
    std::vector<Span> spans;
  };
  Buffer* ThreadBuffer();

  const uint64_t generation_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;  ///< Guards buffers_.
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Records one span on the active tracer (see ActiveTracer); does nothing
/// when the run is untraced. The parent, and the op unless one is given,
/// come from the innermost open span of the calling thread, unless a
/// parent is given explicitly (a request handed to another thread names
/// its parent and op that way).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t op = -1,
                      int64_t parent = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// The span's id; 0 when untraced.
  int64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Tracer::Span span_;
  int64_t saved_current_ = 0;
  int64_t saved_op_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
