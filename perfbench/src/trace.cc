#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "bench.h"

namespace perfbench {
namespace {

std::atomic<uint64_t> g_generation{1};

struct ThreadSlot {
  uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot t_slot;
/// Id and op of the innermost open span on this thread (0 / -1: none).
thread_local int64_t t_current = 0;
thread_local int64_t t_current_op = -1;

std::string Layer(const char* name) {
  std::string s(name);
  size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

/// Total length of the union of [start, end) intervals clipped to
/// [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

Tracer::Tracer() : generation_(g_generation.fetch_add(1)) {}

Tracer::Buffer* Tracer::ThreadBuffer() {
  if (t_slot.generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->tid = static_cast<int>(buffers_.size());
    t_slot.generation = generation_;
    t_slot.buffer = buffers_.back().get();
  }
  return static_cast<Buffer*>(t_slot.buffer);
}

void Tracer::Record(const Span& span) {
  Buffer* buffer = ThreadBuffer();
  Span copy = span;
  copy.tid = buffer->tid;
  buffer->spans.push_back(copy);
}

std::map<std::string, std::vector<int64_t>> Tracer::DurationsByName() const {
  // Keyed by the name pointer first: spans share a few interned names.
  std::map<const char*, std::vector<int64_t>> by_pointer;
  ForEachSpan([&by_pointer](const Span& span) {
    by_pointer[span.name].push_back(span.end_ns - span.start_ns);
  });
  std::map<std::string, std::vector<int64_t>> out;
  for (auto& [name, durations] : by_pointer) {
    std::vector<int64_t>& into = out[name];
    into.insert(into.end(), durations.begin(), durations.end());
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              size_t max_events) const {
  std::vector<const Span*> spans;
  ForEachSpan([&spans](const Span& span) { spans.push_back(&span); });
  auto earlier = [](const Span* a, const Span* b) {
    return a->start_ns < b->start_ns;
  };
  if (spans.size() > max_events) {
    std::nth_element(spans.begin(), spans.begin() + max_events, spans.end(),
                     earlier);
    spans.resize(max_events);
  }
  std::sort(spans.begin(), spans.end(), earlier);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front()->start_ns;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = *spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"id\": %lld, \"parent\": %lld, \"op\": %lld}}",
                 i == 0 ? "" : ",\n", s.name, Layer(s.name).c_str(),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.op));
  }
  std::fprintf(f, "\n], \"displayTimeUnit\": \"ns\"}\n");
  return std::fclose(f) == 0;
}

std::string Tracer::SelfTimeTable() const {
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  ForEachSpan([&children](const Span& s) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  });
  struct Row {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    std::vector<int64_t> durations;
  };
  std::map<std::string, Row> by_layer;
  std::map<std::string, Row> by_name;
  int64_t all_self = 0;
  ForEachSpan([&](const Span& s) {
    int64_t total = s.end_ns - s.start_ns;
    auto it = children.find(s.id);
    int64_t self =
        total - (it == children.end()
                     ? 0
                     : CoveredNs(it->second, s.start_ns, s.end_ns));
    for (Row* row : {&by_layer[Layer(s.name)], &by_name[s.name]}) {
      ++row->count;
      row->total_ns += total;
      row->self_ns += self;
    }
    by_name[s.name].durations.push_back(total);
    all_self += self;
  });
  std::string out;
  char line[256];
  auto emit = [&](const char* title, std::map<std::string, Row>& rows,
                  bool percentiles) {
    std::snprintf(line, sizeof(line), "%-28s %10s %12s %12s %7s%s\n", title,
                  "spans", "total_ms", "self_ms", "self%",
                  percentiles ? "    p50_us    p99_us" : "");
    out += line;
    for (auto& [name, row] : rows) {
      std::snprintf(line, sizeof(line), "%-28s %10lld %12.3f %12.3f %6.1f%%",
                    name.c_str(), static_cast<long long>(row.count),
                    static_cast<double>(row.total_ns) / 1e6,
                    static_cast<double>(row.self_ns) / 1e6,
                    all_self > 0 ? 100.0 * static_cast<double>(row.self_ns) /
                                       static_cast<double>(all_self)
                                 : 0.0);
      out += line;
      if (percentiles) {
        std::snprintf(line, sizeof(line), " %9.2f %9.2f",
                      Percentile(&row.durations, 0.5) / 1e3,
                      Percentile(&row.durations, 0.99) / 1e3);
        out += line;
      }
      out += "\n";
    }
  };
  emit("layer", by_layer, false);
  out += "\n";
  emit("span", by_name, true);
  return out;
}

ScopedSpan::ScopedSpan(const char* name, int64_t op, int64_t parent)
    : tracer_(ActiveTracer()) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.op = op >= 0 || parent >= 0 ? op : t_current_op;
  span_.id = tracer_->NewId();
  span_.parent = parent >= 0 ? parent : t_current;
  saved_current_ = t_current;
  saved_op_ = t_current_op;
  t_current = span_.id;
  t_current_op = span_.op;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  t_current = saved_current_;
  t_current_op = saved_op_;
  tracer_->Record(span_);
}

}  // namespace perfbench
