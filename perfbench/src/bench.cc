#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {
namespace {

// Captured during static initialization, before main runs, so setup_s
// covers everything the process does before its first timed op.
const int64_t kProcessStartNs = NowNs();

Tracer* g_tracer = nullptr;

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double ResidentMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  long kib = -1;
  if (status != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmRSS: %ld kB", &kib) == 1) break;
    }
    std::fclose(status);
  }
  if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

int64_t ProcessStartNs() { return kProcessStartNs; }

double Percentile(std::vector<int64_t>* samples, double q) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  double rank = q * static_cast<double>(samples->size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, samples->size() - 1);
  double frac = rank - static_cast<double>(lo);
  return static_cast<double>((*samples)[lo]) * (1 - frac) +
         static_cast<double>((*samples)[hi]) * frac;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int64_t Rng::Range(int64_t lo, int64_t hi) {
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

void Result::Fail(std::vector<std::string> more) {
  for (std::string& line : more) errors.push_back(std::move(line));
  if (!errors.empty()) correct = false;
}

std::string Result::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + FormatNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void Meter::BeginWindow() {
  open_cpu_ns_ = CpuNs();
  open_ns_ = NowNs();
}

void Meter::EndWindow() {
  window_ns_ += NowNs() - open_ns_;
  window_cpu_ns_ += CpuNs() - open_cpu_ns_;
  peak_rss_mb_ = std::max(peak_rss_mb_, ResidentMb());
}

void Meter::AddOps(const std::vector<int64_t>& ns) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.insert(samples_.end(), ns.begin(), ns.end());
}

void Meter::AddOp(int64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back(ns);
}

void Meter::EndRound() {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty() || window_ns_ <= 0) return;
  double ops = static_cast<double>(samples_.size());
  Round round;
  round.rate = ops * 1e9 / static_cast<double>(window_ns_);
  round.p50_us = Percentile(&samples_, 0.50) / 1e3;
  round.p90_us = Percentile(&samples_, 0.90) / 1e3;
  round.cpu_us_per_op = static_cast<double>(window_cpu_ns_) / 1e3 / ops;
  round.p99_us = Percentile(&samples_, 0.99) / 1e3;
  rounds_.push_back(round);
  ops_ += static_cast<int64_t>(samples_.size());
  // Only per-round figures are kept, so the benchmark's own memory does not
  // grow with the number of ops a run completes (peak_rss_mb is a metric).
  samples_.clear();
  window_ns_ = 0;
  window_cpu_ns_ = 0;
}

namespace {

/// Mean without the lowest and highest tenth of the values.
double TrimmedMean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t cut = values.size() / 10;
  double sum = 0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

}  // namespace

double Meter::Rate() const {
  std::vector<double> rates;
  for (const Round& r : rounds_) rates.push_back(r.rate);
  return TrimmedMean(rates);
}

void Meter::Report(int64_t setup_ns, Result* out) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> p50, p90, cpu, p99;
  for (const Round& r : rounds_) {
    p50.push_back(r.p50_us);
    p90.push_back(r.p90_us);
    cpu.push_back(r.cpu_us_per_op);
    p99.push_back(r.p99_us);
  }
  out->Add("setup_s", static_cast<double>(setup_ns) / 1e9, "s");
  out->Add("ops_per_s", Rate(), "op/s");
  out->Add("op_p50_us", TrimmedMean(p50), "us");
  out->Add("op_p90_us", TrimmedMean(p90), "us");
  out->Add("cpu_us_per_op", TrimmedMean(cpu), "us");
  out->Add("peak_rss_mb", peak_rss_mb_, "MB");
  // Reference figures, not metrics: the tail is too jumpy to gate on.
  std::fprintf(stderr, "reference: rounds=%zu ops=%lld op_p99_us=%.3f\n",
               rounds_.size(), static_cast<long long>(ops_), TrimmedMean(p99));
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  for (int cpu : cpus_) CPU_SET(cpu, &allowed);
  sched_setaffinity(0, sizeof(allowed), &allowed);
}

void CpuRotation::Next() {
  // Nothing to rotate over, or the affinity cannot be read: stay put.
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

bool SimplePred::Compare(Value lhs, nonserial::CompareOp op, Value rhs) {
  using nonserial::CompareOp;
  switch (op) {
    case CompareOp::kEq: return lhs == rhs;
    case CompareOp::kNe: return lhs != rhs;
    case CompareOp::kLt: return lhs < rhs;
    case CompareOp::kLe: return lhs <= rhs;
    case CompareOp::kGt: return lhs > rhs;
    case CompareOp::kGe: return lhs >= rhs;
  }
  return false;
}

bool SimplePred::HoldsOn(
    const std::vector<std::pair<EntityId, Value>>& values) const {
  return Holds([&values](EntityId e, Value* out) {
    // The last pair for an entity wins (a later write overlays a read).
    bool found = false;
    for (const auto& [entity, value] : values) {
      if (entity == e) {
        *out = value;
        found = true;
      }
    }
    return found;
  });
}

bool SimplePred::HoldsOnVector(const ValueVector& values) const {
  return Holds([&values](EntityId e, Value* out) {
    if (e < 0 || static_cast<size_t>(e) >= values.size()) return false;
    *out = values[e];
    return true;
  });
}

nonserial::Predicate SimplePred::ToPredicate() const {
  nonserial::Predicate p;
  for (const std::vector<Cmp>& clause : clauses) {
    nonserial::Clause c;
    for (const Cmp& atom : clause) {
      c.AddAtom(nonserial::EntityVsConst(atom.entity, atom.op, atom.constant));
    }
    p.AddClause(std::move(c));
  }
  return p;
}

Tracer* ActiveTracer() { return g_tracer; }
void SetActiveTracer(Tracer* tracer) { g_tracer = tracer; }

}  // namespace perfbench
