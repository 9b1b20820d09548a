// Shared pieces of the benchmark program: run configuration, the result a
// run prints, raw-sample statistics, the op meter behind the end-to-end
// metrics, a seeded generator, and the benchmark's own predicate type with
// an evaluator that shares no code with the program's Predicate::Eval.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "predicate/predicate.h"
#include "predicate/value.h"

namespace perfbench {

using nonserial::EntityId;
using nonserial::Value;
using nonserial::ValueVector;

class Tracer;

/// Command-line configuration of one run.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its Chrome trace (empty: not written).
  std::string trace_path;
};

/// Monotonic clock in nanoseconds.
int64_t NowNs();
/// Process CPU time (user + sys, all threads) in nanoseconds.
int64_t CpuNs();
/// Resident set size of the process now, in MB (VmRSS). Falls back to the
/// peak (ru_maxrss) where /proc is not readable; Linux carries ru_maxrss
/// across exec, so that would include the launcher's.
double ResidentMb();
/// Steady-clock time at process start (captured before main).
int64_t ProcessStartNs();

/// Percentile q in [0, 1] of raw samples, by linear interpolation between
/// the two nearest ranks. Sorts `samples` in place; 0 when empty.
double Percentile(std::vector<int64_t>* samples, double q);

/// SplitMix64: small, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi);

 private:
  uint64_t state_;
};

/// One metric as printed: value and unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: the last line of standard output.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Check failures (printed to stderr; any one makes correct false).
  std::vector<std::string> errors;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::vector<std::string> more);
  std::string ToJson() const;
};

/// Accumulates the end-to-end measurements of a run, round by round: the
/// op latency samples, and the wall and CPU time of the timed windows (the
/// parts of a round between its first op's start and its last op's end;
/// engine set-up, teardown and the correctness checks lie outside them).
///
/// Each metric is computed per round and reported as the mean over the
/// run's rounds with the fastest and slowest tenth left out. Each of the
/// host's vCPUs switches between a fast and a slow speed, about 1.5x
/// apart, in phases of seconds. A median over rounds jumps from one speed
/// to the other as the share of slow rounds crosses one half; a mean
/// moves with that share smoothly, and the trim drops the odd stalled
/// round.
class Meter {
 public:
  void BeginWindow();
  void EndWindow();
  /// Thread-safe; `ns` is one op's latency, added to the current round.
  void AddOps(const std::vector<int64_t>& ns);
  void AddOp(int64_t ns);
  /// Closes the current round.
  void EndRound();

  /// Trimmed mean over the closed rounds of ops per second of window time.
  double Rate() const;
  /// Appends the six end-to-end metrics; setup_ns is process start to the
  /// first timed op. peak_rss_mb is the largest resident set seen at the
  /// end of a timed window, when a round's history is at its largest; the
  /// process's own high-water mark would also hold the checks' memory.
  void Report(int64_t setup_ns, Result* out);

 private:
  struct Round {
    double rate = 0;        ///< Ops per second of window time.
    double p50_us = 0;
    double p90_us = 0;
    double cpu_us_per_op = 0;
    double p99_us = 0;  ///< Reference only.
  };

  std::mutex mu_;
  std::vector<int64_t> samples_;  ///< The current round's latencies.
  int64_t ops_ = 0;
  std::vector<Round> rounds_;
  int64_t window_ns_ = 0;
  int64_t window_cpu_ns_ = 0;
  int64_t open_ns_ = 0;
  int64_t open_cpu_ns_ = 0;
  /// Largest ResidentMb() seen at the end of a timed window.
  double peak_rss_mb_ = 0;
};

/// Moves the calling thread round-robin over the CPUs the process may run
/// on, one CPU per call to Next(), and gives it back the whole set when
/// destroyed. The single-threaded workloads call Next() between their
/// timed ops: each vCPU of the host switches between a fast and a slow
/// speed on its own (see Meter), so a thread that stays on one vCPU for a
/// run measures that vCPU's phases, and one that visits all of them
/// measures their average. Only the calling thread moves; threads it
/// starts while pinned inherit its one CPU, so start them before the
/// first Next().
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// The benchmark's own predicate: a conjunction of clauses, each a
/// disjunction of entity-vs-constant atoms. Workloads build their I_t/O_t
/// here, hand the program the converted Predicate, and check outcomes with
/// Holds() — never with the program's evaluator.
struct Cmp {
  EntityId entity = 0;
  nonserial::CompareOp op = nonserial::CompareOp::kGe;
  Value constant = 0;
};
struct SimplePred {
  std::vector<std::vector<Cmp>> clauses;

  /// True iff every clause has an atom that holds. `value_of(e)` supplies
  /// entity values; it returns false when the entity has no value, which
  /// makes the predicate false.
  template <typename ValueOf>
  bool Holds(ValueOf&& value_of) const {
    for (const std::vector<Cmp>& clause : clauses) {
      bool any = false;
      for (const Cmp& atom : clause) {
        Value v = 0;
        if (!value_of(atom.entity, &v)) return false;
        if (Compare(v, atom.op, atom.constant)) {
          any = true;
          break;
        }
      }
      if (!any) return false;
    }
    return true;
  }
  /// Holds() over a list of (entity, value) pairs.
  bool HoldsOn(const std::vector<std::pair<EntityId, Value>>& values) const;
  /// Holds() over a full vector indexed by entity.
  bool HoldsOnVector(const ValueVector& values) const;
  nonserial::Predicate ToPredicate() const;

  static bool Compare(Value lhs, nonserial::CompareOp op, Value rhs);
};

/// Process-wide trace sink; null unless the run is traced.
Tracer* ActiveTracer();
void SetActiveTracer(Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
