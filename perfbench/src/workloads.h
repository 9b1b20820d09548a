// The three workloads. Each runs whole rounds of identical, fixed work —
// a fresh engine per round for the engine workloads, one generated spec
// per round for spec_sweep — so a faster program does the same work per
// round, and never a longer history.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"

namespace perfbench {

using SpanDurations = std::map<std::string, std::vector<int64_t>>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from the seed (part of set-up).
  virtual void Setup(uint64_t seed) = 0;
  /// Runs whole rounds until `seconds` have passed. Op latencies and the
  /// timed windows go to *meter; attempted/failed ops and check failures
  /// to *result. When a tracer is active the round also gathers the
  /// per-layer counters that ReportLayers prints.
  virtual void Run(double seconds, Meter* meter, Result* result) = 0;
  /// Appends the per-layer metrics of the traced Run.
  virtual void ReportLayers(const SpanDurations& spans, Result* out) = 0;

  /// Start of the first timed op of the process (0 until it ran).
  int64_t first_op_ns() const { return first_op_ns_; }

 protected:
  void MarkFirstOp(int64_t ns) {
    if (first_op_ns_ == 0) first_op_ns_ = ns;
  }

 private:
  int64_t first_op_ns_ = 0;
};

std::unique_ptr<Workload> MakeSerialHistory();
std::unique_ptr<Workload> MakeWireShared();
std::unique_ptr<Workload> MakeSpecSweep();

/// One short real round of each workload, for the self-test.
EngineRoundLog SerialHistorySampleRound(uint64_t seed);
EngineRoundLog WireSharedSampleRound(uint64_t seed);
SpecSweepLog SpecSweepSampleSpec(uint64_t seed);

/// Self-test: runs a short real round of every workload, then corrupts one
/// field of its record per check and shows the check rejects it. Returns
/// the process exit code.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
