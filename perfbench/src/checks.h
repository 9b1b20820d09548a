// Correctness checks the benchmark makes on every run, computed apart from
// the program: the checks read plain records of what the clients saw and
// what the program reported, and use only the benchmark's own evaluator
// (SimplePred) and graph code. Each check is a separate function so the
// self-test can show that each one rejects a corrupted record.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "classes/recognizers.h"
#include "scenario/scenario.h"
#include "schedule/schedule.h"

namespace perfbench {

using Pairs = std::vector<std::pair<EntityId, Value>>;

/// One acknowledged transaction as its client saw it, plus what the
/// program's controller recorded for it.
struct TxLog {
  int tx = -1;
  SimplePred input;
  SimplePred output;
  Pairs reads;   ///< Values the client read, in program order.
  Pairs writes;  ///< Values the client wrote, in program order.
  /// records()[tx].input_state at each read entity (parallel to reads).
  std::vector<Value> record_reads;
  bool record_committed = false;
};

/// One round of an engine workload.
struct EngineRoundLog {
  bool serial = false;  ///< One session: commit order is ack order.
  ValueVector initial;
  SimplePred constraint;
  std::vector<TxLog> acked;  ///< In acknowledgement order.
  ValueVector final_snapshot;
  /// WriteAheadLog::Recover() at round end.
  bool recover_ok = false;
  std::vector<std::pair<int, Pairs>> recovered;  ///< (tx, writes).
  ValueVector recovered_snapshot;
};

std::vector<std::string> CheckReadsMatchRecords(const EngineRoundLog& log);
std::vector<std::string> CheckSpecsHold(const EngineRoundLog& log);
std::vector<std::string> CheckReadsFromAcknowledged(const EngineRoundLog& log);
std::vector<std::string> CheckFinalConstraint(const EngineRoundLog& log);
std::vector<std::string> CheckRecovery(const EngineRoundLog& log);
std::vector<std::string> CheckFinalIsLastWrite(const EngineRoundLog& log);
/// Every check that applies to the round.
std::vector<std::string> CheckEngineRound(const EngineRoundLog& log);

/// One interleaving of a generated spec run under one protocol.
struct SpecRunLog {
  std::string protocol;
  std::vector<nonserial::scenario::Verdict> verdicts;
  std::vector<nonserial::Op> history;  ///< Committed steps, tx = session.
  nonserial::ClassMembership classes;
  bool classes_exact = true;
  /// Values each session read and wrote (from the runner's step log).
  std::vector<Pairs> reads;
  std::vector<Pairs> writes;
};

/// The all-interleavings sweep of one generated spec.
struct SpecSweepLog {
  std::vector<int> steps_per_session;
  std::vector<std::vector<nonserial::scenario::StepRef>> interleavings;
  bool truncated = false;
  std::vector<SimplePred> inputs;   ///< I_t per session.
  std::vector<SimplePred> outputs;  ///< O_t per session.
  std::vector<SpecRunLog> runs;
};

std::vector<std::string> CheckInterleavings(const SpecSweepLog& log);
std::vector<std::string> CheckS2plCsr(const SpecSweepLog& log);
std::vector<std::string> CheckCepSpecs(const SpecSweepLog& log);
std::vector<std::string> CheckContainments(const SpecSweepLog& log);
std::vector<std::string> CheckSpecSweep(const SpecSweepLog& log);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
