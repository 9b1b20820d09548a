// Pieces shared by the two engine workloads (serial_history, wire_shared):
// the transfer transactions they run, the client-side transaction body
// (identical over a Session and over a wire Client), and the end-of-round
// bookkeeping that reads the program's records, recovers the WAL and
// gathers the per-layer counters.
#ifndef PERFBENCH_ENGINE_ROUNDS_H_
#define PERFBENCH_ENGINE_ROUNDS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "common/metrics.h"
#include "common/status.h"
#include "engine/engine.h"
#include "storage/wal.h"
#include "trace.h"

namespace perfbench {

/// One transfer: read x and y, move min(x, amount) from x to y. I_t and
/// O_t are both "x >= 0 and y >= 0"; the constraint is "every entity >= 0".
struct TransferTx {
  EntityId x = 0;
  EntityId y = 0;
  Value amount = 0;
  SimplePred input;
  SimplePred output;
  nonserial::engine::TxSpec spec;  ///< The program's view of the same.
};

/// `count` transfers over entities [first, first + num_entities), drawn
/// from `rng`.
std::vector<TransferTx> MakeTransfers(Rng* rng, int count, int first,
                                      int num_entities);
/// The constraint "every entity >= 0" over `num_entities` entities.
SimplePred NonNegativeConstraint(int num_entities);

/// Runs the read/read/write/write/commit body of `tx` on an open
/// transaction of `handle`, an adapter over an engine Session or a wire
/// Client (both speak the same Status vocabulary) that also records the
/// call's span. Records reads and writes in *log. A non-OK status ends the
/// attempt (kAborted: the caller retries).
template <typename Handle>
nonserial::Status RunTransferBody(Handle* handle, const TransferTx& tx,
                                  TxLog* log) {
  log->reads.clear();
  log->writes.clear();
  Value read[2] = {0, 0};
  const EntityId entities[2] = {tx.x, tx.y};
  for (int i = 0; i < 2; ++i) {
    nonserial::StatusOr<Value> v = handle->Read(entities[i]);
    if (!v.ok()) return v.status();
    read[i] = *v;
    log->reads.push_back({entities[i], *v});
  }
  Value moved = read[0] < tx.amount ? read[0] : tx.amount;
  const Value written[2] = {read[0] - moved, read[1] + moved};
  for (int i = 0; i < 2; ++i) {
    nonserial::Status s = handle->Write(entities[i], written[i]);
    if (!s.ok()) return s;
    log->writes.push_back({entities[i], written[i]});
  }
  return handle->Commit();
}

/// Per-layer counters summed over the rounds of a traced phase.
struct RoundCounters {
  int64_t rounds = 0;
  int64_t ops = 0;
  int64_t attempts = 0;
  int64_t live_txs_end = 0;
  int64_t versions_end = 0;
  int64_t wal_bytes = 0;
  int64_t wal_records = 0;
  int64_t wal_device_flushes = 0;
  int64_t wal_group_commits = 0;
  int64_t wal_group_batches = 0;
  int64_t wal_stalls = 0;
  int64_t recover_records = 0;
  std::vector<int64_t> recover_ns;
  /// First and last tenth of each round's op latencies.
  std::vector<int64_t> first_tenth_ns;
  std::vector<int64_t> last_tenth_ns;
};

/// After Engine::Shutdown: fills the program-reported parts of *log
/// (records, final snapshot, recovery) and adds the round's counters.
void CloseRound(nonserial::Engine* engine,
                const nonserial::CorrectExecutionProtocol* cep,
                const nonserial::WriteAheadLog* wal,
                const std::vector<int64_t>& op_ns, EngineRoundLog* log,
                RoundCounters* counters);

/// Appends the per-layer metrics every engine workload reports.
void ReportEngineLayers(const RoundCounters& counters,
                        const nonserial::ProtocolMetrics& metrics,
                        const std::map<std::string, std::vector<int64_t>>& spans,
                        Result* out);

/// Median duration in microseconds of the spans named `name` (0 if none).
double SpanP50Us(const std::map<std::string, std::vector<int64_t>>& spans,
                 const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_ROUNDS_H_
