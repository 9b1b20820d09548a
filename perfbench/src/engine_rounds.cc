#include "engine_rounds.h"

#include <algorithm>
#include <map>

namespace perfbench {
namespace {

using nonserial::CompareOp;

double PerOp(double value, int64_t ops) {
  return ops > 0 ? value / static_cast<double>(ops) : 0;
}

}  // namespace

std::vector<TransferTx> MakeTransfers(Rng* rng, int count, int first,
                                      int num_entities) {
  std::vector<TransferTx> out(count);
  int last = first + num_entities - 1;
  for (int i = 0; i < count; ++i) {
    TransferTx& tx = out[i];
    tx.x = static_cast<EntityId>(rng->Range(first, last));
    do {
      tx.y = static_cast<EntityId>(rng->Range(first, last));
    } while (tx.y == tx.x);
    tx.amount = rng->Range(1, 9);
    for (EntityId e : {tx.x, tx.y}) {
      tx.input.clauses.push_back({Cmp{e, CompareOp::kGe, 0}});
      tx.output.clauses.push_back({Cmp{e, CompareOp::kGe, 0}});
    }
    tx.spec.name = "transfer";
    tx.spec.input = tx.input.ToPredicate();
    tx.spec.output = tx.output.ToPredicate();
  }
  return out;
}

SimplePred NonNegativeConstraint(int num_entities) {
  SimplePred p;
  for (EntityId e = 0; e < num_entities; ++e) {
    p.clauses.push_back({Cmp{e, CompareOp::kGe, 0}});
  }
  return p;
}

void CloseRound(nonserial::Engine* engine,
                const nonserial::CorrectExecutionProtocol* cep,
                const nonserial::WriteAheadLog* wal,
                const std::vector<int64_t>& op_ns, EngineRoundLog* log,
                RoundCounters* counters) {
  const auto& records = cep->records();
  for (TxLog& t : log->acked) {
    t.record_reads.clear();
    t.record_committed = t.tx >= 0 &&
                         static_cast<size_t>(t.tx) < records.size() &&
                         records[t.tx].committed;
    if (!t.record_committed) continue;
    const ValueVector& input = records[t.tx].input_state;
    for (const auto& [e, v] : t.reads) {
      if (e >= 0 && static_cast<size_t>(e) < input.size()) {
        t.record_reads.push_back(input[e]);
      }
    }
  }
  nonserial::VersionStore* store = engine->store();
  log->final_snapshot = store->LatestCommittedSnapshot();

  int64_t start = NowNs();
  nonserial::RecoveryResult recovered;
  {
    ScopedSpan span("storage.recover");
    recovered = wal->Recover();
  }
  int64_t recover_ns = NowNs() - start;
  log->recover_ok = recovered.status.ok() && recovered.store != nullptr;
  log->recovered.clear();
  for (const nonserial::RecoveredTx& tx : recovered.committed) {
    log->recovered.push_back({tx.tx, tx.writes});
  }
  if (recovered.store != nullptr) {
    log->recovered_snapshot = recovered.store->LatestCommittedSnapshot();
  }

  if (counters == nullptr) return;
  ++counters->rounds;
  counters->ops += static_cast<int64_t>(log->acked.size());
  counters->live_txs_end += static_cast<int64_t>(records.size()) -
                            cep->stats().retired;
  for (EntityId e = 0; e < store->num_entities(); ++e) {
    counters->versions_end += store->ChainSize(e);
  }
  nonserial::WalStats stats = wal->stats();
  counters->wal_bytes += stats.bytes;
  counters->wal_records += stats.total_records;
  counters->wal_device_flushes += stats.device_flushes;
  counters->wal_group_commits += stats.group_commit_commits;
  counters->wal_group_batches += stats.group_commit_batches;
  counters->wal_stalls += stats.group_commit_stalls;
  counters->recover_records += recovered.replayed_records;
  counters->recover_ns.push_back(recover_ns);
  size_t tenth = op_ns.size() / 10;
  if (tenth > 0) {
    counters->first_tenth_ns.insert(counters->first_tenth_ns.end(),
                                    op_ns.begin(), op_ns.begin() + tenth);
    counters->last_tenth_ns.insert(counters->last_tenth_ns.end(),
                                   op_ns.end() - tenth, op_ns.end());
  }
}

double SpanP50Us(const std::map<std::string, std::vector<int64_t>>& spans,
                 const std::string& name) {
  auto it = spans.find(name);
  if (it == spans.end()) return 0;
  std::vector<int64_t> durations = it->second;
  return Percentile(&durations, 0.5) / 1e3;
}

void ReportEngineLayers(const RoundCounters& c,
                        const nonserial::ProtocolMetrics& m,
                        const std::map<std::string, std::vector<int64_t>>& spans,
                        Result* out) {
  for (const char* call : {"begin", "read", "write", "commit"}) {
    std::string name = std::string("engine.") + call;
    out->Add(name + "_us", SpanP50Us(spans, name), "us");
  }
  out->Add("engine.attempts_per_commit",
           PerOp(static_cast<double>(c.attempts), c.ops), "ratio");
  out->Add("engine.parked_us_per_op",
           PerOp(static_cast<double>(m.wait_micros.sum()), c.ops), "us");
  std::vector<int64_t> first = c.first_tenth_ns;
  std::vector<int64_t> last = c.last_tenth_ns;
  double first_p50 = Percentile(&first, 0.5);
  out->Add("engine.history_growth",
           first_p50 > 0 ? Percentile(&last, 0.5) / first_p50 : 0, "ratio");

  for (const char* call : {"begin", "read", "write", "commit", "abort"}) {
    std::string name = std::string("protocol.") + call;
    out->Add(name + "_us", SpanP50Us(spans, name), "us");
  }
  out->Add("protocol.live_txs_end",
           PerOp(static_cast<double>(c.live_txs_end), c.rounds), "count");
  int64_t aborts = m.po_aborts.value() + m.cascade_aborts.value() +
                   m.output_aborts.value() + m.injected_aborts.value() +
                   m.deadline_aborts.value();
  const std::pair<const char*, int64_t> per_op[] = {
      {"protocol.validations_per_op", m.validations.value()},
      {"protocol.rescans_per_op", m.validation_rescans.value()},
      {"protocol.reevals_per_op", m.reevals.value()},
      {"protocol.reassigns_per_op", m.reassigns.value()},
      {"protocol.commit_waits_per_op", m.commit_waits.value()},
      {"protocol.aborts_per_op", aborts}};
  for (const auto& [name, count] : per_op) {
    out->Add(name, PerOp(static_cast<double>(count), c.ops), "ratio");
  }
  out->Add("predicate.search_nodes_per_validation", m.search_nodes.mean(),
           "ratio");

  out->Add("storage.versions_end",
           PerOp(static_cast<double>(c.versions_end), c.rounds), "count");
  out->Add("storage.wal_bytes_per_op",
           PerOp(static_cast<double>(c.wal_bytes), c.ops), "B");
  out->Add("storage.wal_records_per_op",
           PerOp(static_cast<double>(c.wal_records), c.ops), "ratio");
  // Group commit resolves commit acks per batch flush; sync mode pays one
  // device flush per commit.
  out->Add("storage.wal_commits_per_flush",
           c.wal_group_batches > 0
               ? PerOp(static_cast<double>(c.wal_group_commits),
                       c.wal_group_batches)
               : PerOp(static_cast<double>(c.ops), c.wal_device_flushes),
           "ratio");
  out->Add("storage.wal_stalls_per_op",
           PerOp(static_cast<double>(c.wal_stalls), c.ops), "ratio");
  std::vector<int64_t> recover = c.recover_ns;
  out->Add("storage.recover_ms", Percentile(&recover, 0.5) / 1e6, "ms");
  out->Add("storage.recover_records",
           PerOp(static_cast<double>(c.recover_records), c.rounds), "count");
}

}  // namespace perfbench
