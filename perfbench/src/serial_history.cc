// serial_history: one in-process Session in a closed loop with no think
// time, on a fresh engine per round with default EngineOptions (retirement
// off, as shipped) and an in-memory WAL in sync mode with no simulated
// flush. Nothing waits, so the controller's scan set and the version
// chains grow with every commit of the round: protocol and storage costs
// dominate, and the server and group commit are idle. Each round runs on
// the next CPU of the process (CpuRotation).
#include <memory>

#include "engine_rounds.h"
#include "timed_controller.h"
#include "workloads.h"

namespace perfbench {
namespace {

using nonserial::Engine;
using nonserial::EngineOptions;
using nonserial::StatusCode;

constexpr int kEntities = 64;
constexpr int kTxPerRound = 500;
constexpr Value kInitialValue = 1000;

/// The Session calls of the transaction body, each in an engine.* span.
class SessionHandle {
 public:
  explicit SessionHandle(nonserial::Session* session) : session_(session) {}
  nonserial::Status Begin(const nonserial::engine::TxSpec& spec) {
    ScopedSpan span("engine.begin");
    return session_->Begin(spec);
  }
  nonserial::StatusOr<Value> Read(EntityId e) {
    ScopedSpan span("engine.read");
    return session_->Read(e);
  }
  nonserial::Status Write(EntityId e, Value value) {
    ScopedSpan span("engine.write");
    return session_->Write(e, value);
  }
  nonserial::Status Commit() {
    ScopedSpan span("engine.commit");
    return session_->Commit();
  }

 private:
  nonserial::Session* session_;
};

class SerialHistory : public Workload {
 public:
  explicit SerialHistory(int tx_per_round) : tx_per_round_(tx_per_round) {}

  void Setup(uint64_t seed) override {
    Rng rng(seed);
    txs_ = MakeTransfers(&rng, tx_per_round_, 0, kEntities);
    initial_.assign(kEntities, kInitialValue);
    constraint_ = NonNegativeConstraint(kEntities);
  }

  void Run(double seconds, Meter* meter, Result* result) override {
    traced_ = ActiveTracer() != nullptr;
    counters_ = RoundCounters{};
    metrics_ = std::make_unique<nonserial::ProtocolMetrics>();
    CpuRotation rotation;
    int64_t start = NowNs();
    do {
      rotation.Next();
      EngineRoundLog log;
      std::vector<int64_t> op_ns;
      RunRound(meter, result, &log, &op_ns);
      result->Fail(CheckEngineRound(log));
      meter->AddOps(op_ns);
      meter->EndRound();
    } while (static_cast<double>(NowNs() - start) < seconds * 1e9);
  }

  void ReportLayers(const SpanDurations& spans, Result* out) override {
    ReportEngineLayers(counters_, *metrics_, spans, out);
  }

  /// One round; fills *log (checked by the caller) and the op latencies.
  void RunRound(Meter* meter, Result* result, EngineRoundLog* log,
                std::vector<int64_t>* op_ns) {
    nonserial::WriteAheadLog wal(initial_);
    EngineOptions options;
    options.initial = initial_;
    options.wal = &wal;
    TimedController* timed = nullptr;
    if (traced_) {
      options.protocol.metrics = metrics_.get();
      nonserial::CorrectExecutionProtocol::Options protocol = options.protocol;
      int max_tx = tx_per_round_ + 1;
      options.controller_factory = [protocol, max_tx,
                                    &timed](nonserial::VersionStore* store) {
        auto owned = std::make_unique<TimedController>(
            std::make_unique<nonserial::CorrectExecutionProtocol>(store,
                                                                  protocol),
            max_tx);
        timed = owned.get();
        return owned;
      };
    }
    Engine engine(std::move(options));
    std::unique_ptr<nonserial::Session> session = engine.OpenSession();
    SessionHandle handle(session.get());

    log->serial = true;
    log->initial = initial_;
    log->constraint = constraint_;
    log->acked.resize(txs_.size());
    for (size_t i = 0; i < txs_.size(); ++i) {
      log->acked[i].input = txs_[i].input;
      log->acked[i].output = txs_[i].output;
      log->acked[i].reads.reserve(2);
      log->acked[i].writes.reserve(2);
    }
    op_ns->reserve(txs_.size());

    meter->BeginWindow();
    for (size_t i = 0; i < txs_.size(); ++i) {
      ++result->attempted;
      int64_t t0 = NowNs();
      MarkFirstOp(t0);
      nonserial::Status status;
      {
        ScopedSpan op("op", static_cast<int64_t>(i));
        // An aborted attempt is retried and counted in the op's time.
        do {
          ++counters_.attempts;
          status = handle.Begin(txs_[i].spec);
          if (status.ok()) {
            status = RunTransferBody(&handle, txs_[i], &log->acked[i]);
          }
        } while (status.code() == StatusCode::kAborted);
      }
      if (!status.ok()) {
        ++result->failed;
        continue;
      }
      op_ns->push_back(NowNs() - t0);
      log->acked[i].tx = session->tx();
    }
    meter->EndWindow();
    // Ops that failed were never acknowledged.
    std::erase_if(log->acked, [](const TxLog& t) { return t.tx < 0; });

    session.reset();
    engine.Shutdown();
    if (timed != nullptr && timed->out_of_range() > 0) {
      result->Fail({"serial_history: " +
                    std::to_string(timed->out_of_range()) +
                    " controller calls on tx ids beyond the timing "
                    "decorator's range"});
    }
    const nonserial::CorrectExecutionProtocol* cep =
        timed != nullptr ? timed->inner() : engine.cep();
    CloseRound(&engine, cep, &wal, *op_ns, log,
               traced_ ? &counters_ : nullptr);
  }

 private:
  int tx_per_round_;
  std::vector<TransferTx> txs_;
  ValueVector initial_;
  SimplePred constraint_;
  bool traced_ = false;
  RoundCounters counters_;
  std::unique_ptr<nonserial::ProtocolMetrics> metrics_;
};

}  // namespace

std::unique_ptr<Workload> MakeSerialHistory() {
  return std::make_unique<SerialHistory>(kTxPerRound);
}

EngineRoundLog SerialHistorySampleRound(uint64_t seed) {
  SerialHistory workload(/*tx_per_round=*/200);
  workload.Setup(seed);
  Meter meter;
  Result result;
  EngineRoundLog log;
  std::vector<int64_t> op_ns;
  workload.RunRound(&meter, &result, &log, &op_ns);
  return log;
}

}  // namespace perfbench
