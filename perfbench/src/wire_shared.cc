// wire_shared: three client threads in a closed loop over loopback TCP to
// a SessionServer in the same process (as many workers as clients), on a
// fresh engine and server per round. All clients transfer on one hot set
// of eight entities, so reads meet W locks and commits wait. Rounds run
// with retire_terminated_tx on, as a long-lived server runs today, and WAL
// group commit with a simulated device flush. Wire decode and encode,
// queueing, worker handoff and group commit dominate while the
// controller's scan set stays short.
#include <algorithm>
#include <barrier>
#include <memory>
#include <thread>

#include "engine_rounds.h"
#include "server/client.h"
#include "server/server.h"
#include "timed_controller.h"
#include "workloads.h"

namespace perfbench {
namespace {

using nonserial::Engine;
using nonserial::EngineOptions;
using nonserial::StatusCode;

/// Three connections keep one core free on a four-core host for the
/// server's event loop and the WAL writer.
constexpr int kClients = 3;
constexpr int kEntities = 8;
constexpr int kTxPerClient = 300;
constexpr Value kInitialValue = 1000;
constexpr int64_t kFlushUs = 50;
/// Bounds a parked wait so a stuck round aborts instead of hanging.
constexpr int64_t kMaxBlockedUs = 2'000'000;
constexpr int kPingsPerClient = 20;
/// Tx ids the timing decorator keeps per op (each attempt takes one); a
/// traced round that uses more fails.
constexpr int kMaxAttemptsPerOp = 8;

/// Client calls of the transaction body, each in a server.* span. In a
/// traced round it also names the client span as the parent of the
/// controller spans the request causes on the server, and records the
/// request's round trip minus that controller time.
class WireHandle {
 public:
  WireHandle(nonserial::Client* client, TimedController* timed,
             std::vector<int64_t>* unattributed)
      : client_(client), timed_(timed), unattributed_(unattributed) {}

  void set_op(int64_t op) { op_ = op; }
  int tx() const { return tx_; }

  nonserial::Status Begin(const TransferTx& tx) {
    ScopedSpan span("server.begin", op_);
    int64_t start = NowNs();
    nonserial::StatusOr<int> id =
        client_->Begin(tx.spec.name, {}, tx.spec.input, tx.spec.output);
    if (!id.ok()) return id.status();
    tx_ = *id;
    Attribute(start);
    return nonserial::Status::OK();
  }
  nonserial::StatusOr<Value> Read(EntityId e) {
    return Call("server.read", [&] { return client_->Read(e); });
  }
  nonserial::Status Write(EntityId e, Value value) {
    return Call("server.write", [&] { return client_->Write(e, value); });
  }
  nonserial::Status Commit() {
    return Call("server.commit", [&] { return client_->Commit(); });
  }

 private:
  template <typename F>
  auto Call(const char* name, F&& call) -> decltype(call()) {
    ScopedSpan span(name, op_);
    if (timed_ != nullptr) timed_->SetRequest(tx_, span.id(), op_);
    int64_t start = NowNs();
    auto result = call();
    Attribute(start);
    return result;
  }
  void Attribute(int64_t start) {
    if (timed_ == nullptr || tx_ < 0) return;
    int64_t rtt = NowNs() - start;
    unattributed_->push_back(rtt - timed_->TakeControllerNs(tx_));
  }

  nonserial::Client* client_;
  TimedController* timed_;
  std::vector<int64_t>* unattributed_;
  int64_t op_ = -1;
  int tx_ = -1;
};

/// What one client thread did in a round.
struct ClientRound {
  std::vector<TxLog> acked;
  std::vector<int64_t> op_ns;
  std::vector<int64_t> unattributed_ns;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t attempts = 0;
};

class WireShared : public Workload {
 public:
  explicit WireShared(int tx_per_client) : tx_per_client_(tx_per_client) {}

  void Setup(uint64_t seed) override {
    Rng rng(seed);
    for (int c = 0; c < kClients; ++c) {
      txs_[c] = MakeTransfers(&rng, tx_per_client_, 0, kEntities);
    }
    initial_.assign(kEntities, kInitialValue);
    constraint_ = NonNegativeConstraint(kEntities);
  }

  void Run(double seconds, Meter* meter, Result* result) override {
    traced_ = ActiveTracer() != nullptr;
    counters_ = RoundCounters{};
    metrics_ = std::make_unique<nonserial::ProtocolMetrics>();
    unattributed_ns_.clear();
    ping_ns_.clear();
    int64_t start = NowNs();
    do {
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
    for (const char* call : {"begin", "read", "write", "commit", "ping"}) {
      std::string name = std::string("server.") + call;
      out->Add(name + "_rtt_us", SpanP50Us(spans, name), "us");
    }
    std::vector<int64_t> ping = ping_ns_;
    std::vector<int64_t> unattributed = unattributed_ns_;
    out->Add("server.unattributed_us",
             (Percentile(&unattributed, 0.5) - Percentile(&ping, 0.5)) / 1e3,
             "us");
    out->Add("server.queue_depth_max",
             static_cast<double>(metrics_->server_queue_depth.max()), "count");
    out->Add("server.requests_per_op",
             counters_.ops > 0
                 ? static_cast<double>(metrics_->server_requests.value()) /
                       static_cast<double>(counters_.ops)
                 : 0,
             "ratio");
  }

  void RunRound(Meter* meter, Result* result, EngineRoundLog* log,
                std::vector<int64_t>* op_ns) {
    nonserial::WriteAheadLog wal(initial_);
    EngineOptions options;
    options.initial = initial_;
    options.wal = &wal;
    options.wal_group_commit = true;
    options.wal_flush_us = kFlushUs;
    options.retire_terminated_tx = true;
    options.max_blocked_us = kMaxBlockedUs;
    TimedController* timed = nullptr;
    if (traced_) {
      options.protocol.metrics = metrics_.get();
      nonserial::CorrectExecutionProtocol::Options protocol = options.protocol;
      // The engine turns this on only for the controller it builds itself.
      protocol.retirement = true;
      // Every attempt takes a fresh tx id, retries included.
      int max_tx = kMaxAttemptsPerOp * kClients * (tx_per_client_ + 1);
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
    nonserial::ServerOptions server_options;
    server_options.num_workers = kClients;
    nonserial::SessionServer server(&engine, server_options);
    nonserial::Status started = server.Start();
    std::vector<std::unique_ptr<nonserial::Client>> clients;
    for (int c = 0; started.ok() && c < kClients; ++c) {
      clients.push_back(std::make_unique<nonserial::Client>());
      started = clients.back()->Connect("127.0.0.1", server.port());
    }
    if (!started.ok()) {
      result->attempted += kClients * tx_per_client_;
      result->failed += kClients * tx_per_client_;
      result->Fail({"wire_shared: server start failed: " + started.message()});
      return;
    }

    std::vector<ClientRound> rounds(kClients);
    // The window opens once every client is connected and ready.
    std::barrier ready(kClients + 1);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ready.arrive_and_wait();
        RunClient(c, clients[c].get(), timed, &rounds[c]);
      });
    }
    meter->BeginWindow();
    MarkFirstOp(NowNs());
    ready.arrive_and_wait();
    for (std::thread& t : threads) t.join();
    meter->EndWindow();

    if (traced_) {
      for (auto& client : clients) {
        for (int i = 0; i < kPingsPerClient; ++i) {
          ScopedSpan span("server.ping");
          int64_t start = NowNs();
          if (client->Ping(i).ok()) ping_ns_.push_back(NowNs() - start);
        }
      }
    }
    for (auto& client : clients) client->Disconnect();
    server.Stop();
    engine.Shutdown();

    log->serial = false;
    log->initial = initial_;
    log->constraint = constraint_;
    for (ClientRound& r : rounds) {
      result->attempted += r.attempted;
      result->failed += r.failed;
      counters_.attempts += traced_ ? r.attempts : 0;
      op_ns->insert(op_ns->end(), r.op_ns.begin(), r.op_ns.end());
      for (TxLog& t : r.acked) log->acked.push_back(std::move(t));
      unattributed_ns_.insert(unattributed_ns_.end(),
                              r.unattributed_ns.begin(),
                              r.unattributed_ns.end());
    }
    if (timed != nullptr && timed->out_of_range() > 0) {
      result->Fail({"wire_shared: " + std::to_string(timed->out_of_range()) +
                    " controller calls on tx ids beyond the timing "
                    "decorator's range"});
    }
    const nonserial::CorrectExecutionProtocol* cep =
        timed != nullptr ? timed->inner() : engine.cep();
    CloseRound(&engine, cep, &wal, *op_ns, log,
               traced_ ? &counters_ : nullptr);
  }

 private:
  void RunClient(int c, nonserial::Client* client, TimedController* timed,
                 ClientRound* out) {
    const std::vector<TransferTx>& txs = txs_[c];
    out->acked.resize(txs.size());
    for (size_t i = 0; i < txs.size(); ++i) {
      out->acked[i].input = txs[i].input;
      out->acked[i].output = txs[i].output;
      out->acked[i].reads.reserve(2);
      out->acked[i].writes.reserve(2);
    }
    out->op_ns.reserve(txs.size());
    WireHandle handle(client, timed, &out->unattributed_ns);
    for (size_t i = 0; i < txs.size(); ++i) {
      int64_t op = static_cast<int64_t>(c) * tx_per_client_ +
                   static_cast<int64_t>(i);
      handle.set_op(op);
      ++out->attempted;
      int64_t t0 = NowNs();
      nonserial::Status status;
      {
        ScopedSpan span("op", op);
        // An aborted attempt is retried and counted in the op's time.
        do {
          ++out->attempts;
          status = handle.Begin(txs[i]);
          if (status.ok()) {
            status = RunTransferBody(&handle, txs[i], &out->acked[i]);
          }
        } while (status.code() == StatusCode::kAborted);
      }
      if (!status.ok()) {
        ++out->failed;
        continue;
      }
      out->op_ns.push_back(NowNs() - t0);
      out->acked[i].tx = handle.tx();
    }
    // Ops that failed never got a tx id and are not acknowledged.
    std::erase_if(out->acked, [](const TxLog& t) { return t.tx < 0; });
  }

  int tx_per_client_;
  std::vector<TransferTx> txs_[kClients];
  ValueVector initial_;
  SimplePred constraint_;
  bool traced_ = false;
  RoundCounters counters_;
  std::unique_ptr<nonserial::ProtocolMetrics> metrics_;
  std::vector<int64_t> unattributed_ns_;
  std::vector<int64_t> ping_ns_;
};

}  // namespace

std::unique_ptr<Workload> MakeWireShared() {
  return std::make_unique<WireShared>(kTxPerClient);
}

EngineRoundLog WireSharedSampleRound(uint64_t seed) {
  WireShared workload(/*tx_per_client=*/60);
  workload.Setup(seed);
  Meter meter;
  Result result;
  EngineRoundLog log;
  std::vector<int64_t> op_ns;
  workload.RunRound(&meter, &result, &log, &op_ns);
  return log;
}

}  // namespace perfbench
