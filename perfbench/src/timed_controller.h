// Timing decorator around a CorrectExecutionProtocol, installed through
// EngineOptions::controller_factory in traced runs. Every controller call
// is wrapped in a protocol.* span, and the controller time spent on each
// transaction is accumulated so a wire client can subtract it from the
// round trip of the request that caused it (server.unattributed_us).
#ifndef PERFBENCH_TIMED_CONTROLLER_H_
#define PERFBENCH_TIMED_CONTROLLER_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "protocol/cep.h"
#include "trace.h"

namespace perfbench {

class TimedController : public nonserial::ConcurrencyController {
 public:
  using ReqResult = nonserial::engine::RequestOutcome;

  /// Keeps per-transaction figures for ids below `max_tx`; calls on larger
  /// ids are counted in out_of_range() (the caller fails the round).
  TimedController(std::unique_ptr<nonserial::CorrectExecutionProtocol> inner,
                  int max_tx)
      : inner_(std::move(inner)),
        controller_ns_(max_tx),
        parent_(max_tx),
        op_(max_tx) {
    for (auto& op : op_) op.store(-1, std::memory_order_relaxed);
  }

  nonserial::CorrectExecutionProtocol* inner() const { return inner_.get(); }
  /// Controller calls on tx ids at or above `max_tx`: their time was not
  /// attributed to a request and their spans have no parent.
  int64_t out_of_range() const {
    return out_of_range_.load(std::memory_order_relaxed);
  }

  std::string name() const override { return inner_->name(); }
  void Register(int tx, nonserial::TxProfile profile) override {
    inner_->Register(tx, std::move(profile));
  }
  ReqResult Begin(int tx) override {
    Timed t(this, "protocol.begin", tx);
    return inner_->Begin(tx);
  }
  ReqResult Read(int tx, EntityId e, Value* out) override {
    Timed t(this, "protocol.read", tx);
    return inner_->Read(tx, e, out);
  }
  ReqResult Write(int tx, EntityId e, Value value) override {
    Timed t(this, "protocol.write", tx);
    return inner_->Write(tx, e, value);
  }
  void WriteDone(int tx, EntityId e) override {
    Timed t(this, "protocol.write_done", tx);
    inner_->WriteDone(tx, e);
  }
  ReqResult Commit(int tx) override {
    Timed t(this, "protocol.commit", tx);
    return inner_->Commit(tx);
  }
  void Abort(int tx) override {
    Timed t(this, "protocol.abort", tx);
    inner_->Abort(tx);
  }
  std::vector<int> TakeWakeups() override { return inner_->TakeWakeups(); }
  std::vector<int> TakeForcedAborts() override {
    return inner_->TakeForcedAborts();
  }
  bool Retire(int tx) override { return inner_->Retire(tx); }
  bool IsRetired(int tx) const override { return inner_->IsRetired(tx); }
  void SetObserver(nonserial::TraceSink* sink) override {
    ConcurrencyController::SetObserver(sink);
    inner_->SetObserver(sink);
  }

  /// Names the client span and op a request on `tx` belongs to; the
  /// controller spans it causes on a server worker become its children.
  void SetRequest(int tx, int64_t parent_span, int64_t op) {
    if (!InRange(tx)) return;
    parent_[tx].store(parent_span, std::memory_order_relaxed);
    op_[tx].store(op, std::memory_order_relaxed);
  }
  /// Controller time spent on `tx` since the last call, in nanoseconds.
  int64_t TakeControllerNs(int tx) {
    if (!InRange(tx)) return 0;
    return controller_ns_[tx].exchange(0, std::memory_order_acq_rel);
  }

 private:
  /// Span plus per-transaction time accounting for one controller call.
  class Timed {
   public:
    Timed(TimedController* owner, const char* name, int tx)
        : owner_(owner),
          tx_(tx),
          span_(name, owner->OpOf(tx), owner->ParentOf(tx)),
          start_ns_(NowNs()) {}
    ~Timed() {
      if (owner_->InRange(tx_)) {
        owner_->controller_ns_[tx_].fetch_add(NowNs() - start_ns_,
                                              std::memory_order_acq_rel);
      } else {
        owner_->out_of_range_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    TimedController* owner_;
    int tx_;
    ScopedSpan span_;
    int64_t start_ns_;
  };

  bool InRange(int tx) const {
    return tx >= 0 && static_cast<size_t>(tx) < controller_ns_.size();
  }
  /// -1 (inherit from the calling thread) unless a request was named.
  int64_t ParentOf(int tx) const {
    int64_t p = InRange(tx) ? parent_[tx].load(std::memory_order_relaxed) : 0;
    return p > 0 ? p : -1;
  }
  int64_t OpOf(int tx) const {
    return InRange(tx) ? op_[tx].load(std::memory_order_relaxed) : -1;
  }

  std::unique_ptr<nonserial::CorrectExecutionProtocol> inner_;
  std::vector<std::atomic<int64_t>> controller_ns_;
  std::vector<std::atomic<int64_t>> parent_;
  std::vector<std::atomic<int64_t>> op_;
  std::atomic<int64_t> out_of_range_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_CONTROLLER_H_
