// Self-test of the correctness checks: each check must pass on a real
// round's record and reject the same record with one field corrupted.
#include <cstdio>
#include <functional>
#include <string>
#include <utility>

#include "checks.h"
#include "workloads.h"

namespace perfbench {
namespace {

using nonserial::scenario::Verdict;

template <typename Log>
using Check = std::vector<std::string> (*)(const Log&);

class SelfTest {
 public:
  /// The pristine record must pass every check.
  void Pristine(const char* what, const std::vector<std::string>& errors) {
    Report(errors.empty(), std::string(what) + " passes every check",
           errors.empty() ? "" : errors.front());
  }

  /// `corrupt` edits a copy of `log`; `check` must then reject it.
  template <typename Log>
  void Rejects(const char* check_name, Check<Log> check, const Log& log,
               const char* corruption,
               const std::function<bool(Log*)>& corrupt) {
    Log copy = log;
    std::string what = std::string(check_name) + " rejects " + corruption;
    if (!corrupt(&copy)) {
      Report(false, what, "the sample record has nothing to corrupt");
      return;
    }
    std::vector<std::string> errors = check(copy);
    Report(!errors.empty(), what, errors.empty() ? "accepted" : errors.front());
  }

  int ExitCode() const { return failures_ == 0 ? 0 : 1; }

 private:
  void Report(bool ok, const std::string& what, const std::string& detail) {
    std::printf("%-6s %s%s%s\n", ok ? "ok" : "FAILED", what.c_str(),
                detail.empty() ? "" : "  -- ", detail.c_str());
    if (!ok) ++failures_;
  }

  int failures_ = 0;
};

}  // namespace

int RunSelfTest() {
  SelfTest t;
  EngineRoundLog serial = SerialHistorySampleRound(7);
  EngineRoundLog wire = WireSharedSampleRound(7);
  SpecSweepLog sweep = SpecSweepSampleSpec(7);
  t.Pristine("serial_history round", CheckEngineRound(serial));
  t.Pristine("wire_shared round", CheckEngineRound(wire));
  t.Pristine("spec_sweep spec", CheckSpecSweep(sweep));

  using E = EngineRoundLog;
  auto has_tx = [](E* log) { return log->acked.size() >= 2; };
  t.Rejects<E>("reads_match_records", CheckReadsMatchRecords, serial,
               "a read that differs from records()[tx].input_state",
               [&](E* log) {
                 if (!has_tx(log)) return false;
                 log->acked[0].record_reads[0] += 1;
                 return true;
               });
  t.Rejects<E>("specs_hold", CheckSpecsHold, serial,
               "a read value outside I_t", [&](E* log) {
                 if (!has_tx(log)) return false;
                 log->acked[0].reads[0].second = -5;
                 return true;
               });
  t.Rejects<E>("specs_hold", CheckSpecsHold, serial,
               "a written value outside O_t", [&](E* log) {
                 if (!has_tx(log)) return false;
                 log->acked[1].writes[0].second = -3;
                 return true;
               });
  t.Rejects<E>("reads_from_acknowledged", CheckReadsFromAcknowledged, wire,
               "a read of a value nobody wrote", [&](E* log) {
                 if (!has_tx(log)) return false;
                 log->acked[0].reads[0].second = 987654321;
                 return true;
               });
  t.Rejects<E>("final_constraint", CheckFinalConstraint, wire,
               "a negative final value", [](E* log) {
                 if (log->final_snapshot.empty()) return false;
                 log->final_snapshot[0] = -1;
                 return true;
               });
  t.Rejects<E>("recovery", CheckRecovery, wire,
               "a recovered commit set missing one commit", [](E* log) {
                 if (log->recovered.empty()) return false;
                 log->recovered.pop_back();
                 return true;
               });
  t.Rejects<E>("recovery", CheckRecovery, serial,
               "a recovered snapshot that differs", [](E* log) {
                 if (log->recovered_snapshot.empty()) return false;
                 log->recovered_snapshot[0] += 1;
                 return true;
               });
  t.Rejects<E>("final_is_last_write", CheckFinalIsLastWrite, serial,
               "a final value that is not the last write", [](E* log) {
                 if (log->final_snapshot.empty()) return false;
                 log->final_snapshot[0] += 1;
                 return true;
               });

  using S = SpecSweepLog;
  t.Rejects<S>("interleavings", CheckInterleavings, sweep,
               "an interleaving out of program order", [](S* log) {
                 for (auto& order : log->interleavings) {
                   for (size_t i = 0; i + 1 < order.size(); ++i) {
                     if (order[i].session == order[i + 1].session) {
                       std::swap(order[i], order[i + 1]);
                       return true;
                     }
                   }
                 }
                 return false;
               });
  t.Rejects<S>("interleavings", CheckInterleavings, sweep,
               "a duplicated interleaving", [](S* log) {
                 if (log->interleavings.empty()) return false;
                 log->interleavings.push_back(log->interleavings.front());
                 return true;
               });
  t.Rejects<S>("interleavings", CheckInterleavings, sweep, "a truncated sweep",
               [](S* log) {
                 log->truncated = true;
                 return true;
               });
  t.Rejects<S>("s2pl_csr", CheckS2plCsr, sweep,
               "an S2PL history with a conflict cycle", [](S* log) {
                 using nonserial::Op;
                 using nonserial::OpKind;
                 for (SpecRunLog& run : log->runs) {
                   if (run.protocol != "S2PL") continue;
                   run.history = {Op{0, OpKind::kRead, 0},
                                  Op{1, OpKind::kWrite, 0},
                                  Op{1, OpKind::kRead, 1},
                                  Op{0, OpKind::kWrite, 1}};
                   return true;
                 }
                 return false;
               });
  t.Rejects<S>("cep_specs", CheckCepSpecs, sweep,
               "a committed CEP session that read outside I_t", [](S* log) {
                 for (SpecRunLog& run : log->runs) {
                   if (run.protocol != "CEP") continue;
                   for (size_t s = 0; s < run.verdicts.size(); ++s) {
                     if (run.verdicts[s] == Verdict::kCommit &&
                         !run.reads[s].empty()) {
                       run.reads[s][0].second = -1000;
                       return true;
                     }
                   }
                 }
                 return false;
               });
  t.Rejects<S>("containments", CheckContainments, sweep,
               "class bits with CSR outside SR", [](S* log) {
                 for (SpecRunLog& run : log->runs) {
                   if (!run.classes_exact) continue;
                   run.classes.csr = true;
                   run.classes.vsr = false;
                   return true;
                 }
                 return false;
               });
  return t.ExitCode();
}

}  // namespace perfbench
