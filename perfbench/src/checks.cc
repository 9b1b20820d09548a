#include "checks.h"

#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {
namespace {

using nonserial::scenario::StepRef;
using nonserial::scenario::Verdict;

/// Keeps a failing check's output short: the first few lines and a count.
class Errors {
 public:
  explicit Errors(std::string check) : check_(std::move(check)) {}
  void Add(const std::string& line) {
    if (++count_ <= kMaxLines) lines_.push_back(check_ + ": " + line);
  }
  std::vector<std::string> Take() {
    if (count_ > kMaxLines) {
      lines_.push_back(check_ + ": ... " + std::to_string(count_ - kMaxLines) +
                       " more");
    }
    return std::move(lines_);
  }

 private:
  static constexpr int kMaxLines = 3;
  std::string check_;
  int count_ = 0;
  std::vector<std::string> lines_;
};

std::string Tx(const TxLog& t) { return "tx " + std::to_string(t.tx); }

void Append(std::vector<std::string>* out, std::vector<std::string> more) {
  for (std::string& line : more) out->push_back(std::move(line));
}

/// (Σ n_i)! / Π n_i!, as a product of binomials (exact for the small step
/// counts the generator produces).
uint64_t Multinomial(const std::vector<int>& counts) {
  uint64_t result = 1;
  int total = 0;
  for (int n : counts) {
    for (int k = 1; k <= n; ++k) {
      ++total;
      result = result * static_cast<uint64_t>(total) / static_cast<uint64_t>(k);
    }
  }
  return result;
}

/// Conflict serializability by the benchmark's own conflict graph.
bool OwnConflictSerializable(const std::vector<nonserial::Op>& history) {
  std::map<int, std::set<int>> edges;
  for (size_t i = 0; i < history.size(); ++i) {
    for (size_t j = i + 1; j < history.size(); ++j) {
      const nonserial::Op& a = history[i];
      const nonserial::Op& b = history[j];
      if (a.tx != b.tx && a.entity == b.entity &&
          (a.kind == nonserial::OpKind::kWrite ||
           b.kind == nonserial::OpKind::kWrite)) {
        edges[a.tx].insert(b.tx);
      }
    }
  }
  // Depth-first search for a back edge: 0 unvisited, 1 on stack, 2 done.
  std::map<int, int> color;
  std::vector<std::pair<int, std::set<int>::const_iterator>> stack;
  for (const auto& [root, unused] : edges) {
    if (color[root] != 0) continue;
    color[root] = 1;
    stack.push_back({root, edges[root].cbegin()});
    while (!stack.empty()) {
      auto& [node, it] = stack.back();
      if (it == edges[node].cend()) {
        color[node] = 2;
        stack.pop_back();
        continue;
      }
      int next = *it++;
      if (color[next] == 1) return false;
      if (color[next] == 0) {
        color[next] = 1;
        stack.push_back({next, edges[next].cbegin()});
      }
    }
  }
  return true;
}

}  // namespace

std::vector<std::string> CheckReadsMatchRecords(const EngineRoundLog& log) {
  Errors errors("reads_match_records");
  for (const TxLog& t : log.acked) {
    if (!t.record_committed) {
      errors.Add(Tx(t) + " acknowledged but not committed in records()");
      continue;
    }
    if (t.record_reads.size() != t.reads.size()) {
      errors.Add(Tx(t) + " has no record for every read");
      continue;
    }
    for (size_t i = 0; i < t.reads.size(); ++i) {
      if (t.reads[i].second != t.record_reads[i]) {
        errors.Add(Tx(t) + " read " + std::to_string(t.reads[i].second) +
                   " from entity " + std::to_string(t.reads[i].first) +
                   " but its input_state holds " +
                   std::to_string(t.record_reads[i]));
      }
    }
  }
  return errors.Take();
}

std::vector<std::string> CheckSpecsHold(const EngineRoundLog& log) {
  Errors errors("specs_hold");
  for (const TxLog& t : log.acked) {
    if (!t.input.HoldsOn(t.reads)) {
      errors.Add(Tx(t) + ": I_t is false on the values it read");
    }
    Pairs after = t.reads;
    after.insert(after.end(), t.writes.begin(), t.writes.end());
    if (!t.output.HoldsOn(after)) {
      errors.Add(Tx(t) + ": O_t is false on the values it wrote");
    }
  }
  return errors.Take();
}

std::vector<std::string> CheckReadsFromAcknowledged(
    const EngineRoundLog& log) {
  Errors errors("reads_from_acknowledged");
  std::unordered_map<EntityId, std::unordered_set<Value>> written;
  for (const TxLog& t : log.acked) {
    for (const auto& [e, v] : t.writes) written[e].insert(v);
  }
  for (const TxLog& t : log.acked) {
    for (const auto& [e, v] : t.reads) {
      if (e < 0 || static_cast<size_t>(e) >= log.initial.size()) {
        errors.Add(Tx(t) + " read unknown entity " + std::to_string(e));
        continue;
      }
      if (v == log.initial[e]) continue;
      auto it = written.find(e);
      if (it == written.end() || it->second.count(v) == 0) {
        errors.Add(Tx(t) + " read " + std::to_string(v) + " from entity " +
                   std::to_string(e) +
                   ", which is neither its initial value nor any "
                   "acknowledged write");
      }
    }
  }
  return errors.Take();
}

std::vector<std::string> CheckFinalConstraint(const EngineRoundLog& log) {
  Errors errors("final_constraint");
  if (log.final_snapshot.size() != log.initial.size()) {
    errors.Add("final snapshot has the wrong number of entities");
  } else if (!log.constraint.HoldsOnVector(log.final_snapshot)) {
    errors.Add("the final committed snapshot violates the constraint");
  }
  return errors.Take();
}

std::vector<std::string> CheckRecovery(const EngineRoundLog& log) {
  Errors errors("recovery");
  if (!log.recover_ok) errors.Add("Recover() reported an error");
  std::map<int, const Pairs*> acked;
  for (const TxLog& t : log.acked) acked[t.tx] = &t.writes;
  std::set<int> seen;
  for (const auto& [tx, writes] : log.recovered) {
    auto it = acked.find(tx);
    if (it == acked.end()) {
      errors.Add("recovered tx " + std::to_string(tx) +
                 " was never acknowledged");
    } else if (*it->second != writes) {
      errors.Add("recovered tx " + std::to_string(tx) +
                 " carries other writes than were acknowledged");
    }
    if (!seen.insert(tx).second) {
      errors.Add("tx " + std::to_string(tx) + " recovered twice");
    }
  }
  for (const auto& [tx, writes] : acked) {
    if (seen.count(tx) == 0) {
      errors.Add("acknowledged tx " + std::to_string(tx) +
                 " is missing after recovery");
    }
  }
  if (log.recovered_snapshot != log.final_snapshot) {
    errors.Add("the recovered snapshot differs from the final snapshot");
  }
  return errors.Take();
}

std::vector<std::string> CheckFinalIsLastWrite(const EngineRoundLog& log) {
  Errors errors("final_is_last_write");
  ValueVector expected = log.initial;
  for (const TxLog& t : log.acked) {
    for (const auto& [e, v] : t.writes) {
      if (e >= 0 && static_cast<size_t>(e) < expected.size()) expected[e] = v;
    }
  }
  if (expected.size() != log.final_snapshot.size()) {
    errors.Add("final snapshot has the wrong number of entities");
    return errors.Take();
  }
  for (size_t e = 0; e < expected.size(); ++e) {
    if (expected[e] != log.final_snapshot[e]) {
      errors.Add("entity " + std::to_string(e) + " ends at " +
                 std::to_string(log.final_snapshot[e]) +
                 " but its last acknowledged write was " +
                 std::to_string(expected[e]));
    }
  }
  return errors.Take();
}

std::vector<std::string> CheckEngineRound(const EngineRoundLog& log) {
  std::vector<std::string> out;
  Append(&out, CheckReadsMatchRecords(log));
  Append(&out, CheckSpecsHold(log));
  Append(&out, CheckReadsFromAcknowledged(log));
  Append(&out, CheckFinalConstraint(log));
  Append(&out, CheckRecovery(log));
  if (log.serial) Append(&out, CheckFinalIsLastWrite(log));
  return out;
}

std::vector<std::string> CheckInterleavings(const SpecSweepLog& log) {
  Errors errors("interleavings");
  if (log.truncated) errors.Add("the sweep was truncated");
  size_t total = 0;
  for (int n : log.steps_per_session) total += static_cast<size_t>(n);
  if (log.interleavings.empty()) errors.Add("no interleavings");
  if (log.interleavings.size() > Multinomial(log.steps_per_session)) {
    errors.Add(std::to_string(log.interleavings.size()) +
               " interleavings exceed the multinomial count");
  }
  std::set<std::vector<std::pair<int, int>>> distinct;
  for (size_t i = 0; i < log.interleavings.size(); ++i) {
    const std::vector<StepRef>& order = log.interleavings[i];
    std::string where = "interleaving " + std::to_string(i);
    if (order.size() != total) {
      errors.Add(where + " does not cover every step exactly once");
      continue;
    }
    std::vector<int> next(log.steps_per_session.size(), 0);
    std::vector<std::pair<int, int>> key;
    for (const StepRef& ref : order) {
      if (ref.session < 0 ||
          static_cast<size_t>(ref.session) >= next.size() ||
          ref.step != next[ref.session]) {
        errors.Add(where + " breaks program order");
        break;
      }
      ++next[ref.session];
      key.push_back({ref.session, ref.step});
    }
    if (!distinct.insert(key).second) errors.Add(where + " is a duplicate");
  }
  return errors.Take();
}

std::vector<std::string> CheckS2plCsr(const SpecSweepLog& log) {
  Errors errors("s2pl_csr");
  for (size_t i = 0; i < log.runs.size(); ++i) {
    const SpecRunLog& run = log.runs[i];
    if (run.protocol == "S2PL" && !OwnConflictSerializable(run.history)) {
      errors.Add("run " + std::to_string(i) +
                 ": an S2PL history is not conflict serializable");
    }
  }
  return errors.Take();
}

std::vector<std::string> CheckCepSpecs(const SpecSweepLog& log) {
  Errors errors("cep_specs");
  for (size_t i = 0; i < log.runs.size(); ++i) {
    const SpecRunLog& run = log.runs[i];
    if (run.protocol != "CEP") continue;
    for (size_t s = 0; s < run.verdicts.size(); ++s) {
      if (run.verdicts[s] != Verdict::kCommit) continue;
      if (s >= run.reads.size() || s >= log.inputs.size()) {
        errors.Add("run " + std::to_string(i) + ": session " +
                   std::to_string(s) + " has no recorded values");
        continue;
      }
      if (!log.inputs[s].HoldsOn(run.reads[s])) {
        errors.Add("run " + std::to_string(i) + ": committed session " +
                   std::to_string(s) + " read values outside its I_t");
      }
      Pairs after = run.reads[s];
      after.insert(after.end(), run.writes[s].begin(), run.writes[s].end());
      if (!log.outputs[s].HoldsOn(after)) {
        errors.Add("run " + std::to_string(i) + ": committed session " +
                   std::to_string(s) + " wrote values outside its O_t");
      }
    }
  }
  return errors.Take();
}

std::vector<std::string> CheckContainments(const SpecSweepLog& log) {
  Errors errors("containments");
  for (size_t i = 0; i < log.runs.size(); ++i) {
    const SpecRunLog& run = log.runs[i];
    if (!run.classes_exact) continue;
    const nonserial::ClassMembership& m = run.classes;
    // The Figure 2 lattice: each pair reads "left implies right".
    const std::pair<bool, bool> lattice[] = {
        {m.csr, m.vsr},    {m.vsr, m.mvsr},   {m.csr, m.mvcsr},
        {m.mvcsr, m.mvsr}, {m.csr, m.pwcsr},  {m.vsr, m.pwsr},
        {m.pwcsr, m.pwsr}, {m.mvcsr, m.cpc},  {m.pwcsr, m.cpc},
        {m.cpc, m.pc},     {m.mvsr, m.pc},    {m.pwsr, m.pc}};
    for (const auto& [inner, outer] : lattice) {
      if (inner && !outer) {
        errors.Add("run " + std::to_string(i) + " (" + run.protocol +
                   "): class bits break the Figure 2 containments");
        break;
      }
    }
  }
  return errors.Take();
}

std::vector<std::string> CheckSpecSweep(const SpecSweepLog& log) {
  std::vector<std::string> out;
  Append(&out, CheckInterleavings(log));
  Append(&out, CheckS2plCsr(log));
  Append(&out, CheckCepSpecs(log));
  Append(&out, CheckContainments(log));
  return out;
}

}  // namespace perfbench
