// spec_sweep: one thread generates small seeded 2- and 3-session specs in
// the scenario DSL. An op is one spec verified in full: parsed, validated,
// and run by RunSpec over every interleaving the enumerator emits under all
// six registered protocols. No network and no WAL: this is the load on
// scenario, classes and the five baselines. Each op runs on the next CPU
// of the process (CpuRotation).
//
// After the timed phase the benchmark enumerates and runs each spec's
// interleavings itself, so its checks can see each run: RunSpec's
// aggregates must match, and every run passes the checks in checks.h.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>

#include "classes/recognizers.h"
#include "common/thread_pool.h"
#include "scenario/parser.h"
#include "scenario/protocols.h"
#include "scenario/runner.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace sc = nonserial::scenario;
using nonserial::CompareOp;

constexpr int kEntities = 3;
/// Specs per round: four passes over the shape cycle below.
constexpr int kSpecsPerRound = 24;
/// Seeds the access patterns (which entities each session touches).
constexpr uint64_t kPatternSeed = 0x5eed;
const char* const kEntityNames[kEntities] = {"a", "b", "c"};

/// One session's program: `reads` distinct entities read, then (when
/// `writes`) one entity written from them, then commit.
struct SessionShape {
  int reads;
  bool writes;
};

/// Spec shapes cycled through by spec index. The shape and the entities
/// each session touches depend on the spec index only, so every seed
/// sweeps the same interleavings (at most 20 to 560 per spec) and the cost
/// of a round hardly depends on the seed; the seed picks the initial
/// values and the constants of I_t, O_t and the writes, which decide the
/// verdicts.
const std::vector<std::vector<SessionShape>> kShapes = {
    {{2, true}, {2, true}},
    {{1, true}, {2, true}},
    {{1, true}, {1, true}, {1, false}},
    {{2, true}, {1, true}},
    {{1, true}, {1, true}},
    {{1, true}, {1, false}, {1, false}},
};

/// A generated spec: its text, and the benchmark's copy of each session's
/// I_t/O_t and step count.
struct GeneratedSpec {
  std::string text;
  std::vector<int> steps_per_session;
  std::vector<SimplePred> inputs;
  std::vector<SimplePred> outputs;
};

std::string Atom(int e, Value bound) {
  return std::string(kEntityNames[e]) + " >= " + std::to_string(bound);
}

GeneratedSpec Generate(uint64_t seed, int index) {
  Rng rng(seed * 1'000'003 + static_cast<uint64_t>(index));
  Rng pattern(kPatternSeed + static_cast<uint64_t>(index));
  const std::vector<SessionShape>& shape = kShapes[index % kShapes.size()];
  GeneratedSpec out;
  std::ostringstream text;
  text << "scenario gen_" << index << "\n";
  text << "setup {\n";
  for (int e = 0; e < kEntities; ++e) {
    text << "  entity " << kEntityNames[e] << " = " << rng.Range(0, 20)
         << "\n";
  }
  // One two-entity object, so the predicate-wise classes see a conjunct
  // wider than one entity.
  text << "  constraint \"(a >= -30 | b >= -30) & (c >= -30)\"\n}\n";

  int max_runs = 1;
  int total_steps = 0;
  for (size_t s = 0; s < shape.size(); ++s) {
    int reads = shape[s].reads;
    bool writes = shape[s].writes;
    std::vector<int> read_set;
    while (static_cast<int>(read_set.size()) < reads) {
      int e = static_cast<int>(pattern.Range(0, kEntities - 1));
      if (std::find(read_set.begin(), read_set.end(), e) == read_set.end()) {
        read_set.push_back(e);
      }
    }
    // A read-only session promises O_t on what it read.
    int written = writes ? static_cast<int>(pattern.Range(0, kEntities - 1))
                         : read_set.front();
    Value delta = rng.Range(-8, 8);
    Value out_bound = rng.Range(-10, 0);

    SimplePred input;
    std::string input_text;
    for (int e : read_set) {
      Value bound = rng.Range(-10, 5);
      input.clauses.push_back({Cmp{e, CompareOp::kGe, bound}});
      input_text += (input_text.empty() ? "" : " & ") + Atom(e, bound);
    }
    SimplePred output;
    output.clauses.push_back({Cmp{written, CompareOp::kGe, out_bound}});

    std::string name = "s" + std::to_string(s);
    text << "session " << name << " {\n";
    text << "  input \"" << input_text << "\"\n";
    text << "  output \"" << Atom(written, out_bound) << "\"\n";
    std::string expr;
    for (int e : read_set) {
      text << "  step r" << s << kEntityNames[e] << " { read "
           << kEntityNames[e] << " }\n";
      expr += (expr.empty() ? "" : " + ") + std::string(kEntityNames[e]);
    }
    if (writes) {
      expr += delta < 0 ? " - " + std::to_string(-delta)
                        : " + " + std::to_string(delta);
      text << "  step w" << s << " { write " << kEntityNames[written]
           << " = " << expr << " }\n";
    }
    text << "  step c" << s << " { commit }\n}\n";

    int steps = reads + (writes ? 1 : 0) + 1;
    out.steps_per_session.push_back(steps);
    out.inputs.push_back(input);
    out.outputs.push_back(output);
    // Multinomial bound on the interleavings, built up session by session.
    for (int k = 1; k <= steps; ++k) {
      ++total_steps;
      max_runs = max_runs * total_steps / k;
    }
  }
  // A cap above the multinomial count: the sweep is never truncated.
  text << "all-permutations max-runs " << max_runs + 1 << "\n";
  out.text = text.str();
  return out;
}

/// Parses "<session>: <step> read|write <entity> = <value>" lines of the
/// runner's verbose step log into per-session values.
void ParseStepLog(const std::vector<std::string>& lines, size_t sessions,
                  SpecRunLog* run) {
  run->reads.assign(sessions, {});
  run->writes.assign(sessions, {});
  for (const std::string& line : lines) {
    unsigned session = 0;
    char step[32];
    char verb[8];
    char entity[8];
    long long value = 0;
    if (std::sscanf(line.c_str(), "s%u: %31s %7s %7s = %lld", &session, step,
                    verb, entity, &value) != 5 ||
        session >= sessions) {
      continue;
    }
    int e = -1;
    for (int i = 0; i < kEntities; ++i) {
      if (std::string(kEntityNames[i]) == entity) e = i;
    }
    if (e < 0) continue;
    std::string v(verb);
    if (v == "read") run->reads[session].push_back({e, value});
    if (v == "write") run->writes[session].push_back({e, value});
  }
}

int64_t JsonInt(nonserial::Json& value) {
  return std::strtoll(value.Dump().c_str(), nullptr, 10);
}

class SpecSweep : public Workload {
 public:
  void Setup(uint64_t seed) override {
    for (int i = 0; i < kSpecsPerRound; ++i) specs_.push_back(Generate(seed, i));
    // The classifiers fan out over the program's shared pool, which starts
    // its threads on first use; start them now, before Run pins this
    // thread, so they keep every CPU of the process.
    nonserial::ThreadPool::Shared();
    for (const std::string& protocol : sc::ProtocolNames()) {
      run_span_names_.push_back("scenario.run." + protocol);
    }
  }

  void Run(double seconds, Meter* meter, Result* result) override {
    verified_ = 0;
    sweep_runs_ = 0;
    // Each spec's first verified op of this Run: the parsed spec and
    // RunSpec's report, which later rounds must reproduce and the checks
    // compare against.
    std::vector<std::optional<sc::ScenarioSpec>> parsed(specs_.size());
    std::vector<nonserial::Json> rows(specs_.size());
    std::vector<std::string> reports(specs_.size());
    CpuRotation rotation;
    int64_t start = NowNs();
    do {
      // One extra move per round: when the CPU count divides the specs per
      // round, each spec would otherwise run on the same CPU every round.
      rotation.Next();
      for (size_t i = 0; i < specs_.size(); ++i) {
        rotation.Next();
        ++result->attempted;
        std::vector<std::string> errors;
        std::optional<sc::ScenarioSpec> spec;
        nonserial::Json row;
        if (!VerifyOne(static_cast<int>(i), meter, &spec, &row, &errors)) {
          ++result->failed;
        } else if (!parsed[i].has_value()) {
          reports[i] = row.Dump();
          parsed[i] = std::move(spec);
          rows[i] = std::move(row);
        } else if (row.Dump() != reports[i]) {
          errors.push_back("spec " + std::to_string(i) +
                           ": RunSpec's report changed between rounds");
        }
        result->Fail(std::move(errors));
      }
      meter->EndRound();
    } while (static_cast<double>(NowNs() - start) < seconds * 1e9);

    // The checks' own pass holds every run of a spec at once; it runs
    // after the timed phase so that its memory stays out of peak_rss_mb
    // (how much of it stays resident depends on thread timing).
    for (size_t i = 0; i < specs_.size(); ++i) {
      if (!parsed[i].has_value()) continue;
      SpecSweepLog log;
      std::vector<std::string> errors;
      CheckOne(static_cast<int>(i), *parsed[i], &rows[i], &log, &errors);
      result->Fail(std::move(errors));
    }
  }

  void ReportLayers(const SpanDurations& spans, Result* out) override {
    auto p50 = [&spans](const std::string& name) {
      auto it = spans.find(name);
      if (it == spans.end()) return 0.0;
      std::vector<int64_t> d = it->second;
      return Percentile(&d, 0.5) / 1e3;
    };
    out->Add("scenario.parse_us", p50("scenario.parse"), "us");
    out->Add("scenario.enumerate_us", p50("scenario.enumerate"), "us");
    out->Add("scenario.runs_per_spec",
             verified_ > 0 ? static_cast<double>(sweep_runs_) /
                                 static_cast<double>(verified_)
                           : 0,
             "count");
    for (const std::string& protocol : sc::ProtocolNames()) {
      out->Add("scenario.run_us." + protocol,
               p50("scenario.run." + protocol), "us");
    }
    out->Add("classes.classify_us", p50("classes.classify"), "us");
  }

  /// Verifies spec `index`: the timed op. On success returns the parsed
  /// spec in *parsed and RunSpec's report row in *row; returns false when
  /// the op failed, with the reason in *errors.
  bool VerifyOne(int index, Meter* meter,
                 std::optional<sc::ScenarioSpec>* parsed,
                 nonserial::Json* row, std::vector<std::string>* errors) {
    const GeneratedSpec& generated = specs_[index];
    std::string where = "spec " + std::to_string(index) + ": ";

    meter->BeginWindow();
    int64_t t0 = NowNs();
    MarkFirstOp(t0);
    nonserial::StatusOr<sc::ScenarioSpec> spec =
        nonserial::Status::Internal("not parsed");
    nonserial::StatusOr<sc::SpecResult> verdict =
        nonserial::Status::Internal("not run");
    {
      ScopedSpan op("op", index);
      {
        ScopedSpan span("scenario.parse");
        spec = sc::ParseScenario(generated.text);
      }
      if (spec.ok()) {
        nonserial::Status valid;
        {
          ScopedSpan span("scenario.validate");
          valid = sc::ValidateSpec(*spec);
        }
        if (valid.ok()) {
          ScopedSpan span("scenario.run_spec");
          verdict = sc::RunSpec(*spec);
        } else {
          verdict = valid;
        }
      } else {
        verdict = spec.status();
      }
    }
    int64_t op_ns = NowNs() - t0;
    meter->EndWindow();

    if (!verdict.ok()) {
      errors->push_back(where + verdict.status().message());
      return false;
    }
    if (!verdict->ok()) {
      errors->push_back(where + "RunSpec reported " + verdict->failures[0]);
      return false;
    }
    meter->AddOp(op_ns);
    ++verified_;
    sweep_runs_ += verdict->sweep_runs;
    *parsed = *std::move(spec);
    *row = std::move(verdict->row);
    return true;
  }

  /// The benchmark's own pass over the interleavings of spec `index`:
  /// fills *log, checks RunSpec's sweep totals in *row against it and runs
  /// the checks of checks.h. Failures go to *errors.
  void CheckOne(int index, const sc::ScenarioSpec& spec, nonserial::Json* row,
                SpecSweepLog* log, std::vector<std::string>* errors) {
    const GeneratedSpec& generated = specs_[index];
    std::string where = "spec " + std::to_string(index) + ": ";
    log->steps_per_session = generated.steps_per_session;
    log->inputs = generated.inputs;
    log->outputs = generated.outputs;
    {
      ScopedSpan span("scenario.enumerate");
      log->interleavings = sc::EnumerateInterleavings(
          spec, spec.all_permutations.max_runs, &log->truncated);
    }
    const std::vector<std::string>& protocols = sc::ProtocolNames();
    for (size_t p = 0; p < protocols.size(); ++p) {
      const std::string& protocol = protocols[p];
      bool verbose = protocol == "CEP";
      int64_t all_committed = 0;
      int64_t blocked = 0;
      int64_t cpc = 0;
      int64_t sr = 0;
      for (const auto& order : log->interleavings) {
        nonserial::StatusOr<sc::ScenarioRunResult> run =
            nonserial::Status::Internal("not run");
        {
          ScopedSpan span(run_span_names_[p].c_str());
          run = sc::RunPermutation(spec, order, protocol,
                                   sc::RunnerOptions{verbose});
        }
        if (!run.ok()) {
          errors->push_back(where + protocol + ": " + run.status().message());
          return;
        }
        SpecRunLog r;
        r.protocol = protocol;
        r.verdicts = run->verdicts;
        r.history = run->committed.ops();
        r.classes = run->classes;
        r.classes_exact = run->classes_exact;
        if (verbose) ParseStepLog(run->log, spec.sessions.size(), &r);
        {
          ScopedSpan span("classes.classify");
          bool exact = true;
          nonserial::ClassMembership again =
              nonserial::ClassifyAll(run->committed, spec.Objects(), &exact);
          if (!(again == run->classes) || exact != run->classes_exact) {
            errors->push_back(where + protocol +
                              ": classification of a committed history is "
                              "not repeatable");
          }
        }
        bool committed_all = true;
        bool any_blocked = false;
        for (sc::Verdict v : r.verdicts) {
          committed_all = committed_all && v == sc::Verdict::kCommit;
          any_blocked = any_blocked || v == sc::Verdict::kBlocked;
        }
        all_committed += committed_all;
        blocked += any_blocked;
        cpc += r.classes.cpc;
        sr += r.classes_exact && r.classes.vsr;
        log->runs.push_back(std::move(r));
      }
      nonserial::Json& totals = (*row)["sweep"]["protocols"][protocol];
      if (JsonInt(totals["runs"]) !=
              static_cast<int64_t>(log->interleavings.size()) ||
          JsonInt(totals["all_committed"]) != all_committed ||
          JsonInt(totals["blocked_runs"]) != blocked ||
          JsonInt(totals["cpc_histories"]) != cpc ||
          JsonInt(totals["sr_histories"]) != sr) {
        errors->push_back(where + protocol +
                          ": RunSpec's sweep totals differ from the same "
                          "interleavings run one by one");
      }
    }
    std::vector<std::string> failed = CheckSpecSweep(*log);
    for (std::string& line : failed) errors->push_back(where + line);
  }

 private:
  std::vector<GeneratedSpec> specs_;
  int64_t verified_ = 0;
  int64_t sweep_runs_ = 0;
  std::vector<std::string> run_span_names_;
};

}  // namespace

std::unique_ptr<Workload> MakeSpecSweep() {
  return std::make_unique<SpecSweep>();
}

SpecSweepLog SpecSweepSampleSpec(uint64_t seed) {
  SpecSweep workload;
  workload.Setup(seed);
  Meter meter;
  std::optional<sc::ScenarioSpec> spec;
  nonserial::Json row;
  std::vector<std::string> errors;
  SpecSweepLog log;
  if (workload.VerifyOne(0, &meter, &spec, &row, &errors)) {
    workload.CheckOne(0, *spec, &row, &log, &errors);
  }
  return log;
}

}  // namespace perfbench
