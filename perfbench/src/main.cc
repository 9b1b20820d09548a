// perfbench: the benchmark's main program.
//
//   perfbench --workload serial_history|wire_shared|spec_sweep
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//   perfbench --selftest
//
// An untraced run (--trace 0) runs whole rounds for S seconds and prints
// the end-to-end metrics. A traced run spends S/2 seconds untraced and S/2
// traced: it prints the per-layer metrics, with trace.overhead comparing
// the two halves, writes the spans as Chrome trace JSON to FILE, and
// prints a self-time table per layer on stderr. The last line of stdout is
// always one JSON object: correct, attempted, failed, metrics.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Every per-layer metric, in print order, with its unit. A traced run
/// prints all of them; one its workload does not exercise reads 0.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"engine.begin_us", "us"},
    {"engine.read_us", "us"},
    {"engine.write_us", "us"},
    {"engine.commit_us", "us"},
    {"engine.attempts_per_commit", "ratio"},
    {"engine.parked_us_per_op", "us"},
    {"engine.history_growth", "ratio"},
    {"protocol.begin_us", "us"},
    {"protocol.read_us", "us"},
    {"protocol.write_us", "us"},
    {"protocol.commit_us", "us"},
    {"protocol.abort_us", "us"},
    {"protocol.live_txs_end", "count"},
    {"protocol.validations_per_op", "ratio"},
    {"protocol.rescans_per_op", "ratio"},
    {"protocol.reevals_per_op", "ratio"},
    {"protocol.reassigns_per_op", "ratio"},
    {"protocol.commit_waits_per_op", "ratio"},
    {"protocol.aborts_per_op", "ratio"},
    {"predicate.search_nodes_per_validation", "ratio"},
    {"storage.versions_end", "count"},
    {"storage.wal_bytes_per_op", "B"},
    {"storage.wal_records_per_op", "ratio"},
    {"storage.wal_commits_per_flush", "ratio"},
    {"storage.wal_stalls_per_op", "ratio"},
    {"storage.recover_ms", "ms"},
    {"storage.recover_records", "count"},
    {"server.begin_rtt_us", "us"},
    {"server.read_rtt_us", "us"},
    {"server.write_rtt_us", "us"},
    {"server.commit_rtt_us", "us"},
    {"server.ping_rtt_us", "us"},
    {"server.unattributed_us", "us"},
    {"server.queue_depth_max", "count"},
    {"server.requests_per_op", "ratio"},
    {"scenario.parse_us", "us"},
    {"scenario.enumerate_us", "us"},
    {"scenario.runs_per_spec", "count"},
    {"scenario.run_us.S2PL", "us"},
    {"scenario.run_us.PW-2PL", "us"},
    {"scenario.run_us.MVTO", "us"},
    {"scenario.run_us.PW-MVTO", "us"},
    {"scenario.run_us.CEP", "us"},
    {"scenario.run_us.Nested-CEP", "us"},
    {"classes.classify_us", "us"},
    {"trace.overhead", "ratio"},
};

/// Spans written to the trace file at most (the self-time table and the
/// metrics use every span).
constexpr size_t kMaxTraceEvents = 100'000;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serial_history|wire_shared|spec_sweep --seed N "
               "--seconds S "
               "--trace 0|1 [--trace-out FILE]\n       perfbench --selftest\n",
               why);
  return 2;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "serial_history") return MakeSerialHistory();
  if (name == "wire_shared") return MakeWireShared();
  if (name == "spec_sweep") return MakeSpecSweep();
  return nullptr;
}

/// Orders the workload's per-layer metrics as kPerLayer and fills the rest.
void CanonicalLayers(const Result& reported, Result* out) {
  for (const auto& [name, unit] : kPerLayer) {
    double value = 0;
    for (const Metric& m : reported.metrics) {
      if (m.name == name) value = m.value;
    }
    out->Add(name, value, unit);
  }
  for (const Metric& m : reported.metrics) {
    bool known = false;
    for (const auto& [name, unit] : kPerLayer) known |= m.name == name;
    if (!known) out->Fail({"unlisted per-layer metric " + m.name});
  }
}

int Main(int argc, char** argv) {
  Config config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selftest") return RunSelfTest();
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0) || config.seconds > 3600) {
        return Usage("--seconds takes a number in (0, 3600]");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (arg == "--trace-out") {
      config.trace_path = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  std::unique_ptr<Workload> workload = MakeWorkload(config.workload);
  if (workload == nullptr) return Usage("unknown workload");

  workload->Setup(config.seed);
  Result result;
  if (!config.trace) {
    Meter meter;
    workload->Run(config.seconds, &meter, &result);
    meter.Report(workload->first_op_ns() - ProcessStartNs(), &result);
  } else {
    Meter plain;
    workload->Run(config.seconds / 2, &plain, &result);
    Tracer tracer;
    SetActiveTracer(&tracer);
    Meter traced;
    workload->Run(config.seconds / 2, &traced, &result);
    SetActiveTracer(nullptr);

    Result layers;
    workload->ReportLayers(tracer.DurationsByName(), &layers);
    double traced_rate = traced.Rate();
    layers.Add("trace.overhead",
               traced_rate > 0 ? plain.Rate() / traced_rate - 1 : 0,
               "ratio");
    CanonicalLayers(layers, &result);
    if (!config.trace_path.empty() &&
        !tracer.WriteChromeTrace(config.trace_path, kMaxTraceEvents)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   config.trace_path.c_str());
    }
    std::fprintf(stderr, "%s", tracer.SelfTimeTable().c_str());
  }
  for (const std::string& line : result.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", line.c_str());
  }
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
