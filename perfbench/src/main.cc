// perfbench: the repository benchmark. One process runs one named
// closed-loop workload over generated Weblogs keys through the engines'
// public APIs, checks every reply against a reference model, and prints
// its metrics as JSON. With --trace 1 it instead prints the per-layer
// ledger of every layer plus the workload's tracing overhead.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--keys <n>] [--tmpdir <dir>] [--corrupt-reference]
//             [--commit <id>] [--dirty <0|1|unknown>] [--source-sha256 <h>]
//
// Output: a {"detail": ...} line, an {"env": ...} line, then the result
// line {"correct", "attempted", "failed", "metrics"}. Exit status 0 when
// every check passed, 1 when a check failed, 2 on a usage or environment
// error (no result line then).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/options.h"
#include "datasets/datasets.h"

extern char** environ;

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  size_t keys = 20'000'000;
  std::string tmpdir = ".";
  bool corrupt_reference = false;
  std::string commit = "unknown";
  std::string dirty = "unknown";
  std::string source_sha256 = "unknown";
};

using RunFn = WorkloadResult (*)(const Dataset&, uint64_t, const RunConfig&);

struct Workload {
  const char* name;
  RunFn run;
  size_t key_divisor;  // the workload runs over --keys / key_divisor keys
};

// Each workload's home layer is the one its traced run ledgers. disk_rw
// runs over a tenth of the keys: at the full count its 15k-segment file
// needs many seconds of writes before any segment's overlay reaches the
// compaction threshold, so no compaction cycle would complete in a run.
constexpr Workload kWorkloads[] = {
    {"lookup_uniform", RunLookupUniform, 1},
    {"rw_concurrent", RunRwConcurrent, 1},
    {"server_pipelined", RunServerPipelined, 1},
    {"disk_rw", RunDiskRw, 10},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--keys <n>] [--tmpdir <dir>] "
               "[--corrupt-reference]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      a.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--keys") {
      a.keys = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || a.keys < 1000) Usage("--keys must be >= 1000");
    } else if (flag == "--tmpdir") {
      a.tmpdir = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--dirty") {
      a.dirty = v;
    } else if (flag == "--source-sha256") {
      a.source_sha256 = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// {"name": {"value": v, "unit": u}, ...}
std::string MetricsJson(const Report& r) {
  std::string out = "{";
  for (const Metric& m : r.metrics()) {
    if (out.size() > 1) out += ", ";
    out += Quote(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quote(m.unit) + "}";
  }
  return out + "}";
}

std::vector<std::string> FitreeEnvironment() {
  std::vector<std::string> set;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "FITREE_", 7) == 0) {
      set.emplace_back(*e, std::strcspn(*e, "="));
    }
  }
  return set;
}

// The environment record: build, machine, source identity, the engines'
// resolved process-wide options, and the seed.
std::string EnvJson(
    const Args& a, const std::vector<std::string>& fitree_env,
    const std::vector<std::pair<std::string, std::string>>& facts) {
  const fitree::Options& o = fitree::GlobalOptions();
  std::string vars = "[";
  for (const auto& v : fitree_env) {
    vars += (vars.size() > 1 ? ", " : "") + Quote(v);
  }
  vars += "]";
  std::string out = "{\"env\": {";
  out += "\"build_type\": " + Quote(PERFBENCH_BUILD_TYPE);
  out += ", \"compiler\": " + Quote(PERFBENCH_COMPILER);
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"commit\": " + Quote(a.commit);
  out += ", \"dirty\": " + Quote(a.dirty);
  out += ", \"source_sha256\": " + Quote(a.source_sha256);
  out += ", \"workload\": " + Quote(a.workload);
  out += ", \"seed\": " + std::to_string(a.seed);
  out += ", \"default_seed\": " + std::to_string(kDefaultSeed);
  out += ", \"held_out_seed\": " + std::to_string(kHeldOutSeed);
  out += ", \"keys\": " + std::to_string(a.keys);
  out += ", \"seconds\": " + Number(a.seconds);
  out += ", \"trace\": " + std::string(a.trace ? "1" : "0");
  out += ", \"fitree_env_vars\": " + vars;
  for (const auto& [name, value] : facts) {
    out += ", " + Quote(name) + ": " + Quote(value);
  }
  out += ", \"options\": {";
  out += "\"search_policy\": " + Quote(fitree::SearchPolicyName(o.search_policy));
  out += ", \"directory\": " + Quote(fitree::DirectoryModeName(o.directory));
  out += ", \"telemetry_sample\": " + std::to_string(o.telemetry_sample);
  out += ", \"trace\": " + std::to_string(o.trace ? 1 : 0);
  out += ", \"trace_ring\": " + std::to_string(o.trace_ring);
  out += ", \"perf\": " + std::to_string(o.perf ? 1 : 0);
  out += ", \"shards\": " + std::to_string(o.shards);
  out += ", \"batch\": " + std::to_string(o.batch);
  out += ", \"io_backend\": " + Quote(fitree::IoBackendName(o.io_backend));
  out += ", \"io_depth\": " + std::to_string(o.io_depth);
  out += ", \"io_direct\": " + std::to_string(o.io_direct ? 1 : 0);
  out += ", \"fetch_strategy\": " +
         Quote(fitree::FetchStrategyName(o.fetch_strategy));
  out += ", \"compact_threshold_pct\": " +
         std::to_string(o.compact_threshold_pct);
  out += "}}}";
  return out;
}

}  // namespace

Dataset MakeDataset(uint64_t seed, size_t n) {
  Dataset ds;
  ds.keys = fitree::datasets::Weblogs(n, StreamSeed(seed, kDatasetStream));
  ds.values.resize(ds.keys.size());
  for (size_t i = 0; i < ds.keys.size(); ++i) {
    ds.values[i] = InitialPayload(ds.keys[i]);
  }
  return ds;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = Parse(argc, argv);
#ifndef NDEBUG
  Usage("refusing to measure a build with assertions on (need Release)");
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    Usage("refusing to measure a non-Release build");
  }
  const std::vector<std::string> fitree_env = FitreeEnvironment();
  if (!fitree_env.empty()) {
    Usage("a FITREE_* variable is set; engines must run with shipped "
          "defaults");
  }
  const Workload* target = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) target = &w;
  }
  if (target == nullptr) Usage(("unknown workload " + args.workload).c_str());

  // Datasets by key count, generated once and shared by the runs.
  std::deque<std::pair<size_t, Dataset>> datasets;  // stable references
  const auto dataset_for = [&](const Workload& w) -> const Dataset& {
    const size_t n = std::max<size_t>(1000, args.keys / w.key_divisor);
    for (const auto& [size, ds] : datasets) {
      if (size == n) return ds;
    }
    datasets.emplace_back(n, MakeDataset(args.seed, n));
    return datasets.back().second;
  };
  RunConfig rc;
  rc.corrupt_reference = args.corrupt_reference;
  rc.tmpdir = args.tmpdir;

  Outcome outcome;
  Report metrics, detail;
  std::vector<std::pair<std::string, std::string>> facts;
  if (!args.trace) {
    rc.seconds = args.seconds;
    WorkloadResult r = target->run(dataset_for(*target), args.seed, rc);
    outcome.Merge(r.outcome);
    metrics = r.end_to_end;
    detail = r.detail;
    facts = r.facts;
  } else {
    // Every layer's ledger, each from its home workload traced for a
    // quarter of the run length; the target also runs untraced as long,
    // and the throughput ratio of the two is the tracing overhead.
    rc.seconds = args.seconds / 4.0;
    rc.setup_reps = 1;
    double overhead = 0.0;
    for (const Workload& w : kWorkloads) {
      double untraced_ops = 0.0;
      const Dataset& ds = dataset_for(w);
      if (&w == target) {
        rc.traced = false;
        const WorkloadResult u = w.run(ds, args.seed, rc);
        outcome.Merge(u.outcome);
        untraced_ops = u.ops_per_s;
      }
      rc.traced = true;
      const WorkloadResult t = w.run(ds, args.seed, rc);
      outcome.Merge(t.outcome);
      metrics.Append(t.layer);
      detail.Append(t.detail);
      facts.insert(facts.end(), t.facts.begin(), t.facts.end());
      if (&w == target) overhead = untraced_ops / t.ops_per_s - 1.0;
    }
    metrics.Add("bench.trace_overhead_frac", overhead, "ratio");
  }
  detail.Add("failed_op_frac",
             outcome.attempted() == 0
                 ? 1.0
                 : static_cast<double>(outcome.failed()) /
                       static_cast<double>(outcome.attempted()),
             "ratio");

  bool finite = true;
  for (const Metric& m : metrics.metrics()) finite = finite && std::isfinite(m.value);
  if (!finite) outcome.Fail("a metric is not a finite number");
  for (const std::string& e : outcome.errors()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  const bool correct = outcome.failed() == 0 && outcome.attempted() > 0;

  std::printf("{\"detail\": %s}\n", MetricsJson(detail).c_str());
  std::printf("%s\n", EnvJson(args, fitree_env, facts).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted()),
              static_cast<unsigned long long>(outcome.failed()),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
