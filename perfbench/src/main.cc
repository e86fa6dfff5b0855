// gqlbench: one end-to-end benchmark over three workloads.
//
//   gqlbench --workload er_search|ppi_clique|server_rw --seed N
//            --seconds S --trace 0|1 [--out-dir DIR] [--gqld PATH]
//            [--commit SHA]
//
// Prints every metric by name with its unit, writes a JSON record (with
// its provenance stamp) into --out-dir, and prints as its last line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when any answer is wrong or any request failed.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void WriteTrace(const Args& args, const std::vector<Span>& spans,
                RunOutcome* out) {
  const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  if (!WriteChromeTrace(spans, path)) out->Fail("cannot write " + path);
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json's end_to_end list.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"queries_per_s", "1/s"},
    {"query_p50_ms", "ms"},     {"query_p95_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

// Mirrors BENCHMARK.json's per_layer list. A layer a workload does not
// exercise reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"lang.parse_us", "us"},
    {"sema.analyze_us", "us"},
    {"algebra.compile_us", "us"},
    {"exec.plan_cache_hit_ratio", "ratio"},
    {"exec.unattributed_us", "us"},
    {"graph.snapshot_build_ms", "ms"},
    {"graph.snapshot_bytes", "bytes"},
    {"match.label_index_build_ms", "ms"},
    {"match.retrieve_us", "us"},
    {"match.candidates_retrieved", "count"},
    {"match.refine_us", "us"},
    {"match.refine_keep_ratio", "ratio"},
    {"match.order_us", "us"},
    {"match.order_cost_ratio", "ratio"},
    {"match.search_us", "us"},
    {"match.search_steps", "count"},
    {"match.matches_per_kstep", "ratio"},
    {"server.codec_us", "us"},
    {"server.session_us", "us"},
    {"server.wire_us", "us"},
    {"server.shed_ratio", "ratio"},
    {"storage.log_publish_us", "us"},
    {"storage.maybe_checkpoint_us", "us"},
    {"storage.wal_bytes_per_commit", "bytes"},
    {"storage.checkpoint_ms", "ms"},
    {"storage.checkpoints", "count"},
    {"storage.open_ms", "ms"},
    {"obs.trace_overhead", "ratio"},
    {"commit_p50_ms", "ms"},
    {"commit_p99_ms", "ms"},
    {"recovery_s", "s"},
    {"space_amp", "ratio"},
    {"error_rate", "ratio"},
    {"query_samples", "count"},
};

const Metric* Find(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
         Num(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

/// Canonical list in spec order: measured values, 0 where not measured.
template <size_t N>
std::vector<Metric> Canonical(const MetricSpec (&spec)[N],
                              const std::vector<Metric>& got) {
  std::vector<Metric> out;
  for (const MetricSpec& s : spec) {
    const Metric* m = Find(got, s.name);
    out.push_back({s.name, m != nullptr ? m->value : 0.0, s.unit});
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: gqlbench --workload er_search|ppi_clique|server_rw "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--gqld PATH] [--commit SHA]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--gqld") {
      args.gqld = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return Usage();
  const bool inproc =
      args.workload == "er_search" || args.workload == "ppi_clique";
  if (!inproc && args.workload != "server_rw") return Usage();

  ClearGqlEnvironment();
  std::filesystem::create_directories(args.out_dir);
  RunOutcome out = inproc ? RunInProcess(args) : RunServer(args);
  if (out.attempted < out.failed) out.attempted = out.failed;
  if (out.attempted == 0) out.attempted = 1;
  const double error_rate =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  out.Add(&out.per_layer, "error_rate", error_rate, "ratio");
  out.Add(&out.per_layer, "query_samples", static_cast<double>(out.samples),
          "count");

  const std::vector<Metric> e2e = Canonical(kEndToEnd, out.end_to_end);
  const std::vector<Metric> layers = Canonical(kPerLayer, out.per_layer);
  const std::string nproc = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  const std::string seed = std::to_string(args.seed);
  const std::string provenance =
      "nproc=" + nproc + " build_type=" PERFBENCH_BUILD_TYPE
      " compiler=\"" __VERSION__ "\" commit=" + commit + " seed=" + seed;

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("provenance %s\n", provenance.c_str());
  for (const Metric& m : e2e) {
    std::printf("%-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : out.per_layer) {
    std::printf("%-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("requests attempted %llu failed %llu (query samples %llu, "
              "commit samples %llu)\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.samples),
              static_cast<unsigned long long>(out.commit_samples));
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "FAILED: %s\n", p.c_str());
  }

  const std::string result =
      std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(out.attempted) +
      ", \"failed\": " + std::to_string(out.failed) +
      ", \"metrics\": " + MetricsJson(args.trace ? layers : e2e) + "}";
  std::ofstream record(args.out_dir + "/record-" + args.workload + "-" +
                       std::to_string(args.seed) + "-trace" +
                       (args.trace ? "1" : "0") + ".json");
  record << "{\"workload\": \"" << args.workload << "\", \"seed\": " << seed
         << ", \"seconds\": " << Num(args.seconds)
         << ", \"trace\": " << (args.trace ? 1 : 0)
         << ", \"provenance\": {\"nproc\": " << nproc
         << ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\""
         << ", \"compiler\": \"" __VERSION__ "\", \"commit\": \"" << commit
         << "\"}, \"end_to_end\": " << MetricsJson(e2e)
         << ", \"per_layer\": " << MetricsJson(out.per_layer)
         << ", \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
