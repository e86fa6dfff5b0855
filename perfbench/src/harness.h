// Shared pieces of the end-to-end benchmark: statistics, the in-memory
// span log with its self-time ledger and Chrome-trace writer, the
// independent embedding checker, and the result record every workload
// fills. Nothing here calls into the engine beyond reading graphs.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Statistics ----

/// Linear interpolation between closest ranks (numpy's default): p in
/// [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> xs, double p);
double Median(std::vector<double> xs);
double Mean(const std::vector<double>& xs);

/// Replaces each sample by the median of the samples that share its key
/// (the same request run again: same query, same parameters). Percentiles
/// of the result describe each request's typical latency, so preemption or
/// a burst of contention from outside the process moves them only where it
/// hits more than half of one request's runs.
std::vector<double> MedianPerKey(const std::vector<double>& xs,
                                 const std::vector<size_t>& keys);

// ---- Spans ----

/// One timed call: name, start and end on the steady clock (ns since the
/// log's origin), the index of the span that caused it (-1 for a root)
/// and the request it belongs to.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t request = 0;
  int lane = 1;  ///< Client thread (Chrome-trace tid).
};

/// Spans kept in memory for the whole traced run; written out at exit.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  /// Opens a span under `parent` (-1 = root) and returns its index.
  int Begin(const std::string& name, uint64_t request, int parent = -1);
  void End(int id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII helper: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, uint64_t request,
             int parent = -1)
      : log_(log), id_(log->Begin(name, request, parent)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Self time of every span (its duration minus the part of it covered by
/// its children), summed per span name, in microseconds.
std::map<std::string, double> SelfTimesUs(const std::vector<Span>& spans);

/// Writes the spans as a Chrome trace (B/E pairs on one lane, nested by
/// parent) that tools/check_trace.py accepts. False on I/O failure.
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

// ---- Embedding checker ----

/// A pattern as the checker sees it: per node an optional label and an
/// optional predicate over the data node's attributes, plus undirected
/// edges between pattern node indexes.
struct CheckPattern {
  std::vector<std::string> labels;  ///< Empty string: any label.
  std::vector<std::function<bool(const graphql::AttrTuple&)>> preds;
  std::vector<std::pair<int, int>> edges;
};

/// Undirected edge set of a data graph, built from its edge list.
class EdgeSet {
 public:
  explicit EdgeSet(const graphql::Graph& g);
  bool Has(graphql::NodeId a, graphql::NodeId b) const;

 private:
  std::unordered_set<uint64_t> keys_;
};

/// True when `mapping` (pattern node -> data node) is an embedding: every
/// node in range, labels and predicates hold, every pattern edge is a data
/// edge, and no data node is used twice. `why` gets the first violation.
bool IsEmbedding(const CheckPattern& p, const graphql::Graph& data,
                 const EdgeSet& edges,
                 const std::vector<graphql::NodeId>& mapping,
                 std::string* why);

// ---- Results ----

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> problems;  ///< First few failures, for stderr.
  uint64_t samples = 0;         ///< Query latency samples.
  uint64_t commit_samples = 0;  ///< Commit latency samples (server_rw).

  void Fail(const std::string& why);
  void Add(std::vector<Metric>* to, const std::string& name, double value,
           const std::string& unit) {
    to->push_back({name, value, unit});
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/out";  ///< Traces, records, data dirs.
  std::string gqld;                          ///< Server binary path.
};

/// Peak resident set (VmHWM) of a process in MiB; "self" for this one.
double PeakRssMiB(const std::string& pid = "self");

/// Removes every GQL_* variable from the environment, so in-process
/// engines and spawned servers run at their compiled-in defaults.
void ClearGqlEnvironment();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
