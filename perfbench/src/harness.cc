#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

extern char** environ;

namespace perfbench {

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::clamp(p, 0.0, 1.0) * (xs.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo);
}

double Median(std::vector<double> xs) { return Percentile(std::move(xs), 0.5); }

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double sum = 0;
  for (double x : xs) sum += x;
  return sum / xs.size();
}

std::vector<double> MedianPerKey(const std::vector<double>& xs,
                                 const std::vector<size_t>& keys) {
  std::map<size_t, std::vector<double>> by_key;
  for (size_t i = 0; i < xs.size(); ++i) by_key[keys[i]].push_back(xs[i]);
  std::map<size_t, double> median;
  for (const auto& [key, v] : by_key) median[key] = Median(v);
  std::vector<double> out;
  for (size_t i = 0; i < xs.size(); ++i) out.push_back(median[keys[i]]);
  return out;
}

int SpanLog::Begin(const std::string& name, uint64_t request, int parent) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) {
  spans_[id].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
}

std::map<std::string, double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[s.parent].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the child intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3;
  }
  return out;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
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
  return out;
}

void EmitSpan(const std::vector<Span>& spans,
              const std::vector<std::vector<int>>& kids, int id,
              std::ostringstream* out, bool* first) {
  const Span& s = spans[id];
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s\n{\"name\":\"%s\",\"ph\":\"B\",\"pid\":1,\"tid\":%d,"
                "\"ts\":%.3f,\"args\":{\"request\":%llu}}",
                *first ? "" : ",", JsonEscape(s.name).c_str(), s.lane,
                s.start_ns / 1e3,
                static_cast<unsigned long long>(s.request));
  *out << buf;
  *first = false;
  for (int k : kids[id]) EmitSpan(spans, kids, k, out, first);
  std::snprintf(buf, sizeof(buf),
                ",\n{\"name\":\"%s\",\"ph\":\"E\",\"pid\":1,\"tid\":%d,"
                "\"ts\":%.3f}",
                JsonEscape(s.name).c_str(), s.lane, s.end_ns / 1e3);
  *out << buf;
}

}  // namespace

bool WriteChromeTrace(const std::vector<Span>& spans,
                      const std::string& path) {
  std::vector<std::vector<int>> kids(spans.size());
  std::vector<int> roots;
  std::set<int> lanes;
  for (size_t i = 0; i < spans.size(); ++i) {
    lanes.insert(spans[i].lane);
    if (spans[i].parent >= 0) {
      kids[spans[i].parent].push_back(static_cast<int>(i));
    } else {
      roots.push_back(static_cast<int>(i));
    }
  }
  std::ostringstream out;
  out << "{\"traceEvents\":[\n"
         "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"perfbench\"}}";
  for (int lane : lanes) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << lane << ",\"args\":{\"name\":\"client-" << lane << "\"}}";
  }
  bool first = false;
  for (int r : roots) EmitSpan(spans, kids, r, &out, &first);
  out << "\n]}\n";
  std::ofstream f(path);
  f << out.str();
  return static_cast<bool>(f);
}

EdgeSet::EdgeSet(const graphql::Graph& g) {
  keys_.reserve(g.NumEdges() * 2);
  for (graphql::EdgeId e = 0; e < static_cast<graphql::EdgeId>(g.NumEdges());
       ++e) {
    const auto& edge = g.edge(e);
    keys_.insert((static_cast<uint64_t>(edge.src) << 32) | edge.dst);
    keys_.insert((static_cast<uint64_t>(edge.dst) << 32) | edge.src);
  }
}

bool EdgeSet::Has(graphql::NodeId a, graphql::NodeId b) const {
  return keys_.count((static_cast<uint64_t>(a) << 32) | b) > 0;
}

bool IsEmbedding(const CheckPattern& p, const graphql::Graph& data,
                 const EdgeSet& edges,
                 const std::vector<graphql::NodeId>& mapping,
                 std::string* why) {
  if (mapping.size() != p.labels.size()) {
    *why = "mapping has " + std::to_string(mapping.size()) +
           " nodes, pattern " + std::to_string(p.labels.size());
    return false;
  }
  std::unordered_set<graphql::NodeId> used;
  for (size_t u = 0; u < mapping.size(); ++u) {
    const graphql::NodeId v = mapping[u];
    if (v < 0 || static_cast<size_t>(v) >= data.NumNodes()) {
      *why = "node " + std::to_string(u) + " maps outside the graph";
      return false;
    }
    if (!used.insert(v).second) {
      *why = "data node " + std::to_string(v) + " used twice";
      return false;
    }
    const graphql::AttrTuple& attrs = data.node(v).attrs;
    if (!p.labels[u].empty()) {
      std::optional<graphql::Value> label = attrs.Get("label");
      if (!label || !label->is_string() || label->AsString() != p.labels[u]) {
        *why = "node " + std::to_string(u) + " label mismatch";
        return false;
      }
    }
    if (u < p.preds.size() && p.preds[u] && !p.preds[u](attrs)) {
      *why = "node " + std::to_string(u) + " predicate fails";
      return false;
    }
  }
  for (auto [a, b] : p.edges) {
    if (!edges.Has(mapping[a], mapping[b])) {
      *why = "edge (" + std::to_string(a) + "," + std::to_string(b) +
             ") missing";
      return false;
    }
  }
  return true;
}

void RunOutcome::Fail(const std::string& why) {
  ++failed;
  correct = false;
  if (problems.size() < 8) problems.push_back(why);
}

double PeakRssMiB(const std::string& pid) {
  std::ifstream f("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void ClearGqlEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GQL_", 4) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

}  // namespace perfbench
