// The durable-server workload, server_rw: gqld --data-dir with default
// flags (fsync per commit, checkpoint every 64 WAL records), driven over
// loopback by kConnections closed-loop connections of this process.
//
// Reads are prepared (kPrepare/kExecute) graphs-at-a-time selections over
// a DBLP-like collection published at set-up, with seeded parameters; the
// templates repeat, so the plan cache can pay. Every kWriteEvery-th
// request of a connection is a kPublish of a small collection under one
// of kNamesPerConnection rotating names. Every read answer is compared
// with an in-process Evaluator over the same documents.
//
// After the timed window gqld is SIGKILLed and restarted on the same
// directory: recovery_s runs until the first answered query, and every
// acknowledged publish must be visible with its last acknowledged
// content. A clean shutdown then gives space_amp.
//
// The traced run replays each request in-process, one span per call:
// the protocol codec, Session::Handle on an in-memory store, the durable
// store's LogPublish/MaybeCheckpoint on a scratch directory, and a kPing
// round trip on the same connection for the transport.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exec/evaluator.h"
#include "exec/registry.h"
#include "harness.h"
#include "io/serialize.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/session.h"
#include "server/store.h"
#include "storage/engine.h"
#include "workload/dblp.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using graphql::Graph;
using graphql::GraphCollection;
using graphql::StatusCode;
using graphql::Value;
using graphql::server::Client;
using graphql::server::Op;
using graphql::server::Request;
using graphql::server::Response;

constexpr int kConnections = 2;
constexpr int kWriteEvery = 10;
constexpr int kNamesPerConnection = 4;
constexpr int kLocalDocs = 8;
constexpr int kSetupRepeats = 9;
constexpr size_t kPapers = 2000;
constexpr size_t kAuthors = 600;
constexpr size_t kAuthorDomain = 48;
constexpr size_t kMaxRenderedGraphs = 100;  // As the session renders.

const char* kTemplates[] = {
    "for graph Q { node v <author>; } in doc(\"dblp\") "
    "where Q.booktitle == $1 & Q.year == $2 return Q;",
    "for graph Q { node v <author>; } exhaustive in doc(\"dblp\") "
    "where v.name == $1 return Q;",
    "for graph Q { node v <author>; } exhaustive in doc(\"dblp\") "
    "where v.name == $1 & Q.year >= $2 return Q;",
};
constexpr int kNumTemplates = 3;

const char* kVenues[] = {"SIGMOD", "VLDB", "ICDE", "KDD"};

/// A gqld child process. The destructor kills and reaps it.
class Gqld {
 public:
  Gqld() = default;
  ~Gqld() { Stop(SIGKILL); }
  Gqld(const Gqld&) = delete;
  Gqld& operator=(const Gqld&) = delete;

  bool Start(const std::string& bin, const std::string& dir,
             const std::string& log, std::string* err) {
    int fds[2];
    if (pipe(fds) != 0) {
      *err = "pipe failed";
      return false;
    }
    pid_ = fork();
    if (pid_ < 0) {
      *err = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      // gqld must not outlive the benchmark, even if it is killed.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(fds[1], 1);
      int lf = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (lf >= 0) dup2(lf, 2);
      close(fds[0]);
      execl(bin.c_str(), "gqld", "--port", "0", "--print-port", "--data-dir",
            dir.c_str(), static_cast<char*>(nullptr));
      _exit(127);
    }
    close(fds[1]);
    std::string line;
    auto t0 = Clock::now();
    while (line.find('\n') == std::string::npos && SecondsSince(t0) < 60) {
      pollfd p{fds[0], POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      char buf[64];
      ssize_t n = read(fds[0], buf, sizeof(buf));
      if (n <= 0) break;
      line.append(buf, static_cast<size_t>(n));
    }
    close(fds[0]);
    if (line.rfind("PORT ", 0) != 0) {
      Stop(SIGKILL);
      std::ifstream f(log);
      std::string text((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
      *err = "gqld did not report a port; its log ends: " +
             text.substr(text.size() > 400 ? text.size() - 400 : 0);
      return false;
    }
    port_ = std::atoi(line.c_str() + 5);
    return true;
  }

  /// Sends `sig` and waits for the process to end.
  void Stop(int sig) {
    if (pid_ <= 0) return;
    kill(pid_, sig);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

Request Req(Op op, std::string a = "", std::string b = "") {
  Request r;
  r.op = op;
  r.a = std::move(a);
  r.b = std::move(b);
  return r;
}

struct Read {
  int tmpl = 0;
  std::vector<Value> params;
};

std::string ParamKey(int tmpl, const std::vector<Value>& params) {
  std::string k = std::to_string(tmpl);
  for (const Value& v : params) k.append("|").append(v.ToString());
  return k;
}

/// The answer part of the body Session::RunQuery renders for a
/// successful query: bound variables, returned graphs and the limit
/// report. The static-analysis diagnostics that precede it are advisory
/// and not compared (see MatchesAnswer).
std::string RenderAnswer(const graphql::exec::QueryResult& r) {
  std::string body;
  for (const auto& [name, g] : r.variables) {
    body += "bound " + name + ": " + std::to_string(g.NumNodes()) +
            " nodes, " + std::to_string(g.NumEdges()) + " edges\n";
  }
  if (r.returned.size() > 0) {
    body += "returned " + std::to_string(r.returned.size()) + " graphs:\n";
    size_t shown = 0;
    for (const Graph& g : r.returned) {
      body += graphql::io::WriteGraphText(g) + "\n";
      if (++shown >= kMaxRenderedGraphs &&
          r.returned.size() > kMaxRenderedGraphs) {
        body += "... (" + std::to_string(r.returned.size() - shown) +
                " more)\n";
        break;
      }
    }
  }
  return body + r.limits.ToString();
}

/// True when a response body carries `answer` after nothing but rendered
/// diagnostics.
bool MatchesAnswer(const std::string& body, const std::string& answer) {
  if (body.size() < answer.size() ||
      body.compare(body.size() - answer.size(), answer.size(), answer) != 0) {
    return false;
  }
  const std::string prefix = body.substr(0, body.size() - answer.size());
  return prefix.empty() || prefix.rfind("error[", 0) == 0 ||
         prefix.rfind("warning[", 0) == 0 || prefix.rfind("note[", 0) == 0;
}

/// The first line where two bodies differ, for failure reports.
std::string FirstDifference(const std::string& want, const std::string& got) {
  size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  const size_t line = want.rfind('\n', i == 0 ? 0 : i - 1);
  const size_t from = line == std::string::npos ? 0 : line + 1;
  return "want '" + want.substr(from, 80) + "' got '" + got.substr(from, 80) +
         "'";
}

/// Every input of one run, derived from the seed.
struct Inputs {
  std::string dblp_text;
  std::vector<std::string> authors;  ///< Parameter domain for $1 names.
  /// local[c][j]: text of connection c's j-th small collection.
  std::vector<std::vector<std::string>> local;
  std::map<std::string, std::string> expected;  ///< ParamKey -> body.
};

std::string ProbeQuery(const std::string& doc) {
  return "for graph Q { node x <probe>; } exhaustive in doc(\"" + doc +
         "\") return Q;";
}

std::string SmallCollectionText(uint64_t stamp, graphql::Rng* rng) {
  GraphCollection c("w");
  const int graphs = 1 + static_cast<int>(rng->NextBounded(3));
  for (int g = 0; g < graphs; ++g) {
    Graph x("g" + std::to_string(g));
    const int nodes = 2 + static_cast<int>(rng->NextBounded(3));
    for (int i = 0; i < nodes; ++i) {
      graphql::AttrTuple a("probe");
      a.Set("stamp", Value(static_cast<int64_t>(stamp)));
      a.Set("k", Value(static_cast<int64_t>(rng->NextBounded(1000))));
      x.AddNode(std::string("p").append(std::to_string(i)), std::move(a));
    }
    for (int i = 1; i < nodes; ++i) x.AddEdge(i - 1, i);
    c.Add(std::move(x));
  }
  return graphql::io::WriteCollectionText(c);
}

std::vector<Value> ParamsFor(int tmpl, const Inputs& in, graphql::Rng* rng) {
  const int64_t years[] = {2000, 2004, 2007};
  switch (tmpl) {
    case 0:
      return {Value(kVenues[rng->NextBounded(4)]),
              Value(static_cast<int64_t>(2000 + rng->NextBounded(9)))};
    case 1:
      return {Value(in.authors[rng->NextBounded(in.authors.size())])};
    default:
      return {Value(in.authors[rng->NextBounded(in.authors.size())]),
              Value(years[rng->NextBounded(3)])};
  }
}

/// Runs `text` on an in-process evaluator over `docs` and renders it.
std::string Oracle(graphql::exec::DocumentRegistry* docs,
                   const std::string& text, std::string* err) {
  graphql::exec::Evaluator ev(docs);
  auto r = ev.RunSource(text);
  if (!r.ok()) {
    *err = r.status().ToString();
    return "";
  }
  return RenderAnswer(*r);
}

bool MakeInputs(uint64_t seed, Inputs* in, std::string* err) {
  graphql::Rng rng(seed);
  graphql::workload::DblpOptions opts;
  opts.num_papers = kPapers;
  opts.num_authors = kAuthors;
  in->dblp_text = graphql::io::WriteCollectionText(
      graphql::workload::MakeDblpCollection(opts, &rng));
  for (size_t i = 0; i < kAuthorDomain; ++i) {
    in->authors.push_back(
        std::string("A").append(std::to_string(rng.NextBounded(kAuthors))));
  }
  in->local.resize(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    for (int j = 0; j < kLocalDocs; ++j) {
      in->local[c].push_back(
          SmallCollectionText(static_cast<uint64_t>(c * 100 + j), &rng));
    }
  }
  // Expected answers for the whole parameter domain, computed by an
  // in-process evaluator over the same text the server parses.
  auto dblp = graphql::io::ReadCollectionText(in->dblp_text);
  if (!dblp.ok()) {
    *err = "dblp text: " + dblp.status().ToString();
    return false;
  }
  graphql::exec::DocumentRegistry docs;
  docs.Register("dblp", std::move(dblp).value());
  for (int t = 0; t < kNumTemplates; ++t) {
    std::vector<std::vector<Value>> domain;
    if (t == 0) {
      for (const char* v : kVenues) {
        for (int64_t y = 2000; y <= 2008; ++y) {
          domain.push_back({Value(v), Value(y)});
        }
      }
    } else {
      for (const std::string& a : in->authors) {
        if (t == 1) {
          domain.push_back({Value(a)});
        } else {
          for (int64_t y : {2000, 2004, 2007}) {
            domain.push_back({Value(a), Value(y)});
          }
        }
      }
    }
    for (const auto& params : domain) {
      const std::string key = ParamKey(t, params);
      if (in->expected.count(key) > 0) continue;
      auto text = graphql::server::SubstituteParams(kTemplates[t], params);
      if (!text.ok()) {
        *err = text.status().ToString();
        return false;
      }
      in->expected[key] = Oracle(&docs, *text, err);
      if (!err->empty()) return false;
    }
  }
  return true;
}

/// One connection's client state.
struct Conn {
  Client client;
  graphql::Rng rng{1};
  uint64_t seq = 0;
  std::map<std::string, int> acked;  ///< Publish name -> local doc index.
  std::vector<double> read_ms;
  std::vector<std::string> read_key;  ///< ParamKey of each read.
  std::vector<double> commit_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  std::vector<std::string> problems;

  void Fail(const std::string& why) {
    ++failed;
    if (problems.size() < 4) problems.push_back(why);
  }
};

Request MakeRequest(Conn* c, int conn, const Inputs& in, Read* read,
                    int* local) {
  Request req;
  ++c->seq;
  if (c->seq % kWriteEvery == 0) {
    const uint64_t w = c->seq / kWriteEvery;
    req.op = Op::kPublish;
    req.a = "pub" + std::to_string(conn) + "_" +
            std::to_string(w % kNamesPerConnection);
    *local = static_cast<int>(c->rng.NextBounded(kLocalDocs));
    req.b = "w" + std::to_string(*local);
    return req;
  }
  read->tmpl = static_cast<int>(c->rng.NextBounded(kNumTemplates));
  read->params = ParamsFor(read->tmpl, in, &c->rng);
  req.op = Op::kExecute;
  req.a = "t" + std::to_string(read->tmpl);
  req.params = read->params;
  return req;
}

/// Checks a response; returns true when it counts as answered.
bool CheckResponse(Conn* c, const Inputs& in, const Request& req,
                   const Read& read, int local,
                   const graphql::Result<Response>& resp) {
  ++c->attempted;
  if (!resp.ok()) {
    c->Fail("transport: " + resp.status().ToString());
    return false;
  }
  if (resp->code != StatusCode::kOk) {
    if (resp->code == StatusCode::kResourceExhausted &&
        resp->retry_after_ms > 0) {
      ++c->shed;
    }
    c->Fail(std::string(graphql::server::OpName(req.op)) + " refused: " +
            resp->body.substr(0, 200));
    return false;
  }
  if (req.op == Op::kPublish) {
    c->acked[req.a] = local;
    return true;
  }
  auto it = in.expected.find(ParamKey(read.tmpl, read.params));
  if (it == in.expected.end() || !MatchesAnswer(resp->body, it->second)) {
    c->Fail("wrong answer for " + ParamKey(read.tmpl, read.params) + ": " +
            FirstDifference(it == in.expected.end() ? "" : it->second,
                            resp->body));
    return false;
  }
  return true;
}

graphql::Status Setup(const Inputs& in, const std::string& gqld,
             const std::string& dir, const std::string& log, Gqld* server,
             std::vector<std::unique_ptr<Conn>>* conns, uint64_t seed) {
  std::string err;
  if (!server->Start(gqld, dir, log, &err)) {
    return graphql::Status::Internal(err);
  }
  conns->clear();
  for (int c = 0; c < kConnections; ++c) {
    auto conn = std::make_unique<Conn>();
    conn->rng = graphql::Rng(seed * 31 + static_cast<uint64_t>(c) + 7);
    graphql::Status st = conn->client.Connect("127.0.0.1", server->port());
    if (!st.ok()) return st;
    conns->push_back(std::move(conn));
  }
  auto call = [](Client* cl, Request req) -> graphql::Status {
    auto r = cl->Call(req);
    if (!r.ok()) return r.status();
    if (r->code != StatusCode::kOk) {
      return graphql::Status::Internal(std::string(graphql::server::OpName(
                                           req.op)) +
                                       ": " + r->body);
    }
    return graphql::Status::OK();
  };
  Client* c0 = &(*conns)[0]->client;
  // Loaded under another local name, so no session doc shadows the
  // published one.
  GQL_RETURN_IF_ERROR(call(c0, Req(Op::kLoadText, "dblp_src", in.dblp_text)));
  GQL_RETURN_IF_ERROR(call(c0, Req(Op::kPublish, "dblp", "dblp_src")));
  for (int c = 0; c < kConnections; ++c) {
    Client* cl = &(*conns)[c]->client;
    for (int t = 0; t < kNumTemplates; ++t) {
      GQL_RETURN_IF_ERROR(
          call(cl, Req(Op::kPrepare, "t" + std::to_string(t), kTemplates[t])));
    }
    for (int j = 0; j < kLocalDocs; ++j) {
      GQL_RETURN_IF_ERROR(
          call(cl, Req(Op::kLoadText, "w" + std::to_string(j),
                       in.local[c][j])));
    }
  }
  return graphql::Status::OK();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

/// In-process mirror of the server used by the traced run's replay.
struct Replay {
  graphql::server::GraphStore store;
  graphql::server::AdmissionController admission{
      graphql::server::AdmissionConfig{}};
  graphql::server::ServerCounters counters;
  std::vector<std::unique_ptr<graphql::server::Session>> sessions;
  std::unique_ptr<graphql::storage::DurableStore> durable;
  graphql::storage::DurableStore::DocMap docs;
  uint64_t version = 0;
  std::mutex commit_mu;  // The store's commit lock, for LogPublish.
  // Storage counters, under commit_mu.
  double wal_bytes = 0;
  uint64_t commits = 0;
  std::vector<double> checkpoint_ms;
};

}  // namespace

RunOutcome RunServer(const Args& args) {
  RunOutcome out;
  if (args.gqld.empty()) {
    out.Fail("server_rw needs --gqld");
    return out;
  }
  Inputs in;
  std::string err;
  if (!MakeInputs(args.seed, &in, &err)) {
    out.Fail("inputs: " + err);
    return out;
  }
  const std::string base =
      args.out_dir + "/server-" + std::to_string(args.seed) + "-" +
      std::to_string(getpid());
  fs::remove_all(base);
  fs::create_directories(base);
  const std::string log = base + "/gqld.log";
  // Declared before the server, so the directory goes after gqld has.
  struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } cleanup{base};

  // ---- Set-up, several times; the last server is kept. ----
  Gqld server;
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<double> setup_s;
  std::string dir;
  auto collect = [&out](std::vector<std::unique_ptr<Conn>>* cs) {
    for (auto& cn : *cs) {
      out.attempted += cn->attempted;
      out.failed += cn->failed;
      for (const std::string& p : cn->problems) {
        if (out.problems.size() < 8) out.problems.push_back(p);
      }
      cn->attempted = cn->failed = 0;
      cn->problems.clear();
    }
  };
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (r > 0) {
      collect(&conns);
      conns.clear();
      server.Stop(SIGKILL);  // Its data is discarded; skip the checkpoint.
      fs::remove_all(dir);
    }
    dir = base + "/data" + std::to_string(r);
    auto t0 = Clock::now();
    graphql::Status st =
        Setup(in, args.gqld, dir, log, &server, &conns, args.seed);
    if (!st.ok()) {
      out.Fail("setup: " + st.ToString());
      return out;
    }
    // Warm-up: every template on every connection, and one publish each.
    for (int c = 0; c < kConnections; ++c) {
      Conn* cn = conns[c].get();
      for (int t = 0; t < kNumTemplates; ++t) {
        Request req = Req(Op::kExecute, "t" + std::to_string(t));
        Read rd{t, ParamsFor(t, in, &cn->rng)};
        req.params = rd.params;
        CheckResponse(cn, in, req, rd, 0, cn->client.Call(req));
      }
      Request pub = Req(Op::kPublish, "pub" + std::to_string(c) + "_0", "w0");
      CheckResponse(cn, in, pub, Read{}, 0, cn->client.Call(pub));
    }
    setup_s.push_back(SecondsSince(t0));
  }

  // ---- Timed window(s): untraced, then (trace mode) traced. ----
  Replay replay;
  std::vector<SpanLog> logs(kConnections);
  // Runs the closed loop for `seconds`; returns the wall time it took.
  auto run_phase = [&](double seconds, bool traced) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    auto t0 = Clock::now();
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        Conn* cn = conns[c].get();
        SpanLog* lg = &logs[c];
        while (!stop.load(std::memory_order_relaxed)) {
          Read rd;
          int local = 0;
          Request req = MakeRequest(cn, c, in, &rd, &local);
          const uint64_t id = (static_cast<uint64_t>(c) << 40) | cn->seq;
          std::optional<ScopedSpan> root;
          int call_span = -1;
          if (traced) {
            root.emplace(lg, "request", id);
            call_span = lg->Begin("server.call", id, root->id());
          }
          auto t1 = Clock::now();
          auto resp = cn->client.Call(req);
          const double ms = SecondsSince(t1) * 1e3;
          if (traced) lg->End(call_span);
          if (CheckResponse(cn, in, req, rd, local, resp)) {
            if (req.op == Op::kPublish) {
              cn->commit_ms.push_back(ms);
            } else {
              cn->read_ms.push_back(ms);
              cn->read_key.push_back(ParamKey(rd.tmpl, rd.params));
            }
          }
          if (!traced || !resp.ok()) continue;
          const int parent = root->id();
          {
            ScopedSpan s(lg, "server.codec", id, parent);
            std::string frame = graphql::server::EncodeRequest(req);
            auto dreq = graphql::server::DecodeRequest(
                std::string_view(frame).substr(4));
            std::string rframe = graphql::server::EncodeResponse(*resp);
            auto dresp = graphql::server::DecodeResponse(
                std::string_view(rframe).substr(4));
            if (!dreq.ok() || !dresp.ok()) cn->Fail("codec round trip");
          }
          {
            ScopedSpan s(lg, "server.session", id, parent);
            replay.sessions[c]->Handle(req);
          }
          if (req.op == Op::kPublish) {
            auto coll = graphql::io::ReadCollectionText(in.local[c][local]);
            if (!coll.ok()) {
              cn->Fail("replay collection: " + coll.status().ToString());
              continue;
            }
            std::lock_guard<std::mutex> lock(replay.commit_mu);
            const uint64_t before = replay.durable->wal_bytes();
            const uint64_t version = ++replay.version;
            {
              ScopedSpan s(lg, "storage.log_publish", id, parent);
              graphql::Status st =
                  replay.durable->LogPublish(req.a, *coll, version);
              if (!st.ok()) cn->Fail("replay LogPublish: " + st.ToString());
            }
            replay.wal_bytes +=
                static_cast<double>(replay.durable->wal_bytes() - before);
            ++replay.commits;
            replay.docs[req.a] =
                std::make_shared<const GraphCollection>(std::move(*coll));
            const uint64_t cps = replay.durable->checkpoints();
            auto tc = Clock::now();
            {
              ScopedSpan s(lg, "storage.checkpoint", id, parent);
              graphql::Status st =
                  replay.durable->MaybeCheckpoint(replay.docs, version);
              if (!st.ok()) cn->Fail("replay checkpoint: " + st.ToString());
            }
            if (replay.durable->checkpoints() > cps) {
              replay.checkpoint_ms.push_back(SecondsSince(tc) * 1e3);
            }
          }
          {
            ScopedSpan s(lg, "server.wire", id, parent);
            auto pong = cn->client.Call(Req(Op::kPing));
            if (!pong.ok()) cn->Fail("ping: " + pong.status().ToString());
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    for (auto& t : threads) t.join();
    return SecondsSince(t0);
  };

  const double window = args.trace ? args.seconds / 2 : args.seconds;
  const double untraced_s = run_phase(window, false);
  std::vector<double> read_ms;
  std::vector<double> commit_ms;
  std::vector<double> all_ms;
  uint64_t shed = 0;
  std::vector<size_t> read_key;
  std::map<std::string, size_t> key_ids;
  for (auto& cn : conns) {
    read_ms.insert(read_ms.end(), cn->read_ms.begin(), cn->read_ms.end());
    commit_ms.insert(commit_ms.end(), cn->commit_ms.begin(),
                     cn->commit_ms.end());
    for (const std::string& k : cn->read_key) {
      read_key.push_back(key_ids.emplace(k, key_ids.size()).first->second);
    }
    cn->read_ms.clear();
    cn->read_key.clear();
    cn->commit_ms.clear();
  }
  all_ms = read_ms;
  all_ms.insert(all_ms.end(), commit_ms.begin(), commit_ms.end());
  const double mean_us = Mean(all_ms) * 1e3;

  if (args.trace) {
    // Mirror the server's state: the published collection, the prepared
    // templates and each connection's local documents.
    auto dblp = graphql::io::ReadCollectionText(in.dblp_text);
    const std::string rdir = base + "/replay";
    graphql::storage::DurableStore::Options dopts;
    dopts.dir = rdir;
    auto opened = graphql::storage::DurableStore::Open(dopts);
    if (!dblp.ok() || !opened.ok()) {
      out.Fail("replay setup failed");
      return out;
    }
    replay.durable = std::move(opened).value();
    auto shared = std::make_shared<const GraphCollection>(*dblp);
    replay.docs["dblp"] = shared;
    (void)replay.durable->LogPublish("dblp", *shared, ++replay.version);
    (void)replay.store.Publish("dblp", std::move(dblp).value());
    graphql::server::SessionContext ctx;
    ctx.store = &replay.store;
    ctx.admission = &replay.admission;
    ctx.counters = &replay.counters;
    for (int c = 0; c < kConnections; ++c) {
      replay.sessions.push_back(
          std::make_unique<graphql::server::Session>(c + 1, ctx));
      for (int t = 0; t < kNumTemplates; ++t) {
        replay.sessions[c]->Handle(
            Req(Op::kPrepare, "t" + std::to_string(t), kTemplates[t]));
      }
      for (int j = 0; j < kLocalDocs; ++j) {
        replay.sessions[c]->Handle(
            Req(Op::kLoadText, "w" + std::to_string(j), in.local[c][j]));
      }
    }
    run_phase(window, true);
    std::vector<Span> spans;
    for (int c = 0; c < kConnections; ++c) {
      const int offset = static_cast<int>(spans.size());
      for (Span s : logs[c].spans()) {
        if (s.parent >= 0) s.parent += offset;
        s.lane = c + 1;
        spans.push_back(std::move(s));
      }
    }
    double requests = 0;
    double call_us = 0;
    for (const Span& s : spans) {
      if (s.name == "request") requests += 1;
      if (s.name == "server.call") call_us += (s.end_ns - s.start_ns) / 1e3;
    }
    std::map<std::string, double> self = SelfTimesUs(spans);
    double layers_us = 0;
    auto layer = [&](const char* span, const char* metric) {
      const double us = requests > 0 ? self[span] / requests : 0;
      layers_us += us;
      out.Add(&out.per_layer, metric, us, "us");
    };
    layer("server.codec", "server.codec_us");
    layer("server.session", "server.session_us");
    layer("server.wire", "server.wire_us");
    layer("storage.log_publish", "storage.log_publish_us");
    layer("storage.checkpoint", "storage.maybe_checkpoint_us");
    // The ledger: the layers' self times plus this gap make up the traced
    // client latency, which obs.trace_overhead relates to the untraced one.
    const double traced_us = requests > 0 ? call_us / requests : 0;
    out.Add(&out.per_layer, "exec.unattributed_us", traced_us - layers_us,
            "us");
    uint64_t hits = 0;
    uint64_t misses = 0;
    for (auto& s : replay.sessions) {
      hits += s->evaluator()->metrics()->GetCounter("plan_cache.hit")->Value();
      misses +=
          s->evaluator()->metrics()->GetCounter("plan_cache.miss")->Value();
    }
    out.Add(&out.per_layer, "exec.plan_cache_hit_ratio",
            hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0,
            "ratio");
    out.Add(&out.per_layer, "storage.wal_bytes_per_commit",
            replay.commits > 0 ? replay.wal_bytes / replay.commits : 0,
            "bytes");
    out.Add(&out.per_layer, "storage.checkpoint_ms",
            Mean(replay.checkpoint_ms), "ms");
    out.Add(&out.per_layer, "storage.checkpoints",
            static_cast<double>(replay.checkpoint_ms.size()), "count");
    out.Add(&out.per_layer, "obs.trace_overhead",
            mean_us > 0 ? traced_us / mean_us - 1 : 0,
            "ratio");
    replay.sessions.clear();
    replay.durable.reset();
    WriteTrace(args, spans, &out);
  }
  for (auto& cn : conns) shed += cn->shed;
  collect(&conns);
  const double peak_mib = PeakRssMiB(std::to_string(server.pid()));

  // ---- Durability: SIGKILL, restart, first answer, acknowledged state. ----
  std::map<std::string, std::string> acked_text;
  for (int c = 0; c < kConnections; ++c) {
    for (const auto& [name, local] : conns[c]->acked) {
      acked_text[name] = in.local[c][local];
    }
  }
  conns.clear();
  server.Stop(SIGKILL);
  const std::string probe_text = *graphql::server::SubstituteParams(
      kTemplates[0], {Value(kVenues[0]), Value(int64_t{2004})});
  const std::string& probe_body =
      in.expected.at(ParamKey(0, {Value(kVenues[0]), Value(int64_t{2004})}));
  auto t0 = Clock::now();
  double recovery_s = 0;
  {
    if (!server.Start(args.gqld, dir, log, &err)) {
      out.Fail("restart: " + err);
      return out;
    }
    Client cl;
    bool answered = false;
    while (!answered && SecondsSince(t0) < 60) {
      if (!cl.connected() && !cl.Connect("127.0.0.1", server.port()).ok()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      auto r = cl.Call(Req(Op::kQuery, probe_text));
      answered = r.ok() && r->code == StatusCode::kOk;
      if (answered && !MatchesAnswer(r->body, probe_body)) {
        out.Fail("wrong answer after restart");
      }
      if (!r.ok()) cl.Close();
    }
    recovery_s = SecondsSince(t0);
    if (!answered) out.Fail("no answer after restart");
    // Every acknowledged publish, with its last acknowledged content.
    graphql::exec::DocumentRegistry expected_docs;
    uint64_t live_bytes = in.dblp_text.size();
    for (const auto& [name, text] : acked_text) {
      expected_docs.Register(name, *graphql::io::ReadCollectionText(text));
      live_bytes += text.size();
    }
    for (const auto& [name, text] : acked_text) {
      ++out.attempted;
      std::string oerr;
      const std::string want = Oracle(&expected_docs, ProbeQuery(name), &oerr);
      auto r = cl.Call(Req(Op::kQuery, ProbeQuery(name)));
      if (!r.ok() || r->code != StatusCode::kOk ||
          !MatchesAnswer(r->body, want)) {
        out.Fail("acknowledged publish " + name + " lost or stale");
      }
    }
    (void)cl.Call(Req(Op::kClose));
    cl.Close();
    server.Stop(SIGTERM);
    const double space_amp =
        static_cast<double>(DirBytes(dir)) / static_cast<double>(live_bytes);
    out.Add(&out.per_layer, "space_amp", space_amp, "ratio");
  }
  if (args.trace) {
    auto to = Clock::now();
    graphql::storage::DurableStore::Options dopts;
    dopts.dir = dir;
    auto opened = graphql::storage::DurableStore::Open(dopts);
    const double open_ms = SecondsSince(to) * 1e3;
    if (!opened.ok()) out.Fail("reopen: " + opened.status().ToString());
    out.Add(&out.per_layer, "storage.open_ms", open_ms, "ms");
  }

  out.Add(&out.per_layer, "commit_p50_ms", Percentile(commit_ms, 0.5), "ms");
  out.Add(&out.per_layer, "commit_p99_ms", Percentile(commit_ms, 0.99), "ms");
  out.Add(&out.per_layer, "recovery_s", recovery_s, "s");
  out.Add(&out.per_layer, "server.shed_ratio",
          out.attempted > 0 ? static_cast<double>(shed) / out.attempted : 0,
          "ratio");
  out.Add(&out.end_to_end, "setup_s", Median(setup_s), "s");
  // Each read at the median latency of its template and parameters
  // (harness.h, MedianPerKey).
  const std::vector<double> typical_ms = MedianPerKey(read_ms, read_key);
  out.Add(&out.end_to_end, "queries_per_s", read_ms.size() / untraced_s,
          "1/s");
  out.Add(&out.end_to_end, "query_p50_ms", Percentile(typical_ms, 0.5), "ms");
  out.Add(&out.end_to_end, "query_p95_ms", Percentile(typical_ms, 0.95),
          "ms");
  out.Add(&out.end_to_end, "peak_rss_mb", peak_mib, "MiB");
  out.samples = read_ms.size();
  out.commit_samples = commit_ms.size();
  if (out.failed > 0) out.correct = false;
  return out;
}

}  // namespace perfbench
