#include "sema/analyzer.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/strings.h"
#include "sema/recursion.h"
#include "sema/satisfiability.h"

namespace graphql::sema {

Status Analysis::ToStatus() const {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) return d.ToStatus();
  }
  return Status::OK();
}

namespace {

constexpr size_t kMaxNesting = 64;

/// Names visible inside one motif context: dotted node and edge names,
/// unioned over all disjunction alternatives. `dynamic` is set when
/// recursion or an unresolved reference makes the full name set unknowable
/// statically; name-resolution errors are then suppressed.
struct Scope {
  std::set<std::string> nodes;
  std::set<std::string> edges;
  bool dynamic = false;

  /// True when `root` is a node/edge name or a prefix of a nested name
  /// ("X" resolves when "X.v1" exists).
  bool RootResolves(const std::string& root) const {
    if (nodes.count(root) || edges.count(root)) return true;
    std::string prefix = root + ".";
    auto it = nodes.lower_bound(prefix);
    if (it != nodes.end() && it->compare(0, prefix.size(), prefix) == 0) {
      return true;
    }
    auto ie = edges.lower_bound(prefix);
    return ie != edges.end() && ie->compare(0, prefix.size(), prefix) == 0;
  }
};

bool ExprHasName(const lang::Expr& e) {
  switch (e.kind) {
    case lang::Expr::Kind::kName:
      return true;
    case lang::Expr::Kind::kBinary:
      return (e.lhs != nullptr && ExprHasName(*e.lhs)) ||
             (e.rhs != nullptr && ExprHasName(*e.rhs));
    default:
      return false;
  }
}

void CollectNameExprs(const lang::Expr& e,
                      std::vector<const lang::Expr*>* out) {
  if (e.kind == lang::Expr::Kind::kName) {
    out->push_back(&e);
  } else if (e.kind == lang::Expr::Kind::kBinary) {
    if (e.lhs != nullptr) CollectNameExprs(*e.lhs, out);
    if (e.rhs != nullptr) CollectNameExprs(*e.rhs, out);
  }
}

void SplitAnd(const lang::ExprPtr& e, std::vector<const lang::Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == lang::Expr::Kind::kBinary && e->op == lang::BinaryOp::kAnd) {
    SplitAnd(e->lhs, out);
    SplitAnd(e->rhs, out);
  } else {
    out->push_back(e.get());
  }
}

/// Mirrors a comparison when the constant sits on the left-hand side:
/// `3 < a.x` constrains x with `> 3`.
lang::BinaryOp MirrorCmp(lang::BinaryOp op) {
  using lang::BinaryOp;
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // ==, != are symmetric.
  }
}

bool IsCmp(lang::BinaryOp op) {
  using lang::BinaryOp;
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

/// Strips the enclosing pattern's name from a dotted path (the runtime
/// binds the pattern name as an alias of the whole scope, so `P.v.x` and
/// `v.x` are the same reference).
std::vector<std::string> StripPattern(const std::vector<std::string>& path,
                                      const std::string& pattern_name) {
  if (path.size() >= 2 && !pattern_name.empty() &&
      path[0] == pattern_name) {
    return std::vector<std::string>(path.begin() + 1, path.end());
  }
  return path;
}

bool BodyHasUnifyOrExport(const lang::GraphBody& body) {
  for (const lang::MemberDecl& m : body.members) {
    if (m.kind == lang::MemberDecl::Kind::kUnify ||
        m.kind == lang::MemberDecl::Kind::kExport) {
      return true;
    }
    if (m.kind == lang::MemberDecl::Kind::kDisjunction) {
      for (const auto& alt : m.alternatives) {
        if (BodyHasUnifyOrExport(*alt)) return true;
      }
    }
  }
  return false;
}

bool BodyHasGraphRef(const lang::GraphBody& body) {
  for (const lang::MemberDecl& m : body.members) {
    if (m.kind == lang::MemberDecl::Kind::kGraphRef) return true;
    if (m.kind == lang::MemberDecl::Kind::kDisjunction) {
      for (const auto& alt : m.alternatives) {
        if (BodyHasGraphRef(*alt)) return true;
      }
    }
  }
  return false;
}

/// The analysis engine. One instance per Analyze() call; statements are
/// processed in program order, mirroring the evaluator's incremental
/// registration of motifs and binding of variables.
class Analyzer {
 public:
  Analyzer(const lang::Program& program, const AnalyzeOptions& options)
      : program_(program), options_(options) {}

  Analysis Run() {
    result_.statements.resize(program_.statements.size());
    for (size_t i = 0; i < program_.statements.size(); ++i) {
      const lang::Statement& stmt = program_.statements[i];
      switch (stmt.kind) {
        case lang::Statement::Kind::kGraphDecl:
          ProcessGraphDecl(stmt, i);
          break;
        case lang::Statement::Kind::kAssign:
          ProcessAssign(stmt, i);
          break;
        case lang::Statement::Kind::kFlwr:
          ProcessFlwr(stmt, i);
          break;
      }
    }
    Finalize();
    return std::move(result_);
  }

 private:
  /// Issues found inside a `graph X {...};` registration statement.
  /// Registration itself never fails at runtime, so these surface as
  /// errors only when some statement actually uses the motif.
  struct DeclRecord {
    std::string name;
    size_t statement = 0;
    std::vector<Diagnostic> issues;  ///< Error when used, warning otherwise.
    std::vector<Diagnostic> lints;   ///< Always warnings.
  };

  const lang::GraphDecl* Lookup(const std::string& name) const {
    auto it = local_decls_.find(name);
    if (it != local_decls_.end()) return it->second;
    return options_.motifs != nullptr ? options_.motifs->Find(name) : nullptr;
  }

  MotifLookup AsLookup() const {
    return [this](const std::string& n) { return Lookup(n); };
  }

  bool VarExists(const std::string& name) const {
    return local_vars_.count(name) > 0 ||
           (options_.variable_exists && options_.variable_exists(name));
  }

  static void Emit(std::vector<Diagnostic>* out, Severity severity,
                   std::string code, std::string message,
                   lang::SourceSpan span, StatusCode status, size_t stmt) {
    Diagnostic d;
    d.severity = severity;
    d.code = std::move(code);
    d.message = std::move(message);
    d.span = span;
    d.status = status;
    d.statement = stmt;
    out->push_back(std::move(d));
  }

  // ---------------------------------------------------------------- scope

  /// Unions every name any derivation of `body` can expose (all
  /// disjunction alternatives; nested motifs under their dotted prefix).
  void CollectInto(const lang::GraphBody& body, const std::string& prefix,
                   std::vector<std::string>* stack, Scope* scope) const {
    for (const lang::MemberDecl& m : body.members) {
      switch (m.kind) {
        case lang::MemberDecl::Kind::kNode:
          if (!m.node.name.empty()) scope->nodes.insert(prefix + m.node.name);
          break;
        case lang::MemberDecl::Kind::kEdge:
          if (!m.edge.name.empty()) scope->edges.insert(prefix + m.edge.name);
          break;
        case lang::MemberDecl::Kind::kExport:
          if (!m.export_decl.as.empty()) {
            scope->nodes.insert(prefix + m.export_decl.as);
          }
          break;
        case lang::MemberDecl::Kind::kGraphRef: {
          const std::string& name = m.graph_ref.graph_name;
          if (std::find(stack->begin(), stack->end(), name) != stack->end() ||
              stack->size() > kMaxNesting) {
            scope->dynamic = true;  // Repetition: deeper names exist.
            break;
          }
          const lang::GraphDecl* target = Lookup(name);
          if (target == nullptr) {
            scope->dynamic = true;  // Reported by the structural check.
            break;
          }
          stack->push_back(name);
          std::string nested =
              prefix + (m.graph_ref.alias.empty() ? name : m.graph_ref.alias) +
              ".";
          CollectInto(target->body, nested, stack, scope);
          stack->pop_back();
          break;
        }
        case lang::MemberDecl::Kind::kUnify:
          break;
        case lang::MemberDecl::Kind::kDisjunction:
          for (const auto& alt : m.alternatives) {
            CollectInto(*alt, prefix, stack, scope);
          }
          break;
      }
    }
  }

  Scope ScopeOf(const lang::GraphDecl& decl) const {
    Scope s;
    std::vector<std::string> stack;
    if (!decl.name.empty()) stack.push_back(decl.name);
    CollectInto(decl.body, "", &stack, &s);
    return s;
  }

  // ------------------------------------------------- pattern/motif checks

  void CheckTupleConst(const lang::TupleLit& tuple,
                       std::vector<Diagnostic>* out, size_t stmt) const {
    for (const auto& [key, expr] : tuple.entries) {
      if (expr == nullptr || FoldConst(*expr)) continue;
      bool named = ExprHasName(*expr);
      Emit(out, Severity::kError, "sema.nonconst-tuple",
           named ? "tuple value for '" + key +
                       "' must be a constant expression in a pattern "
                       "(names are not allowed here)"
                 : "tuple value for '" + key +
                       "' does not evaluate to a constant",
           expr->span, StatusCode::kInvalidArgument, stmt);
    }
  }

  /// Ordered structural walk mirroring motif::MotifBuilder::ExpandMember:
  /// edge endpoints, unify targets, and export sources resolve against the
  /// names accumulated so far; disjunction forks the scope per alternative.
  void CheckPatternBody(const lang::GraphBody& body, const std::string& prefix,
                        Scope* scope, std::vector<std::string>* stack,
                        std::vector<Diagnostic>* out, size_t stmt) const {
    for (const lang::MemberDecl& m : body.members) {
      switch (m.kind) {
        case lang::MemberDecl::Kind::kNode:
          if (m.node.tuple) CheckTupleConst(*m.node.tuple, out, stmt);
          if (!m.node.name.empty()) scope->nodes.insert(prefix + m.node.name);
          break;
        case lang::MemberDecl::Kind::kEdge: {
          const lang::EdgeDecl& e = m.edge;
          if (e.tuple) CheckTupleConst(*e.tuple, out, stmt);
          auto endpoint = [&](const std::vector<std::string>& path,
                             const lang::SourceSpan& span) {
            if (path.empty()) return;
            std::string full = prefix + Join(path, ".");
            if (!scope->dynamic && scope->nodes.count(full) == 0) {
              Emit(out, Severity::kError, "sema.undeclared-node",
                   "edge endpoint '" + Join(path, ".") +
                       "' is not a declared node",
                   span, StatusCode::kNotFound, stmt);
            }
          };
          endpoint(e.src, e.src_span);
          endpoint(e.dst, e.dst_span);
          if (!e.name.empty()) scope->edges.insert(prefix + e.name);
          break;
        }
        case lang::MemberDecl::Kind::kGraphRef: {
          const lang::GraphRefDecl& r = m.graph_ref;
          if (std::find(stack->begin(), stack->end(), r.graph_name) !=
                  stack->end() ||
              stack->size() > kMaxNesting) {
            scope->dynamic = true;  // Recursive reference: repetition.
            break;
          }
          const lang::GraphDecl* target = Lookup(r.graph_name);
          if (target == nullptr) {
            Emit(out, Severity::kError, "sema.unknown-motif",
                 "graph member '" + r.graph_name +
                     "' is not a registered motif",
                 r.span, StatusCode::kNotFound, stmt);
            scope->dynamic = true;  // Suppress cascading name errors.
            break;
          }
          stack->push_back(r.graph_name);
          std::string nested =
              prefix + (r.alias.empty() ? r.graph_name : r.alias) + ".";
          CollectInto(target->body, nested, stack, scope);
          stack->pop_back();
          break;
        }
        case lang::MemberDecl::Kind::kUnify: {
          const lang::UnifyDecl& u = m.unify;
          for (size_t i = 0; i < u.names.size(); ++i) {
            std::string full = prefix + Join(u.names[i], ".");
            if (!scope->dynamic && scope->nodes.count(full) == 0) {
              lang::SourceSpan span =
                  i < u.name_spans.size() ? u.name_spans[i] : u.span;
              Emit(out, Severity::kError, "sema.undeclared-node",
                   "unify target '" + Join(u.names[i], ".") +
                       "' is not a declared node",
                   span, StatusCode::kNotFound, stmt);
            }
          }
          break;
        }
        case lang::MemberDecl::Kind::kExport: {
          const lang::ExportDecl& x = m.export_decl;
          std::string full = prefix + Join(x.source, ".");
          if (!scope->dynamic && scope->nodes.count(full) == 0) {
            Emit(out, Severity::kError, "sema.undeclared-node",
                 "export source '" + Join(x.source, ".") +
                     "' is not a declared node",
                 x.span, StatusCode::kNotFound, stmt);
          }
          if (!x.as.empty()) scope->nodes.insert(prefix + x.as);
          break;
        }
        case lang::MemberDecl::Kind::kDisjunction: {
          if (m.alternatives.size() == 1) {
            // Parser encoding for grouping / multi-declarator statements:
            // the names persist in the enclosing scope.
            CheckPatternBody(*m.alternatives[0], prefix, scope, stack, out,
                             stmt);
            break;
          }
          Scope merged = *scope;
          for (const auto& alt : m.alternatives) {
            Scope branch = *scope;
            CheckPatternBody(*alt, prefix, &branch, stack, out, stmt);
            merged.nodes.insert(branch.nodes.begin(), branch.nodes.end());
            merged.edges.insert(branch.edges.begin(), branch.edges.end());
            merged.dynamic |= branch.dynamic;
          }
          *scope = std::move(merged);
          break;
        }
      }
    }
  }

  /// Flags `X.attr` names in a predicate whose entity X is not declared.
  /// Such a reference reaches the runtime's Bindings::ResolvePath, which
  /// fails with NotFound. A bare name reads an attribute of the node or
  /// edge (inline `where`) or of the graph, and `P.attr` with P the
  /// pattern's own name reads a graph attribute; neither can fail.
  void CheckPredNames(const lang::Expr& expr, const Scope& scope,
                      const std::string& pattern_name,
                      std::vector<Diagnostic>* out, size_t stmt) const {
    if (scope.dynamic) return;
    std::vector<const lang::Expr*> names;
    CollectNameExprs(expr, &names);
    for (const lang::Expr* n : names) {
      const std::vector<std::string>& p = n->path;
      if (p.size() < 2 || scope.RootResolves(p[0])) continue;
      size_t entity = 0;
      if (!pattern_name.empty() && p[0] == pattern_name) {
        if (p.size() == 2 || scope.RootResolves(p[1])) continue;
        entity = 1;
      }
      Emit(out, Severity::kError, "sema.unbound-name",
           "cannot resolve '" + Join(p, ".") + "': '" + p[entity] +
               "' is not a declared node or edge",
           n->span, StatusCode::kNotFound, stmt);
    }
  }

  /// Walks every inline `where` of a body (all alternatives) against the
  /// full scope. `unify ... where` is skipped: its condition has
  /// template-instantiation semantics, not pattern semantics.
  void CheckBodyWheres(const lang::GraphBody& body, const Scope& scope,
                       const std::string& pattern_name,
                       std::vector<Diagnostic>* out, size_t stmt) const {
    for (const lang::MemberDecl& m : body.members) {
      switch (m.kind) {
        case lang::MemberDecl::Kind::kNode:
          if (m.node.where) {
            CheckPredNames(*m.node.where, scope, pattern_name, out, stmt);
          }
          break;
        case lang::MemberDecl::Kind::kEdge:
          if (m.edge.where) {
            CheckPredNames(*m.edge.where, scope, pattern_name, out, stmt);
          }
          break;
        case lang::MemberDecl::Kind::kDisjunction:
          for (const auto& alt : m.alternatives) {
            CheckBodyWheres(*alt, scope, pattern_name, out, stmt);
          }
          break;
        default:
          break;
      }
    }
  }

  /// Full check of a declaration in motif/pattern position: ordered
  /// structure, constant tuples, and predicate name resolution.
  void CheckPatternDecl(const lang::GraphDecl& decl,
                        std::vector<Diagnostic>* out, size_t stmt) const {
    std::vector<std::string> stack;
    if (!decl.name.empty()) stack.push_back(decl.name);
    Scope ordered;
    CheckPatternBody(decl.body, "", &ordered, &stack, out, stmt);
    if (decl.tuple) CheckTupleConst(*decl.tuple, out, stmt);
    Scope full = ScopeOf(decl);
    CheckBodyWheres(decl.body, full, decl.name, out, stmt);
    if (decl.where) {
      CheckPredNames(*decl.where, full, decl.name, out, stmt);
    }
  }

  // --------------------------------------------------------------- unsat

  /// Feeds one `attr <cmp> const` (either orientation) into `cs`. Only
  /// conjuncts whose name side resolves (after pattern-name stripping) to
  /// `entity` contribute.
  static void ApplyCmp(const lang::Expr& conjunct, const std::string& entity,
                       const std::string& pattern_name, ConstraintSet* cs) {
    if (conjunct.kind != lang::Expr::Kind::kBinary || !IsCmp(conjunct.op) ||
        conjunct.lhs == nullptr || conjunct.rhs == nullptr) {
      return;
    }
    const lang::Expr* name = nullptr;
    const lang::Expr* other = nullptr;
    lang::BinaryOp op = conjunct.op;
    if (conjunct.lhs->kind == lang::Expr::Kind::kName) {
      name = conjunct.lhs.get();
      other = conjunct.rhs.get();
    } else if (conjunct.rhs->kind == lang::Expr::Kind::kName) {
      name = conjunct.rhs.get();
      other = conjunct.lhs.get();
      op = MirrorCmp(op);
    } else {
      return;
    }
    std::vector<std::string> path = StripPattern(name->path, pattern_name);
    if (path.size() < 2) return;
    std::string prefix = Join(
        std::vector<std::string>(path.begin(), path.end() - 1), ".");
    if (prefix != entity) return;
    std::optional<Value> constant = FoldConst(*other);
    if (!constant) return;
    cs->Add(path.back(), op, *constant);
  }

  /// True when every name of `conjunct` refers to `entity` — the mirror of
  /// GraphPattern::RouteConjunct routing the conjunct to a single node or
  /// edge, where evaluation failures are swallowed as non-matches (which
  /// makes pruning on a provable contradiction behavior-preserving).
  static bool ConjunctTargets(const lang::Expr& conjunct,
                              const std::string& entity,
                              const std::string& pattern_name) {
    std::vector<const lang::Expr*> names;
    CollectNameExprs(conjunct, &names);
    if (names.empty()) return false;
    for (const lang::Expr* n : names) {
      std::vector<std::string> path = StripPattern(n->path, pattern_name);
      if (path.size() < 2) return false;
      std::string prefix = Join(
          std::vector<std::string>(path.begin(), path.end() - 1), ".");
      if (prefix != entity) return false;
    }
    return true;
  }

  /// A top-level pattern node or edge (present in every derivation).
  struct Entity {
    const lang::NodeDecl* node = nullptr;
    const lang::EdgeDecl* edge = nullptr;
    lang::SourceSpan span;
  };

  static void CollectTopEntities(const lang::GraphBody& body,
                                 std::map<std::string, Entity>* entities,
                                 std::set<std::string>* duplicates) {
    for (const lang::MemberDecl& m : body.members) {
      switch (m.kind) {
        case lang::MemberDecl::Kind::kNode: {
          const std::string& name = m.node.name;
          if (name.empty()) break;
          if (entities->count(name) || duplicates->count(name)) {
            duplicates->insert(name);
            break;
          }
          Entity e;
          e.node = &m.node;
          e.span = m.node.span;
          (*entities)[name] = e;
          break;
        }
        case lang::MemberDecl::Kind::kEdge: {
          const std::string& name = m.edge.name;
          if (name.empty()) break;
          if (entities->count(name) || duplicates->count(name)) {
            duplicates->insert(name);
            break;
          }
          Entity e;
          e.edge = &m.edge;
          e.span = m.edge.span;
          (*entities)[name] = e;
          break;
        }
        case lang::MemberDecl::Kind::kDisjunction:
          // Multi-declarator grouping only; forked alternatives are not
          // part of every derivation and are skipped.
          if (m.alternatives.size() == 1) {
            CollectTopEntities(*m.alternatives[0], entities, duplicates);
          }
          break;
        default:
          break;
      }
    }
  }

  /// Satisfiability analysis for a pattern plus an optional FLWR-level
  /// predicate (the runtime folds the latter into the pattern's `where`).
  /// Sound by construction: only top-level entities (present in every
  /// derivation) are constrained, and only from predicate forms the
  /// matcher evaluates per-entity with error-swallowing semantics.
  void AnalyzeUnsat(const lang::GraphDecl& decl,
                    const lang::ExprPtr& extra_where,
                    const std::string& pattern_name, StatementInfo* info,
                    std::vector<Diagnostic>* out, size_t stmt) const {
    auto mark = [&](std::string reason, lang::SourceSpan span) {
      info->unsatisfiable = true;
      info->unsat_reason = reason;
      Emit(out, Severity::kWarning, "sema.unsat",
           reason + "; the selection is provably empty", span,
           StatusCode::kOk, stmt);
    };

    for (const lang::ExprPtr& w : {decl.where, extra_where}) {
      if (w == nullptr) continue;
      std::optional<Value> v = FoldConst(*w);
      if (v && !v->Truthy()) {
        mark("where clause is constant false", w->span);
        return;
      }
    }

    // Unification/export can merge entities and rewrite their attribute
    // tuples, which invalidates per-entity reasoning; skip it then.
    if (BodyHasUnifyOrExport(decl.body)) return;

    // Top-level named entities (present in every derivation).
    std::map<std::string, Entity> entities;
    std::set<std::string> duplicates;
    CollectTopEntities(decl.body, &entities, &duplicates);
    for (const std::string& d : duplicates) entities.erase(d);
    if (entities.empty()) return;

    std::vector<const lang::Expr*> conjuncts;
    SplitAnd(decl.where, &conjuncts);
    SplitAnd(extra_where, &conjuncts);

    for (auto& [name, entity] : entities) {
      ConstraintSet cs;
      const std::optional<lang::TupleLit>& tuple =
          entity.node != nullptr ? entity.node->tuple : entity.edge->tuple;
      const lang::ExprPtr& inline_where =
          entity.node != nullptr ? entity.node->where : entity.edge->where;

      if (tuple) {
        // Later duplicate keys overwrite earlier ones in AttrTuple.
        std::map<std::string, const lang::Expr*> last;
        for (const auto& [key, expr] : tuple->entries) {
          if (expr != nullptr) last[key] = expr.get();
        }
        for (const auto& [key, expr] : last) {
          std::optional<Value> v = FoldConst(*expr);
          if (v) cs.Add(key, lang::BinaryOp::kEq, *v);
        }
      }

      if (inline_where) {
        std::optional<Value> v = FoldConst(*inline_where);
        if (v && !v->Truthy()) {
          mark("pattern " +
                   std::string(entity.node != nullptr ? "node" : "edge") +
                   " '" + name + "' has a constant-false where clause",
               entity.span);
          return;
        }
        std::vector<const lang::Expr*> own;
        SplitAnd(inline_where, &own);
        for (const lang::Expr* c : own) {
          if (ConjunctTargets(*c, name, pattern_name)) {
            ApplyCmp(*c, name, pattern_name, &cs);
          }
        }
      }

      for (const lang::Expr* c : conjuncts) {
        if (ConjunctTargets(*c, name, pattern_name)) {
          ApplyCmp(*c, name, pattern_name, &cs);
        }
      }

      if (cs.unsat()) {
        mark("pattern " +
                 std::string(entity.node != nullptr ? "node" : "edge") +
                 " '" + name + "' can never match: " + cs.reason(),
             entity.span);
        return;
      }
    }
  }

  // ------------------------------------------------------------ templates

  using ParamFn = std::function<bool(const std::string&)>;

  struct TemplateCtx {
    std::set<std::string> nodes;    ///< Declared node names, verbatim.
    std::set<std::string> aliases;  ///< Roots of absorbed parameter graphs.
    bool dyn = false;               ///< A parameter graph was absorbed.

    bool NodeResolves(const std::string& name) const {
      if (nodes.count(name)) return true;
      std::string prefix = name + ".";
      auto it = nodes.lower_bound(prefix);
      return it != nodes.end() && it->compare(0, prefix.size(), prefix) == 0;
    }
  };

  void CollectTemplateNames(const lang::GraphBody& body,
                            TemplateCtx* ctx) const {
    for (const lang::MemberDecl& m : body.members) {
      switch (m.kind) {
        case lang::MemberDecl::Kind::kNode:
          if (!m.node.name.empty()) ctx->nodes.insert(m.node.name);
          break;
        case lang::MemberDecl::Kind::kExport:
          if (!m.export_decl.as.empty()) ctx->nodes.insert(m.export_decl.as);
          break;
        case lang::MemberDecl::Kind::kGraphRef:
          ctx->aliases.insert(m.graph_ref.alias.empty()
                                  ? m.graph_ref.graph_name
                                  : m.graph_ref.alias);
          ctx->dyn = true;
          break;
        case lang::MemberDecl::Kind::kDisjunction:
          for (const auto& alt : m.alternatives) {
            CollectTemplateNames(*alt, ctx);
          }
          break;
        default:
          break;
      }
    }
  }

  /// Names in template expressions resolve against the supplied parameters
  /// (the runtime evaluates tuple values and conditions with parameter
  /// bindings only); declared nodes and absorbed aliases are accepted
  /// conservatively.
  void CheckTemplateExpr(const lang::Expr& expr, const TemplateCtx& full,
                         const ParamFn& param_exists,
                         std::vector<Diagnostic>* out, size_t stmt) const {
    std::vector<const lang::Expr*> names;
    CollectNameExprs(expr, &names);
    for (const lang::Expr* n : names) {
      const std::vector<std::string>& p = n->path;
      if (p.size() < 2) continue;  // Bare names: not statically decidable.
      if (param_exists(p[0]) || full.aliases.count(p[0]) ||
          full.NodeResolves(p[0])) {
        continue;
      }
      Emit(out, Severity::kError, "sema.unbound-name",
           "cannot resolve '" + Join(p, ".") + "': '" + p[0] +
               "' is neither a supplied parameter nor a declared node",
           n->span, StatusCode::kNotFound, stmt);
    }
  }

  /// Ordered walk of a template body mirroring GraphTemplate::Instantiate:
  /// parameters must be supplied, endpoints resolve against the assembly
  /// scope built so far, and disjunction is unsupported.
  bool CheckTemplateMembers(const lang::GraphBody& body, TemplateCtx* cur,
                            const TemplateCtx& full,
                            const ParamFn& param_exists,
                            std::vector<Diagnostic>* out, size_t stmt,
                            const lang::SourceSpan& fallback) const {
    for (const lang::MemberDecl& m : body.members) {
      switch (m.kind) {
        case lang::MemberDecl::Kind::kNode:
          if (m.node.tuple) {
            for (const auto& [key, expr] : m.node.tuple->entries) {
              if (expr) CheckTemplateExpr(*expr, full, param_exists, out, stmt);
            }
          }
          if (m.node.where) {
            CheckTemplateExpr(*m.node.where, full, param_exists, out, stmt);
          }
          if (!m.node.name.empty()) cur->nodes.insert(m.node.name);
          break;
        case lang::MemberDecl::Kind::kEdge: {
          const lang::EdgeDecl& e = m.edge;
          auto endpoint = [&](const std::vector<std::string>& path,
                             const lang::SourceSpan& span) {
            if (path.empty() || cur->dyn) return;
            if (!cur->NodeResolves(Join(path, "."))) {
              Emit(out, Severity::kError, "sema.undeclared-node",
                   "template edge endpoint '" + Join(path, ".") +
                       "' is not a declared node",
                   span, StatusCode::kNotFound, stmt);
            }
          };
          endpoint(e.src, e.src_span);
          endpoint(e.dst, e.dst_span);
          if (e.tuple) {
            for (const auto& [key, expr] : e.tuple->entries) {
              if (expr) CheckTemplateExpr(*expr, full, param_exists, out, stmt);
            }
          }
          if (e.where) {
            CheckTemplateExpr(*e.where, full, param_exists, out, stmt);
          }
          break;
        }
        case lang::MemberDecl::Kind::kGraphRef:
          if (!param_exists(m.graph_ref.graph_name)) {
            Emit(out, Severity::kError, "sema.missing-param",
                 "template references parameter '" + m.graph_ref.graph_name +
                     "' which was not supplied",
                 m.graph_ref.span, StatusCode::kNotFound, stmt);
          }
          cur->dyn = true;
          cur->aliases.insert(m.graph_ref.alias.empty()
                                  ? m.graph_ref.graph_name
                                  : m.graph_ref.alias);
          break;
        case lang::MemberDecl::Kind::kUnify: {
          const lang::UnifyDecl& u = m.unify;
          for (size_t i = 0; i < u.names.size(); ++i) {
            if (cur->dyn) break;
            if (!cur->NodeResolves(Join(u.names[i], "."))) {
              lang::SourceSpan span =
                  i < u.name_spans.size() ? u.name_spans[i] : u.span;
              Emit(out, Severity::kError, "sema.undeclared-node",
                   "unify target '" + Join(u.names[i], ".") +
                       "' is not a declared node",
                   span, StatusCode::kNotFound, stmt);
            }
          }
          if (u.where) {
            CheckTemplateExpr(*u.where, full, param_exists, out, stmt);
          }
          break;
        }
        case lang::MemberDecl::Kind::kExport:
          if (!cur->dyn &&
              !cur->NodeResolves(Join(m.export_decl.source, "."))) {
            Emit(out, Severity::kError, "sema.undeclared-node",
                 "export source '" + Join(m.export_decl.source, ".") +
                     "' is not a declared node",
                 m.export_decl.span, StatusCode::kNotFound, stmt);
          }
          if (!m.export_decl.as.empty()) cur->nodes.insert(m.export_decl.as);
          break;
        case lang::MemberDecl::Kind::kDisjunction:
          if (m.alternatives.size() == 1) {
            if (!CheckTemplateMembers(*m.alternatives[0], cur, full,
                                      param_exists, out, stmt, fallback)) {
              return false;
            }
            break;
          }
          Emit(out, Severity::kError, "sema.template-disjunction",
               "graph templates do not support disjunction (instantiation "
               "would be ambiguous)",
               fallback, StatusCode::kUnsupported, stmt);
          return false;
      }
    }
    return true;
  }

  void CheckTemplate(const lang::GraphDecl& decl, const ParamFn& param_exists,
                     std::vector<Diagnostic>* out, size_t stmt,
                     const lang::SourceSpan& fallback) const {
    TemplateCtx full;
    CollectTemplateNames(decl.body, &full);
    if (decl.tuple) {
      for (const auto& [key, expr] : decl.tuple->entries) {
        if (expr) CheckTemplateExpr(*expr, full, param_exists, out, stmt);
      }
    }
    if (decl.where) {
      CheckTemplateExpr(*decl.where, full, param_exists, out, stmt);
    }
    TemplateCtx ordered;
    CheckTemplateMembers(decl.body, &ordered, full, param_exists, out, stmt,
                         fallback.valid() ? fallback : decl.span);
  }

  // ---------------------------------------------------------------- lints

  /// Top-level members with multi-declarator groups unwrapped; false when
  /// the body uses composition or disjunction (component analysis would
  /// need derivation enumeration, so the lint skips those).
  static bool FlattenTop(const lang::GraphBody& body,
                         std::vector<const lang::MemberDecl*>* out) {
    for (const lang::MemberDecl& m : body.members) {
      if (m.kind == lang::MemberDecl::Kind::kGraphRef) return false;
      if (m.kind == lang::MemberDecl::Kind::kDisjunction) {
        if (m.alternatives.size() != 1) return false;
        if (!FlattenTop(*m.alternatives[0], out)) return false;
        continue;
      }
      out->push_back(&m);
    }
    return true;
  }

  void LintCartesian(const lang::GraphDecl& decl,
                     std::vector<Diagnostic>* out, size_t stmt) const {
    std::vector<const lang::MemberDecl*> tops;
    if (!FlattenTop(decl.body, &tops)) return;

    std::vector<int> parent;
    std::map<std::string, int> byname;
    auto add = [&](const std::string& name) {
      int id = static_cast<int>(parent.size());
      parent.push_back(id);
      if (!name.empty()) byname[name] = id;
      return id;
    };
    std::function<int(int)> find = [&](int x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    auto unite = [&](int a, int b) {
      if (a < 0 || b < 0) return;
      parent[find(a)] = find(b);
    };
    auto lookup = [&](const std::vector<std::string>& path) {
      auto it = byname.find(Join(path, "."));
      return it == byname.end() ? -1 : it->second;
    };

    size_t named_or_anon_nodes = 0;
    for (const lang::MemberDecl* m : tops) {
      if (m->kind == lang::MemberDecl::Kind::kNode) {
        add(m->node.name);
        ++named_or_anon_nodes;
      } else if (m->kind == lang::MemberDecl::Kind::kExport) {
        if (!m->export_decl.as.empty()) add(m->export_decl.as);
      }
    }
    for (const lang::MemberDecl* m : tops) {
      switch (m->kind) {
        case lang::MemberDecl::Kind::kEdge:
          unite(lookup(m->edge.src), lookup(m->edge.dst));
          break;
        case lang::MemberDecl::Kind::kUnify:
          for (size_t i = 1; i < m->unify.names.size(); ++i) {
            unite(lookup(m->unify.names[0]), lookup(m->unify.names[i]));
          }
          break;
        case lang::MemberDecl::Kind::kExport: {
          auto it = byname.find(m->export_decl.as);
          unite(lookup(m->export_decl.source),
                it == byname.end() ? -1 : it->second);
          break;
        }
        default:
          break;
      }
    }
    if (named_or_anon_nodes < 2) return;
    std::set<int> roots;
    for (int i = 0; i < static_cast<int>(parent.size()); ++i) {
      roots.insert(find(i));
    }
    if (roots.size() >= 2) {
      Emit(out, Severity::kWarning, "lint.cartesian-product",
           "pattern has " + std::to_string(roots.size()) +
               " disconnected components; matches combine as a Cartesian "
               "product",
           decl.span, StatusCode::kOk, stmt);
    }
  }

  /// Collects every binding name a FLWR statement references: pattern
  /// edges/unify/exports, all predicates, and the template.
  void CollectUses(const lang::GraphBody& body, const std::string& pname,
                   std::set<std::string>* used) const {
    auto use_name = [&](const std::vector<std::string>& path) {
      std::vector<std::string> p = StripPattern(path, pname);
      if (p.empty()) return;
      used->insert(p[0]);
      if (p.size() >= 2) {
        used->insert(
            Join(std::vector<std::string>(p.begin(), p.end() - 1), "."));
      }
      used->insert(Join(p, "."));
    };
    auto use_expr = [&](const lang::ExprPtr& e) {
      if (e == nullptr) return;
      std::vector<const lang::Expr*> names;
      CollectNameExprs(*e, &names);
      for (const lang::Expr* n : names) use_name(n->path);
    };
    auto use_tuple = [&](const std::optional<lang::TupleLit>& t) {
      if (!t) return;
      for (const auto& [key, value] : t->entries) use_expr(value);
    };
    for (const lang::MemberDecl& m : body.members) {
      switch (m.kind) {
        case lang::MemberDecl::Kind::kNode:
          // Template nodes may be declared under a dotted match path
          // (`node P.v1;`, Figure 4.12) — that is a use of the binding.
          if (m.node.name.find('.') != std::string::npos) {
            use_name(Split(m.node.name, '.'));
          }
          use_tuple(m.node.tuple);
          use_expr(m.node.where);
          break;
        case lang::MemberDecl::Kind::kEdge:
          use_name(m.edge.src);
          use_name(m.edge.dst);
          use_tuple(m.edge.tuple);
          use_expr(m.edge.where);
          break;
        case lang::MemberDecl::Kind::kUnify:
          for (const auto& n : m.unify.names) use_name(n);
          use_expr(m.unify.where);
          break;
        case lang::MemberDecl::Kind::kExport:
          use_name(m.export_decl.source);
          break;
        case lang::MemberDecl::Kind::kGraphRef:
          used->insert(m.graph_ref.graph_name);
          break;
        case lang::MemberDecl::Kind::kDisjunction:
          for (const auto& alt : m.alternatives) {
            CollectUses(*alt, pname, used);
          }
          break;
      }
    }
  }

  void LintUnused(const lang::FlwrExpr& flwr, std::vector<Diagnostic>* out,
                  size_t stmt) const {
    if (!flwr.pattern || !flwr.template_decl) return;
    const lang::GraphDecl& decl = *flwr.pattern;
    if (BodyHasGraphRef(decl.body)) return;  // Nested names: too dynamic.
    const std::string& pname = decl.name;

    // `graph P;` inside the template absorbs the whole match.
    std::set<std::string> tuses;
    CollectUses(flwr.template_decl->body, pname, &tuses);
    if (!pname.empty() && tuses.count(pname)) return;

    std::set<std::string> used = tuses;
    CollectUses(decl.body, pname, &used);
    auto use_expr = [&](const lang::ExprPtr& e) {
      if (e == nullptr) return;
      std::vector<const lang::Expr*> names;
      CollectNameExprs(*e, &names);
      for (const lang::Expr* n : names) {
        std::vector<std::string> p = StripPattern(n->path, pname);
        if (p.empty()) continue;
        used.insert(p[0]);
        if (p.size() >= 2) {
          used.insert(
              Join(std::vector<std::string>(p.begin(), p.end() - 1), "."));
        }
      }
    };
    use_expr(decl.where);
    use_expr(flwr.where);
    use_expr(flwr.template_decl->where);
    if (flwr.template_decl->tuple) {
      for (const auto& [key, expr] : flwr.template_decl->tuple->entries) {
        use_expr(expr);
      }
    }

    std::vector<const lang::MemberDecl*> tops;
    if (!FlattenTop(decl.body, &tops)) return;
    for (const lang::MemberDecl* m : tops) {
      if (m->kind == lang::MemberDecl::Kind::kNode &&
          !m->node.name.empty() && used.count(m->node.name) == 0) {
        Emit(out, Severity::kWarning, "lint.unused-binding",
             "node binding '" + m->node.name +
                 "' is never referenced by an edge, predicate, or the "
                 "template",
             m->node.span, StatusCode::kOk, stmt);
      } else if (m->kind == lang::MemberDecl::Kind::kEdge &&
                 !m->edge.name.empty() && used.count(m->edge.name) == 0) {
        Emit(out, Severity::kWarning, "lint.unused-binding",
             "edge binding '" + m->edge.name +
                 "' is never referenced by a predicate or the template",
             m->edge.span, StatusCode::kOk, stmt);
      }
    }
  }

  // ----------------------------------------------------------- statements

  void MarkUsed(const std::string& name) {
    if (!used_.insert(name).second) return;
    const lang::GraphDecl* d = Lookup(name);
    if (d != nullptr) MarkUsedRefs(d->body);
  }

  void MarkUsedRefs(const lang::GraphBody& body) {
    for (const lang::MemberDecl& m : body.members) {
      if (m.kind == lang::MemberDecl::Kind::kGraphRef) {
        MarkUsed(m.graph_ref.graph_name);
      } else if (m.kind == lang::MemberDecl::Kind::kDisjunction) {
        for (const auto& alt : m.alternatives) MarkUsedRefs(*alt);
      }
    }
  }

  void ClassifyInto(const lang::GraphDecl& decl, StatementInfo* info,
                    std::vector<Diagnostic>* issues,
                    std::vector<Diagnostic>* lints, lang::SourceSpan span,
                    size_t stmt) const {
    RecursionInfo rec = ClassifyRecursion(decl, AsLookup());
    info->recursive = rec.recursive;
    info->terminates = rec.terminates;
    if (!rec.terminates) {
      Emit(issues, Severity::kError, "sema.unstratified-recursion",
           "recursive motif '" + decl.name +
               "' has no base-case alternative: its derivation fixpoint is "
               "empty, so the pattern derives no motifs",
           span, StatusCode::kInvalidArgument, stmt);
      return;
    }
    size_t cap = options_.build.max_graphs;
    if (cap > 0) {
      size_t est =
          EstimateDerivations(decl, AsLookup(), options_.build.max_depth, cap);
      if (est >= cap) {
        Emit(lints, Severity::kWarning, "lint.derivation-explosion",
             "motif may derive " + std::to_string(cap) +
                 "+ graphs (max_graphs = " + std::to_string(cap) +
                 "); the builder would stop with LimitExceeded — reduce "
                 "repetition depth or disjunction width",
             span, StatusCode::kLimitExceeded, stmt);
      }
    }
  }

  void ProcessGraphDecl(const lang::Statement& stmt, size_t i) {
    const lang::GraphDecl& g = stmt.graph;
    if (g.name.empty()) {
      Emit(&result_.diagnostics, Severity::kError, "sema.unnamed-motif",
           "top-level graph declaration has no name to register under",
           stmt.span, StatusCode::kInvalidArgument, i);
      return;
    }
    local_decls_[g.name] = &g;
    DeclRecord rec;
    rec.name = g.name;
    rec.statement = i;
    CheckPatternDecl(g, &rec.issues, i);
    ClassifyInto(g, &result_.statements[i], &rec.issues, &rec.lints,
                 g.span.valid() ? g.span : stmt.span, i);
    LintCartesian(g, &rec.lints, i);
    decl_records_.push_back(std::move(rec));
  }

  void ProcessAssign(const lang::Statement& stmt, size_t i) {
    ParamFn params = [this](const std::string& n) { return VarExists(n); };
    CheckTemplate(stmt.graph, params, &result_.diagnostics, i, stmt.span);
    local_vars_.insert(stmt.assign_target);
  }

  void ProcessFlwr(const lang::Statement& stmt, size_t i) {
    const lang::FlwrExpr& flwr = stmt.flwr;
    StatementInfo& info = result_.statements[i];
    std::vector<Diagnostic>* out = &result_.diagnostics;

    const lang::GraphDecl* pattern = nullptr;
    std::string pattern_name;
    if (flwr.pattern) {
      pattern = &*flwr.pattern;
      pattern_name = pattern->name;
      CheckPatternDecl(*pattern, out, i);
      std::vector<Diagnostic> lints;
      ClassifyInto(*pattern, &info, out, &lints,
                   flwr.pattern_span.valid() ? flwr.pattern_span : stmt.span,
                   i);
      for (Diagnostic& d : lints) out->push_back(std::move(d));
      LintCartesian(*pattern, out, i);
      MarkUsedRefs(pattern->body);
    } else {
      pattern = Lookup(flwr.pattern_ref);
      pattern_name = flwr.pattern_ref;
      if (pattern == nullptr) {
        Emit(out, Severity::kError, "sema.unknown-pattern",
             "FLWR pattern '" + flwr.pattern_ref + "' is not declared",
             flwr.pattern_span, StatusCode::kNotFound, i);
      } else {
        MarkUsed(flwr.pattern_ref);
        RecursionInfo rec = ClassifyRecursion(*pattern, AsLookup());
        info.recursive = rec.recursive;
        info.terminates = rec.terminates;
        // Unstratified *local* declarations get their error through the
        // used-declaration bucket; session-registered ones are flagged
        // here, at the use site.
        if (!rec.terminates && local_decls_.count(flwr.pattern_ref) == 0) {
          Emit(out, Severity::kError, "sema.unstratified-recursion",
               "recursive motif '" + flwr.pattern_ref +
                   "' has no base-case alternative: its derivation fixpoint "
                   "is empty, so the pattern derives no motifs",
               flwr.pattern_span, StatusCode::kInvalidArgument, i);
        }
      }
    }

    if (options_.doc_exists && !options_.doc_exists(flwr.doc)) {
      Emit(out, Severity::kError, "sema.unknown-doc",
           "document '" + flwr.doc + "' is not registered", flwr.doc_span,
           StatusCode::kNotFound, i);
    }

    if (pattern != nullptr && flwr.where != nullptr) {
      Scope scope = ScopeOf(*pattern);
      CheckPredNames(*flwr.where, scope, pattern_name, out, i);
    }

    if (flwr.template_decl) {
      ParamFn params = [&](const std::string& n) {
        return n == pattern_name ||
               (flwr.is_let && n == flwr.let_target) || VarExists(n);
      };
      CheckTemplate(*flwr.template_decl, params, out, i,
                    flwr.template_span.valid() ? flwr.template_span
                                               : stmt.span);
    } else if (pattern != nullptr && flwr.template_ref != pattern_name) {
      Emit(out, Severity::kError, "sema.unknown-template",
           "FLWR template '" + flwr.template_ref +
               "' is neither inline nor the pattern name",
           flwr.template_span, StatusCode::kNotFound, i);
    }

    if (pattern != nullptr && (!info.recursive || info.terminates)) {
      AnalyzeUnsat(*pattern, flwr.where, pattern_name, &info, out, i);
    }

    LintUnused(flwr, out, i);

    if (flwr.is_let && !flwr.let_target.empty()) {
      local_vars_.insert(flwr.let_target);
    }
  }

  void Finalize() {
    for (DeclRecord& rec : decl_records_) {
      bool used = used_.count(rec.name) > 0;
      for (Diagnostic& d : rec.issues) {
        if (!used) d.severity = Severity::kWarning;
        result_.diagnostics.push_back(std::move(d));
      }
      for (Diagnostic& d : rec.lints) {
        result_.diagnostics.push_back(std::move(d));
      }
    }
    std::stable_sort(result_.diagnostics.begin(), result_.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       if (a.statement != b.statement) {
                         return a.statement < b.statement;
                       }
                       if (a.span.line != b.span.line) {
                         return a.span.line < b.span.line;
                       }
                       return a.span.column < b.span.column;
                     });
  }

  const lang::Program& program_;
  const AnalyzeOptions& options_;
  Analysis result_;
  std::map<std::string, const lang::GraphDecl*> local_decls_;
  std::set<std::string> local_vars_;
  std::set<std::string> used_;
  std::vector<DeclRecord> decl_records_;
};

}  // namespace

Analysis Analyze(const lang::Program& program, const AnalyzeOptions& options) {
  return Analyzer(program, options).Run();
}

}  // namespace graphql::sema
