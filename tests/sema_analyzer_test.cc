#include "sema/analyzer.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "exec/evaluator.h"
#include "lang/parser.h"
#include "motif/deriver.h"
#include "sema/diagnostic.h"
#include "sema/satisfiability.h"

namespace graphql::sema {
namespace {

Analysis AnalyzeSource(const std::string& source,
                       const AnalyzeOptions& options = {}) {
  auto program = lang::Parser::ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status();
  return Analyze(*program, options);
}

bool HasDiagnostic(const Analysis& a, const std::string& code,
                   Severity severity) {
  return std::any_of(a.diagnostics.begin(), a.diagnostics.end(),
                     [&](const Diagnostic& d) {
                       return d.code == code && d.severity == severity;
                     });
}

const Diagnostic* FindDiagnostic(const Analysis& a, const std::string& code) {
  for (const Diagnostic& d : a.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

// ---------------------------------------------------------------- scopes

TEST(SemaScopeTest, CleanPatternHasNoDiagnostics) {
  Analysis a = AnalyzeSource(R"(
    graph P {
      node v1 <label="A">;
      node v2 <label="B">;
      edge e1 (v1, v2);
    } where v1.weight > 3;
  )");
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(a.diagnostics.empty())
      << a.diagnostics.front().ToString();
}

TEST(SemaScopeTest, UndeclaredEdgeEndpointInUsedPatternIsError) {
  Analysis a = AnalyzeSource(R"(
    for graph P { node v1; edge e (v1, nope); } in doc("D") return P;
  )");
  EXPECT_FALSE(a.ok());
  const Diagnostic* d = FindDiagnostic(a, "sema.undeclared-node");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->status, StatusCode::kNotFound);
  EXPECT_NE(d->message.find("'nope'"), std::string::npos);
  // The span points at the offending endpoint token.
  EXPECT_TRUE(d->span.valid());
}

TEST(SemaScopeTest, ForwardEdgeEndpointIsErrorLikeTheBuilder) {
  // MotifBuilder resolves endpoints against the scope built so far, so a
  // forward reference fails at runtime even though the node exists later.
  Analysis a = AnalyzeSource(R"(
    for graph P { edge e (v1, v2); node v1; node v2; } in doc("D") return P;
  )");
  EXPECT_TRUE(HasDiagnostic(a, "sema.undeclared-node", Severity::kError));
}

TEST(SemaScopeTest, UnifyAndExportTargetsChecked) {
  Analysis a = AnalyzeSource(R"(
    for graph P {
      node v1;
      unify v1, ghost;
      export phantom as out;
    } in doc("D") return P;
  )");
  int errors = 0;
  for (const Diagnostic& d : a.diagnostics) {
    if (d.code == "sema.undeclared-node") ++errors;
  }
  EXPECT_EQ(errors, 2);  // `ghost` and `phantom`.
}

TEST(SemaScopeTest, UnknownMotifReferenceIsError) {
  Analysis a = AnalyzeSource(R"(
    for graph P { graph Nope; } in doc("D") return P;
  )");
  const Diagnostic* d = FindDiagnostic(a, "sema.unknown-motif");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->status, StatusCode::kNotFound);
}

TEST(SemaScopeTest, NestedNamesResolveThroughComposition) {
  Analysis a = AnalyzeSource(R"(
    graph Inner { node x; };
    for graph P {
      graph Inner as I;
      node v;
      edge e (I.x, v);
    } in doc("D") where I.x.weight > 1 return P;
  )");
  EXPECT_TRUE(a.ok()) << FindDiagnostic(a, a.diagnostics.empty()
                                               ? ""
                                               : a.diagnostics[0].code)
                             ->ToString();
}

TEST(SemaScopeTest, UnboundWhereNameIsError) {
  Analysis a = AnalyzeSource(R"(
    for graph P { node v1; } in doc("D") where v9.weight > 3 return P;
  )");
  const Diagnostic* d = FindDiagnostic(a, "sema.unbound-name");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->status, StatusCode::kNotFound);
  EXPECT_NE(d->message.find("v9"), std::string::npos);
}

TEST(SemaScopeTest, PatternNamePrefixIsAValidRoot) {
  Analysis a = AnalyzeSource(R"(
    for graph P { node v1; } in doc("D") where P.v1.weight > 3 return P;
  )");
  EXPECT_TRUE(a.ok());
}

TEST(SemaScopeTest, PatternNameAttributeIsAGraphAttribute) {
  Analysis a = AnalyzeSource(R"(
    for graph Q { node v; } in doc("D") where Q.booktitle == "X" return Q;
  )");
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(FindDiagnostic(a, "sema.unbound-name"), nullptr);
}

TEST(SemaScopeTest, BareWhereNameIsAGraphAttribute) {
  Analysis a = AnalyzeSource(R"(
    for graph Q { node v; } in doc("D") where year == 2000 return Q;
  )");
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(FindDiagnostic(a, "sema.unbound-name"), nullptr);
}

TEST(SemaScopeTest, UndeclaredEntityUnderPatternNameIsError) {
  Analysis a = AnalyzeSource(R"(
    for graph Q { node v; } in doc("D") where Q.w.name == "X" return Q;
  )");
  const Diagnostic* d = FindDiagnostic(a, "sema.unbound-name");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("'w' is not a declared node or edge"),
            std::string::npos)
      << d->message;
}

TEST(SemaScopeTest, UnknownPatternReferenceIsError) {
  Analysis a = AnalyzeSource(R"(for Missing in doc("D") return Missing;)");
  const Diagnostic* d = FindDiagnostic(a, "sema.unknown-pattern");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->status, StatusCode::kNotFound);
  EXPECT_EQ(a.ToStatus().code(), StatusCode::kNotFound);
}

TEST(SemaScopeTest, RecursiveReferenceSuppressesNameErrors) {
  // Repetition exposes deeper names only at expansion time; the analyzer
  // must not flag them.
  Analysis a = AnalyzeSource(R"(
    graph Chain {
      { node v; } | { node v; graph Chain as C; edge e (v, C.v); };
    };
    for Chain in doc("D") return Chain;
  )");
  EXPECT_TRUE(a.ok()) << a.diagnostics.front().ToString();
}

// ----------------------------------------------- decl-site vs. use-site

TEST(SemaSeverityTest, BrokenUnusedMotifIsOnlyAWarning) {
  // Registration never fails at runtime, so an unused broken motif must
  // not produce an error (the program would run fine).
  Analysis a = AnalyzeSource(R"(
    graph Broken { node v1; edge e (v1, nope); };
  )");
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(HasDiagnostic(a, "sema.undeclared-node", Severity::kWarning));
}

TEST(SemaSeverityTest, BrokenMotifBecomesErrorWhenUsed) {
  Analysis a = AnalyzeSource(R"(
    graph Broken { node v1; edge e (v1, nope); };
    for Broken in doc("D") return Broken;
  )");
  EXPECT_FALSE(a.ok());
  EXPECT_TRUE(HasDiagnostic(a, "sema.undeclared-node", Severity::kError));
}

// ------------------------------------------------------------ templates

TEST(SemaTemplateTest, MissingParameterIsError) {
  Analysis a = AnalyzeSource(R"(
    for graph P { node v; } in doc("D") return graph { graph Q; };
  )");
  const Diagnostic* d = FindDiagnostic(a, "sema.missing-param");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->status, StatusCode::kNotFound);
}

TEST(SemaTemplateTest, PatternAndLetTargetAreSuppliedParams) {
  Analysis a = AnalyzeSource(R"(
    for graph P { node v; } in doc("D") let C := graph { graph C; graph P; };
  )");
  EXPECT_TRUE(a.ok()) << a.diagnostics.front().ToString();
}

TEST(SemaTemplateTest, AssignSeesEarlierProgramVariables) {
  Analysis a = AnalyzeSource(R"(
    C := graph { node a; };
    D := graph { graph C; };
  )");
  EXPECT_TRUE(a.ok());
  Analysis bad = AnalyzeSource(R"(D := graph { graph C; };)");
  EXPECT_TRUE(HasDiagnostic(bad, "sema.missing-param", Severity::kError));
}

TEST(SemaTemplateTest, TupleValueRootsMustResolve) {
  Analysis a = AnalyzeSource(R"(
    for graph P { node v; } in doc("D")
      return graph { node out <name=ZZ.v.name>; };
  )");
  EXPECT_TRUE(HasDiagnostic(a, "sema.unbound-name", Severity::kError));
  Analysis ok = AnalyzeSource(R"(
    for graph P { node v; } in doc("D")
      return graph { node out <name=P.v.name>; };
  )");
  EXPECT_TRUE(ok.ok());
}

// --------------------------------------------------------------- tuples

TEST(SemaTupleTest, NonConstantPatternTupleIsError) {
  Analysis a = AnalyzeSource(R"(
    for graph P { node v <w=v.x>; } in doc("D") return P;
  )");
  const Diagnostic* d = FindDiagnostic(a, "sema.nonconst-tuple");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->status, StatusCode::kInvalidArgument);
}

// ------------------------------------------------------- satisfiability

TEST(SemaUnsatTest, EmptyIntervalIsDetected) {
  Analysis a = AnalyzeSource(R"(
    for graph P { node v; } in doc("D")
      where v.weight > 5 & v.weight < 3 return P;
  )");
  ASSERT_EQ(a.statements.size(), 1u);
  EXPECT_TRUE(a.statements[0].unsatisfiable);
  EXPECT_TRUE(HasDiagnostic(a, "sema.unsat", Severity::kWarning));
  EXPECT_TRUE(a.ok());  // Unsat is legal, just empty.
}

TEST(SemaUnsatTest, KindConflictIsDetected) {
  Analysis a = AnalyzeSource(R"(
    for graph P { node v <label="A">; } in doc("D")
      where v.label > 3 return P;
  )");
  ASSERT_EQ(a.statements.size(), 1u);
  EXPECT_TRUE(a.statements[0].unsatisfiable);
}

TEST(SemaUnsatTest, PinnedValueConflictAcrossTupleAndWhere) {
  Analysis a = AnalyzeSource(R"(
    for graph P { node v <w=1>; } in doc("D") where v.w == 2 return P;
  )");
  ASSERT_EQ(a.statements.size(), 1u);
  EXPECT_TRUE(a.statements[0].unsatisfiable);
}

TEST(SemaUnsatTest, ConstantFalseWhereIsDetected) {
  Analysis a = AnalyzeSource(R"(
    for graph P { node v; } in doc("D") where 1 == 2 return P;
  )");
  ASSERT_EQ(a.statements.size(), 1u);
  EXPECT_TRUE(a.statements[0].unsatisfiable);
}

TEST(SemaUnsatTest, SatisfiableBoundsAreNotFlagged) {
  Analysis a = AnalyzeSource(R"(
    for graph P { node v; } in doc("D")
      where v.w > 3 & v.w < 5 & v.w != 4 return P;
  )");
  ASSERT_EQ(a.statements.size(), 1u);
  EXPECT_FALSE(a.statements[0].unsatisfiable);
}

TEST(SemaUnsatTest, UnificationDisablesEntityReasoning) {
  // unify can merge attribute tuples, so per-entity contradictions are no
  // longer provable.
  Analysis a = AnalyzeSource(R"(
    for graph P {
      node a <w=1>; node b <w=6>;
      unify a, b;
    } in doc("D") where a.w > 5 return P;
  )");
  ASSERT_EQ(a.statements.size(), 1u);
  EXPECT_FALSE(a.statements[0].unsatisfiable);
}

TEST(SemaUnsatTest, MultiEntityConjunctsDoNotPrune) {
  // `a.w > b.w` routes to the residual global predicate; it never proves
  // per-entity unsatisfiability.
  Analysis a = AnalyzeSource(R"(
    for graph P { node a; node b; edge e (a, b); } in doc("D")
      where a.w > b.w & a.w < b.w return P;
  )");
  ASSERT_EQ(a.statements.size(), 1u);
  EXPECT_FALSE(a.statements[0].unsatisfiable);
}

// ------------------------------------------------------------ recursion

TEST(SemaRecursionTest, NonRecursivePatternIsNr) {
  Analysis a = AnalyzeSource(R"(
    graph P { node v; };
    for P in doc("D") return P;
  )");
  ASSERT_EQ(a.statements.size(), 2u);
  EXPECT_TRUE(a.statements[1].nr());
}

TEST(SemaRecursionTest, RecursionWithBaseCaseTerminates) {
  Analysis a = AnalyzeSource(R"(
    graph Chain {
      { node v; } | { node v; graph Chain as C; edge e (v, C.v); };
    };
    for Chain in doc("D") return Chain;
  )");
  ASSERT_EQ(a.statements.size(), 2u);
  EXPECT_TRUE(a.statements[1].recursive);
  EXPECT_TRUE(a.statements[1].terminates);
  EXPECT_TRUE(a.ok());
}

TEST(SemaRecursionTest, RecursionWithoutBaseCaseIsRejected) {
  Analysis a = AnalyzeSource(R"(
    graph Loop { node v; graph Loop as L; edge e (v, L.v); };
    for Loop in doc("D") return Loop;
  )");
  ASSERT_EQ(a.statements.size(), 2u);
  EXPECT_TRUE(a.statements[1].recursive);
  EXPECT_FALSE(a.statements[1].terminates);
  const Diagnostic* d = FindDiagnostic(a, "sema.unstratified-recursion");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->status, StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- lints

TEST(SemaLintTest, DisconnectedPatternWarns) {
  Analysis a = AnalyzeSource(R"(
    for graph P { node a; node b; } in doc("D") return P;
  )");
  EXPECT_TRUE(HasDiagnostic(a, "lint.cartesian-product", Severity::kWarning));
  Analysis connected = AnalyzeSource(R"(
    for graph P { node a; node b; edge e (a, b); } in doc("D") return P;
  )");
  EXPECT_FALSE(
      HasDiagnostic(connected, "lint.cartesian-product", Severity::kWarning));
}

TEST(SemaLintTest, UnusedBindingWarnsOnlyWhenTrulyUnreferenced) {
  Analysis a = AnalyzeSource(R"(
    for graph P { node a; node b; } in doc("D")
      return graph { node out <name=P.a.name>; };
  )");
  const Diagnostic* d = FindDiagnostic(a, "lint.unused-binding");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'b'"), std::string::npos) << d->message;
  // An edge endpoint is a reference: with `edge e (a, b)` present, `b` is
  // used and only the (unreferenced) edge binding itself is flagged.
  Analysis endpoint = AnalyzeSource(R"(
    for graph P { node a; node b; edge e (a, b); } in doc("D")
      return graph { node out <name=P.a.name>; };
  )");
  const Diagnostic* e = FindDiagnostic(endpoint, "lint.unused-binding");
  ASSERT_NE(e, nullptr);
  EXPECT_NE(e->message.find("'e'"), std::string::npos) << e->message;
  // `return P` uses every binding.
  Analysis whole = AnalyzeSource(R"(
    for graph P { node a; node b; edge e (a, b); } in doc("D") return P;
  )");
  EXPECT_FALSE(HasDiagnostic(whole, "lint.unused-binding",
                             Severity::kWarning));
}

TEST(SemaLintTest, DerivationExplosionWarns) {
  AnalyzeOptions opts;
  opts.build.max_depth = 8;
  opts.build.max_graphs = 16;
  Analysis a = AnalyzeSource(R"(
    graph Wide {
      { node a; } | { node b; };
      { node c; } | { node d; };
      { node e; } | { node f; };
      { node g; } | { node h; };
      { node i; } | { node j; };
    };
    for Wide in doc("D") return Wide;
  )",
                             opts);
  EXPECT_TRUE(
      HasDiagnostic(a, "lint.derivation-explosion", Severity::kWarning));
}

// ------------------------------------------------------------ rendering

TEST(SemaDiagnosticTest, CaretRenderingPointsAtTheToken) {
  std::string source = "for graph P { node v1; edge e (v1, nope); } "
                       "in doc(\"D\") return P;";
  auto program = lang::Parser::ParseProgram(source);
  ASSERT_TRUE(program.ok());
  Analysis a = Analyze(*program);
  const Diagnostic* d = FindDiagnostic(a, "sema.undeclared-node");
  ASSERT_NE(d, nullptr);
  std::string rendered = RenderDiagnostic(source, *d);
  EXPECT_NE(rendered.find("^~~~"), std::string::npos) << rendered;
  // The caret line must align with the `nope` column.
  size_t caret_col = d->span.column;
  EXPECT_EQ(source.substr(caret_col - 1, 4), "nope");
}

// ---------------------------------------- evaluator integration (prune)

class SemaEvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto graphs = motif::GraphsFromProgramSource(R"(
      graph G1 {
        node v1 <item weight=4>;
        node v2 <item weight=8>;
        edge e1 (v1, v2);
      };
      graph G2 {
        node v1 <item weight=6>;
        node v2 <item weight=2>;
        edge e1 (v1, v2);
      };
    )");
    ASSERT_TRUE(graphs.ok()) << graphs.status();
    GraphCollection items;
    for (Graph& g : *graphs) items.Add(std::move(g));
    docs_.Register("Items", std::move(items));
  }

  exec::DocumentRegistry docs_;
};

TEST_F(SemaEvaluatorTest, UnsatisfiableQueryPrunesWithoutMatching) {
  exec::Evaluator ev(&docs_);
  ev.set_profiling(true);
  auto result = ev.RunSource(R"(
    for graph P { node v <item>; } in doc("Items")
      where v.weight > 5 & v.weight < 3 return P;
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->returned.size(), 0u);
  EXPECT_EQ(ev.metrics()->GetCounter("sema.pruned.unsat")->Value(), 1u);
  // The match pipeline never ran: no select span in the trace.
  EXPECT_EQ(result->profile_json.find("\"select\""), std::string::npos)
      << result->profile_json;
  EXPECT_TRUE(std::any_of(
      result->diagnostics.begin(), result->diagnostics.end(),
      [](const sema::Diagnostic& d) { return d.code == "sema.unsat"; }));
}

TEST_F(SemaEvaluatorTest, SatisfiableQueryIsUnchangedByAnalysis) {
  // Equivalence: the same selection with satisfiable bounds returns
  // exactly the matches a pre-sema evaluator returned, and nothing is
  // pruned.
  exec::Evaluator ev(&docs_);
  auto result = ev.RunSource(R"(
    for graph P { node v <item>; } in doc("Items")
      where v.weight > 3 & v.weight < 7 return P;
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->returned.size(), 2u);  // weight 4 (G1) and 6 (G2).
  EXPECT_EQ(ev.metrics()->GetCounter("sema.pruned.unsat")->Value(), 0u);
}

TEST_F(SemaEvaluatorTest, PrunedLetStillBindsTheAccumulator) {
  exec::Evaluator ev(&docs_);
  auto result = ev.RunSource(R"(
    for graph P { node v <item>; } in doc("Items")
      where v.weight > 5 & v.weight < 3
      let C := graph { graph C; graph P; };
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  const Graph* c = ev.Variable("C");
  ASSERT_NE(c, nullptr);  // Bound exactly like a zero-match execution.
  EXPECT_EQ(c->NumNodes(), 0u);
}

TEST_F(SemaEvaluatorTest, DiagnosticsDoNotAbortExecution) {
  // A program whose motif declaration is broken but unused must still run
  // (registration never fails), with the issue carried as a warning.
  exec::Evaluator ev(&docs_);
  auto result = ev.RunSource(R"(
    graph Broken { node v1; edge e (v1, nope); };
    for graph P { node v <item>; } in doc("Items") return P;
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->returned.size(), 2u);
  EXPECT_FALSE(result->diagnostics.empty());
  EXPECT_FALSE(sema::HasErrors(result->diagnostics));
}

TEST_F(SemaEvaluatorTest, ExplainCarriesSemaNotes) {
  exec::Evaluator ev(&docs_);
  auto out = ev.ExplainSource(R"(
    for graph P { node v <item>; } in doc("Items")
      where v.weight > 5 & v.weight < 3 return P;
  )");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("nr-GraphQL"), std::string::npos) << *out;
  EXPECT_NE(out->find("provably unsatisfiable"), std::string::npos) << *out;
}

}  // namespace
}  // namespace graphql::sema
