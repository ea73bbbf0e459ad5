//===- tests/test_property.cpp - Randomized end-to-end properties ---------===//
//
// The heavyweight correctness artillery:
//
//  * a concrete interpreter executes random paths through generated
//    programs and records every (pointer, location, object) fact it
//    observes; every observed fact must be contained in the FSCS
//    engine's FSCI points-to result (true soundness, not just
//    cross-analysis agreement);
//  * the precision sandwich FSCS ⊆ Andersen ⊆ Steensgaard on the same
//    random programs;
//  * clustered-vs-whole-program agreement through the full cascade.
//
//===----------------------------------------------------------------------===//

#include "analysis/AliasQueries.h"
#include "analysis/Andersen.h"
#include "analysis/FlowSensitiveDataflow.h"
#include "analysis/Steensgaard.h"
#include "core/AliasCover.h"
#include "core/BootstrapDriver.h"
#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "fscs/ClusterAliasAnalysis.h"
#include "ir/CallGraph.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

using namespace bsaa;

namespace {

//===--------------------------------------------------------------------===//
// Concrete interpreter
//===--------------------------------------------------------------------===//

/// Runs random executions of a program, recording which object every
/// pointer variable held just before each visited location.
class Interpreter {
public:
  Interpreter(const ir::Program &P, uint64_t Seed)
      : Prog(P), Rng(Seed), Values(P.numVars(), ir::InvalidVar) {}

  /// Observed facts: (location, variable) -> objects seen there.
  using Observations =
      std::map<std::pair<ir::LocId, ir::VarId>, std::set<ir::VarId>>;

  /// Runs \p Paths random executions of main, each capped at
  /// \p MaxSteps interpreted statements. Once a run truncates anything
  /// (recursion or step cap), its subsequent observations would not
  /// correspond to real program semantics, so recording stops.
  Observations run(uint32_t Paths, uint32_t MaxSteps) {
    Observations Out;
    for (uint32_t I = 0; I < Paths; ++I) {
      std::fill(Values.begin(), Values.end(), ir::InvalidVar);
      StepsLeft = MaxSteps;
      Tainted = false;
      if (Prog.entryFunction() != ir::InvalidFunc)
        execFunction(Prog.entryFunction(), Out, 0);
    }
    return Out;
  }

private:
  void record(ir::LocId L, Observations &Out) {
    if (Tainted)
      return;
    for (ir::VarId V = 0; V < Prog.numVars(); ++V) {
      if (!Prog.var(V).isPointer())
        continue;
      if (Values[V] != ir::InvalidVar)
        Out[{L, V}].insert(Values[V]);
    }
  }

  void execFunction(ir::FuncId F, Observations &Out, uint32_t Depth) {
    if (Depth > 24) {
      Tainted = true; // Faked return: semantics diverge from here on.
      return;
    }
    const ir::Function &Fn = Prog.func(F);
    ir::LocId L = Fn.Entry;
    while (true) {
      if (StepsLeft-- == 0) {
        Tainted = true;
        return;
      }
      record(L, Out);
      const ir::Location &Loc = Prog.loc(L);
      switch (Loc.Kind) {
      case ir::StmtKind::Copy:
        Values[Loc.Lhs] = Values[Loc.Rhs];
        break;
      case ir::StmtKind::AddrOf:
      case ir::StmtKind::Alloc:
        Values[Loc.Lhs] = Loc.Rhs;
        break;
      case ir::StmtKind::Load:
        // *y: the value stored in the object y points to. Objects are
        // variables, so the content is that variable's value.
        Values[Loc.Lhs] = Values[Loc.Rhs] != ir::InvalidVar
                              ? Values[Values[Loc.Rhs]]
                              : ir::InvalidVar;
        break;
      case ir::StmtKind::Store:
        if (Values[Loc.Lhs] != ir::InvalidVar)
          Values[Values[Loc.Lhs]] = Values[Loc.Rhs];
        break;
      case ir::StmtKind::Nullify:
        Values[Loc.Lhs] = ir::InvalidVar;
        break;
      case ir::StmtKind::Call:
        if (!Loc.Callees.empty()) {
          ir::FuncId Callee =
              Loc.Callees[Rng() % Loc.Callees.size()];
          execFunction(Callee, Out, Depth + 1);
        }
        break;
      default:
        break;
      }
      if (L == Fn.Exit || Loc.Succs.empty())
        return;
      L = Loc.Succs[Rng() % Loc.Succs.size()];
    }
  }

  const ir::Program &Prog;
  std::mt19937_64 Rng;
  /// Concrete store: every variable holds the id of the object its
  /// value points to (InvalidVar = null/uninitialized). Depth-0
  /// variables hold "values" the same way, matching the paper's
  /// uniform update-sequence treatment.
  std::vector<ir::VarId> Values;
  uint64_t StepsLeft = 0;
  bool Tainted = false;
};

std::unique_ptr<ir::Program> generate(uint64_t Seed) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.NumFunctions = 6;
  Cfg.StmtsPerFunction = 8;
  Cfg.Communities = 3;
  Cfg.LocalsPerFunction = 2;
  Cfg.RecursionPercent = 10;
  frontend::Diagnostics Diags;
  auto P = frontend::compileString(workload::generateProgram(Cfg), Diags);
  EXPECT_TRUE(P != nullptr) << Diags.toString();
  return P;
}

/// The Andersen oracle over \p C's slice when \p On, else none (the
/// paper's Steensgaard-only engine).
std::unique_ptr<fscs::AndersenOracle> oracleIf(bool On, const ir::Program &P,
                                               const core::Cluster &C) {
  return On ? std::make_unique<fscs::AndersenOracle>(P, C) : nullptr;
}

/// Checks every \p SampleEvery-th observed fact against the whole-
/// program FSCS answer: interpreter ⊆ FSCS. Returns the facts checked.
uint32_t expectObservationsInFscs(const ir::Program &P,
                                  const Interpreter::Observations &Obs,
                                  uint32_t SampleEvery,
                                  const std::string &What,
                                  bool WithOracle = false) {
  ir::CallGraph CG(P);
  analysis::SteensgaardAnalysis S(P);
  S.run();
  core::Cluster Whole = core::wholeProgramCluster(P);
  fscs::ClusterAliasAnalysis AA(P, CG, S, Whole, fscs::SummaryEngine::Options(),
                                oracleIf(WithOracle, P, Whole));

  uint32_t Seen = 0, Checked = 0;
  for (const auto &[Where, Objects] : Obs) {
    auto [Loc, Var] = Where;
    if (++Seen % SampleEvery != 0)
      continue;
    ++Checked;
    auto R = AA.pointsTo(Var, Loc);
    for (ir::VarId Obj : Objects) {
      EXPECT_TRUE(std::binary_search(R.Objects.begin(), R.Objects.end(),
                                     Obj))
          << "execution saw " << P.var(Var).Name << " -> "
          << P.var(Obj).Name << " at L" << Loc
          << " but FSCS did not report it (" << What << ")";
    }
  }
  return Checked;
}

void fscsIsSoundAgainstConcreteExecutions(uint64_t Seed, bool WithOracle) {
  auto P = generate(Seed);
  if (!P)
    return;
  Interpreter Interp(*P, Seed * 31 + 7);
  Interpreter::Observations Obs = Interp.run(60, 3000);
  // Sample to keep the test fast: every 7th fact.
  expectObservationsInFscs(*P, Obs, 7, "seed " + std::to_string(Seed),
                           WithOracle);
}

/// Per-cluster FSCS answers equal the whole-program run's, with the
/// Andersen oracle on both sides or on neither.
void cascadeAgreesWithWholeProgram(uint64_t Seed, bool WithOracle) {
  auto P = generate(Seed);
  if (!P)
    return;
  core::BootstrapOptions Opts;
  Opts.AndersenThreshold = 4; // Force Andersen splitting.
  core::BootstrapDriver Driver(*P, Opts);
  const analysis::SteensgaardAnalysis &S = Driver.steensgaard();
  std::vector<core::Cluster> Cover = Driver.buildCover();

  core::Cluster Whole = core::wholeProgramCluster(*P);
  fscs::ClusterAliasAnalysis WholeAA(*P, Driver.callGraph(), S, Whole,
                                     fscs::SummaryEngine::Options(),
                                     oracleIf(WithOracle, *P, Whole));

  for (const core::Cluster &C : Cover) {
    fscs::ClusterAliasAnalysis AA(*P, Driver.callGraph(), S, C,
                                  fscs::SummaryEngine::Options(),
                                  oracleIf(WithOracle, *P, C));
    uint32_t Checked = 0;
    for (ir::VarId V : C.Members) {
      if (!P->var(V).isPointer() || ++Checked > 5)
        continue;
      ir::FuncId Owner = P->var(V).Owner != ir::InvalidFunc
                             ? P->var(V).Owner
                             : P->entryFunction();
      if (Owner == ir::InvalidFunc)
        continue;
      ir::LocId At = P->func(Owner).Exit;
      EXPECT_EQ(AA.pointsTo(V, At).Objects,
                WholeAA.pointsTo(V, At).Objects)
          << "cluster/whole mismatch for " << P->var(V).Name << " (seed "
          << Seed << ", oracle " << WithOracle << ")";
    }
  }
}

} // namespace

class RandomPrograms : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomPrograms, FscsIsSoundAgainstConcreteExecutions) {
  fscsIsSoundAgainstConcreteExecutions(GetParam(), false);
}

TEST(ConcreteExecutions, FscsIsSoundWhenMainIsCalled) {
  // The generator never calls main; here f and main recurse through
  // each other, so main's entry values also flow in from f's call site.
  frontend::Diagnostics Diags;
  auto P = frontend::compileString(R"(
    int *g; int *h; int a; int b; int c;
    void f(int *x) {
      g = &b;
      if (nondet) { h = x; main(); }
      x = g;
    }
    void main(void) {
      int *p; int *q;
      p = g;
      q = h;
      g = &a;
      if (nondet) { f(p); }
      q = g;
      g = &c;
    }
  )",
                                   Diags);
  ASSERT_TRUE(P != nullptr) << Diags.toString();
  Interpreter Interp(*P, 11);
  Interpreter::Observations Obs = Interp.run(200, 400);
  // The second activation of main must have been observed reading
  // f's &b out of g.
  bool SawReentry = false;
  for (const auto &[Where, Objects] : Obs)
    SawReentry |= P->loc(Where.first).Owner == P->entryFunction() &&
                  Where.second == P->findVariable("g") &&
                  Objects.count(P->findVariable("b"));
  EXPECT_TRUE(SawReentry);
  EXPECT_GT(expectObservationsInFscs(*P, Obs, 1, "recursive main"), 0u);
}

TEST_P(RandomPrograms, PrecisionSandwich) {
  auto P = generate(GetParam());
  if (!P)
    return;
  ir::CallGraph CG(*P);
  analysis::SteensgaardAnalysis S(*P);
  S.run();
  analysis::AndersenAnalysis A(*P);
  A.run();
  core::Cluster Whole = core::wholeProgramCluster(*P);
  fscs::ClusterAliasAnalysis AA(*P, CG, S, Whole);

  // Invariant: every FSCS target lies inside the Steensgaard pointee
  // partition (the engine's constraint-branching fallback enumerates
  // it, so targets can occasionally exceed Andersen's, but never
  // Steensgaard's). Statistically FSCS is far more precise than
  // Andersen; assert the aggregate direction too.
  uint64_t FscsTargets = 0, AndersenTargets = 0;
  for (ir::VarId V = 0; V < P->numVars(); ++V) {
    if (!P->var(V).isPointer())
      continue;
    ir::FuncId Owner = P->var(V).Owner != ir::InvalidFunc
                           ? P->var(V).Owner
                           : P->entryFunction();
    if (Owner == ir::InvalidFunc)
      continue;
    ir::LocId At = P->func(Owner).Exit;
    auto Fscs = AA.pointsTo(V, At);
    FscsTargets += Fscs.Objects.size();
    AndersenTargets += A.pointsTo(V).count();

    std::vector<ir::VarId> SteensTargets = S.pointsToVars(V);
    for (ir::VarId O : Fscs.Objects) {
      EXPECT_TRUE(std::find(SteensTargets.begin(), SteensTargets.end(),
                            O) != SteensTargets.end())
          << "FSCS reports " << P->var(V).Name << " -> "
          << P->var(O).Name
          << " outside the Steensgaard pointee partition (seed "
          << GetParam() << ")";
    }
  }
  EXPECT_LE(FscsTargets, AndersenTargets)
      << "flow-sensitivity should not lose precision in aggregate";
}

TEST_P(RandomPrograms, MonolithicReferenceSandwich) {
  // interpreter ⊆ monolithic flow-sensitive dataflow ⊆ Andersen: the
  // reference baseline is sound against concrete executions and
  // refines the flow-insensitive analysis.
  auto P = generate(GetParam());
  if (!P)
    return;
  Interpreter Interp(*P, GetParam() * 77 + 3);
  Interpreter::Observations Obs = Interp.run(40, 2000);

  analysis::FlowSensitiveDataflow Ref(*P);
  Ref.run();
  ASSERT_FALSE(Ref.capped());
  analysis::AndersenAnalysis A(*P);
  A.run();

  uint32_t Checked = 0;
  for (const auto &[Where, Objects] : Obs) {
    auto [Loc, Var] = Where;
    if (++Checked % 5 != 0)
      continue;
    const SparseBitVector &RefPts = Ref.pointsTo(Var, Loc);
    for (ir::VarId Seen : Objects)
      EXPECT_TRUE(RefPts.test(Seen))
          << "execution saw " << P->var(Var).Name << " -> "
          << P->var(Seen).Name << " at L" << Loc
          << " but the monolithic dataflow missed it (seed "
          << GetParam() << ")";
    // Reference refines Andersen.
    RefPts.forEach([&](uint32_t O) {
      EXPECT_TRUE(A.pointsTo(Var).test(O))
          << "monolithic dataflow reports " << P->var(Var).Name << " -> "
          << P->var(O).Name << " beyond Andersen (seed " << GetParam()
          << ")";
    });
  }
}

TEST_P(RandomPrograms, CascadeAgreesWithWholeProgram) {
  cascadeAgreesWithWholeProgram(GetParam(), false);
}

TEST_P(RandomPrograms, PartitionRestrictedAliasCountsMatchNaive) {
  // The partition-restricted countMayAliasPairs/refines overloads must
  // agree exactly with the naive all-pairs loops: cross-partition
  // pairs never alias for any analysis refining Steensgaard.
  auto P = generate(GetParam());
  if (!P)
    return;
  analysis::SteensgaardAnalysis S(*P);
  S.run();
  analysis::AndersenAnalysis A(*P);
  A.run();

  EXPECT_EQ(analysis::countMayAliasPairs(*P, S),
            analysis::countMayAliasPairs(*P, S, S));
  EXPECT_EQ(analysis::countMayAliasPairs(*P, A),
            analysis::countMayAliasPairs(*P, A, S));
  EXPECT_EQ(analysis::refines(*P, A, S), analysis::refines(*P, A, S, S));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10));

// The cascade's configuration: every engine, the whole-program one
// included, consults the Andersen oracle over its own slice.
class RandomProgramsAndersenOracle
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramsAndersenOracle, FscsIsSoundAgainstConcreteExecutions) {
  fscsIsSoundAgainstConcreteExecutions(GetParam(), true);
}

TEST_P(RandomProgramsAndersenOracle, CascadeAgreesWithWholeProgram) {
  cascadeAgreesWithWholeProgram(GetParam(), true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramsAndersenOracle,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10));

TEST(AndersenOracle, SliceSetsEqualWholeProgramSetsOnTrackedPointers) {
  // The oracle's soundness (DESIGN.md, "Andersen bootstraps the
  // engine"): Algorithm 1 puts every constraint that reaches a direct
  // member of V_P into St_P, so on those pointers -- every Store base
  // and Load source of St_P among them -- Andersen over the slice
  // computes exactly the whole program's sets.
  uint64_t Checked = 0, Dereferenced = 0;
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    auto P = generate(Seed);
    ASSERT_TRUE(P != nullptr);
    core::BootstrapOptions Opts;
    Opts.AndersenThreshold = 4; // Andersen clusters as well as partitions.
    core::BootstrapDriver Driver(*P, Opts);
    std::vector<core::Cluster> Cover = Driver.buildCover();
    analysis::AndersenAnalysis Whole(*P);
    Whole.run();
    for (const core::Cluster &C : Cover) {
      fscs::AndersenOracle Oracle(*P, C);
      std::vector<ir::VarId> Direct;
      for (const ir::Ref &R : C.TrackedRefs)
        if (R.Deref == 0)
          Direct.push_back(R.Var);
      for (ir::VarId V : Direct) {
        ++Checked;
        EXPECT_TRUE(Oracle.pointsTo(V) == Whole.pointsTo(V))
            << "slice set of " << P->var(V).Name << " differs (seed "
            << Seed << ")";
      }
      for (ir::LocId L : C.Statements) {
        const ir::Location &Loc = P->loc(L);
        ir::VarId Base = Loc.Kind == ir::StmtKind::Store  ? Loc.Lhs
                         : Loc.Kind == ir::StmtKind::Load ? Loc.Rhs
                                                          : ir::InvalidVar;
        if (Base == ir::InvalidVar)
          continue;
        ++Dereferenced;
        EXPECT_TRUE(std::binary_search(Direct.begin(), Direct.end(), Base))
            << P->var(Base).Name << " is dereferenced in St_P but not "
            << "tracked (seed " << Seed << ")";
      }
    }
  }
  EXPECT_GT(Checked, 1000u);
  EXPECT_GT(Dereferenced, 100u);
}

//===--------------------------------------------------------------------===//
// Differential oracle: bootstrapped cascade vs whole-program baseline
//===--------------------------------------------------------------------===//

// The summary cache's soundness story rests on per-cluster FSCS runs
// being interchangeable with the whole-program analysis wherever their
// clusters cover the query (Theorem 7). This drives a 200-seed corpus
// through the full bootstrapped cascade -- Andersen splitting forced
// with a tiny threshold so clustering actually happens -- and checks
// every sampled member pointer against a whole-program baseline run
// under a step budget standing in for the paper's timeout:
//
//  * baseline complete, cluster complete  -> exact set equality;
//  * baseline complete, cluster truncated -> cluster result must still
//    be a subset of the baseline's full set (truncation only loses
//    origins, it never invents them);
//  * baseline truncated -> no containment claim holds in either
//    direction; the case is skipped (and counted, to ensure the budget
//    is not silently swallowing the whole corpus).
namespace {

void bootstrappedMatchesWholeProgramOn200Seeds(bool WithOracle) {
  uint32_t CheckedQueries = 0;
  uint32_t SkippedIncompleteBaseline = 0;

  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    auto P = generate(Seed);
    ASSERT_TRUE(P != nullptr) << "seed " << Seed;

    core::BootstrapOptions Opts;
    Opts.AndersenThreshold = 4; // Force Andersen splitting.
    core::BootstrapDriver Driver(*P, Opts);
    const analysis::SteensgaardAnalysis &S = Driver.steensgaard();
    std::vector<core::Cluster> Cover = Driver.buildCover();

    fscs::SummaryEngine::Options BaselineOpts;
    BaselineOpts.StepBudget = 150000;
    core::Cluster Whole = core::wholeProgramCluster(*P);
    fscs::ClusterAliasAnalysis WholeAA(*P, Driver.callGraph(), S, Whole,
                                       BaselineOpts,
                                       oracleIf(WithOracle, *P, Whole));

    for (const core::Cluster &C : Cover) {
      fscs::ClusterAliasAnalysis AA(*P, Driver.callGraph(), S, C,
                                    fscs::SummaryEngine::Options(),
                                    oracleIf(WithOracle, *P, C));
      uint32_t PerCluster = 0;
      for (ir::VarId V : C.Members) {
        if (!P->var(V).isPointer() || ++PerCluster > 3)
          continue;
        ir::FuncId Owner = P->var(V).Owner != ir::InvalidFunc
                               ? P->var(V).Owner
                               : P->entryFunction();
        if (Owner == ir::InvalidFunc)
          continue;
        ir::LocId At = P->func(Owner).Exit;
        auto Clustered = AA.pointsTo(V, At);
        auto Baseline = WholeAA.pointsTo(V, At);
        if (!Baseline.Complete) {
          ++SkippedIncompleteBaseline;
          continue;
        }
        ++CheckedQueries;
        if (Clustered.Complete) {
          EXPECT_EQ(Clustered.Objects, Baseline.Objects)
              << "cluster/baseline mismatch for " << P->var(V).Name
              << " (seed " << Seed << ")";
        } else {
          for (ir::VarId O : Clustered.Objects)
            EXPECT_TRUE(std::binary_search(Baseline.Objects.begin(),
                                           Baseline.Objects.end(), O))
                << "truncated cluster run invented " << P->var(V).Name
                << " -> " << P->var(O).Name << " (seed " << Seed << ")";
        }
      }
    }
  }

  // The corpus must actually exercise the equality arm: if the budget
  // swallowed everything, the test would vacuously pass.
  EXPECT_GT(CheckedQueries, 1000u);
  EXPECT_LT(SkippedIncompleteBaseline, CheckedQueries);
}

} // namespace

TEST(DifferentialOracle, BootstrappedMatchesWholeProgramOn200Seeds) {
  bootstrappedMatchesWholeProgramOn200Seeds(false);
}

// The cascade's configuration, with the oracle on both sides.
TEST(DifferentialOracle, BootstrappedMatchesWholeProgramOn200SeedsWithOracle) {
  bootstrappedMatchesWholeProgramOn200Seeds(true);
}
