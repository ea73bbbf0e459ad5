//===- workload/ProgramGenerator.cpp - Synthetic mini-C programs ----------===//

#include "workload/ProgramGenerator.h"

#include "support/ContentHash.h"

#include <algorithm>
#include <sstream>
#include <vector>

using namespace bsaa;
using namespace bsaa::workload;

namespace {

constexpr uint64_t StructureStreamTag = 0x5354'5255'4354'5552ull; // STRUCTUR
constexpr uint64_t OperandStreamTag = 0x4f50'4552'414e'4453ull;   // OPERANDS
constexpr uint64_t EditStreamTag = 0x4544'4954'5354'524dull;      // EDITSTRM

/// Seed of one per-function splitmix64 stream. Hashing (rather than
/// xor-mixing) keeps distinct (function, version) pairs from colliding.
uint64_t streamSeed(uint64_t Seed, uint64_t Tag, uint32_t Function,
                    uint32_t Version) {
  support::ContentHasher H;
  H.u64(Tag);
  H.u64(Seed);
  H.u32(Function);
  H.u32(Version);
  return H.digest().Lo;
}

/// Names of the community-structured global variables.
struct CommunityVars {
  std::vector<std::string> Objects; ///< int
  std::vector<std::string> Ptrs;    ///< int *
  std::vector<std::string> Deep;    ///< int **
};

/// Generation state threaded through the emitters.
///
/// Randomness is split into two per-function streams:
///
///  * the *structure* stream decides everything that determines the
///    statement shape -- kinds, block nesting, block lengths, call
///    targets and guards, big-community diversion. It is seeded by the
///    function index only, so a function's shape never changes across
///    edits.
///  * the *operand* stream decides which existing variable each
///    operand slot names. It is seeded by the function index *and* the
///    function's BodyVersion, so EditKind::Mutate (a version bump)
///    re-draws operands under the identical shape -- the lowered
///    program keeps every VarId/LocId, only statement operands differ.
struct GenState {
  const GeneratorConfig &Cfg;
  support::SplitMix64 Structure{0};
  support::SplitMix64 Operand{0};
  std::ostringstream OS;
  std::vector<CommunityVars> Comms;
  std::vector<std::string> LockPtrs;
  std::vector<std::string> SharedVars;
  /// Whether function F has the pointer signature `int *fF(int *pF)`.
  std::vector<bool> PtrFunc;

  explicit GenState(const GeneratorConfig &Cfg) : Cfg(Cfg) {}

  /// Re-seeds both streams for function \p F at \p BodyVersion.
  void seedFunctionStreams(uint32_t F, uint32_t BodyVersion) {
    Structure = support::SplitMix64(
        streamSeed(Cfg.Seed, StructureStreamTag, F, 0));
    Operand = support::SplitMix64(
        streamSeed(Cfg.Seed, OperandStreamTag, F, BodyVersion));
  }

  // Structure-stream draws.
  uint32_t pickS(uint32_t N) { return Structure.below(N); }
  bool chanceS(uint32_t Percent) { return pickS(100) < Percent; }

  // Operand-stream draws.
  uint32_t pickO(uint32_t N) { return Operand.below(N); }
  bool chanceO(uint32_t Percent) { return pickO(100) < Percent; }
  bool chanceBpO(uint32_t BasisPoints) { return pickO(10000) < BasisPoints; }
};

/// Local pointer names (per function, community-tagged).
struct LocalVars {
  std::vector<std::pair<std::string, uint32_t>> Ptrs; ///< (name, comm)
};

const std::string &pickName(GenState &G,
                            const std::vector<std::string> &Pool) {
  return Pool[G.pickO(static_cast<uint32_t>(Pool.size()))];
}

/// A random depth-1 pointer expression (global or local) of community
/// \p Comm.
std::string pickPtr(GenState &G, const LocalVars &Locals, uint32_t Comm) {
  std::vector<const std::string *> LocalMatches;
  for (const auto &[Name, C] : Locals.Ptrs)
    if (C == Comm)
      LocalMatches.push_back(&Name);
  if (!LocalMatches.empty() && G.chanceO(50))
    return *LocalMatches[G.pickO(
        static_cast<uint32_t>(LocalMatches.size()))];
  return pickName(G, G.Comms[Comm].Ptrs);
}

void emitNoise(GenState &G, uint32_t Comm, const std::string &Indent) {
  const std::vector<std::string> &Objs = G.Comms[Comm].Objects;
  G.OS << Indent << pickName(G, Objs) << " = " << pickName(G, Objs)
       << " + 1;\n";
}

void emitCall(GenState &G, const LocalVars &Locals, uint32_t FuncIdx,
              uint32_t NumFuncs, const std::string &Indent) {
  const GeneratorConfig &Cfg = G.Cfg;
  uint32_t Callee;
  if (FuncIdx + 1 < NumFuncs && !G.chanceS(Cfg.RecursionPercent)) {
    Callee = FuncIdx + 1 + G.pickS(NumFuncs - FuncIdx - 1);
  } else {
    Callee = G.pickS(FuncIdx + 1);
  }
  // Backward (possibly recursive) calls are guarded so every call-graph
  // cycle has a dynamic escape: unconditionally recursive cycles would
  // make function exits unreachable (and real drivers do not recurse
  // unconditionally either).
  bool Guarded = Callee <= FuncIdx;
  std::string Inner = Indent;
  if (Guarded) {
    G.OS << Indent << "if (nondet) {\n";
    Inner += "  ";
  }
  if (!G.PtrFunc[Callee]) {
    G.OS << Inner << "f" << Callee << "(0);\n";
  } else {
    uint32_t CalleeComm = Callee % G.Comms.size();
    G.OS << Inner << pickPtr(G, Locals, CalleeComm) << " = f" << Callee
         << "(" << pickPtr(G, Locals, CalleeComm) << ");\n";
  }
  if (Guarded)
    G.OS << Indent << "}\n";
}

void emitStatement(GenState &G, const LocalVars &Locals, uint32_t HomeComm,
                   uint32_t FuncIdx, uint32_t NumFuncs, int Depth,
                   bool PointerBody);

void emitBlockBody(GenState &G, const LocalVars &Locals, uint32_t Comm,
                   uint32_t FuncIdx, uint32_t NumFuncs, uint32_t Count,
                   int Depth, bool PointerBody) {
  for (uint32_t I = 0; I < Count; ++I)
    emitStatement(G, Locals, Comm, FuncIdx, NumFuncs, Depth, PointerBody);
}

void emitStatement(GenState &G, const LocalVars &Locals, uint32_t HomeComm,
                   uint32_t FuncIdx, uint32_t NumFuncs, int Depth,
                   bool PointerBody) {
  const GeneratorConfig &Cfg = G.Cfg;
  uint32_t Comm = HomeComm;
  std::string Indent(static_cast<size_t>(2 * (Depth + 1)), ' ');

  if (!PointerBody) {
    // Non-pointer function: noise, branches and calls only.
    uint32_t Roll = G.pickS(100);
    if (Roll < 15 && Depth < 2) {
      bool While = G.chanceS(40);
      G.OS << Indent << (While ? "while" : "if") << " (nondet) {\n";
      emitBlockBody(G, Locals, Comm, FuncIdx, NumFuncs, 1 + G.pickS(2),
                    Depth + 1, PointerBody);
      G.OS << Indent << "}\n";
    } else if (Roll < 30) {
      emitCall(G, Locals, FuncIdx, NumFuncs, Indent);
    } else {
      emitNoise(G, Comm, Indent);
    }
    return;
  }

  // Big communities only become big partitions if statements actually
  // unify their pointers; divert a share of every pointer function's
  // statements into them. Shape-relevant (it picks the operand pool),
  // so this rides the structure stream.
  if (Cfg.BigCommunities > 0 && G.chanceS(Cfg.BigCommunityStmtPercent))
    Comm = G.pickS(std::min<uint32_t>(Cfg.BigCommunities,
                                      uint32_t(G.Comms.size())));

  uint32_t Total = Cfg.WeightAddrOf + Cfg.WeightCopy + Cfg.WeightLoad +
                   Cfg.WeightStore + Cfg.WeightCall + Cfg.WeightBranch +
                   Cfg.WeightMalloc + Cfg.WeightNoise;
  uint32_t Roll = G.pickS(Total);
  auto TakeWeight = [&Roll](uint32_t W) {
    if (Roll < W)
      return true;
    Roll -= W;
    return false;
  };

  if (TakeWeight(Cfg.WeightAddrOf)) {
    G.OS << Indent << pickPtr(G, Locals, Comm) << " = &"
         << pickName(G, G.Comms[Comm].Objects) << ";\n";
    return;
  }
  if (TakeWeight(Cfg.WeightCopy)) {
    // Cross-community copies fuse partitions (rare by default). The
    // source community is an operand choice: a mutate edit may move a
    // copy across communities, which is exactly the kind of edit that
    // must invalidate the affected clusters.
    uint32_t SrcComm = Comm;
    if (G.chanceBpO(Cfg.CrossCommunityBasisPoints))
      SrcComm = G.pickO(static_cast<uint32_t>(G.Comms.size()));
    G.OS << Indent << pickPtr(G, Locals, Comm) << " = "
         << pickPtr(G, Locals, SrcComm) << ";\n";
    return;
  }
  if (TakeWeight(Cfg.WeightLoad)) {
    if (!G.Comms[Comm].Deep.empty()) {
      G.OS << Indent << pickPtr(G, Locals, Comm) << " = *"
           << pickName(G, G.Comms[Comm].Deep) << ";\n";
    }
    return;
  }
  if (TakeWeight(Cfg.WeightStore)) {
    if (!G.Comms[Comm].Deep.empty()) {
      G.OS << Indent << "*" << pickName(G, G.Comms[Comm].Deep) << " = "
           << pickPtr(G, Locals, Comm) << ";\n";
    }
    return;
  }
  if (TakeWeight(Cfg.WeightCall)) {
    emitCall(G, Locals, FuncIdx, NumFuncs, Indent);
    return;
  }
  if (TakeWeight(Cfg.WeightBranch)) {
    if (Depth >= 2) {
      G.OS << Indent << pickPtr(G, Locals, Comm) << " = "
           << pickPtr(G, Locals, Comm) << ";\n";
      return;
    }
    bool While = G.chanceS(40);
    G.OS << Indent << (While ? "while" : "if") << " (nondet) {\n";
    emitBlockBody(G, Locals, Comm, FuncIdx, NumFuncs, 1 + G.pickS(3),
                  Depth + 1, PointerBody);
    if (!While && G.chanceS(50)) {
      G.OS << Indent << "} else {\n";
      emitBlockBody(G, Locals, Comm, FuncIdx, NumFuncs, 1 + G.pickS(2),
                    Depth + 1, PointerBody);
    }
    G.OS << Indent << "}\n";
    return;
  }
  if (TakeWeight(Cfg.WeightMalloc)) {
    G.OS << Indent << pickPtr(G, Locals, Comm) << " = malloc();\n";
    return;
  }
  emitNoise(G, Comm, Indent);
}

void emitLockStatements(GenState &G, const std::string &Indent) {
  if (G.LockPtrs.empty())
    return;
  const std::string &L = pickName(G, G.LockPtrs);
  G.OS << Indent << "lock(" << L << ");\n";
  if (!G.SharedVars.empty())
    G.OS << Indent << pickName(G, G.SharedVars) << " = 1;\n";
  G.OS << Indent << "unlock(" << L << ");\n";
}

/// LockDensity > 0: critical sections over the shared variables.
/// Every structural choice (section count, accesses per section,
/// read-vs-write, unprotected trailer) rides the structure stream so a
/// Mutate edit keeps the lowered shape -- and with it every
/// VarId/LocId -- while the operand stream re-draws which lock guards
/// which variable, the verdict-flipping half of the edit.
void emitLockSections(GenState &G, uint32_t Comm) {
  const GeneratorConfig &Cfg = G.Cfg;
  if (G.LockPtrs.empty() || Cfg.LockDensity == 0)
    return;
  uint32_t Sections = 1 + G.pickS(Cfg.LockDensity);
  for (uint32_t S = 0; S < Sections; ++S) {
    const std::string &L = pickName(G, G.LockPtrs);
    G.OS << "  lock(" << L << ");\n";
    uint32_t Accesses = 1 + G.pickS(2);
    for (uint32_t A = 0; A < Accesses; ++A) {
      if (G.SharedVars.empty())
        continue;
      if (G.chanceS(70))
        G.OS << "  " << pickName(G, G.SharedVars) << " = " << (1 + A)
             << ";\n";
      else
        G.OS << "  " << pickName(G, G.Comms[Comm].Objects) << " = "
             << pickName(G, G.SharedVars) << ";\n";
    }
    G.OS << "  unlock(" << L << ");\n";
    if (!G.SharedVars.empty() && G.chanceS(30))
      G.OS << "  " << pickName(G, G.SharedVars) << " = 0;\n";
  }
}

/// A stubbed body: the minimal legal body for the signature. Stubs are
/// version-independent on purpose -- mutating a stubbed function is a
/// no-op, which the edit-stream generator avoids anyway.
void emitStubBody(GenState &G, uint32_t F, bool Ptr) {
  if (Ptr)
    G.OS << "  return p" << F << ";\n";
  else
    G.OS << "  return n" << F << " + 1;\n";
}

/// One appended, fully self-contained pointer function. It references
/// only its own locals: no calls, no globals, no parameters, no return
/// value, so no existing partition, call-graph edge, VarId or LocId is
/// disturbed -- appended functions extend the program strictly at the
/// end of every id space. Two frontend facts make this work and are
/// deliberately leaned on here:
///
///  * functions are numbered in lexicographic name order (std::map),
///    so appended functions are named "x<K>" to sort after both "f<N>"
///    and "main" -- any name sorting earlier would renumber every
///    existing function and its entry/exit locations;
///  * params and return values of *all* functions are numbered before
///    globals, so the appended signature must be `void x<K>(void)` --
///    a single parameter would splice its VarId in front of every
///    global. Locals are numbered during body lowering (again in name
///    order), where x<K> already comes last.
void emitAppendedFunction(GenState &G, uint32_t Ordinal) {
  uint32_t NumObjs = 3, NumPtrs = 3;
  G.seedFunctionStreams(
      static_cast<uint32_t>(G.PtrFunc.size()) + 1 + Ordinal, 0);
  G.OS << "void x" << Ordinal << "(void) {\n";
  std::vector<std::string> Objs, Ptrs;
  for (uint32_t I = 0; I < NumObjs; ++I) {
    Objs.push_back("ho" + std::to_string(I));
    G.OS << "  int " << Objs.back() << ";\n";
  }
  for (uint32_t I = 0; I < NumPtrs; ++I) {
    Ptrs.push_back("hp" + std::to_string(I));
    G.OS << "  int *" << Ptrs.back() << ";\n";
  }
  uint32_t Stmts = 4 + G.pickS(4);
  for (uint32_t I = 0; I < Stmts; ++I) {
    uint32_t Roll = G.pickS(3);
    const std::string &Dst = Ptrs[G.pickO(uint32_t(Ptrs.size()))];
    if (Roll == 0)
      G.OS << "  " << Dst << " = &"
           << Objs[G.pickO(uint32_t(Objs.size()))] << ";\n";
    else if (Roll == 1)
      G.OS << "  " << Dst << " = "
           << Ptrs[G.pickO(uint32_t(Ptrs.size()))] << ";\n";
    else
      G.OS << "  " << Dst << " = malloc();\n";
  }
  G.OS << "}\n";
}

} // namespace

EditState workload::initialEditState(const GeneratorConfig &Cfg) {
  EditState St;
  uint32_t NumFuncs = std::max<uint32_t>(1, Cfg.NumFunctions);
  St.BodyVersion.assign(NumFuncs, 0);
  St.Stubbed.assign(NumFuncs, 0);
  return St;
}

void workload::applyEdit(EditState &St, const ProgramEdit &E) {
  switch (E.Kind) {
  case EditKind::Mutate:
    if (E.Function < St.BodyVersion.size())
      ++St.BodyVersion[E.Function];
    break;
  case EditKind::Stub:
    if (E.Function < St.Stubbed.size())
      St.Stubbed[E.Function] = 1;
    break;
  case EditKind::Append:
    ++St.AppendedFunctions;
    break;
  }
}

std::string workload::editedFunctionName(const ProgramEdit &E) {
  // Appending to a one-character prefix string: GCC 12 at -O3 warns
  // (-Wrestrict) on the inlined `const char* + std::string&&` form.
  std::string Name(1, E.Kind == EditKind::Append ? 'x' : 'f');
  Name += std::to_string(E.Function);
  return Name;
}

std::vector<ProgramEdit>
workload::generateEditStream(const GeneratorConfig &Cfg, uint32_t NumEdits,
                             uint64_t StreamSeed) {
  uint32_t NumFuncs = std::max<uint32_t>(1, Cfg.NumFunctions);
  support::SplitMix64 Rng(streamSeed(StreamSeed, EditStreamTag, 0, 0));
  EditState St = initialEditState(Cfg);
  std::vector<ProgramEdit> Out;
  Out.reserve(NumEdits);
  for (uint32_t I = 0; I < NumEdits; ++I) {
    ProgramEdit E;
    uint32_t Roll = Rng.below(100);
    if (Roll < 70) {
      E.Kind = EditKind::Mutate;
      // Mutating a stub is a no-op; re-target (bounded tries keep this
      // deterministic even when everything is stubbed).
      E.Function = Rng.below(NumFuncs);
      for (uint32_t Try = 0; Try < 8 && St.Stubbed[E.Function]; ++Try)
        E.Function = Rng.below(NumFuncs);
      if (St.Stubbed[E.Function])
        E.Kind = EditKind::Append;
    } else if (Roll < 85) {
      E.Kind = EditKind::Stub;
      E.Function = Rng.below(NumFuncs);
      if (St.Stubbed[E.Function])
        E.Kind = EditKind::Mutate; // Re-stub is a no-op; mutate instead.
      if (St.Stubbed[E.Function])
        E.Kind = EditKind::Append;
    } else {
      E.Kind = EditKind::Append;
    }
    if (E.Kind == EditKind::Append)
      E.Function = St.AppendedFunctions;
    applyEdit(St, E);
    Out.push_back(E);
  }
  return Out;
}

std::string workload::generateProgram(const GeneratorConfig &Cfg) {
  return generateProgram(Cfg, initialEditState(Cfg));
}

std::string workload::generateProgram(const GeneratorConfig &Cfg,
                                      const EditState &St) {
  GenState G(Cfg);
  uint32_t NumComms = std::max<uint32_t>(1, Cfg.Communities);

  // Globals, community by community.
  G.Comms.resize(NumComms);
  for (uint32_t C = 0; C < NumComms; ++C) {
    CommunityVars &CV = G.Comms[C];
    bool Big = C < Cfg.BigCommunities;
    uint32_t ObjMul = Big ? std::max<uint32_t>(1, Cfg.BigCommunityObjectFactor)
                          : 1;
    uint32_t PtrMul = Big ? std::max<uint32_t>(1, Cfg.BigCommunityFactor) : 1;
    for (uint32_t I = 0;
         I < std::max<uint32_t>(1, Cfg.ObjectsPerCommunity * ObjMul);
         ++I) {
      CV.Objects.push_back("g_obj_" + std::to_string(C) + "_" +
                           std::to_string(I));
      G.OS << "int " << CV.Objects.back() << ";\n";
    }
    for (uint32_t I = 0;
         I < std::max<uint32_t>(1, Cfg.PointersPerCommunity * PtrMul);
         ++I) {
      CV.Ptrs.push_back("g_ptr_" + std::to_string(C) + "_" +
                        std::to_string(I));
      G.OS << "int *" << CV.Ptrs.back() << ";\n";
    }
    for (uint32_t I = 0; I < Cfg.DeepPointersPerCommunity; ++I) {
      CV.Deep.push_back("g_pp_" + std::to_string(C) + "_" +
                        std::to_string(I));
      G.OS << "int **" << CV.Deep.back() << ";\n";
    }
  }

  // Lock community.
  for (uint32_t I = 0; I < Cfg.LockPointers; ++I) {
    G.OS << "lock_t g_lock_" << I << ";\n";
    G.OS << "lock_t *g_lp_" << I << ";\n";
    G.LockPtrs.push_back("g_lp_" + std::to_string(I));
  }
  for (uint32_t I = 0; I < Cfg.SharedVariables; ++I) {
    G.SharedVars.push_back("g_shared_" + std::to_string(I));
    G.OS << "int " << G.SharedVars.back() << ";\n";
  }

  if (Cfg.Structs)
    G.OS << "struct node { int *payload; int tag; };\n";

  // Decide signatures, then emit prototypes so calls can go forward.
  uint32_t NumFuncs = std::max<uint32_t>(1, Cfg.NumFunctions);
  G.PtrFunc.resize(NumFuncs);
  for (uint32_t F = 0; F < NumFuncs; ++F) {
    // Deterministic spread so prototypes, bodies and call sites agree.
    uint32_t Hash = (F * 2654435761u) >> 16;
    G.PtrFunc[F] = (Hash % 100) < Cfg.PointerFunctionPercent;
  }
  for (uint32_t F = 0; F < NumFuncs; ++F) {
    if (G.PtrFunc[F])
      G.OS << "int *f" << F << "(int *p" << F << ");\n";
    else
      G.OS << "int f" << F << "(int n" << F << ");\n";
  }

  // Function bodies, each from its own pair of streams.
  for (uint32_t F = 0; F < NumFuncs; ++F) {
    uint32_t Version = F < St.BodyVersion.size() ? St.BodyVersion[F] : 0;
    bool Stubbed = F < St.Stubbed.size() && St.Stubbed[F];
    G.seedFunctionStreams(F, Version);
    uint32_t Comm = F % NumComms;
    bool Ptr = G.PtrFunc[F];
    if (Ptr)
      G.OS << "int *f" << F << "(int *p" << F << ") {\n";
    else
      G.OS << "int f" << F << "(int n" << F << ") {\n";

    if (Stubbed) {
      emitStubBody(G, F, Ptr);
      G.OS << "}\n";
      continue;
    }

    LocalVars Locals;
    if (Ptr) {
      Locals.Ptrs.emplace_back("p" + std::to_string(F), Comm);
      for (uint32_t I = 0; I < Cfg.LocalsPerFunction; ++I) {
        std::string Name = "l" + std::to_string(I);
        uint32_t LComm = (Comm + I) % NumComms;
        G.OS << "  int *" << Name << ";\n";
        Locals.Ptrs.emplace_back(Name, LComm);
      }
    }
    if (Cfg.Structs && Ptr && F % 3 == 0) {
      G.OS << "  struct node n;\n";
      G.OS << "  n.payload = " << pickPtr(G, Locals, Comm) << ";\n";
      G.OS << "  " << pickPtr(G, Locals, Comm) << " = n.payload;\n";
    }
    emitBlockBody(G, Locals, Comm, F, NumFuncs,
                  std::max<uint32_t>(1, Cfg.StmtsPerFunction), 0, Ptr);
    if (Cfg.LockPointers && Cfg.LockDensity > 0)
      emitLockSections(G, Comm);
    else if (Cfg.LockPointers && F % 4 == 0)
      emitLockStatements(G, "  ");
    if (Ptr)
      G.OS << "  return " << pickPtr(G, Locals, Comm) << ";\n";
    else
      G.OS << "  return n" << F << " + 1;\n";
    G.OS << "}\n";
  }

  // main: seed the communities, wire lock pointers, call around. main
  // is never edited, and everything appended comes after it, so its
  // ids -- which sit in every cluster's dependency scope -- are stable
  // across every edit kind.
  G.seedFunctionStreams(NumFuncs, 0);
  G.OS << "void main(void) {\n";
  for (uint32_t C = 0; C < NumComms; ++C) {
    G.OS << "  " << G.Comms[C].Ptrs[0] << " = &" << G.Comms[C].Objects[0]
         << ";\n";
    if (!G.Comms[C].Deep.empty())
      G.OS << "  " << G.Comms[C].Deep[0] << " = &" << G.Comms[C].Ptrs[0]
           << ";\n";
  }
  for (uint32_t I = 0; I < Cfg.LockPointers; ++I)
    G.OS << "  g_lp_" << I << " = &g_lock_" << I << ";\n";

  if (Cfg.FunctionPointers && NumFuncs >= 2 && G.PtrFunc[0] &&
      G.PtrFunc[1]) {
    G.OS << "  fptr_t fp;\n";
    G.OS << "  fp = &f0;\n";
    G.OS << "  if (nondet) { fp = &f1; }\n";
    G.OS << "  " << G.Comms[0].Ptrs[0] << " = fp(" << G.Comms[0].Ptrs[0]
         << ");\n";
  }

  uint32_t Calls = std::max<uint32_t>(1, NumFuncs / 2);
  for (uint32_t I = 0; I < Calls; ++I) {
    uint32_t F = G.pickS(NumFuncs);
    if (!G.PtrFunc[F]) {
      G.OS << "  f" << F << "(0);\n";
      continue;
    }
    uint32_t Comm = F % NumComms;
    G.OS << "  " << pickName(G, G.Comms[Comm].Ptrs) << " = f" << F << "("
         << pickName(G, G.Comms[Comm].Ptrs) << ");\n";
  }
  if (Cfg.LockPointers && Cfg.LockDensity > 0)
    emitLockSections(G, 0);
  else if (Cfg.LockPointers)
    emitLockStatements(G, "  ");
  G.OS << "}\n";

  // Appended functions: strictly after main (see emitAppendedFunction).
  for (uint32_t K = 0; K < St.AppendedFunctions; ++K)
    emitAppendedFunction(G, K);
  return G.OS.str();
}
