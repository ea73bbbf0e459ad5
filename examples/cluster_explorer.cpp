//===- examples/cluster_explorer.cpp - Inspect the cascade ----------------===//
//
// Runs the full bootstrapping cascade on a generated workload and
// prints what each stage produced: partition statistics, the Andersen
// refinement of the largest partition, per-cluster slices, and a DOT
// rendering of the Steensgaard hierarchy around the largest partition.
//
// Build and run:  ./build/examples/cluster_explorer [seed]
//
//===----------------------------------------------------------------------===//

#include "core/BootstrapDriver.h"
#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "support/GraphWriter.h"
#include "workload/ProgramGenerator.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

using namespace bsaa;

int main(int Argc, char **Argv) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = Argc > 1 ? std::strtoull(Argv[1], nullptr, 10) : 7;
  Cfg.NumFunctions = 60;
  Cfg.Communities = 12;
  Cfg.BigCommunities = 1;
  Cfg.BigCommunityFactor = 15;
  Cfg.LockPointers = 2;

  std::string Src = workload::generateProgram(Cfg);
  frontend::Diagnostics Diags;
  std::unique_ptr<ir::Program> P = frontend::compileString(Src, Diags);
  if (!P) {
    std::fprintf(stderr, "compile failed:\n%s", Diags.toString().c_str());
    return 1;
  }
  std::printf("workload: %u variables (%u pointers), %u functions, %u "
              "statements\n",
              P->numVars(), P->numPointers(), P->numFuncs(), P->numLocs());

  core::BootstrapOptions Opts;
  Opts.AndersenThreshold = 30;
  core::BootstrapDriver Driver(*P, Opts);
  const analysis::SteensgaardAnalysis &S = Driver.steensgaard();

  // Partition statistics.
  std::map<uint32_t, uint32_t> Hist;
  uint32_t MaxPart = 0, MaxPartId = 0, NonTrivial = 0;
  for (uint32_t Part = 0; Part < S.numPartitions(); ++Part) {
    uint32_t N = S.partitionPointerCount(Part);
    if (N == 0)
      continue;
    ++NonTrivial;
    ++Hist[N];
    if (N > MaxPart) {
      MaxPart = N;
      MaxPartId = Part;
    }
  }
  std::printf("\nSteensgaard: %u pointer-bearing partitions, largest %u "
              "pointers\n",
              NonTrivial, MaxPart);
  std::printf("size histogram:");
  for (auto [Size, Freq] : Hist)
    std::printf(" %u:%u", Size, Freq);
  std::printf("\n");

  // The cascade's cover.
  std::vector<core::Cluster> Cover = Driver.buildCover();
  uint32_t FromBig = 0, BigMax = 0;
  for (const core::Cluster &C : Cover) {
    if (C.SourcePartition != MaxPartId)
      continue;
    ++FromBig;
    BigMax = std::max(BigMax, C.pointerCount(*P));
  }
  std::printf("\ncascade cover: %u clusters total; the largest partition "
              "split into %u Andersen clusters (max %u pointers)\n",
              uint32_t(Cover.size()), FromBig, BigMax);

  // Slice sizes.
  uint64_t TotalSlice = 0;
  uint32_t MaxSlice = 0;
  for (const core::Cluster &C : Cover) {
    TotalSlice += C.Statements.size();
    MaxSlice = std::max(MaxSlice, uint32_t(C.Statements.size()));
  }
  std::printf("slices: average %.1f statements, max %u (program has %u "
              "locations)\n",
              Cover.empty() ? 0.0 : double(TotalSlice) / Cover.size(),
              MaxSlice, P->numLocs());

  // DOT of the hierarchy around the largest partition.
  GraphWriter Dot("steensgaard_hierarchy");
  for (uint32_t Part = 0; Part < S.numPartitions(); ++Part) {
    if (S.partitionPointerCount(Part) < 2)
      continue;
    // Names are built by appending: GCC 12 misreports
    // `const char * + std::string&&` under -Wrestrict.
    auto NodeName = [](uint32_t Id) {
      std::string Name = "p";
      Name += std::to_string(Id);
      return Name;
    };
    std::string Label = "partition ";
    Label += std::to_string(Part) + " (" +
             std::to_string(S.partitionPointerCount(Part)) + " ptrs, depth " +
             std::to_string(S.depthOfPartition(Part)) + ")";
    Dot.addNode(NodeName(Part), Label);
    uint32_t Succ = S.pointsToPartition(Part);
    if (Succ != analysis::InvalidPartition)
      Dot.addEdge(NodeName(Part), NodeName(Succ));
  }
  std::printf("\nSteensgaard hierarchy (DOT, partitions with >= 2 "
              "pointers):\n%s",
              Dot.str().c_str());
  return 0;
}
