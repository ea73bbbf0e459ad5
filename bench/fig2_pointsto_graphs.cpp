//===- bench/fig2_pointsto_graphs.cpp - Figure 2 reproduction -------------===//
//
// Regenerates the paper's Figure 2: the Steensgaard and Andersen
// points-to graphs for the five-assignment example program. Expected
// shapes: Steensgaard has one node {p,q,r} pointing at one node
// {a,b,c}; Andersen keeps p -> {a}, r -> {c}, q -> {a,b,c} (the node
// for q has out-degree three).
//
//===----------------------------------------------------------------------===//

#include "analysis/Andersen.h"
#include "analysis/Steensgaard.h"
#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "support/GraphWriter.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace bsaa;

int main() {
  const char *Src = R"(
    void main(void) {
      int a; int b; int c;
      int *p; int *q; int *r;
      1a: p = &a;
      2a: q = &b;
      3a: r = &c;
      4a: q = p;
      5a: q = r;
    }
  )";
  frontend::Diagnostics Diags;
  auto P = frontend::compileString(Src, Diags);
  if (!P) {
    std::fprintf(stderr, "%s", Diags.toString().c_str());
    return 1;
  }

  std::printf("Figure 2: Steensgaard vs. Andersen points-to graphs\n");
  std::printf("program:\n%s\n", Src);

  analysis::SteensgaardAnalysis S(*P);
  S.run();
  std::printf("Steensgaard partitions and edges:\n");
  GraphWriter SteensDot("steensgaard");
  // Node names are built by appending: GCC 12 misreports
  // `const char * + std::string&&` under -Wrestrict.
  auto NodeName = [](uint32_t Part) {
    std::string Name = "n";
    Name += std::to_string(Part);
    return Name;
  };
  for (uint32_t Part = 0; Part < S.numPartitions(); ++Part) {
    std::string Label;
    uint32_t Pointers = 0;
    for (ir::VarId V : S.partitionMembers(Part)) {
      const ir::Variable &Var = P->var(V);
      if (Var.Kind != ir::VarKind::Local && Var.Kind != ir::VarKind::Global)
        continue;
      if (!Label.empty())
        Label += ", ";
      Label += Var.Name.substr(Var.Name.rfind(':') + 1);
      Pointers += Var.isPointer();
    }
    if (Label.empty())
      continue;
    std::printf("  {%s}", Label.c_str());
    uint32_t Succ = S.pointsToPartition(Part);
    if (Succ != analysis::InvalidPartition)
      std::printf("  -> partition %u", Succ);
    std::printf("\n");
    SteensDot.addNode(NodeName(Part), "{" + Label + "}");
    if (Succ != analysis::InvalidPartition)
      SteensDot.addEdge(NodeName(Part), NodeName(Succ));
  }

  analysis::AndersenAnalysis A(*P);
  A.run();
  std::printf("\nAndersen points-to sets:\n");
  GraphWriter AndDot("andersen");
  for (ir::VarId V = 0; V < P->numVars(); ++V) {
    const ir::Variable &Var = P->var(V);
    if (!Var.isPointer() || Var.Kind == ir::VarKind::Temp)
      continue;
    std::string Name = Var.Name.substr(Var.Name.rfind(':') + 1);
    std::printf("  %s -> {", Name.c_str());
    bool First = true;
    AndDot.addNode(Name, Name);
    for (ir::VarId O : A.pointsToVars(V)) {
      std::string TargetName = P->var(O).Name;
      TargetName = TargetName.substr(TargetName.rfind(':') + 1);
      std::printf("%s%s", First ? "" : ", ", TargetName.c_str());
      AndDot.addNode(TargetName, TargetName);
      AndDot.addEdge(Name, TargetName);
      First = false;
    }
    std::printf("}\n");
  }

  std::printf("\nDOT (Steensgaard):\n%s", SteensDot.str().c_str());
  std::printf("\nDOT (Andersen):\n%s", AndDot.str().c_str());
  return 0;
}
