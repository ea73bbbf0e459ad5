//===- bench/serving_load.cpp - Multi-tenant serving load harness ---------===//
//
// Load generator for serving/TenantRegistry.h: K tenants, each with its
// own synthetic program and deterministic edit stream, served
// concurrently -- one client thread per tenant replays mixed traffic
// (submit the next program version, then a burst of may-alias query
// batches) while the registry's shared drain pool re-analyzes whatever
// is queued. Reported per tenant and in aggregate:
//
//   * sustained queries/sec over the whole load phase, and the
//     registry's own p50/p95/p99 per-query latency (recorded inside the
//     serving layer, so it includes materialization stalls);
//   * edit-queue accounting: accepted, coalesced (superseded versions
//     never analyzed), rejected (backpressure), applied (published);
//   * the differential oracle: after the load phase, every tenant's
//     served verdicts are replayed on a *cold* single-tenant
//     AliasService fed exactly the versions the registry analyzed
//     (appliedTags) -- the served snapshot must answer the identical
//     query batch identically. CI gates on all_tenants_identical.
//
// Backpressure is part of the workload: with bursty submission and a
// small queue, some versions coalesce and some reject; the oracle is
// built on appliedTags precisely so the comparison is immune to which
// versions admission control dropped.
//
// Usage: serving_load [scale] [--tenants K] [--edits N] [--stats-json]
//
// --stats-json appends one machine-readable JSON line on stdout -- CI
// parses the last line and uploads the file as an artifact.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "serving/TenantRegistry.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace bsaa;
using namespace bsaa::bench;

namespace {

/// The editable workload of bench/ablation_incremental.cpp; each tenant
/// gets its own seed, so no two tenants analyze the same program.
workload::GeneratorConfig tenantConfig(double Scale, uint32_t TenantIdx) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = 42 + 1000 * static_cast<uint64_t>(TenantIdx);
  Cfg.NumFunctions = static_cast<uint32_t>(60 * Scale);
  if (Cfg.NumFunctions < 8)
    Cfg.NumFunctions = 8;
  Cfg.StmtsPerFunction = 16;
  Cfg.Communities = static_cast<uint32_t>(16 * Scale);
  if (Cfg.Communities < 4)
    Cfg.Communities = 4;
  Cfg.PointerFunctionPercent = 60;
  Cfg.WeightNoise = 20;
  Cfg.WeightCall = 4;
  Cfg.RecursionPercent = 0;
  Cfg.CrossCommunityBasisPoints = 0;
  return Cfg;
}

std::unique_ptr<ir::Program>
compileVersion(const workload::GeneratorConfig &Cfg,
               const workload::EditState &St) {
  std::string Src = workload::generateProgram(Cfg, St);
  frontend::Diagnostics Diags;
  std::unique_ptr<ir::Program> P = frontend::compileString(Src, Diags);
  if (!P) {
    std::fprintf(stderr, "error: generated version failed to compile:\n%s\n",
                 Diags.toString().c_str());
    std::abort();
  }
  return P;
}

/// Everything one tenant's client thread needs. Edit states and the
/// query batch are precomputed; the client compiles each submitted
/// version itself (an edit in a real serving setup arrives as a new
/// program, so the compile rides the edit path -- query latency is
/// recorded inside the registry and never includes it).
struct TenantPlan {
  workload::GeneratorConfig Cfg;
  /// Version v = initial program after the first v edits; version 0 is
  /// the pristine program.
  std::vector<workload::EditState> States;
  std::vector<std::string> Touched; ///< Coalescing tag per version >= 1.
  /// Query batch over variable ids valid in *every* version (ids below
  /// the minimum numVars; stub edits shrink the program).
  std::vector<query::MayAliasQuery> Batch;
};

TenantPlan makePlan(double Scale, uint32_t TenantIdx, uint32_t NumEdits) {
  TenantPlan Plan;
  Plan.Cfg = tenantConfig(Scale, TenantIdx);
  std::vector<workload::ProgramEdit> Edits = workload::generateEditStream(
      Plan.Cfg, NumEdits, /*StreamSeed=*/7 + TenantIdx);

  workload::EditState St = workload::initialEditState(Plan.Cfg);
  Plan.States.push_back(St);
  Plan.Touched.push_back(""); // Version 0 has no edited function.
  for (const workload::ProgramEdit &E : Edits) {
    workload::applyEdit(St, E);
    Plan.States.push_back(St);
    Plan.Touched.push_back(workload::editedFunctionName(E));
  }

  // Ids valid across all versions: compile each once (setup only) and
  // take pointer vars of version 0 below the global minimum.
  uint32_t MinVars = UINT32_MAX;
  for (const workload::EditState &S : Plan.States)
    MinVars = std::min(MinVars, compileVersion(Plan.Cfg, S)->numVars());
  std::unique_ptr<ir::Program> V0 = compileVersion(Plan.Cfg, Plan.States[0]);
  std::vector<ir::VarId> Ptrs;
  for (ir::VarId V = 0; V < MinVars; ++V)
    if (V0->var(V).isPointer())
      Ptrs.push_back(V);
  for (size_t I = 0; I < Ptrs.size(); ++I)
    for (size_t J = I + 1; J < Ptrs.size() && Plan.Batch.size() < 512; ++J)
      Plan.Batch.push_back({Ptrs[I], Ptrs[J], ir::InvalidLoc});
  return Plan;
}

} // namespace

int main(int Argc, char **Argv) {
  bool StatsJson = takeFlag(Argc, Argv, "--stats-json");
  uint32_t NumTenants = 4;
  uint32_t NumEdits = 20;
  if (const char *V = takeFlag(Argc, Argv, "--tenants", true))
    NumTenants = static_cast<uint32_t>(std::atoi(V));
  if (const char *V = takeFlag(Argc, Argv, "--edits", true))
    NumEdits = static_cast<uint32_t>(std::atoi(V));
  double Scale = scaleFromArgs(Argc, Argv, 0.25);
  if (NumTenants < 1)
    NumTenants = 1;

  std::printf("serving_load: %u tenants, %u edits each, scale %.2f\n",
              NumTenants, NumEdits, Scale);

  // Setup (untimed): per-tenant plans, registry, initial versions.
  std::vector<TenantPlan> Plans;
  for (uint32_t T = 0; T < NumTenants; ++T)
    Plans.push_back(makePlan(Scale, T, NumEdits));

  serving::ServingOptions SOpts;
  SOpts.BOpts.AndersenThreshold = 60;
  SOpts.BOpts.EngineOpts.StepBudget = 50000;
  SOpts.DrainThreads = 2;
  SOpts.EditQueueCapacity = 4; // Small on purpose: backpressure is load.
  serving::TenantRegistry Reg(SOpts);

  for (uint32_t T = 0; T < NumTenants; ++T) {
    serving::TenantId Id = Reg.addTenant("tenant" + std::to_string(T));
    serving::SubmitStatus S = Reg.submitEdit(
        Id, compileVersion(Plans[T].Cfg, Plans[T].States[0]), "", /*Tag=*/0);
    if (S != serving::SubmitStatus::Accepted) {
      std::fprintf(stderr, "error: initial version rejected (%s)\n",
                   serving::submitStatusName(S));
      return 1;
    }
  }
  Reg.waitIdle();

  // Load phase: one client thread per tenant, each interleaving
  // submissions (bursty: two versions back to back every other round,
  // so coalescing and backpressure actually fire) with query batches.
  std::vector<uint64_t> QueriesIssued(NumTenants, 0);
  Timer LoadT;
  {
    std::vector<std::thread> Clients;
    for (uint32_t T = 0; T < NumTenants; ++T) {
      Clients.emplace_back([T, &Plans, &Reg, &QueriesIssued] {
        const TenantPlan &Plan = Plans[T];
        uint32_t NextVersion = 1;
        while (NextVersion < Plan.States.size()) {
          uint32_t Burst =
              (NextVersion % 2 == 1 && NextVersion + 1 < Plan.States.size())
                  ? 2
                  : 1;
          for (uint32_t B = 0; B < Burst; ++B, ++NextVersion) {
            (void)Reg.submitEdit(
                T, compileVersion(Plan.Cfg, Plan.States[NextVersion]),
                Plan.Touched[NextVersion], /*Tag=*/NextVersion);
          }
          for (int Round = 0; Round < 4; ++Round) {
            (void)Reg.evalMayAlias(T, Plan.Batch);
            QueriesIssued[T] += Plan.Batch.size();
          }
        }
      });
    }
    for (std::thread &C : Clients)
      C.join();
  }
  Reg.waitIdle();
  double LoadSeconds = LoadT.seconds();

  // Differential oracle: a cold single-tenant AliasService fed exactly
  // the versions the registry analyzed must answer the batch exactly
  // as the served snapshot does.
  bool AllIdentical = true;
  for (uint32_t T = 0; T < NumTenants; ++T) {
    core::BootstrapOptions B;
    B.AndersenThreshold = SOpts.BOpts.AndersenThreshold;
    B.EngineOpts = SOpts.BOpts.EngineOpts;
    query::AliasService Cold(B);
    for (uint64_t Tag : Reg.appliedTags(T))
      Cold.update(compileVersion(Plans[T].Cfg,
                                 Plans[T].States[static_cast<size_t>(Tag)]));
    std::vector<uint8_t> Want = Cold.engine().evalMayAlias(Plans[T].Batch, 0);
    std::vector<uint8_t> Got = Reg.evalMayAlias(T, Plans[T].Batch);
    if (Want != Got) {
      AllIdentical = false;
      std::fprintf(stderr, "error: tenant %u diverged from cold replay\n", T);
    }
  }

  uint64_t TotalQueries = 0, Accepted = 0, Coalesced = 0, Rejected = 0,
           Applied = 0;
  double WorstP99 = 0;
  std::printf("  %-10s %8s %9s %9s %8s %8s %9s %9s %9s\n", "tenant",
              "queries", "accepted", "coalesced", "rejected", "applied",
              "p50 ms", "p99 ms", "pub p99");
  for (uint32_t T = 0; T < NumTenants; ++T) {
    serving::TenantStats St = Reg.stats(T);
    TotalQueries += St.Queries;
    Accepted += St.EditsAccepted;
    Coalesced += St.EditsCoalesced;
    Rejected += St.EditsRejected;
    Applied += St.EditsApplied;
    // Quantiles are optional now (null for an idle tenant); every
    // tenant here served traffic, so treat a missing p99 as a failed
    // oracle rather than a vacuous 0.
    if (!St.QueryP99Ms || !St.PublishP99Ms) {
      AllIdentical = false;
      std::fprintf(stderr, "error: tenant %u missing latency quantiles\n", T);
    }
    WorstP99 = std::max(WorstP99, St.QueryP99Ms.value_or(0.0));
    std::printf("  %-10s %8llu %9llu %9llu %8llu %8llu %9.3f %9.3f %9.1f\n",
                St.Name.c_str(), (unsigned long long)St.Queries,
                (unsigned long long)St.EditsAccepted,
                (unsigned long long)St.EditsCoalesced,
                (unsigned long long)St.EditsRejected,
                (unsigned long long)St.EditsApplied,
                St.QueryP50Ms.value_or(0.0), St.QueryP99Ms.value_or(0.0),
                St.PublishP99Ms.value_or(0.0));
  }
  double Qps = LoadSeconds > 0
                   ? static_cast<double>(TotalQueries) / LoadSeconds
                   : 0.0;
  std::printf("  load phase: %.2fs, %llu queries (%.0f q/s sustained), "
              "worst tenant p99 %.3f ms\n",
              LoadSeconds, (unsigned long long)TotalQueries, Qps, WorstP99);
  std::printf("  oracle: %s\n", AllIdentical
                                    ? "every tenant identical to cold replay"
                                    : "DIVERGENCE DETECTED");

  if (StatsJson) {
    support::JsonWriter W;
    W.beginObject()
        .field("bench", "serving_load")
        .field("scale", Scale)
        .field("tenants", NumTenants)
        .field("edits_per_tenant", NumEdits)
        .field("all_tenants_identical", AllIdentical)
        .field("load_seconds", LoadSeconds)
        .field("queries", TotalQueries)
        .field("qps", Qps)
        .field("p99_ms", WorstP99)
        .key("edits")
        .beginObject()
        .field("accepted", Accepted)
        .field("coalesced", Coalesced)
        .field("rejected", Rejected)
        .field("applied", Applied)
        .endObject()
        .endObject();
    std::puts(W.str().c_str());
  }
  return AllIdentical ? 0 : 1;
}
