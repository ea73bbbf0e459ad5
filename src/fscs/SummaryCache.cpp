//===- fscs/SummaryCache.cpp - Cross-cluster summary memoization ----------===//

#include "fscs/SummaryCache.h"

#include "fscs/ClusterAliasAnalysis.h"
#include "fscs/StateCodec.h"

using namespace bsaa;
using namespace bsaa::fscs;

CachedClusterRun CachedClusterRun::of(const ClusterAliasAnalysis &AA) {
  CachedClusterRun Run;
  Run.Stats = AA.engine().stats();
  Run.Dove = AA.dovetailStats();
  if (!Run.Stats.flagged())
    Run.Engine = AA.engine().exportState();
  return Run;
}

void SummaryCache::attachStore(std::shared_ptr<support::CacheStore> Store) {
  support::CacheStoreBacking<CachedClusterRun> B;
  B.Store = std::move(Store);
  B.Family = StoreFamilySummary;
  B.Version = SummaryCodecVersion;
  B.Encode = [](const CachedClusterRun &Run, support::ByteWriter &W) {
    encodeCachedClusterRun(Run, W);
  };
  B.Decode = [](const uint8_t *Data, size_t Len, CachedClusterRun &Out) {
    return decodeCachedClusterRun(Data, Len, Out);
  };
  B.ApproxBytes = [](const CachedClusterRun &Run) {
    return Run.approxBytes();
  };
  Cache.attachStore(std::move(B));
}
