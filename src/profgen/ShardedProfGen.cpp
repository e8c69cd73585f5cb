//===- profgen/ShardedProfGen.cpp - Sharded profile generation ------------===//

#include "profgen/ShardedProfGen.h"

#include "support/ThreadPool.h"

namespace csspgo {

std::vector<ShardRange> planShards(size_t Count, unsigned Shards) {
  std::vector<ShardRange> Plan;
  if (Count == 0 || Shards == 0)
    return Plan;
  size_t K = std::min<size_t>(Shards, Count);
  Plan.reserve(K);
  for (size_t I = 0; I != K; ++I) {
    ShardRange R;
    R.Begin = Count * I / K;
    R.End = Count * (I + 1) / K;
    if (R.Begin != R.End)
      Plan.push_back(R);
  }
  return Plan;
}

unsigned resolveParallelism(unsigned Requested, size_t SampleCount) {
  if (Requested == 0)
    Requested = ThreadPool::defaultConcurrency();
  if (SampleCount == 0)
    return 1;
  return static_cast<unsigned>(
      std::min<size_t>(Requested, SampleCount));
}

namespace {

/// The shards of \p Count samples; one empty shard when there are none.
std::vector<ShardRange> planFor(size_t Count, unsigned Parallelism) {
  std::vector<ShardRange> Plan =
      planShards(Count, resolveParallelism(Parallelism, Count));
  if (Plan.empty())
    Plan.push_back({0, 0});
  return Plan;
}

/// Generates each shard's view with Chunk(I, Stats), a worker per shard,
/// and k-way merges the sorted views in one pass with mergeContextViews:
/// bit-identical — counts, stats, saturation — to folding the parts
/// sequentially (the merge contract in ProfileArena.h). One shard runs
/// inline and is returned as is, with zero MergeStats.
template <typename ChunkFn>
ContextProfileView reduceShards(size_t Shards, ChunkFn Chunk,
                                CSProfileGenStats *Stats, MergeStats *Reduce) {
  std::vector<ContextProfileView> Parts(Shards);
  std::vector<CSProfileGenStats> PartStats(Shards);
  forEachIndex(Shards, Shards,
               [&](size_t I) { Parts[I] = Chunk(I, &PartStats[I]); });
  for (size_t I = 1; I != Shards; ++I)
    PartStats.front() += PartStats[I];
  if (Stats)
    *Stats = PartStats.front();
  MergeStats MS;
  if (Shards > 1) {
    std::vector<const ContextProfileView *> Ptrs;
    for (const ContextProfileView &V : Parts)
      Ptrs.push_back(&V);
    Parts.front() = mergeContextViews(Ptrs, MS);
  }
  if (Reduce)
    *Reduce = MS;
  return std::move(Parts.front());
}

} // namespace

ContextProfileView
generateCSProfileSharded(const Symbolizer &Sym, const ProbeTable &Probes,
                         const std::vector<PerfSample> &Samples,
                         bool InferMissingFrames, unsigned Parallelism,
                         CSProfileGenStats *Stats, MergeStats *Reduce) {
  std::vector<ShardRange> Plan = planFor(Samples.size(), Parallelism);
  const size_t K = Plan.size();

  // The shared inference graph, from ALL samples (see the determinism
  // note in the header): per-shard edge sets, unioned. Each shard then
  // gets its own copy, where inference memoizes its searches.
  std::vector<MissingFrameInferrer> Inferrers(InferMissingFrames ? K : 0);
  if (InferMissingFrames) {
    forEachIndex(K, K, [&](size_t I) {
      collectTailCallEdges(Sym, Samples, Plan[I].Begin, Plan[I].End,
                           Inferrers[I]);
    });
    for (size_t I = 1; I != K; ++I)
      Inferrers.front().addEdgesFrom(Inferrers[I]);
    Inferrers.assign(K, Inferrers.front());
  }

  return reduceShards(
      K,
      [&](size_t I, CSProfileGenStats *S) {
        return generateCSProfileChunk(
            Sym, Probes, Samples, Plan[I].Begin, Plan[I].End,
            InferMissingFrames ? &Inferrers[I] : nullptr, S);
      },
      Stats, Reduce);
}

ContextProfileView
generateProbeOnlyProfileSharded(const Symbolizer &Sym, const ProbeTable &Probes,
                                const std::vector<PerfSample> &Samples,
                                unsigned Parallelism, CSProfileGenStats *Stats,
                                MergeStats *Reduce) {
  std::vector<ShardRange> Plan = planFor(Samples.size(), Parallelism);
  return reduceShards(
      Plan.size(),
      [&](size_t I, CSProfileGenStats *S) {
        return generateProbeOnlyProfileChunk(Sym, Probes, Samples,
                                             Plan[I].Begin, Plan[I].End, S);
      },
      Stats, Reduce);
}

} // namespace csspgo
