//===- profgen/ShardedProfGen.cpp - Sharded profile generation ------------===//

#include "profgen/ShardedProfGen.h"

#include "profile/ProfileArena.h"
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

void accumulateStats(CSProfileGenStats &Total, const CSProfileGenStats &S) {
  Total.Samples += S.Samples;
  Total.UnsyncedSamples += S.UnsyncedSamples;
  Total.RangesProcessed += S.RangesProcessed;
  Total.TailCallStats.Attempts += S.TailCallStats.Attempts;
  Total.TailCallStats.Recovered += S.TailCallStats.Recovered;
  Total.TailCallStats.AmbiguousPaths += S.TailCallStats.AmbiguousPaths;
  Total.TailCallStats.NoPath += S.TailCallStats.NoPath;
}

/// Builds the tail-call edge graph of the full sample set, collecting
/// per-shard edge sets on \p Pool and unioning them (order-independent).
MissingFrameInferrer
collectEdgesSharded(const Symbolizer &Sym,
                    const std::vector<PerfSample> &Samples,
                    const std::vector<ShardRange> &Plan, ThreadPool &Pool) {
  MissingFrameInferrer Edges;
  if (Plan.size() <= 1) {
    collectTailCallEdges(Sym, Samples, Edges);
    return Edges;
  }
  std::vector<MissingFrameInferrer> Partial(Plan.size());
  Pool.parallelFor(Plan.size(), [&](size_t I) {
    collectTailCallEdges(Sym, Samples, Plan[I].Begin, Plan[I].End,
                         Partial[I]);
  });
  for (const MissingFrameInferrer &P : Partial)
    Edges.addEdgesFrom(P);
  return Edges;
}

} // namespace

ContextProfile generateCSProfileSharded(const Binary &Bin,
                                        const ProbeTable &Probes,
                                        const std::vector<PerfSample> &Samples,
                                        bool InferMissingFrames,
                                        unsigned Parallelism,
                                        CSProfileGenStats *Stats,
                                        MergeStats *Reduce) {
  Symbolizer Sym(Bin);
  unsigned K = resolveParallelism(Parallelism, Samples.size());
  std::vector<ShardRange> Plan = planShards(Samples.size(), K);

  if (Plan.size() <= 1) {
    // Serial fast path: no pool, no reduction.
    MissingFrameInferrer Edges;
    if (InferMissingFrames)
      collectTailCallEdges(Sym, Samples, Edges);
    if (Reduce)
      *Reduce = MergeStats{};
    CSProfileGenStats Local;
    ContextProfile Out = generateCSProfileChunk(
        Sym, Probes, Samples, 0, Samples.size(),
        InferMissingFrames ? &Edges : nullptr, Stats ? &Local : nullptr);
    if (Stats)
      *Stats = Local;
    return Out;
  }

  ThreadPool Pool(K);

  // Phase 1: the shared inference graph, from ALL samples (see the
  // determinism note in the header).
  MissingFrameInferrer Edges;
  if (InferMissingFrames)
    Edges = collectEdgesSharded(Sym, Samples, Plan, Pool);

  // Phase 2: per-shard unwinding + trie construction. Each shard gets its
  // own copy of the edge graph (inference bumps the inferrer's stats).
  std::vector<ContextProfile> Parts(Plan.size());
  std::vector<CSProfileGenStats> PartStats(Plan.size());
  std::vector<MissingFrameInferrer> Inferrers(Plan.size(), Edges);
  Pool.parallelFor(Plan.size(), [&](size_t I) {
    Parts[I] = generateCSProfileChunk(
        Sym, Probes, Samples, Plan[I].Begin, Plan[I].End,
        InferMissingFrames ? &Inferrers[I] : nullptr, &PartStats[I]);
  });

  // Phase 3: reduction on the flat plane. The part tries convert to
  // arena views in parallel (each worker flattens its own shard), the
  // sorted context slices k-way merge in one pass, and the result trie is
  // rebuilt once. Bit-identical — counts, stats, saturation — to folding
  // the parts sequentially (the merge contract in ProfileArena.h), but
  // without K-1 full destination-trie rewalks.
  std::vector<ContextProfileView> Views(Parts.size());
  Pool.parallelFor(Parts.size(),
                   [&](size_t I) { Views[I] = contextViewOf(Parts[I]); });
  std::vector<const ContextProfileView *> Ptrs;
  Ptrs.reserve(Views.size());
  for (const ContextProfileView &V : Views)
    Ptrs.push_back(&V);
  MergeStats MS;
  ContextProfile Out = contextProfileOf(mergeContextViews(Ptrs, MS));
  CSProfileGenStats Total = PartStats.front();
  for (size_t I = 1; I != PartStats.size(); ++I)
    accumulateStats(Total, PartStats[I]);
  if (Stats)
    *Stats = Total;
  if (Reduce)
    *Reduce = MS;
  return Out;
}

FlatProfile
generateProbeOnlyProfileSharded(const Binary &Bin, const ProbeTable &Probes,
                                const std::vector<PerfSample> &Samples,
                                unsigned Parallelism, CSProfileGenStats *Stats,
                                MergeStats *Reduce) {
  Symbolizer Sym(Bin);
  unsigned K = resolveParallelism(Parallelism, Samples.size());
  std::vector<ShardRange> Plan = planShards(Samples.size(), K);

  if (Plan.size() <= 1) {
    if (Reduce)
      *Reduce = MergeStats{};
    CSProfileGenStats Local;
    FlatProfile Out = generateProbeOnlyProfileChunk(
        Sym, Probes, Samples, 0, Samples.size(), Stats ? &Local : nullptr);
    if (Stats)
      *Stats = Local;
    return Out;
  }

  ThreadPool Pool(K);
  std::vector<FlatProfile> Parts(Plan.size());
  std::vector<CSProfileGenStats> PartStats(Plan.size());
  Pool.parallelFor(Plan.size(), [&](size_t I) {
    Parts[I] = generateProbeOnlyProfileChunk(
        Sym, Probes, Samples, Plan[I].Begin, Plan[I].End, &PartStats[I]);
  });

  // Flat-plane reduction, as in generateCSProfileSharded: parallel
  // view conversion, one k-way merge of sorted slices, one rebuild.
  std::vector<FlatProfileView> Views(Parts.size());
  Pool.parallelFor(Parts.size(),
                   [&](size_t I) { Views[I] = flatViewOf(Parts[I]); });
  std::vector<const FlatProfileView *> Ptrs;
  Ptrs.reserve(Views.size());
  for (const FlatProfileView &V : Views)
    Ptrs.push_back(&V);
  MergeStats MS;
  FlatProfile Out = flatProfileOf(mergeFlatViews(Ptrs, MS));
  CSProfileGenStats Total = PartStats.front();
  for (size_t I = 1; I != PartStats.size(); ++I)
    accumulateStats(Total, PartStats[I]);
  if (Stats)
    *Stats = Total;
  if (Reduce)
    *Reduce = MS;
  return Out;
}

} // namespace csspgo
