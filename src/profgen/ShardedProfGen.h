//===- profgen/ShardedProfGen.h - Sharded profile generation ----*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded, multi-threaded profile-generation pipeline. The production
/// workflow aggregates LBR samples from many hosts (§IV-A), which makes
/// profile-generation throughput the operational bottleneck at datacenter
/// scale. This layer partitions the sample vector into K contiguous
/// shards, runs virtual unwinding and counting per shard on a ThreadPool,
/// each shard emitting a sorted view, and reduces the views (flat or CS)
/// with the one k-way view merge, mergeContextViews (ProfileArena.h). A
/// consumer that needs a map builds it from the reduced view once.
///
/// Determinism guarantee: the sharded result is bit-identical (same
/// contexts, same counts, same serialized dump) to the serial path for any
/// shard count K, because
///  (1) the tail-call inference graph is collected over the FULL sample
///      set before any shard unwinds (per-shard edge sets are unioned, a
///      set operation independent of partitioning), and
///  (2) every per-sample contribution is a pure sum into sorted views, so
///      reduction order cannot change the result.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PROFGEN_SHARDEDPROFGEN_H
#define CSSPGO_PROFGEN_SHARDEDPROFGEN_H

#include "profgen/CSProfileGenerator.h"
#include "profile/ProfileMerge.h"

namespace csspgo {

/// One contiguous shard of the sample vector: [Begin, End).
struct ShardRange {
  size_t Begin = 0;
  size_t End = 0;
};

/// Splits \p Count items into at most \p Shards contiguous ranges of
/// near-equal size (difference at most one item); empty ranges are
/// dropped, so the result may have fewer than \p Shards entries.
std::vector<ShardRange> planShards(size_t Count, unsigned Shards);

/// Maps the user-facing Parallelism knob to a worker count: 0 means one
/// per hardware thread; the result is clamped to [1, SampleCount].
unsigned resolveParallelism(unsigned Requested, size_t SampleCount);

/// Sharded CS profile generation; bit-identical to the serial run
/// (\p Parallelism 1) for any \p Parallelism. \p InferMissingFrames
/// enables the missing-frame inferrer. \p Reduce, when given, receives the
/// accumulated MergeStats of the reduction (zeros when a single shard ran).
ContextProfileView
generateCSProfileSharded(const Symbolizer &Sym, const ProbeTable &Probes,
                         const std::vector<PerfSample> &Samples,
                         bool InferMissingFrames, unsigned Parallelism,
                         CSProfileGenStats *Stats = nullptr,
                         MergeStats *Reduce = nullptr);

/// Sharded probe-only profile generation, a flat view; bit-identical to
/// the serial run for any \p Parallelism.
ContextProfileView
generateProbeOnlyProfileSharded(const Symbolizer &Sym, const ProbeTable &Probes,
                                const std::vector<PerfSample> &Samples,
                                unsigned Parallelism,
                                CSProfileGenStats *Stats = nullptr,
                                MergeStats *Reduce = nullptr);

} // namespace csspgo

#endif // CSSPGO_PROFGEN_SHARDEDPROFGEN_H
