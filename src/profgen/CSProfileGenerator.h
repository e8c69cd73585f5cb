//===- profgen/CSProfileGenerator.h - CSSPGO profile generation --*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Context-sensitive, probe-based profile generation — the CSSPGO
/// llvm-profgen path. Linear ranges and branches are context-attributed by
/// the virtual unwinder (Algorithm 1); counts are recorded against
/// *pseudo-probe ids*, with copies of the same probe (from code
/// duplication) summed — the one-to-one mapping property of §III-A. The
/// probed functions' CFG checksums are persisted into the profile for
/// stale-profile detection.
///
/// Both chunk generators count into one ContextPool and emit a canonical
/// ContextProfileView from it, sorted once (DESIGN.md, "Parallel profile
/// generation"); maps are built only at the consumer.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PROFGEN_CSPROFILEGENERATOR_H
#define CSSPGO_PROFGEN_CSPROFILEGENERATOR_H

#include "probe/ProbeTable.h"
#include "profile/ProfileArena.h"
#include "profgen/ContextUnwinder.h"
#include "sim/Sampler.h"

namespace csspgo {

/// Chunk-level CS generation, the unit of work of the sharded pipeline
/// (ShardedProfGen): unwinds Samples[Begin, End) and emits the context
/// view of just that slice. \p Inferrer must already hold the
/// tail-call edge graph of the FULL sample set (collectTailCallEdges), so
/// every shard runs missing-frame inference against the same graph as the
/// serial path — the basis of the bit-identical-reduction guarantee. Each
/// concurrent chunk needs its own Inferrer copy (inference updates its
/// stats); pass nullptr to disable inference.
ContextProfileView generateCSProfileChunk(const Symbolizer &Sym,
                                          const ProbeTable &Probes,
                                          const std::vector<PerfSample> &Samples,
                                          size_t Begin, size_t End,
                                          MissingFrameInferrer *Inferrer,
                                          CSProfileGenStats *Stats = nullptr);

/// Chunk-level probe-only generation over Samples[Begin, End): a flat
/// view (IsCS false); shards reduce with mergeContextViews (pure sums, so
/// any partition reduces to the serial result).
ContextProfileView
generateProbeOnlyProfileChunk(const Symbolizer &Sym, const ProbeTable &Probes,
                              const std::vector<PerfSample> &Samples,
                              size_t Begin, size_t End,
                              CSProfileGenStats *Stats = nullptr);

} // namespace csspgo

#endif // CSSPGO_PROFGEN_CSPROFILEGENERATOR_H
