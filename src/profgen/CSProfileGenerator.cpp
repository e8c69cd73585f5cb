//===- profgen/CSProfileGenerator.cpp - CSSPGO profile generation -----------===//

#include "profgen/CSProfileGenerator.h"

#include "profgen/ProfileGenerator.h"

#include <functional>
#include <map>
#include <tuple>

namespace csspgo {

ContextProfile generateCSProfileChunk(const Symbolizer &Sym,
                                      const ProbeTable &Probes,
                                      const std::vector<PerfSample> &Samples,
                                      size_t Begin, size_t End,
                                      MissingFrameInferrer *Inferrer,
                                      CSProfileGenStats *Stats) {
  ContextPool Pool;
  ContextUnwinder Unwinder(Sym, Pool, Inferrer);

  // Phase 1: count (context, range) and (context, call branch) pairs.
  // Keyed (context node, context site, A, B): a range [A, B], or a call
  // from instruction A to function B.
  std::map<std::tuple<uint32_t, uint32_t, size_t, size_t>, uint64_t> Ranges,
      Calls;
  for (size_t SampleIdx = Begin; SampleIdx != End; ++SampleIdx) {
    const UnwoundSample &U = Unwinder.unwind(Samples[SampleIdx]);
    for (const RangeWithContext &R : U.Ranges)
      ++Ranges[{R.Ctx.Node, R.Ctx.Site, R.BeginIdx, R.EndIdx}];
    for (const BranchWithContext &B : U.Branches)
      if (uint32_t Callee = Sym.calleeOf(B.SrcIdx, B.DstIdx); Callee != ~0u)
        ++Calls[{B.Ctx.Node, B.Ctx.Site, B.SrcIdx, Callee}];
  }

  if (Stats)
    *Stats = Unwinder.stats();

  // Phase 2: expand each unique pair once, adding its count. Counts are
  // pure sums, so the order pairs are visited in cannot show.
  ContextProfile Out;
  Out.Kind = ProfileKind::ProbeBased;
  // The trie node of each pool node, created (and named) on first use:
  // climb to the nearest ancestor in the trie, then create downwards.
  std::vector<ContextTrieNode *> Trie{&Out.Root};
  std::vector<uint32_t> Missing;
  auto NodeOf = [&](uint32_t Id) -> ContextTrieNode & {
    Trie.resize(Pool.size(), nullptr);
    for (uint32_t Up = Id; !Trie[Up]; Up = Pool[Up].Parent)
      Missing.push_back(Up);
    for (; !Missing.empty(); Missing.pop_back()) {
      const ContextPool::Node &P = Pool[Missing.back()];
      Trie[Missing.back()] =
          &Trie[P.Parent]->getOrCreateChild(P.Site, Sym.name(P.Func));
    }
    return *Trie[Id];
  };
  auto ProfileOf = [&](uint32_t Id) -> FunctionProfile & {
    ContextTrieNode &N = NodeOf(Id);
    if (!N.HasProfile) {
      N.HasProfile = true;
      if (const ProbeDescriptor *D = Probes.findByName(N.FuncName)) {
        N.Profile.Guid = D->Guid;
        N.Profile.Checksum = D->CFGChecksum;
      }
    }
    return N.Profile;
  };
  for (const auto &[K, N] : Ranges) {
    auto [Node, Site, RBegin, REnd] = K;
    for (size_t Idx = RBegin; Idx <= REnd; ++Idx)
      for (const Symbolizer::BlockProbe &P : Sym.blockProbesAt(Idx)) {
        // The unwound caller context, the probe's own inline frames, and
        // the probe's function. Copies of a duplicated probe at different
        // addresses land on the same (context, id) key and are summed —
        // the one-to-one mapping property.
        CallerContext C{Node, Site};
        for (InternedFrame F : Sym.frames(P.Inline))
          C = Pool.extend(C, F);
        ProfileOf(Pool.child(C.Node, C.Site, P.Origin))
            .addBody({P.ProbeId, 0}, N);
      }
  }
  for (const auto &[K, N] : Calls) {
    auto [Node, CtxSite, Src, CalleeIdx] = K;
    CallerContext C{Node, CtxSite};
    for (InternedFrame F : Sym.inlineFramesAt(Src))
      C = Pool.extend(C, F);
    uint32_t Caller = Pool.child(C.Node, C.Site, Sym.originAt(Src));
    uint32_t Site = Sym.callProbeAt(Src);
    uint32_t Callee = Sym.funcNameId(static_cast<uint32_t>(CalleeIdx));
    ProfileOf(Caller).addCall({Site, 0}, Sym.name(Callee), N);
    // Callee head samples under the callee's context.
    ProfileOf(Pool.child(Caller, Site, Callee)).HeadSamples += N;
  }
  return Out;
}

namespace {

/// Navigates nested probe-keyed profiles along inline frames: \p Top is
/// the outermost function's name id, \p Leaf the probe's function's.
FunctionProfile &profileForProbeFrames(FlatProfile &Out,
                                       const Symbolizer &Sym,
                                       std::span<const InternedFrame> Frames,
                                       uint32_t Leaf, uint32_t Top) {
  FunctionProfile *P = &Out.getOrCreate(Sym.name(Frames.empty() ? Leaf : Top));
  for (size_t I = 0; I != Frames.size(); ++I) {
    uint32_t Child = I + 1 < Frames.size() ? Frames[I + 1].Func : Leaf;
    P = &P->getOrCreateInlinee({Frames[I].Site, 0}, Sym.name(Child));
  }
  return *P;
}

} // namespace

FlatProfile generateProbeOnlyProfileChunk(const Symbolizer &Sym,
                                          const ProbeTable &Probes,
                                          const std::vector<PerfSample> &Samples,
                                          size_t Begin, size_t End,
                                          CSProfileGenStats *Stats) {
  const Binary &Bin = Sym.binary();
  FlatProfile Out;
  Out.Kind = ProfileKind::ProbeBased;

  LBRCounts C = countLBR(Sym, Samples, Begin, End);
  if (Stats) {
    Stats->Samples += End - Begin;
    Stats->RangesProcessed += C.Ranges;
    Stats->BrokenRanges += C.BrokenRanges;
  }

  // Probe counts: SUM across addresses (one-to-one mapping).
  for (size_t Idx = 0; Idx != C.Insts.size(); ++Idx) {
    uint32_t FIdx = Bin.funcIndexOf(Idx);
    if (C.Insts[Idx] == 0 || FIdx == ~0u)
      continue;
    for (const Symbolizer::BlockProbe &P : Sym.blockProbesAt(Idx))
      profileForProbeFrames(Out, Sym, Sym.frames(P.Inline), P.Origin,
                            Sym.funcNameId(FIdx))
          .addBody({P.ProbeId, 0}, C.Insts[Idx]);
  }

  // Call targets and head samples.
  for (const auto &[Edge, Count] : C.Calls) {
    auto [Src, CalleeIdx] = Edge;
    uint32_t FIdx = Bin.funcIndexOf(Src);
    if (FIdx == ~0u)
      continue;
    FunctionProfile &Prof =
        profileForProbeFrames(Out, Sym, Sym.inlineFramesAt(Src),
                              Sym.originAt(Src), Sym.funcNameId(FIdx));
    Prof.addCall({Sym.callProbeAt(Src), 0}, Bin.Funcs[CalleeIdx].Name, Count);
    Out.getOrCreate(Bin.Funcs[CalleeIdx].Name).HeadSamples += Count;
  }

  // Checksums and GUIDs from the descriptor table, including nested
  // inlinee profiles (the loader verifies each level on replay).
  std::function<void(FunctionProfile &)> FixMeta =
      [&Probes, &FixMeta](FunctionProfile &P) {
        if (const ProbeDescriptor *D = Probes.findByName(P.Name)) {
          P.Guid = D->Guid;
          P.Checksum = D->CFGChecksum;
        }
        for (auto &[K, Map] : P.Inlinees)
          for (auto &[Name, Sub] : Map)
            FixMeta(Sub);
      };
  for (auto &[Name, P] : Out.Functions)
    FixMeta(P);
  return Out;
}

} // namespace csspgo
