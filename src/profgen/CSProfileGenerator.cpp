//===- profgen/CSProfileGenerator.cpp - CSSPGO profile generation -----------===//

#include "profgen/CSProfileGenerator.h"

#include "profgen/ProfileGenerator.h"

#include <map>

namespace csspgo {

namespace {

/// Builds the full sample context for a probe: the unwound caller context,
/// plus the probe's own inline frames, ending at the probe's origin
/// function.
SampleContext probeContext(const Symbolizer &Sym, const ProbeRecord &P,
                           const SampleContext &CallerCtx) {
  const Binary &Bin = Sym.binary();
  SampleContext Ctx = CallerCtx;
  const MachineFunction &MF = Bin.Funcs[P.FuncIdx];
  if (P.InlineId && P.InlineId < MF.InlineTable.size())
    for (const InlineFrame &F : MF.InlineTable[P.InlineId])
      Ctx.push_back({Sym.nameOfGuid(F.FuncGuid), F.CallProbeId});
  Ctx.push_back({Sym.nameOfGuid(P.Guid), 0});
  return Ctx;
}

} // namespace

ContextProfile generateCSProfileChunk(const Symbolizer &Sym,
                                      const ProbeTable &Probes,
                                      const std::vector<PerfSample> &Samples,
                                      size_t Begin, size_t End,
                                      MissingFrameInferrer *Inferrer,
                                      CSProfileGenStats *Stats) {
  const Binary &Bin = Sym.binary();
  ContextUnwinder Unwinder(Sym, Inferrer);

  ContextProfile Out;
  Out.Kind = ProfileKind::ProbeBased;

  // Accumulation keyed by full context.
  std::map<SampleContext, std::map<uint32_t, uint64_t>> BodyAcc;
  std::map<SampleContext,
           std::map<uint32_t, std::map<std::string, uint64_t>>>
      CallAcc;
  std::map<SampleContext, uint64_t> HeadAcc;

  for (size_t SampleIdx = Begin; SampleIdx != End; ++SampleIdx) {
    const PerfSample &Sample = Samples[SampleIdx];
    UnwoundSample U = Unwinder.unwind(Sample);
    for (const RangeWithContext &R : U.Ranges) {
      if (Stats)
        ++Stats->RangesProcessed;
      for (size_t Idx = R.BeginIdx; Idx <= R.EndIdx; ++Idx)
        for (const ProbeRecord *P : Sym.probesAt(Idx))
          // Copies of a duplicated probe at different addresses land on
          // the same (context, id) key and are summed here — the
          // one-to-one mapping property.
          BodyAcc[probeContext(Sym, *P, R.CallerContext)][P->ProbeId] += 1;
    }
    for (const BranchWithContext &B : U.Branches) {
      BranchKind Kind = Sym.classify(B.SrcIdx);
      if (Kind != BranchKind::Call && Kind != BranchKind::TailCallJump)
        continue;
      uint32_t CalleeIdx = Sym.funcIndexOf(B.DstIdx);
      if (CalleeIdx == ~0u || Bin.Funcs[CalleeIdx].EntryIdx != B.DstIdx)
        continue;
      const std::string &CalleeName = Bin.Funcs[CalleeIdx].Name;
      auto Frames = Sym.framesAt(B.SrcIdx);
      if (Frames.empty())
        continue;
      SampleContext Ctx = B.CallerContext;
      for (const auto &F : Frames)
        Ctx.push_back({F.Func, F.CallProbeId});
      uint32_t Site = Ctx.back().Site; // The call's own probe id.
      Ctx.back().Site = 0;
      CallAcc[Ctx][Site][CalleeName] += 1;
      // Callee head samples under the callee's context.
      SampleContext CalleeCtx = Ctx;
      CalleeCtx.back().Site = Site;
      CalleeCtx.push_back({CalleeName, 0});
      HeadAcc[CalleeCtx] += 1;
    }
  }

  if (Stats) {
    Stats->Samples = Unwinder.stats().Samples;
    Stats->UnsyncedSamples = Unwinder.stats().Unsynced;
    if (Inferrer)
      Stats->TailCallStats = Inferrer->stats();
  }

  // Materialize the trie.
  auto SetMeta = [&Probes](ContextTrieNode &N) {
    N.HasProfile = true;
    if (const ProbeDescriptor *D = Probes.findByName(N.FuncName)) {
      N.Profile.Guid = D->Guid;
      N.Profile.Checksum = D->CFGChecksum;
    }
  };
  for (const auto &[Ctx, Bodies] : BodyAcc) {
    ContextTrieNode &N = Out.getOrCreateNode(Ctx);
    SetMeta(N);
    for (const auto &[Id, Count] : Bodies)
      N.Profile.addBody({Id, 0}, Count);
  }
  for (const auto &[Ctx, Sites] : CallAcc) {
    ContextTrieNode &N = Out.getOrCreateNode(Ctx);
    SetMeta(N);
    for (const auto &[Site, Targets] : Sites)
      for (const auto &[Callee, Count] : Targets)
        N.Profile.addCall({Site, 0}, Callee, Count);
  }
  for (const auto &[Ctx, Count] : HeadAcc) {
    ContextTrieNode &N = Out.getOrCreateNode(Ctx);
    SetMeta(N);
    N.Profile.HeadSamples += Count;
  }
  return Out;
}

namespace {

/// Navigates nested probe-keyed profiles along inline frames.
FunctionProfile &profileForProbeFrames(FlatProfile &Out,
                                       const Symbolizer &Sym,
                                       const std::vector<InlineFrame> &Frames,
                                       uint64_t LeafGuid,
                                       const std::string &TopFunc) {
  FunctionProfile *P = &Out.getOrCreate(
      Frames.empty() ? Sym.nameOfGuid(LeafGuid) : TopFunc);
  for (size_t I = 0; I != Frames.size(); ++I) {
    const std::string &ChildName = I + 1 < Frames.size()
                                       ? Sym.nameOfGuid(Frames[I + 1].FuncGuid)
                                       : Sym.nameOfGuid(LeafGuid);
    P = &P->getOrCreateInlinee({Frames[I].CallProbeId, 0}, ChildName);
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

  // Per-address counts from LBR ranges (no unwinding needed).
  std::map<size_t, uint64_t> AddrCount;
  std::map<std::pair<size_t, size_t>, uint64_t> BranchCount;
  for (size_t SampleIdx = Begin; SampleIdx != End; ++SampleIdx) {
    const PerfSample &Sample = Samples[SampleIdx];
    if (Stats)
      ++Stats->Samples;
    for (size_t I = 0; I + 1 < Sample.LBR.size(); ++I) {
      size_t RBegin = Bin.indexOfAddr(Sample.LBR[I].Dst);
      size_t REnd = Bin.indexOfAddr(Sample.LBR[I + 1].Src);
      if (RBegin == SIZE_MAX || REnd == SIZE_MAX || RBegin > REnd ||
          Sym.funcIndexOf(RBegin) != Sym.funcIndexOf(REnd))
        continue;
      if (Stats)
        ++Stats->RangesProcessed;
      for (size_t Idx = RBegin; Idx <= REnd; ++Idx)
        ++AddrCount[Idx];
    }
    for (const LBREntry &E : Sample.LBR) {
      size_t Src = Bin.indexOfAddr(E.Src);
      size_t Dst = Bin.indexOfAddr(E.Dst);
      if (Src != SIZE_MAX && Dst != SIZE_MAX)
        ++BranchCount[{Src, Dst}];
    }
  }

  // Probe counts: SUM across addresses (one-to-one mapping).
  for (const auto &[Idx, Count] : AddrCount) {
    uint32_t FIdx = Sym.funcIndexOf(Idx);
    if (FIdx == ~0u)
      continue;
    for (const ProbeRecord *P : Sym.probesAt(Idx)) {
      const auto &Frames = Bin.Funcs[FIdx].InlineTable[P->InlineId];
      FunctionProfile &Prof = profileForProbeFrames(
          Out, Sym, Frames, P->Guid, Bin.Funcs[FIdx].Name);
      Prof.addBody({P->ProbeId, 0}, Count);
    }
  }

  // Call targets and head samples.
  for (const auto &[Edge, Count] : BranchCount) {
    auto [Src, Dst] = Edge;
    BranchKind Kind = Sym.classify(Src);
    if (Kind != BranchKind::Call && Kind != BranchKind::TailCallJump)
      continue;
    uint32_t CalleeIdx = Sym.funcIndexOf(Dst);
    if (CalleeIdx == ~0u || Bin.Funcs[CalleeIdx].EntryIdx != Dst)
      continue;
    uint32_t FIdx = Sym.funcIndexOf(Src);
    if (FIdx == ~0u)
      continue;
    const MInst &I = Bin.Code[Src];
    const auto &Frames = Bin.Funcs[FIdx].InlineTable[I.InlineId];
    FunctionProfile &Prof = profileForProbeFrames(
        Out, Sym, Frames, I.OriginGuid, Bin.Funcs[FIdx].Name);
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
