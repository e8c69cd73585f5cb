//===- tests/oracle/ReferenceProfGen.cpp - String-keyed profgen -----------===//
//
// The CS and probe-only generators as they were before interning: every
// branch re-expands its caller context from the sampled call stack into
// a vector of std::string frames, every probe hit builds its full context
// and bumps a std::map keyed by it, and the tail-call inferrer searches a
// graph keyed by function names. Symbolization is this file's own (maps
// and a linear function scan), so nothing here shares the dense tables
// of profgen/Symbolizer.h. Only well-formed binaries may be passed in:
// like the code it preserves, this reads inline tables unchecked.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

#include "profgen/Symbolizer.h"

#include <functional>

namespace csspgo {

namespace {

/// Symbolization over plain maps.
class RefSymbolizer {
public:
  explicit RefSymbolizer(const Binary &Bin) : Bin(Bin) {
    GuidToName = Bin.DebugNames;
    for (const MachineFunction &F : Bin.Funcs)
      GuidToName[F.Guid] = F.Name;
    for (const ProbeRecord &P : Bin.Probes) {
      if (P.IsCallProbe)
        CallProbes[P.InstIdx] = P.ProbeId;
      else
        BlockProbes[P.InstIdx].push_back(&P);
    }
  }

  const Binary &Bin;

  const std::string &nameOfGuid(uint64_t Guid) const {
    static const std::string Empty;
    auto It = GuidToName.find(Guid);
    return It == GuidToName.end() ? Empty : It->second;
  }

  uint32_t funcIndexOf(size_t Idx) const {
    for (uint32_t F = 0; F != Bin.Funcs.size(); ++F)
      if (Bin.Funcs[F].containsIdx(Idx))
        return F;
    return ~0u;
  }

  BranchKind classify(size_t Idx) const {
    const MInst &I = Bin.Code[Idx];
    switch (I.Op) {
    case Opcode::CondBr:
      return BranchKind::Conditional;
    case Opcode::Br:
      return BranchKind::Unconditional;
    case Opcode::Call:
    case Opcode::CallIndirect:
      return I.IsTailCall ? BranchKind::TailCallJump : BranchKind::Call;
    case Opcode::Ret:
      return BranchKind::Return;
    default:
      return BranchKind::NotABranch;
    }
  }

  uint32_t callProbeAt(size_t Idx) const {
    auto It = CallProbes.find(Idx);
    return It == CallProbes.end() ? 0 : It->second;
  }

  const std::vector<const ProbeRecord *> &probesAt(size_t Idx) const {
    static const std::vector<const ProbeRecord *> Empty;
    auto It = BlockProbes.find(Idx);
    return It == BlockProbes.end() ? Empty : It->second;
  }

  /// (function name, call-site probe toward the next frame), outermost
  /// first; the leaf's site is the instruction's own call probe.
  SampleContext framesAt(size_t Idx) const {
    SampleContext Out;
    const MInst &I = Bin.Code[Idx];
    uint32_t FIdx = funcIndexOf(Idx);
    if (FIdx != ~0u && I.InlineId &&
        I.InlineId < Bin.Funcs[FIdx].InlineTable.size())
      for (const InlineFrame &F : Bin.Funcs[FIdx].InlineTable[I.InlineId])
        Out.push_back({nameOfGuid(F.FuncGuid), F.CallProbeId});
    Out.push_back({nameOfGuid(I.OriginGuid), callProbeAt(Idx)});
    return Out;
  }

private:
  std::map<uint64_t, std::string> GuidToName;
  std::map<size_t, uint32_t> CallProbes;
  std::map<size_t, std::vector<const ProbeRecord *>> BlockProbes;
};

/// The tail-call graph keyed by function names.
class RefInferrer {
public:
  void addTailCallEdge(const std::string &From, uint32_t Site,
                       const std::string &To) {
    Edges[From].insert({Site, To});
  }

  bool inferMissingFrames(const std::string &From, const std::string &To,
                          SampleContext &Out) {
    ++S.Attempts;
    SampleContext Path;
    std::set<std::string> Visiting;
    unsigned N = countPaths(From, To, Visiting, Path, 2);
    if (N == 0) {
      ++S.NoPath;
      return false;
    }
    if (N > 1) {
      ++S.AmbiguousPaths;
      return false;
    }
    ++S.Recovered;
    Out.insert(Out.end(), Path.begin(), Path.end());
    return true;
  }

  MissingFrameInferrer::Stats S;

private:
  unsigned countPaths(const std::string &From, const std::string &To,
                      std::set<std::string> &Visiting, SampleContext &Path,
                      unsigned Limit) {
    if (From == To)
      return 1;
    if (!Visiting.insert(From).second)
      return 0; // Cycle.
    auto It = Edges.find(From);
    unsigned Found = 0;
    if (It != Edges.end()) {
      for (const auto &[Site, Next] : It->second) {
        SampleContext Sub;
        std::set<std::string> SubVisiting = Visiting;
        unsigned N = countPaths(Next, To, SubVisiting, Sub, Limit - Found);
        if (N > 0 && Found == 0) {
          Path.push_back({From, Site});
          Path.insert(Path.end(), Sub.begin(), Sub.end());
        }
        Found += N;
        if (Found >= Limit)
          break;
      }
    }
    Visiting.erase(From);
    return Found;
  }

  std::map<std::string, std::set<std::pair<uint32_t, std::string>>> Edges;
};

void collectEdges(const RefSymbolizer &Sym,
                  const std::vector<PerfSample> &Samples, RefInferrer &Inf) {
  const Binary &Bin = Sym.Bin;
  for (const PerfSample &Sample : Samples)
    for (const LBREntry &E : Sample.LBR) {
      size_t SrcIdx = Bin.indexOfAddr(E.Src);
      if (SrcIdx == SIZE_MAX ||
          Sym.classify(SrcIdx) != BranchKind::TailCallJump)
        continue;
      SampleContext Frames = Sym.framesAt(SrcIdx);
      size_t DstIdx = Bin.indexOfAddr(E.Dst);
      if (DstIdx == SIZE_MAX)
        continue;
      uint32_t DstFunc = Sym.funcIndexOf(DstIdx);
      if (DstFunc == ~0u)
        continue;
      Inf.addTailCallEdge(Frames.back().Func, Frames.back().Site,
                          Bin.Funcs[DstFunc].Name);
    }
}

struct RefRange {
  size_t BeginIdx = 0, EndIdx = 0;
  SampleContext CallerContext;
};
struct RefBranch {
  size_t SrcIdx = 0, DstIdx = 0;
  SampleContext CallerContext;
};

/// Algorithm 1, re-expanding the caller context at every branch.
class RefUnwinder {
public:
  RefUnwinder(const RefSymbolizer &Sym, RefInferrer *Inf)
      : Sym(Sym), Inf(Inf) {}

  void unwind(const PerfSample &Sample, std::vector<RefRange> &Ranges,
              std::vector<RefBranch> &Branches) {
    ++Stats.Samples;
    const Binary &Bin = Sym.Bin;
    if (Sample.LBR.empty() || Sample.Stack.empty()) {
      ++Stats.DroppedSamples;
      return;
    }
    std::vector<size_t> CallStack;
    for (size_t I = Sample.Stack.size(); I-- > 1;) {
      size_t RetIdx = Bin.indexOfAddr(Sample.Stack[I]);
      if (RetIdx == SIZE_MAX || RetIdx == 0 ||
          Bin.Code[RetIdx - 1].Op != Opcode::Call) {
        ++Stats.DroppedSamples;
        return;
      }
      CallStack.push_back(RetIdx - 1);
    }
    size_t LeafIdx = Bin.indexOfAddr(Sample.Stack[0]);
    size_t NewestDst = Bin.indexOfAddr(Sample.LBR.back().Dst);
    if (LeafIdx == SIZE_MAX || NewestDst == SIZE_MAX) {
      ++Stats.DroppedSamples;
      return;
    }
    bool Synced = Sym.funcIndexOf(NewestDst) == Sym.funcIndexOf(LeafIdx) &&
                  LeafIdx >= NewestDst;
    if (!Synced) {
      ++Stats.UnsyncedSamples;
      CallStack.clear();
    }

    for (size_t I = Sample.LBR.size(); I-- > 0;) {
      size_t SrcIdx = Bin.indexOfAddr(Sample.LBR[I].Src);
      size_t DstIdx = Bin.indexOfAddr(Sample.LBR[I].Dst);
      if (SrcIdx == SIZE_MAX || DstIdx == SIZE_MAX) {
        ++Stats.BrokenRanges;
        continue;
      }
      if (Synced) {
        switch (Sym.classify(SrcIdx)) {
        case BranchKind::Call:
          if (!CallStack.empty() && CallStack.back() == SrcIdx) {
            CallStack.pop_back();
          } else if (!CallStack.empty()) {
            Synced = false;
            CallStack.clear();
            ++Stats.UnsyncedSamples;
          }
          break;
        case BranchKind::Return:
          if (DstIdx > 0 && Bin.Code[DstIdx - 1].Op == Opcode::Call)
            CallStack.push_back(DstIdx - 1);
          break;
        default:
          break;
        }
      }
      uint32_t SrcFunc = Sym.funcIndexOf(SrcIdx);
      SampleContext Ctx =
          Synced ? expandCallerContext(CallStack, SrcFunc) : SampleContext{};
      Branches.push_back({SrcIdx, DstIdx, Ctx});
      if (I > 0) {
        size_t RBegin = Bin.indexOfAddr(Sample.LBR[I - 1].Dst);
        if (RBegin == SIZE_MAX || RBegin > SrcIdx ||
            Sym.funcIndexOf(RBegin) != SrcFunc) {
          ++Stats.BrokenRanges;
          continue;
        }
        Ranges.push_back({RBegin, SrcIdx, Ctx});
      }
    }
  }

  CSProfileGenStats Stats;

private:
  SampleContext expandCallerContext(const std::vector<size_t> &CallStack,
                                    uint32_t LeafFuncIdx) {
    const Binary &Bin = Sym.Bin;
    SampleContext Ctx;
    for (size_t Level = 0; Level != CallStack.size(); ++Level) {
      size_t CallIdx = CallStack[Level];
      for (const ContextFrame &F : Sym.framesAt(CallIdx))
        Ctx.push_back(F);
      std::string Expected = Bin.Funcs[Bin.Code[CallIdx].CalleeIdx].Name;
      std::string Actual;
      if (Level + 1 != CallStack.size()) {
        uint32_t NextFunc = Sym.funcIndexOf(CallStack[Level + 1]);
        if (NextFunc != ~0u)
          Actual = Bin.Funcs[NextFunc].Name;
      } else if (LeafFuncIdx != ~0u) {
        Actual = Bin.Funcs[LeafFuncIdx].Name;
      }
      if (Actual.empty() || Actual == Expected || !Inf)
        continue;
      Inf->inferMissingFrames(Expected, Actual, Ctx);
    }
    return Ctx;
  }

  const RefSymbolizer &Sym;
  RefInferrer *Inf;
};

} // namespace

ContextProfile referenceCSProfile(const Binary &Bin, const ProbeTable &Probes,
                                  const std::vector<PerfSample> &Samples,
                                  size_t Begin, size_t End,
                                  bool InferMissingFrames,
                                  CSProfileGenStats *Stats) {
  RefSymbolizer Sym(Bin);
  RefInferrer Inf;
  if (InferMissingFrames)
    collectEdges(Sym, Samples, Inf);
  RefUnwinder Unwinder(Sym, InferMissingFrames ? &Inf : nullptr);

  std::map<SampleContext, std::map<uint32_t, uint64_t>> BodyAcc;
  std::map<SampleContext,
           std::map<uint32_t, std::map<std::string, uint64_t>>>
      CallAcc;
  std::map<SampleContext, uint64_t> HeadAcc;
  for (size_t SampleIdx = Begin; SampleIdx != End; ++SampleIdx) {
    std::vector<RefRange> Ranges;
    std::vector<RefBranch> Branches;
    Unwinder.unwind(Samples[SampleIdx], Ranges, Branches);
    for (const RefRange &R : Ranges) {
      ++Unwinder.Stats.RangesProcessed;
      for (size_t Idx = R.BeginIdx; Idx <= R.EndIdx; ++Idx)
        for (const ProbeRecord *P : Sym.probesAt(Idx)) {
          SampleContext Ctx = R.CallerContext;
          const MachineFunction &MF = Bin.Funcs[P->FuncIdx];
          if (P->InlineId && P->InlineId < MF.InlineTable.size())
            for (const InlineFrame &F : MF.InlineTable[P->InlineId])
              Ctx.push_back({Sym.nameOfGuid(F.FuncGuid), F.CallProbeId});
          Ctx.push_back({Sym.nameOfGuid(P->Guid), 0});
          BodyAcc[Ctx][P->ProbeId] += 1;
        }
    }
    for (const RefBranch &B : Branches) {
      BranchKind Kind = Sym.classify(B.SrcIdx);
      if (Kind != BranchKind::Call && Kind != BranchKind::TailCallJump)
        continue;
      uint32_t CalleeIdx = Sym.funcIndexOf(B.DstIdx);
      if (CalleeIdx == ~0u || Bin.Funcs[CalleeIdx].EntryIdx != B.DstIdx)
        continue;
      const std::string &CalleeName = Bin.Funcs[CalleeIdx].Name;
      SampleContext Ctx = B.CallerContext;
      for (const ContextFrame &F : Sym.framesAt(B.SrcIdx))
        Ctx.push_back(F);
      uint32_t Site = Ctx.back().Site;
      Ctx.back().Site = 0;
      CallAcc[Ctx][Site][CalleeName] += 1;
      SampleContext CalleeCtx = Ctx;
      CalleeCtx.back().Site = Site;
      CalleeCtx.push_back({CalleeName, 0});
      HeadAcc[CalleeCtx] += 1;
    }
  }
  if (Stats) {
    *Stats = Unwinder.Stats;
    Stats->TailCallStats = Inf.S;
  }

  ContextProfile Out;
  Out.Kind = ProfileKind::ProbeBased;
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

FlatProfile referenceProbeOnlyProfile(const Binary &Bin,
                                      const ProbeTable &Probes,
                                      const std::vector<PerfSample> &Samples,
                                      CSProfileGenStats *Stats) {
  RefSymbolizer Sym(Bin);
  CSProfileGenStats S;
  FlatProfile Out;
  Out.Kind = ProfileKind::ProbeBased;

  std::map<size_t, uint64_t> AddrCount;
  std::map<std::pair<size_t, size_t>, uint64_t> BranchCount;
  for (const PerfSample &Sample : Samples) {
    ++S.Samples;
    for (size_t I = 0; I + 1 < Sample.LBR.size(); ++I) {
      size_t RBegin = Bin.indexOfAddr(Sample.LBR[I].Dst);
      size_t REnd = Bin.indexOfAddr(Sample.LBR[I + 1].Src);
      if (RBegin == SIZE_MAX || REnd == SIZE_MAX || RBegin > REnd ||
          Sym.funcIndexOf(RBegin) != Sym.funcIndexOf(REnd)) {
        ++S.BrokenRanges;
        continue;
      }
      ++S.RangesProcessed;
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
  if (Stats)
    *Stats = S;

  // Nested probe-keyed profiles along the inline frames.
  auto ProfileFor = [&](const std::vector<InlineFrame> &Frames,
                        uint64_t LeafGuid,
                        const std::string &TopFunc) -> FunctionProfile & {
    FunctionProfile *P = &Out.getOrCreate(
        Frames.empty() ? Sym.nameOfGuid(LeafGuid) : TopFunc);
    for (size_t I = 0; I != Frames.size(); ++I) {
      const std::string &Child = I + 1 < Frames.size()
                                     ? Sym.nameOfGuid(Frames[I + 1].FuncGuid)
                                     : Sym.nameOfGuid(LeafGuid);
      P = &P->getOrCreateInlinee({Frames[I].CallProbeId, 0}, Child);
    }
    return *P;
  };
  for (const auto &[Idx, Count] : AddrCount) {
    uint32_t FIdx = Sym.funcIndexOf(Idx);
    if (FIdx == ~0u)
      continue;
    for (const ProbeRecord *P : Sym.probesAt(Idx))
      ProfileFor(Bin.Funcs[FIdx].InlineTable[P->InlineId], P->Guid,
                 Bin.Funcs[FIdx].Name)
          .addBody({P->ProbeId, 0}, Count);
  }
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
    ProfileFor(Bin.Funcs[FIdx].InlineTable[I.InlineId], I.OriginGuid,
               Bin.Funcs[FIdx].Name)
        .addCall({Sym.callProbeAt(Src), 0}, Bin.Funcs[CalleeIdx].Name, Count);
    Out.getOrCreate(Bin.Funcs[CalleeIdx].Name).HeadSamples += Count;
  }

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
