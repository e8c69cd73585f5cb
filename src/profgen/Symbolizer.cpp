//===- profgen/Symbolizer.cpp - Binary symbolization -----------------------===//

#include "profgen/Symbolizer.h"

#include <algorithm>

namespace csspgo {

Symbolizer::Symbolizer(const Binary &Bin) : Bin(Bin) {
  Names.push_back("");
  for (const auto &[Guid, Name] : Bin.DebugNames)
    Names.push_back(Name);
  for (const MachineFunction &F : Bin.Funcs)
    Names.push_back(F.Name);
  std::sort(Names.begin(), Names.end());
  Names.erase(std::unique(Names.begin(), Names.end()), Names.end());
  auto IdOf = [this](const std::string &Name) {
    return static_cast<uint32_t>(
        std::lower_bound(Names.begin(), Names.end(), Name) - Names.begin());
  };
  // A function's own name overrides its debug name.
  for (const auto &[Guid, Name] : Bin.DebugNames)
    GuidIds[Guid] = IdOf(Name);
  for (const MachineFunction &F : Bin.Funcs) {
    FuncNames.push_back(IdOf(F.Name));
    GuidIds[F.Guid] = FuncNames.back();
  }

  for (const MachineFunction &F : Bin.Funcs) {
    InlineBase.push_back(static_cast<uint32_t>(InlineSpans.size()));
    for (const std::vector<InlineFrame> &Table : F.InlineTable) {
      InlineSpans.push_back({static_cast<uint32_t>(FramePool.size()),
                             static_cast<uint32_t>(Table.size())});
      for (const InlineFrame &IF : Table)
        FramePool.push_back({nameIdOfGuid(IF.FuncGuid), IF.CallProbeId});
    }
  }

  // Neighbouring instructions and probes mostly share a function.
  uint64_t LastGuid = 0;
  uint32_t LastId = nameIdOfGuid(0);
  auto IdOfGuid = [&](uint64_t Guid) {
    if (Guid != LastGuid)
      LastId = nameIdOfGuid(LastGuid = Guid);
    return LastId;
  };
  const size_t N = Bin.Code.size();
  Insts.resize(N + 1);
  for (size_t Idx = 0; Idx != N; ++Idx) {
    const MInst &I = Bin.Code[Idx];
    Insts[Idx].Origin = IdOfGuid(I.OriginGuid);
    Insts[Idx].Inline = inlineSpan(Bin.funcIndexOf(Idx), I.InlineId);
  }
  // Block probes in CSR form, in record order per instruction: count
  // each instruction's probes into the next entry, prefix-sum, place.
  for (const ProbeRecord &P : Bin.Probes)
    if (P.InstIdx < N && P.IsCallProbe)
      Insts[P.InstIdx].CallProbe = P.ProbeId;
    else if (P.InstIdx < N)
      ++Insts[P.InstIdx + 1].ProbesBegin;
  for (size_t Idx = 0; Idx != N; ++Idx)
    Insts[Idx + 1].ProbesBegin += Insts[Idx].ProbesBegin;
  Probes.resize(Insts[N].ProbesBegin);
  std::vector<uint32_t> Placed(N, 0);
  for (const ProbeRecord &P : Bin.Probes)
    if (P.InstIdx < N && !P.IsCallProbe)
      Probes[Insts[P.InstIdx].ProbesBegin + Placed[P.InstIdx]++] = {
          P.ProbeId, IdOfGuid(P.Guid), inlineSpan(P.FuncIdx, P.InlineId)};
}

uint32_t Symbolizer::nameIdOfGuid(uint64_t Guid) const {
  auto It = GuidIds.find(Guid);
  return It == GuidIds.end() ? 0 : It->second;
}

Symbolizer::Span Symbolizer::inlineSpan(uint32_t FuncIdx,
                                        uint32_t InlineId) const {
  if (FuncIdx >= Bin.Funcs.size() || InlineId == 0 ||
      InlineId >= Bin.Funcs[FuncIdx].InlineTable.size())
    return {};
  return InlineSpans[InlineBase[FuncIdx] + InlineId];
}

BranchKind Symbolizer::classify(size_t Idx) const {
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

uint32_t Symbolizer::calleeOf(size_t Src, size_t Dst) const {
  BranchKind Kind = classify(Src);
  if (Kind != BranchKind::Call && Kind != BranchKind::TailCallJump)
    return ~0u;
  uint32_t Callee = Bin.funcIndexOf(Dst);
  return Callee != ~0u && Bin.Funcs[Callee].EntryIdx == Dst ? Callee : ~0u;
}

LBRCounts countLBR(const Symbolizer &Sym,
                   const std::vector<PerfSample> &Samples, size_t Begin,
                   size_t End) {
  const Binary &Bin = Sym.binary();
  LBRCounts C;
  C.Insts.assign(Bin.Code.size(), 0);
  for (size_t SampleIdx = Begin; SampleIdx != End; ++SampleIdx) {
    const std::vector<LBREntry> &LBR = Samples[SampleIdx].LBR;
    for (size_t I = 0; I + 1 < LBR.size(); ++I) {
      size_t RBegin = Bin.indexOfAddr(LBR[I].Dst);
      size_t REnd = Bin.indexOfAddr(LBR[I + 1].Src);
      if (RBegin == SIZE_MAX || REnd == SIZE_MAX || RBegin > REnd ||
          Bin.funcIndexOf(RBegin) != Bin.funcIndexOf(REnd)) {
        ++C.BrokenRanges;
        continue;
      }
      ++C.Ranges;
      for (size_t Idx = RBegin; Idx <= REnd; ++Idx)
        ++C.Insts[Idx];
    }
    for (const LBREntry &E : LBR) {
      size_t Src = Bin.indexOfAddr(E.Src);
      size_t Dst = Bin.indexOfAddr(E.Dst);
      uint32_t Callee = Src == SIZE_MAX || Dst == SIZE_MAX
                            ? ~0u
                            : Sym.calleeOf(Src, Dst);
      if (Callee != ~0u)
        ++C.Calls[{Src, Callee}];
    }
  }
  return C;
}

} // namespace csspgo
