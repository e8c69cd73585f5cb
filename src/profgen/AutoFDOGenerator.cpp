//===- profgen/AutoFDOGenerator.cpp - AutoFDO profile generation ------------===//

#include "profgen/AutoFDOGenerator.h"

#include "support/Hashing.h"

namespace csspgo {

namespace {

/// Navigates (creating as needed) the nested profile for the frame stack
/// of an instruction: frames[0] owns the top-level profile, deeper frames
/// are inlinees keyed by the call location in their parent.
FunctionProfile &profileForFrames(FlatProfile &Out, const Symbolizer &Sym,
                                  const std::vector<Binary::SymFrame> &Frames) {
  FunctionProfile *P = &Out.getOrCreate(Sym.nameOfGuid(Frames.front().Guid));
  for (size_t I = 0; I + 1 < Frames.size(); ++I) {
    ProfileKey Site(Frames[I].Loc.Line, Frames[I].Loc.Discriminator);
    P = &P->getOrCreateInlinee(Site, Sym.nameOfGuid(Frames[I + 1].Guid));
  }
  return *P;
}

} // namespace

FlatProfile generateAutoFDOProfile(const Binary &Bin,
                                   const std::vector<PerfSample> &Samples,
                                   AutoFDOGenStats *Stats) {
  Symbolizer Sym(Bin);
  FlatProfile Out;
  Out.Kind = ProfileKind::LineBased;

  // Phase 1: per-address execution counts from LBR ranges, plus taken
  // branch counts.
  LBRCounts C = countLBR(Sym, Samples, 0, Samples.size());
  if (Stats) {
    Stats->RangesProcessed += C.Ranges;
    Stats->BrokenRanges += C.BrokenRanges;
  }

  // Phase 2: per-location counts via the MAX heuristic.
  for (size_t Idx = 0; Idx != C.Insts.size(); ++Idx) {
    if (C.Insts[Idx] == 0)
      continue;
    std::vector<Binary::SymFrame> Frames = Bin.symbolize(Idx);
    if (Sym.nameOfGuid(Frames.front().Guid).empty())
      continue;
    const DebugLoc &Leaf = Frames.back().Loc;
    profileForFrames(Out, Sym, Frames)
        .maxBody({Leaf.Line, Leaf.Discriminator}, C.Insts[Idx]);
  }

  // Phase 3: call targets and head samples from call branches.
  for (const auto &[Edge, Count] : C.Calls) {
    auto [Src, CalleeIdx] = Edge;
    std::vector<Binary::SymFrame> Frames = Bin.symbolize(Src);
    const DebugLoc &Leaf = Frames.back().Loc;
    profileForFrames(Out, Sym, Frames)
        .addCall({Leaf.Line, Leaf.Discriminator}, Bin.Funcs[CalleeIdx].Name,
                 Count);
    Out.getOrCreate(Bin.Funcs[CalleeIdx].Name).HeadSamples += Count;
  }

  // Fill GUIDs for serialization fidelity.
  for (auto &[Name, P] : Out.Functions)
    P.Guid = computeFunctionGuid(Name);
  return Out;
}

} // namespace csspgo
