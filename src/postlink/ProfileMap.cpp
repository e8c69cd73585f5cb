//===- postlink/ProfileMap.cpp - Profile mapping at binary addresses ------===//

#include "postlink/ProfileMap.h"

#include <algorithm>

namespace csspgo {
namespace postlink {

namespace {

/// Adds one straight-line run [Begin, End] (global instruction indices,
/// both executed) to the block and fallthrough-edge counts. The run is
/// only credible when it stays inside one function — a resolution glitch
/// could otherwise smear counts across the whole text section.
void creditRange(const BinaryCFG &CFG, size_t Begin, size_t End,
                 BinaryProfile &Prof) {
  if (Begin > End)
    return;
  uint32_t FirstB = CFG.BlockOfInst[Begin];
  uint32_t LastB = CFG.BlockOfInst[End];
  if (CFG.Blocks[FirstB].Func != CFG.Blocks[LastB].Func)
    return;
  // Straight-line execution visits consecutive layout blocks.
  for (uint32_t B = FirstB; B <= LastB; ++B) {
    Prof.BlockCounts[B] = saturatingAdd(Prof.BlockCounts[B], 1);
    if (B != LastB)
      saturatingAccum(Prof.EdgeCounts[{B, B + 1}], 1);
  }
}

} // namespace

BinaryProfile mapProfileToBinary(const BinaryCFG &CFG,
                                 const std::vector<PerfSample> &Samples,
                                 const FlatProfile *FnProf,
                                 const Module *IR) {
  const Binary &Bin = *CFG.Bin;
  BinaryProfile Prof;
  Prof.BlockCounts.assign(CFG.Blocks.size(), 0);
  Prof.FuncHasCounts.assign(CFG.Funcs.size(), false);
  ProfileMapStats &St = Prof.Stats;

  // --- LBR aggregation -------------------------------------------------
  for (const PerfSample &S : Samples) {
    // Resolve every endpoint once; failures lower the mapped-sample rate
    // (the binary the samples came from no longer matches this one).
    std::vector<size_t> SrcIdx(S.LBR.size()), DstIdx(S.LBR.size());
    for (size_t I = 0; I != S.LBR.size(); ++I) {
      SrcIdx[I] = Bin.indexOfAddr(S.LBR[I].Src);
      DstIdx[I] = Bin.indexOfAddr(S.LBR[I].Dst);
      St.LBREndpoints += 2;
      St.LBRResolved += (SrcIdx[I] != SIZE_MAX) + (DstIdx[I] != SIZE_MAX);
    }
    for (size_t I = 0; I != S.LBR.size(); ++I) {
      // The taken edge itself, when it stays within one function (calls
      // and returns cross functions and are not layout edges).
      if (SrcIdx[I] != SIZE_MAX && DstIdx[I] != SIZE_MAX) {
        uint32_t SB = CFG.BlockOfInst[SrcIdx[I]];
        uint32_t DB = CFG.BlockOfInst[DstIdx[I]];
        if (CFG.Blocks[SB].Func == CFG.Blocks[DB].Func)
          saturatingAccum(Prof.EdgeCounts[{SB, DB}], 1);
      }
      // Range inference: destination of this record up to the source of
      // the next executed fallthrough-only (every transfer is recorded).
      if (I + 1 < S.LBR.size()) {
        if (DstIdx[I] != SIZE_MAX && SrcIdx[I + 1] != SIZE_MAX)
          creditRange(CFG, DstIdx[I], SrcIdx[I + 1], Prof);
      } else if (DstIdx[I] != SIZE_MAX) {
        // The newest record: execution had at least reached its target.
        uint32_t B = CFG.BlockOfInst[DstIdx[I]];
        Prof.BlockCounts[B] = saturatingAdd(Prof.BlockCounts[B], 1);
      }
    }
  }
  for (const BBlock &B : CFG.Blocks)
    if (Prof.BlockCounts[&B - CFG.Blocks.data()] > 0)
      Prof.FuncHasCounts[B.Func] = true;

  // --- Probe-count fallback for LBR-dark functions ---------------------
  bool AnyProbeMapped = false;
  if (FnProf && FnProf->Kind == ProfileKind::ProbeBased) {
    for (size_t F = 0; F != Bin.Funcs.size(); ++F) {
      if (Prof.FuncHasCounts[F])
        continue;
      const MachineFunction &MF = Bin.Funcs[F];
      const FunctionProfile *P = FnProf->find(MF.Name);
      if (!P || P->empty())
        continue;

      FunctionProfile Recovered; // Keep-alive for the matched profile.
      if (IR) {
        const Function *Fn = IR->getFunction(MF.Name);
        if (Fn && Fn->HasProbes && P->Checksum &&
            P->Checksum != Fn->ProbeCFGChecksum) {
          ++St.StaleProfiles;
          MatchResult R =
              matchStaleProfile(*P, *Fn, *IR, ProfileKind::ProbeBased);
          if (!R.Stats.Accepted) {
            ++St.StaleDropped;
            continue;
          }
          ++St.StaleRecovered;
          Recovered = std::move(R.Recovered);
          P = &Recovered;
        }
      }

      bool Mapped = false;
      for (const ProbeRecord &PR : Bin.Probes) {
        if (PR.FuncIdx != F || PR.Guid != MF.Guid || PR.InlineId != 0)
          continue;
        uint64_t N = P->bodyAt(ProfileKey(PR.ProbeId));
        if (!N)
          continue;
        uint32_t B = CFG.BlockOfInst[PR.InstIdx];
        Prof.BlockCounts[B] = std::max(Prof.BlockCounts[B], N);
        Mapped = true;
      }
      if (Mapped) {
        Prof.FuncHasCounts[F] = true;
        ++St.FuncsFromProbes;
        AnyProbeMapped = true;
      }
    }
  }

  for (bool Has : Prof.FuncHasCounts)
    St.FuncsWithCounts += Has;
  St.MappedSampleRate =
      St.LBREndpoints
          ? static_cast<double>(St.LBRResolved) /
                static_cast<double>(St.LBREndpoints)
          : (AnyProbeMapped ? 1.0 : 0.0);
  return Prof;
}

} // namespace postlink
} // namespace csspgo
