//===- postlink/PostLinkOptimizer.cpp - BOLT-style binary rewriter --------===//

#include "postlink/PostLinkOptimizer.h"

#include "opt/ExtTSPCore.h"
#include "profile/FunctionProfile.h"

#include <algorithm>
#include <map>

namespace csspgo {
namespace postlink {

namespace {

//===----------------------------------------------------------------------===//
// Identical-code folding.
//===----------------------------------------------------------------------===//

/// Canonical token stream of one function's body: every field that affects
/// execution, with layout-dependent state normalized — branch targets
/// become function-local ordinals, self-calls a sentinel, and addresses /
/// debug metadata are excluded entirely. Two functions with equal streams
/// compute the same results through any call site.
std::vector<uint64_t> canonicalTokens(const Binary &Bin, uint32_t F) {
  const MachineFunction &MF = Bin.Funcs[F];
  auto LocalOrdinal = [&MF](size_t Idx) {
    return Idx < MF.HotEnd ? Idx - MF.HotBegin
                           : (MF.HotEnd - MF.HotBegin) + (Idx - MF.ColdBegin);
  };

  std::vector<uint64_t> Tok;
  Tok.push_back(MF.NumParams);
  Tok.push_back(MF.NumRegs);
  Tok.push_back(MF.HotEnd - MF.HotBegin); // Hot/cold partition point.
  auto EmitOperand = [&Tok](const Operand &O) {
    Tok.push_back(static_cast<uint64_t>(O.K));
    Tok.push_back(static_cast<uint64_t>(O.Val));
  };
  auto EmitInst = [&](const MInst &MI) {
    Tok.push_back(static_cast<uint64_t>(MI.Op));
    Tok.push_back(MI.Dst);
    EmitOperand(MI.A);
    EmitOperand(MI.B);
    EmitOperand(MI.C);
    Tok.push_back(MI.Args.size());
    for (const Operand &O : MI.Args)
      EmitOperand(O);
    Tok.push_back(MI.IsTailCall);
    Tok.push_back(MI.InvertCond);
    Tok.push_back(MI.CounterIdx);
    Tok.push_back(MI.Target >= 0
                      ? LocalOrdinal(static_cast<size_t>(MI.Target)) + 1
                      : 0);
    // A recursive call is equivalent across copies of the same body.
    Tok.push_back(MI.Op == Opcode::Call
                      ? (MI.CalleeIdx == F ? ~uint64_t(0) : MI.CalleeIdx)
                      : 0);
  };
  for (size_t I = MF.HotBegin; I != MF.HotEnd; ++I)
    EmitInst(Bin.Code[I]);
  for (size_t I = MF.ColdBegin; I != MF.ColdEnd; ++I)
    EmitInst(Bin.Code[I]);
  return Tok;
}

/// Populates Plan.CalleeRemap and drops duplicate bodies. "main" (the
/// executor's entry symbol) is never dropped; it can still act as the
/// surviving representative.
unsigned foldIdenticalCode(const Binary &Bin, LayoutPlan &Plan) {
  std::map<std::vector<uint64_t>, uint32_t> Reps;
  std::vector<uint32_t> Remap(Bin.Funcs.size());
  unsigned Folded = 0;
  for (uint32_t F = 0; F != Bin.Funcs.size(); ++F) {
    Remap[F] = F;
    const MachineFunction &MF = Bin.Funcs[F];
    if (MF.HotEnd == MF.HotBegin && MF.ColdEnd == MF.ColdBegin)
      continue; // Already empty.
    auto [It, New] = Reps.emplace(canonicalTokens(Bin, F), F);
    if (New || MF.Name == "main")
      continue;
    Remap[F] = It->second;
    Plan.Funcs[F].Blocks.clear();
    Plan.Funcs[F].NumHot = 0;
    ++Folded;
  }
  if (Folded)
    Plan.CalleeRemap = std::move(Remap);
  return Folded;
}

//===----------------------------------------------------------------------===//
// Ext-TSP reordering and hot/cold splitting.
//===----------------------------------------------------------------------===//

/// Reorders one function's hot blocks along mapped edge counts. Returns
/// true when the layout changed.
bool reorderFunction(const BinaryCFG &CFG, const BinaryProfile &Prof,
                     FuncLayout &FL, double MinGain) {
  size_t NumHot = FL.NumHot;
  if (NumHot < 3)
    return false;

  // Local index space over the hot blocks; the entry block leads its
  // section, so local 0 is the entry.
  std::map<unsigned, unsigned> LocalOf;
  exttsp::Instance In;
  for (size_t I = 0; I != NumHot; ++I) {
    LocalOf[FL.Blocks[I]] = static_cast<unsigned>(I);
    In.Sizes.push_back(CFG.Blocks[FL.Blocks[I]].SizeBytes);
  }

  std::vector<exttsp::Edge> &Edges = In.Edges;
  double TotalWeight = 0;
  auto AddEdge = [&](unsigned SrcB, int64_t DstB, double W) {
    if (DstB < 0)
      return;
    auto SIt = LocalOf.find(SrcB);
    auto DIt = LocalOf.find(static_cast<unsigned>(DstB));
    if (SIt == LocalOf.end() || DIt == LocalOf.end())
      return;
    Edges.push_back({SIt->second, DIt->second, W});
    TotalWeight += W;
  };
  for (size_t I = 0; I != NumHot; ++I) {
    unsigned B = FL.Blocks[I];
    const BBlock &Blk = CFG.Blocks[B];
    AddEdge(B, Blk.Taken,
            static_cast<double>(Prof.edgeCount(
                B, static_cast<unsigned>(std::max<int64_t>(Blk.Taken, 0)))));
    AddEdge(B, Blk.Fallthru,
            static_cast<double>(Prof.edgeCount(
                B,
                static_cast<unsigned>(std::max<int64_t>(Blk.Fallthru, 0)))));
  }
  if (TotalWeight == 0) {
    // LBR edges missing (probe-count fallback): approximate each edge's
    // weight by its destination block's count.
    Edges.clear();
    for (size_t I = 0; I != NumHot; ++I) {
      unsigned B = FL.Blocks[I];
      const BBlock &Blk = CFG.Blocks[B];
      for (int64_t Succ : {Blk.Taken, Blk.Fallthru})
        if (Succ >= 0)
          AddEdge(B, Succ,
                  static_cast<double>(
                      Prof.blockCount(static_cast<unsigned>(Succ))));
    }
    TotalWeight = 0;
    for (const exttsp::Edge &E : Edges)
      TotalWeight += E.Weight;
    if (TotalWeight == 0)
      return false;
  }

  std::vector<unsigned> CurrentOrder(NumHot);
  for (unsigned I = 0; I != NumHot; ++I)
    CurrentOrder[I] = I;
  double CurrentScore = exttsp::scoreOfOrder(In, CurrentOrder);
  std::vector<unsigned> Order = exttsp::solve(In);
  if (Order.size() != NumHot || Order.front() != 0)
    return false; // Entry must stay first; bail out defensively.
  bool Identity = true;
  for (unsigned I = 0; I != Order.size(); ++I)
    Identity &= Order[I] == I;
  if (Identity)
    return false;
  // Score gate: apply only a clear win over the layout the binary already
  // has — near-ties are churn (extra synthesized branches, moved code)
  // with no modeled upside.
  if (exttsp::scoreOfOrder(In, Order) <= CurrentScore * (1.0 + MinGain))
    return false;

  std::vector<unsigned> NewHot;
  NewHot.reserve(NumHot);
  for (unsigned L : Order)
    NewHot.push_back(FL.Blocks[L]);
  std::copy(NewHot.begin(), NewHot.end(), FL.Blocks.begin());
  return true;
}

/// Moves never-executed hot blocks (count <= Threshold) to the front of
/// the function's cold region. The entry block never moves. Returns the
/// number of blocks moved.
unsigned splitFunction(const BinaryProfile &Prof, FuncLayout &FL,
                       uint64_t Threshold, uint64_t MinFuncCount) {
  if (FL.NumHot < 2)
    return 0;
  // Confidence gate: a zero count only means "cold" when the function was
  // actually sampled enough for its hot blocks to have accumulated counts.
  uint64_t FuncTotal = 0;
  for (size_t I = 0; I != FL.NumHot; ++I)
    FuncTotal = saturatingAdd(FuncTotal, Prof.blockCount(FL.Blocks[I]));
  if (FuncTotal < MinFuncCount)
    return 0;
  std::vector<unsigned> Hot, Moved;
  Hot.push_back(FL.Blocks[0]); // Entry stays put.
  for (size_t I = 1; I != FL.NumHot; ++I) {
    unsigned B = FL.Blocks[I];
    (Prof.blockCount(B) <= Threshold ? Moved : Hot).push_back(B);
  }
  if (Moved.empty())
    return 0;
  std::vector<unsigned> NewBlocks = Hot;
  NewBlocks.insert(NewBlocks.end(), Moved.begin(), Moved.end());
  NewBlocks.insert(NewBlocks.end(), FL.Blocks.begin() + FL.NumHot,
                   FL.Blocks.end());
  FL.Blocks = std::move(NewBlocks);
  FL.NumHot = Hot.size();
  return static_cast<unsigned>(Moved.size());
}

} // namespace

Expected<PostLinkResult> runPostLink(const Binary &Bin,
                                     const std::vector<PerfSample> &Samples,
                                     const FlatProfile *FnProf,
                                     const Module *IR,
                                     const PostLinkOptions &Opts) {
  Expected<BinaryCFG> CFGOr = reconstructBinaryCFG(Bin);
  if (!CFGOr)
    return CFGOr.takeError().withContext("post-link reconstruction");
  const BinaryCFG &CFG = *CFGOr;

  // Correctness gate: disassembly must be lossless before any rewrite.
  {
    std::unique_ptr<Binary> RoundTrip = reassemble(CFG, identityLayout(CFG));
    std::string Why;
    if (!binariesIdentical(Bin, *RoundTrip, &Why))
      return Status::error("post-link identity round-trip failed: " + Why);
  }

  PostLinkResult Res;
  Res.Stats.TextBytesBefore = Bin.textSize();

  BinaryProfile Prof = mapProfileToBinary(CFG, Samples, FnProf, IR);
  Res.Stats.Map = Prof.Stats;

  LayoutPlan Plan = identityLayout(CFG);
  if (Opts.Fold)
    Res.Stats.FuncsFolded = foldIdenticalCode(Bin, Plan);

  bool Gated = Prof.Stats.MappedSampleRate < Opts.MinMappedRate;
  Res.Stats.TransformsGated = Gated && (Opts.Reorder || Opts.Split);
  if (!Gated) {
    for (size_t F = 0; F != Plan.Funcs.size(); ++F) {
      FuncLayout &FL = Plan.Funcs[F];
      if (FL.Blocks.empty() || !Prof.FuncHasCounts[F])
        continue;
      if (Opts.Reorder &&
          reorderFunction(CFG, Prof, FL, Opts.ReorderMinGain))
        ++Res.Stats.FuncsReordered;
      if (Opts.Split) {
        unsigned Moved = splitFunction(Prof, FL, Opts.SplitThreshold,
                                       Opts.SplitMinFuncCount);
        if (Moved) {
          ++Res.Stats.FuncsSplit;
          Res.Stats.BlocksSplit += Moved;
        }
      }
    }
  }

  Res.Bin = reassemble(CFG, Plan, &Res.Stats.Reassemble);
  Res.Stats.TextBytesAfter = Res.Bin->textSize();
  return Res;
}

} // namespace postlink
} // namespace csspgo
