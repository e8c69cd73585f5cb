//===- profgen/ContextUnwinder.cpp - Algorithm 1 -----------------------------===//

#include "profgen/ContextUnwinder.h"

namespace csspgo {

CSProfileGenStats &CSProfileGenStats::operator+=(const CSProfileGenStats &O) {
  Samples += O.Samples;
  UnsyncedSamples += O.UnsyncedSamples;
  RangesProcessed += O.RangesProcessed;
  DroppedSamples += O.DroppedSamples;
  BrokenRanges += O.BrokenRanges;
  TailCallStats += O.TailCallStats;
  return *this;
}

uint32_t ContextPool::child(uint32_t Parent, uint32_t Site, uint32_t Func) {
  auto [It, New] = Ids.try_emplace({Parent, Site, Func},
                                   static_cast<uint32_t>(Nodes.size()));
  if (New)
    Nodes.push_back({Parent, Site, Func});
  return It->second;
}

void collectTailCallEdges(const Symbolizer &Sym,
                          const std::vector<PerfSample> &Samples,
                          size_t Begin, size_t End,
                          MissingFrameInferrer &Inferrer) {
  const Binary &Bin = Sym.binary();
  for (size_t SampleIdx = Begin; SampleIdx != End; ++SampleIdx) {
    for (const LBREntry &E : Samples[SampleIdx].LBR) {
      size_t SrcIdx = Bin.indexOfAddr(E.Src);
      if (SrcIdx == SIZE_MAX ||
          Sym.classify(SrcIdx) != BranchKind::TailCallJump)
        continue;
      size_t DstIdx = Bin.indexOfAddr(E.Dst);
      uint32_t DstFunc = DstIdx == SIZE_MAX ? ~0u : Bin.funcIndexOf(DstIdx);
      if (DstFunc == ~0u)
        continue;
      Inferrer.addTailCallEdge(Sym.originAt(SrcIdx), Sym.callProbeAt(SrcIdx),
                               Sym.funcNameId(DstFunc));
    }
  }
}

CallerContext ContextUnwinder::contextFor(uint32_t LeafFunc) {
  const Binary &Bin = Sym.binary();
  if (!LastValid || LastLeaf != LeafFunc) {
    LastValid = true;
    LastLeaf = LeafFunc;
    LastCtx = {};
    LastInferred = {};
    for (size_t Level = 0; Level != CallStack.size(); ++Level) {
      size_t CallIdx = CallStack[Level];
      for (InternedFrame F : Sym.inlineFramesAt(CallIdx))
        LastCtx = Pool.extend(LastCtx, F);
      LastCtx = Pool.extend(LastCtx,
                            {Sym.originAt(CallIdx), Sym.callProbeAt(CallIdx)});
      // Missing-frame inference: the static callee of this call should be
      // the function of the next level (or of the leaf). Tail calls
      // between them elide frames.
      uint32_t Callee = Bin.Code[CallIdx].CalleeIdx;
      uint32_t ActualFunc = Level + 1 != CallStack.size()
                                ? Bin.funcIndexOf(CallStack[Level + 1])
                                : LeafFunc;
      if (!Inferrer || ActualFunc == ~0u || Callee >= Bin.Funcs.size())
        continue;
      uint32_t Expected = Sym.funcNameId(Callee);
      uint32_t Actual = Sym.funcNameId(ActualFunc);
      if (Sym.name(Actual).empty() || Actual == Expected)
        continue;
      const MissingFrameInferrer::Result &R = Inferrer->infer(Expected, Actual);
      LastInferred.record(R.O);
      // On failure the context simply connects caller->Actual directly
      // (truncated context, same behaviour the paper describes pre-fix).
      if (R.O == MissingFrameInferrer::Outcome::Recovered)
        for (InternedFrame F : R.Path)
          LastCtx = Pool.extend(LastCtx, F);
    }
  }
  S.TailCallStats += LastInferred;
  return LastCtx;
}

const UnwoundSample &ContextUnwinder::unwind(const PerfSample &Sample) {
  Out.Synced = true;
  Out.Ranges.clear();
  Out.Branches.clear();
  ++S.Samples;
  const Binary &Bin = Sym.binary();
  if (Sample.LBR.empty() || Sample.Stack.empty()) {
    ++S.DroppedSamples;
    return Out;
  }

  // The sampled stack is leaf-first: Stack[0] is the PC, deeper entries
  // are return addresses whose preceding instruction is the call.
  CallStack.clear();
  LastValid = false;
  for (size_t I = Sample.Stack.size(); I-- > 1;) {
    size_t RetIdx = Bin.indexOfAddr(Sample.Stack[I]);
    if (RetIdx == SIZE_MAX || RetIdx == 0 ||
        Bin.Code[RetIdx - 1].Op != Opcode::Call) {
      ++S.DroppedSamples; // Corrupt stack.
      return Out;
    }
    CallStack.push_back(RetIdx - 1);
  }
  size_t LeafIdx = Bin.indexOfAddr(Sample.Stack[0]);
  if (LeafIdx == SIZE_MAX) {
    ++S.DroppedSamples;
    return Out;
  }
  // Each LBR address resolves once: entry I's target is also the start
  // of the range that precedes entry I + 1.
  Srcs.clear();
  Dsts.clear();
  for (const LBREntry &E : Sample.LBR) {
    Srcs.push_back(Bin.indexOfAddr(E.Src));
    Dsts.push_back(Bin.indexOfAddr(E.Dst));
  }

  // Synchronization check: the leaf must live in the function the newest
  // LBR branch landed in (sampling skid breaks this, PEBS guarantees it).
  size_t NewestDst = Dsts.back();
  if (NewestDst == SIZE_MAX) {
    ++S.DroppedSamples;
    return Out;
  }
  if (Bin.funcIndexOf(NewestDst) != Bin.funcIndexOf(LeafIdx) ||
      LeafIdx < NewestDst) {
    ++S.UnsyncedSamples;
    Out.Synced = false;
    CallStack.clear(); // Degrade to context-less attribution.
  }

  // Process LBR newest -> oldest, undoing each branch's stack effect
  // first, then emitting the preceding linear range.
  for (size_t I = Sample.LBR.size(); I-- > 0;) {
    size_t SrcIdx = Srcs[I];
    size_t DstIdx = Dsts[I];
    if (SrcIdx == SIZE_MAX || DstIdx == SIZE_MAX) {
      ++S.BrokenRanges;
      continue;
    }

    // Undo the branch's effect to obtain the pre-branch stack.
    if (Out.Synced) {
      switch (Sym.classify(SrcIdx)) {
      case BranchKind::Call:
        // The call created the current leaf frame; the caller resumes as
        // the leaf, and the call instruction is exactly SrcIdx — the
        // deepest CallStack entry should match it; pop it.
        if (!CallStack.empty() && CallStack.back() == SrcIdx) {
          CallStack.pop_back();
          LastValid = false;
        } else if (!CallStack.empty()) {
          // Stack/LBR divergence mid-sample; stop trusting the context.
          Out.Synced = false;
          CallStack.clear();
          ++S.UnsyncedSamples;
        }
        break;
      case BranchKind::Return:
        // Before the return, the returned-from frame existed; its caller's
        // call instruction sits just before the return target.
        if (DstIdx > 0 && Bin.Code[DstIdx - 1].Op == Opcode::Call) {
          CallStack.push_back(DstIdx - 1);
          LastValid = false;
        }
        break;
      default:
        // A tail-call jump replaces the frame at unchanged depth; the
        // eliminated frame never appears in the sampled stack either.
        break;
      }
    }

    // Caller context of the branch source.
    uint32_t SrcFunc = Bin.funcIndexOf(SrcIdx);
    CallerContext Ctx = Out.Synced ? contextFor(SrcFunc) : CallerContext{};
    Out.Branches.push_back({SrcIdx, DstIdx, Ctx});

    // Linear range preceding this branch: [prev.Dst, curr.Src].
    if (I > 0) {
      size_t RBegin = Dsts[I - 1];
      if (RBegin == SIZE_MAX || RBegin > SrcIdx ||
          Bin.funcIndexOf(RBegin) != SrcFunc) {
        ++S.BrokenRanges;
        continue;
      }
      Out.Ranges.push_back({RBegin, SrcIdx, Ctx});
    }
  }
  S.RangesProcessed += Out.Ranges.size();
  return Out;
}

} // namespace csspgo
