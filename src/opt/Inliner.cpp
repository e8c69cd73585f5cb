//===- opt/Inliner.cpp - Inlining --------------------------------------------===//

#include "opt/Inliner.h"

#include "ir/CFG.h"
#include "opt/InlineCost.h"

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>

namespace csspgo {

InlinedBody inlineCallSite(Function &Caller, BasicBlock *BB, size_t CallIdx,
                           const Function &Callee) {
  InlinedBody Result;
  if (CallIdx >= BB->Insts.size())
    return Result;
  Instruction Call = BB->Insts[CallIdx];
  if (!Call.isCall() || Call.Callee != Callee.getName())
    return Result;
  if (&Callee == &Caller)
    return Result; // Direct recursion is never inlined here.

  // 1. Split off the continuation.
  BasicBlock *Cont = Caller.createBlock("inl.cont");
  Cont->Insts.assign(BB->Insts.begin() + static_cast<ptrdiff_t>(CallIdx) + 1,
                     BB->Insts.end());
  BB->Insts.erase(BB->Insts.begin() + static_cast<ptrdiff_t>(CallIdx),
                  BB->Insts.end());
  Cont->HasCount = BB->HasCount;
  Cont->Count = BB->Count;
  Cont->SuccWeights = std::move(BB->SuccWeights);
  BB->SuccWeights.clear();

  // 2. Register remapping: callee frame appended to the caller frame.
  RegId Offset = Caller.getNumRegs();
  Caller.ensureRegs(Offset + Callee.getNumRegs());
  auto RemapReg = [Offset](RegId R) {
    return R == InvalidReg ? InvalidReg : R + Offset;
  };
  auto RemapOp = [Offset](Operand O) {
    return O.isReg() ? Operand::reg(O.getReg() + Offset) : O;
  };

  // 3. Parameter setup in BB, attributed to the call site.
  for (unsigned P = 0; P != Callee.getNumParams(); ++P) {
    Instruction Mv;
    Mv.Op = Opcode::Mov;
    Mv.Dst = Offset + P;
    Mv.A = P < Call.Args.size() ? Call.Args[P] : Operand::imm(0);
    Mv.DL = Call.DL;
    Mv.OriginGuid = Call.OriginGuid;
    Mv.InlineStack = Call.InlineStack;
    BB->Insts.push_back(std::move(Mv));
  }

  // 4. The inline stack frame every cloned instruction gains.
  InlineFrame NewFrame;
  NewFrame.FuncGuid = Call.OriginGuid;
  NewFrame.CallLoc = Call.DL;
  NewFrame.CallProbeId = Call.ProbeId;
  std::vector<InlineFrame> Prefix = Call.InlineStack;
  Prefix.push_back(NewFrame);

  // 5. Clone callee blocks.
  for (const auto &CB : Callee.Blocks) {
    BasicBlock *NB = Caller.createBlock("inl");
    NB->clearProfile();
    Result.BlockMap[CB.get()] = NB;
    Result.ClonedOrder.push_back(NB);
  }
  for (const auto &CB : Callee.Blocks) {
    BasicBlock *NB = Result.BlockMap[CB.get()];
    for (const Instruction &CI : CB->Insts) {
      Instruction NI = CI;
      NI.Dst = RemapReg(NI.Dst);
      NI.A = RemapOp(NI.A);
      NI.B = RemapOp(NI.B);
      NI.C = RemapOp(NI.C);
      for (Operand &O : NI.Args)
        O = RemapOp(O);
      if (NI.Succ0)
        NI.Succ0 = Result.BlockMap.at(NI.Succ0);
      if (NI.Succ1)
        NI.Succ1 = Result.BlockMap.at(NI.Succ1);
      // Inline context: call-site prefix + the instruction's own stack.
      std::vector<InlineFrame> NewStack = Prefix;
      NewStack.insert(NewStack.end(), NI.InlineStack.begin(),
                      NI.InlineStack.end());
      NI.InlineStack = std::move(NewStack);
      // A tail call in the callee is no longer in tail position relative
      // to the caller's frame semantics once inlined into a non-tail
      // context; drop the flag (conservative and always correct).
      if (NI.isCall())
        NI.IsTailCall = false;

      if (NI.Op == Opcode::Ret) {
        // ret v  =>  [dst = mov v;] br cont
        if (Call.Dst != InvalidReg) {
          Instruction Mv;
          Mv.Op = Opcode::Mov;
          Mv.Dst = Call.Dst;
          Mv.A = NI.A;
          Mv.DL = Call.DL;
          Mv.OriginGuid = Call.OriginGuid;
          Mv.InlineStack = Call.InlineStack;
          NB->Insts.push_back(std::move(Mv));
        }
        Instruction Br;
        Br.Op = Opcode::Br;
        Br.Succ0 = Cont;
        Br.DL = Call.DL;
        Br.OriginGuid = Call.OriginGuid;
        Br.InlineStack = Call.InlineStack;
        NB->Insts.push_back(std::move(Br));
        continue;
      }
      NB->Insts.push_back(std::move(NI));
    }
  }

  // 6. BB branches into the cloned entry.
  Instruction Br;
  Br.Op = Opcode::Br;
  Br.Succ0 = Result.BlockMap.at(Callee.getEntry());
  Br.DL = Call.DL;
  Br.OriginGuid = Call.OriginGuid;
  Br.InlineStack = Call.InlineStack;
  BB->Insts.push_back(std::move(Br));
  if (BB->HasCount)
    BB->SuccWeights = {BB->Count};

  Result.Continuation = Cont;
  Result.Success = true;
  return Result;
}

namespace {

/// Scales the cloned body's profile from the callee's aggregate profile:
/// cloned.Count = callee.Count * CallsiteCount / CalleeEntryCount. This is
/// deliberately the context-insensitive approximation (Fig. 3a).
void scaleInlinedProfile(const Function &Callee, const InlinedBody &Body,
                         uint64_t CallsiteCount) {
  uint64_t EntryCount =
      Callee.getEntry()->HasCount ? Callee.getEntry()->Count : 0;
  for (const auto &CB : Callee.Blocks) {
    BasicBlock *NB = Body.BlockMap.at(CB.get());
    if (!CB->HasCount || !EntryCount) {
      if (CallsiteCount)
        NB->setCount(0);
      continue;
    }
    double Ratio =
        static_cast<double>(CallsiteCount) / static_cast<double>(EntryCount);
    NB->setCount(static_cast<uint64_t>(CB->Count * Ratio));
    NB->SuccWeights.clear();
    for (unsigned S = 0; S != CB->SuccWeights.size(); ++S)
      NB->SuccWeights.push_back(
          static_cast<uint64_t>(CB->SuccWeights[S] * Ratio));
  }
}

/// Post-order over the call graph (callees before callers).
std::vector<Function *> bottomUpOrder(Module &M) {
  std::vector<Function *> Order;
  std::set<Function *> Visited;
  std::function<void(Function *)> Visit = [&](Function *F) {
    if (!Visited.insert(F).second)
      return;
    for (auto &BB : F->Blocks)
      for (const Instruction &I : BB->Insts)
        if (I.isCall())
          if (Function *Callee = M.getFunction(I.Callee))
            Visit(Callee);
    Order.push_back(F);
  };
  for (auto &F : M.Functions)
    Visit(F.get());
  return Order;
}

} // namespace

InlinerStats runBottomUpInliner(Module &M, const InlineParams &Params) {
  InlinerStats Stats;
  for (unsigned Iter = 0; Iter != Params.MaxIterations; ++Iter) {
    unsigned InlinedThisRound = 0;
    for (Function *F : bottomUpOrder(M)) {
      bool Progress = true;
      while (Progress) {
        Progress = false;
        for (auto &BBPtr : F->Blocks) {
          BasicBlock *BB = BBPtr.get();
          for (size_t I = 0; I != BB->Insts.size(); ++I) {
            const Instruction &Inst = BB->Insts[I];
            if (!Inst.isCall())
              continue;
            // Tail calls already run frame-free (TCE); keeping them out of
            // line is the better size trade and preserves dispatch chains.
            if (Inst.IsTailCall)
              continue;
            Function *Callee = M.getFunction(Inst.Callee);
            if (!Callee || Callee == F)
              continue;
            uint64_t CallsiteCount = BB->HasCount ? BB->Count : 0;
            InlineDecision D = shouldInline(
                *F, *Callee, CallsiteCount, Params);
            if (!D.Inline)
              continue;
            InlinedBody Body = inlineCallSite(*F, BB, I, *Callee);
            if (!Body.Success)
              continue;
            if (BB->HasCount)
              scaleInlinedProfile(*Callee, Body, CallsiteCount);
            ++Stats.NumInlined;
            ++InlinedThisRound;
            Progress = true;
            break; // BB's instruction list changed; rescan.
          }
          if (Progress)
            break; // Block list changed; restart function scan.
        }
      }
    }
    if (!InlinedThisRound)
      break;
  }
  Stats.NumDeadFunctionsRemoved = removeDeadFunctions(M);
  return Stats;
}

unsigned removeDeadFunctions(Module &M) {
  // Call sites naming each function across the module. A function whose
  // count is zero is dead; erasing it releases its own call sites, which
  // may kill its callees in turn. Address-taken functions (dispatch-table
  // entries) stay alive, and so does a cycle of dead functions that call
  // each other, since each keeps a call site of the next.
  std::unordered_map<std::string, unsigned> Uses;
  for (const std::string &Entry : M.FunctionTable)
    ++Uses[Entry];
  auto ForEachCallee = [](const Function &F, auto Fn) {
    for (auto &BB : F.Blocks)
      for (const Instruction &I : BB->Insts)
        if (I.Op == Opcode::Call)
          Fn(I.Callee);
  };
  for (auto &F : M.Functions)
    ForEachCallee(*F, [&Uses](const std::string &Callee) { ++Uses[Callee]; });
  auto Removable = [&M](const Function &F) {
    return !F.IsEntryPoint && F.getName() != M.EntryFunction;
  };
  std::vector<Function *> Dead;
  for (auto &F : M.Functions)
    if (Removable(*F) && !Uses.count(F->getName()))
      Dead.push_back(F.get());
  unsigned Removed = 0;
  while (!Dead.empty()) {
    Function *F = Dead.back();
    Dead.pop_back();
    ForEachCallee(*F, [&](const std::string &Callee) {
      if (--Uses[Callee])
        return;
      Function *G = M.getFunction(Callee);
      if (G && Removable(*G))
        Dead.push_back(G);
    });
    M.eraseFunction(F);
    ++Removed;
  }
  return Removed;
}

} // namespace csspgo
