//===- tests/oracle/ReferenceCFG.cpp - Set-based CFG analyses -------------===//
//
// The mid-level CFG analyses and candidate searches as the optimizer
// shipped them before the index-based dominator tree, hashed tail-merge
// candidates, in-place predecessor lists and block numbers: predecessors
// rebuilt into a std::map after every change, reverse post order and
// reachability on pointer sets, dominators as one std::set per block
// iterated to a fixpoint, loops with std::set bodies, tail merge comparing
// every block pair and restarting the scan after each merge, and code
// motion over those loops. Kept as written (code motion with the
// nested-loop preheader fix as an option) so ir/ and opt/ have an
// independent second implementation to match.
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracle.h"

#include "ir/Printer.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace csspgo {

std::map<BasicBlock *, std::vector<BasicBlock *>>
referencePredecessors(Function &F) {
  std::map<BasicBlock *, std::vector<BasicBlock *>> Preds;
  for (auto &BB : F.Blocks)
    Preds[BB.get()]; // Ensure every block has an entry.
  for (auto &BB : F.Blocks)
    for (BasicBlock *S : BB->successors())
      Preds[S].push_back(BB.get());
  return Preds;
}

static void postOrderVisit(BasicBlock *B, std::set<BasicBlock *> &Seen,
                           std::vector<BasicBlock *> &Order) {
  Seen.insert(B);
  for (BasicBlock *S : B->successors())
    if (!Seen.count(S))
      postOrderVisit(S, Seen, Order);
  Order.push_back(B);
}

std::vector<BasicBlock *> referenceReversePostOrder(Function &F) {
  std::vector<BasicBlock *> Order;
  if (F.Blocks.empty())
    return Order;
  std::set<BasicBlock *> Seen;
  postOrderVisit(F.getEntry(), Seen, Order);
  std::reverse(Order.begin(), Order.end());
  return Order;
}

bool referenceRemoveUnreachableBlocks(Function &F) {
  if (F.Blocks.empty())
    return false;
  std::unordered_set<const BasicBlock *> Reachable{F.getEntry()};
  std::vector<BasicBlock *> Work{F.getEntry()};
  while (!Work.empty()) {
    BasicBlock *B = Work.back();
    Work.pop_back();
    for (BasicBlock *S : B->successors())
      if (Reachable.insert(S).second)
        Work.push_back(S);
  }
  if (Reachable.size() == F.Blocks.size())
    return false;
  F.Blocks.erase(std::remove_if(F.Blocks.begin(), F.Blocks.end(),
                                [&Reachable](const auto &BB) {
                                  return !Reachable.count(BB.get());
                                }),
                 F.Blocks.end());
  return true;
}

std::map<BasicBlock *, std::set<BasicBlock *>>
referenceDominators(Function &F) {
  std::map<BasicBlock *, std::set<BasicBlock *>> Dom;
  std::vector<BasicBlock *> RPO = referenceReversePostOrder(F);
  if (RPO.empty())
    return Dom;
  std::set<BasicBlock *> All(RPO.begin(), RPO.end());
  for (BasicBlock *B : RPO)
    Dom[B] = All;
  Dom[F.getEntry()] = {F.getEntry()};

  auto Preds = referencePredecessors(F);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BasicBlock *B : RPO) {
      if (B == F.getEntry())
        continue;
      std::set<BasicBlock *> NewDom;
      bool First = true;
      for (BasicBlock *P : Preds[B]) {
        if (!Dom.count(P))
          continue; // Unreachable predecessor.
        if (First) {
          NewDom = Dom[P];
          First = false;
          continue;
        }
        std::set<BasicBlock *> Inter;
        std::set_intersection(NewDom.begin(), NewDom.end(), Dom[P].begin(),
                              Dom[P].end(),
                              std::inserter(Inter, Inter.begin()));
        NewDom = std::move(Inter);
      }
      NewDom.insert(B);
      if (NewDom != Dom[B]) {
        Dom[B] = std::move(NewDom);
        Changed = true;
      }
    }
  }
  return Dom;
}

std::vector<ReferenceLoop> referenceFindLoops(Function &F) {
  std::vector<ReferenceLoop> Loops;
  auto Dom = referenceDominators(F);
  auto Preds = referencePredecessors(F);
  std::map<BasicBlock *, size_t> HeaderLoop;

  for (auto &BBPtr : F.Blocks) {
    BasicBlock *B = BBPtr.get();
    if (!Dom.count(B))
      continue; // Unreachable.
    for (BasicBlock *S : B->successors()) {
      // Back edge B -> S iff S dominates B.
      if (!Dom[B].count(S))
        continue;
      size_t Idx;
      auto It = HeaderLoop.find(S);
      if (It == HeaderLoop.end()) {
        Idx = Loops.size();
        Loops.emplace_back();
        Loops[Idx].Header = S;
        Loops[Idx].Blocks.insert(S);
        HeaderLoop[S] = Idx;
      } else {
        Idx = It->second;
      }
      ReferenceLoop &L = Loops[Idx];
      L.Latches.push_back(B);
      // Collect the loop body: reverse reachability from the latch without
      // passing through the header.
      std::vector<BasicBlock *> Work{B};
      while (!Work.empty()) {
        BasicBlock *X = Work.back();
        Work.pop_back();
        if (!L.Blocks.insert(X).second)
          continue;
        for (BasicBlock *P : Preds[X])
          if (P != L.Header)
            Work.push_back(P);
      }
    }
  }
  return Loops;
}

static bool blocksIdentical(const BasicBlock &A, const BasicBlock &B) {
  if (A.Insts.size() != B.Insts.size())
    return false;
  for (size_t I = 0; I != A.Insts.size(); ++I)
    if (!A.Insts[I].isIdenticalTo(B.Insts[I]))
      return false;
  return true;
}

/// Length of the longest common instruction suffix of \p A and \p B
/// (terminator included). Probes and counters compare by identity, so a
/// probe pair with different ids terminates the suffix — that is the
/// blocking mechanism.
static size_t commonSuffixLen(const BasicBlock &A, const BasicBlock &B) {
  size_t N = 0;
  while (N < A.Insts.size() && N < B.Insts.size()) {
    const Instruction &IA = A.Insts[A.Insts.size() - 1 - N];
    const Instruction &IB = B.Insts[B.Insts.size() - 1 - N];
    if (!IA.isIdenticalTo(IB))
      break;
    ++N;
  }
  return N;
}

/// Splits the common suffix of \p A and \p B into a fresh shared block.
/// Both blocks must currently end with identical terminators.
static void mergeSuffix(Function &F, BasicBlock *A, BasicBlock *B,
                        size_t SuffixLen) {
  BasicBlock *T = F.createBlock("tailmerge");
  T->Insts.assign(A->Insts.end() - static_cast<ptrdiff_t>(SuffixLen),
                  A->Insts.end());
  // Profile maintenance: the shared tail executes as often as both
  // sources combined; its outgoing weights are the sources' sums.
  if (A->HasCount || B->HasCount) {
    T->setCount(A->Count + B->Count);
    unsigned NumSucc = T->numSuccessors();
    T->SuccWeights.clear();
    for (unsigned S = 0; S != NumSucc; ++S)
      T->SuccWeights.push_back((A->SuccWeights.size() == NumSucc
                                    ? A->SuccWeights[S]
                                    : A->Count / std::max(1u, NumSucc)) +
                               (B->SuccWeights.size() == NumSucc
                                    ? B->SuccWeights[S]
                                    : B->Count / std::max(1u, NumSucc)));
  }
  for (BasicBlock *Src : {A, B}) {
    Src->Insts.erase(Src->Insts.end() - static_cast<ptrdiff_t>(SuffixLen),
                     Src->Insts.end());
    Instruction Br;
    Br.Op = Opcode::Br;
    Br.Succ0 = T;
    if (!Src->Insts.empty()) {
      Br.DL = Src->Insts.back().DL;
      Br.OriginGuid = Src->Insts.back().OriginGuid;
      Br.InlineStack = Src->Insts.back().InlineStack;
    } else if (!T->Insts.empty()) {
      Br.DL = T->Insts.front().DL;
      Br.OriginGuid = T->Insts.front().OriginGuid;
      Br.InlineStack = T->Insts.front().InlineStack;
    }
    Src->Insts.push_back(std::move(Br));
    Src->SuccWeights.clear();
    if (Src->HasCount)
      Src->SuccWeights = {Src->Count};
  }
}

unsigned referenceTailMerge(Function &F) {
  unsigned Changed = 0;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    auto Preds = referencePredecessors(F);
    // Whole-block merges first.
    for (size_t I = 0; I != F.Blocks.size() && !Progress; ++I) {
      for (size_t J = I + 1; J != F.Blocks.size() && !Progress; ++J) {
        BasicBlock *A = F.Blocks[I].get();
        BasicBlock *B = F.Blocks[J].get();
        if (B == F.getEntry() || A == B)
          continue;
        if (!blocksIdentical(*A, *B))
          continue;
        // Merge B into A.
        for (BasicBlock *P : Preds[B])
          P->replaceSuccessor(B, A);
        if (A->HasCount || B->HasCount)
          A->setCount(A->Count + B->Count);
        F.eraseBlock(B);
        ++Changed;
        Progress = true;
      }
    }
    if (Progress)
      continue;
    // Partial (suffix) merges: factor a common tail of >= 3 instructions
    // (terminator + 2) into a shared block.
    constexpr size_t MinSuffix = 3;
    size_t NumBlocks = F.Blocks.size();
    for (size_t I = 0; I != NumBlocks && !Progress; ++I) {
      for (size_t J = I + 1; J != NumBlocks && !Progress; ++J) {
        BasicBlock *A = F.Blocks[I].get();
        BasicBlock *B = F.Blocks[J].get();
        if (A == B)
          continue;
        size_t Suffix = commonSuffixLen(*A, *B);
        if (Suffix < MinSuffix || Suffix >= A->Insts.size() ||
            Suffix >= B->Insts.size())
          continue;
        mergeSuffix(F, A, B, Suffix);
        ++Changed;
        Progress = true;
      }
    }
  }
  return Changed;
}

unsigned referenceCodeMotion(Function &F, const OptOptions &Opts,
                             bool KeepOuterWrites) {
  unsigned Changed = 0;
  auto Loops = referenceFindLoops(F);
  auto Preds = referencePredecessors(F);

  for (ReferenceLoop &L : Loops) {
    BasicBlock *H = L.Header;
    if (H == F.getEntry())
      continue;

    // Registers written anywhere in the loop.
    std::set<RegId> LoopWrites;
    for (BasicBlock *B : L.Blocks)
      for (const Instruction &I : B->Insts)
        if (I.Dst != InvalidReg && !I.isProbe())
          LoopWrites.insert(I.Dst);

    // Strong barrier: probes pin the schedule of their block.
    if (Opts.Barrier == ProbeBarrier::Strong && H->getBlockProbe())
      continue;

    // Find hoistable instructions in the header: pure, operands not
    // written in the loop, destination written only once in the loop, and
    // not read earlier in the header.
    std::vector<size_t> Hoistable;
    std::set<RegId> ReadSoFar;
    std::vector<RegId> Reads;
    for (size_t Idx = 0; Idx != H->Insts.size(); ++Idx) {
      const Instruction &I = H->Insts[Idx];
      if (I.isTerminator())
        break;
      Reads.clear();
      I.getUsedRegs(Reads);
      if (I.isProbe())
        continue;
      bool Ok = isPureOp(I.Op) && I.Dst != InvalidReg &&
                !ReadSoFar.count(I.Dst);
      if (Ok)
        for (RegId R : Reads)
          Ok &= !LoopWrites.count(R);
      // Destination written exactly once in the loop (this instruction).
      if (Ok) {
        unsigned Writes = 0;
        for (BasicBlock *B : L.Blocks)
          for (const Instruction &J : B->Insts)
            Writes += !J.isProbe() && J.Dst == I.Dst;
        Ok = Writes == 1;
      }
      // Not read anywhere in the loop before the header position — we only
      // hoist from the header and already tracked header reads; body blocks
      // execute after the header, so their reads are safe.
      if (Ok)
        Hoistable.push_back(Idx);
      for (RegId R : Reads)
        ReadSoFar.insert(R);
    }
    if (Hoistable.empty())
      continue;

    // Build or find the preheader: the unique non-latch predecessor edge
    // source. If there are several, synthesize a preheader block.
    std::vector<BasicBlock *> Outside;
    for (BasicBlock *P : Preds[H])
      if (!L.Blocks.count(P))
        Outside.push_back(P);
    if (Outside.empty())
      continue; // Unreachable loop.
    BasicBlock *Pre = F.createBlock("preheader");
    for (BasicBlock *P : Outside)
      P->replaceSuccessor(H, Pre);
    // Move the hoistable instructions (in order) into the preheader.
    for (size_t K = 0; K != Hoistable.size(); ++K)
      Pre->Insts.push_back(H->Insts[Hoistable[K]]);
    for (size_t K = Hoistable.size(); K-- > 0;)
      H->Insts.erase(H->Insts.begin() +
                     static_cast<ptrdiff_t>(Hoistable[K]));
    Instruction Br;
    Br.Op = Opcode::Br;
    Br.Succ0 = H;
    Br.DL = Pre->Insts.front().DL;
    Br.OriginGuid = Pre->Insts.front().OriginGuid;
    Br.InlineStack = Pre->Insts.front().InlineStack;
    Pre->Insts.push_back(std::move(Br));
    if (KeepOuterWrites)
      for (ReferenceLoop &Other : Loops)
        if (&Other != &L && Other.Blocks.count(H))
          Other.Blocks.insert(Pre);

    // Profile maintenance: the preheader runs once per loop entry = sum of
    // entering edge counts; approximate with header count minus latch
    // counts when available.
    if (H->HasCount) {
      uint64_t LatchIn = 0;
      for (BasicBlock *Latch : L.Latches)
        if (Latch->HasCount) {
          // Weight of the latch->header edge.
          auto Succs = Latch->successors();
          for (unsigned S = 0; S != Succs.size(); ++S)
            if (Succs[S] == H)
              LatchIn += Latch->succWeight(S);
        }
      Pre->setCount(H->Count > LatchIn ? H->Count - LatchIn : 1);
      Pre->SuccWeights = {Pre->Count};
    }

    Changed += Hoistable.size();
    Preds = referencePredecessors(F);
  }
  return Changed;
}

namespace {

/// Layout positions of \p Blocks in \p F, sorted.
template <typename Range>
std::vector<unsigned> positions(const Function &F, const Range &Blocks) {
  std::vector<unsigned> Out;
  for (BasicBlock *B : Blocks)
    Out.push_back(F.blockIndex(B));
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::string describe(const std::vector<unsigned> &V) {
  std::string S;
  for (unsigned X : V)
    S += (S.empty() ? "" : " ") + std::to_string(X);
  return "[" + S + "]";
}

} // namespace

std::string diffLoops(const Function &FA, const std::vector<Loop> &A,
                      const Function &FB,
                      const std::vector<ReferenceLoop> &B) {
  if (A.size() != B.size())
    return std::to_string(A.size()) + " loops vs " +
           std::to_string(B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    std::string Which = "loop " + std::to_string(I) + ": ";
    unsigned HA = FA.blockIndex(A[I].Header), HB = FB.blockIndex(B[I].Header);
    if (HA != HB)
      return Which + "header " + std::to_string(HA) + " vs " +
             std::to_string(HB);
    std::vector<unsigned> BA = positions(FA, A[I].Blocks),
                          BB = positions(FB, B[I].Blocks);
    if (BA != BB)
      return Which + "blocks " + describe(BA) + " vs " + describe(BB);
    std::vector<unsigned> LA, LB;
    for (BasicBlock *L : A[I].Latches)
      LA.push_back(FA.blockIndex(L));
    for (BasicBlock *L : B[I].Latches)
      LB.push_back(FB.blockIndex(L));
    if (LA != LB)
      return Which + "latches " + describe(LA) + " vs " + describe(LB);
  }
  return std::string();
}

std::unique_ptr<Module> cloneFunctionAlone(const Function &F) {
  auto M = std::make_unique<Module>("clone");
  Function *NF = M->createFunction(F.getName(), F.getNumParams());
  NF->ensureRegs(F.getNumRegs());
  // One block per number F has handed out, so each copy takes its
  // original's number; those of erased blocks are dropped again.
  for (unsigned N = 0; N != F.getMaxBlockNumber(); ++N)
    NF->createBlock("bb");
  std::vector<std::unique_ptr<BasicBlock>> ByNumber = std::move(NF->Blocks);
  NF->Blocks.clear();
  std::unordered_map<const BasicBlock *, BasicBlock *> BlockMap;
  for (const auto &BB : F.Blocks) {
    std::unique_ptr<BasicBlock> &NB = ByNumber[BB->getNumber()];
    NB->setLabel(BB->getLabel());
    NB->Insts = BB->Insts;
    NB->HasCount = BB->HasCount;
    NB->Count = BB->Count;
    NB->SuccWeights = BB->SuccWeights;
    NB->IsColdSection = BB->IsColdSection;
    BlockMap[BB.get()] = NB.get();
    NF->Blocks.push_back(std::move(NB));
  }
  for (auto &NB : NF->Blocks)
    for (Instruction &I : NB->Insts) {
      if (I.Succ0)
        I.Succ0 = BlockMap.at(I.Succ0);
      if (I.Succ1)
        I.Succ1 = BlockMap.at(I.Succ1);
    }
  return M;
}

std::string diffCFGAnalyses(Function &F) {
  auto Pos = [&F](const BasicBlock *B) {
    return std::to_string(F.blockIndex(B));
  };
  auto List = [&F](const std::vector<BasicBlock *> &Blocks) {
    std::vector<unsigned> Out;
    for (const BasicBlock *B : Blocks)
      Out.push_back(F.blockIndex(B));
    return describe(Out);
  };

  std::vector<BasicBlock *> RPO = reversePostOrder(F),
                            RefRPO = referenceReversePostOrder(F);
  if (RPO != RefRPO)
    return "reversePostOrder " + List(RPO) + " vs " + List(RefRPO);

  DominatorTree DT(F);
  auto Dom = referenceDominators(F);
  for (auto &A : F.Blocks) {
    if (DT.isReachable(A.get()) != (Dom.count(A.get()) != 0))
      return "reachability of block " + Pos(A.get()) + " differs";
    for (auto &B : F.Blocks) {
      auto It = Dom.find(B.get());
      bool Ref = It != Dom.end() && It->second.count(A.get());
      if (DT.dominates(A.get(), B.get()) != Ref)
        return "whether block " + Pos(A.get()) + " dominates block " +
               Pos(B.get()) + " differs";
    }
  }

  if (std::string D = diffLoops(F, findLoops(F), F, referenceFindLoops(F));
      !D.empty())
    return "findLoops: " + D;

  {
    PredecessorMap Preds(F);
    auto Ref = referencePredecessors(F);
    for (auto &B : F.Blocks)
      if (Preds[B.get()] != Ref[B.get()])
        return "predecessors of block " + Pos(B.get()) + ": " +
               List(Preds[B.get()]) + " vs " + List(Ref[B.get()]);
  }

  auto A = cloneFunctionAlone(F), B = cloneFunctionAlone(F);
  Function &FA = *A->Functions.front(), &FB = *B->Functions.front();
  PredecessorMap Kept(FA);
  bool CA = removeUnreachableBlocks(FA, &Kept);
  bool CB = referenceRemoveUnreachableBlocks(FB);
  auto Survivors = [](const Function &G) {
    std::vector<unsigned> Numbers;
    for (const auto &BB : G.Blocks)
      Numbers.push_back(BB->getNumber());
    return describe(Numbers);
  };
  if (CA != CB || Survivors(FA) != Survivors(FB))
    return "removeUnreachableBlocks " + std::to_string(CA) + " leaves " +
           Survivors(FA) + " vs " + std::to_string(CB) + " leaving " +
           Survivors(FB) + " (block numbers)";
  auto Rebuilt = referencePredecessors(FA);
  for (auto &BB : FA.Blocks)
    if (Kept[BB.get()] != Rebuilt[BB.get()])
      return "the predecessor map removeUnreachableBlocks kept lists " +
             std::to_string(Kept[BB.get()].size()) +
             " predecessors of block number " +
             std::to_string(BB->getNumber()) + ", a rebuild " +
             std::to_string(Rebuilt[BB.get()].size());
  return std::string();
}

std::unique_ptr<Module> randomCFGModule(Rng &R) {
  auto M = std::make_unique<Module>("cfg");
  M->EntryFunction = "main";
  Function *F = M->createFunction("main", 0);
  constexpr unsigned NumRegs = 4;
  F->ensureRegs(NumRegs);
  const unsigned N = 1 + static_cast<unsigned>(R.nextBelow(24));
  for (unsigned I = 0; I != N; ++I)
    F->createBlock("b");
  auto Reg = [&R] {
    return Operand::reg(static_cast<RegId>(R.nextBelow(NumRegs)));
  };
  // Mostly fall through to the next block, so chains, nests and shared
  // headers form; any other target makes back edges, irreducible
  // regions, self-loops and unreachable blocks.
  auto Target = [&](unsigned From) {
    unsigned To = From + 1 < N && R.nextBool(0.8)
                      ? From + 1
                      : static_cast<unsigned>(R.nextBelow(N));
    return F->Blocks[To].get();
  };
  auto RandomInst = [&] {
    const Opcode Ops[] = {Opcode::Add, Opcode::Mul, Opcode::Sub,
                          Opcode::CmpLT, Opcode::Mov};
    Instruction I;
    I.Op = Ops[R.nextBelow(5)];
    I.Dst = static_cast<RegId>(R.nextBelow(NumRegs));
    I.A = Reg();
    if (I.Op != Opcode::Mov)
      I.B = R.nextBool(0.5) ? Reg() : Operand::imm(R.nextInRange(0, 2));
    I.DL.Line = 1 + static_cast<uint32_t>(R.nextBelow(8));
    return I;
  };
  for (unsigned I = 0; I != N; ++I) {
    BasicBlock *B = F->Blocks[I].get();
    // A copy of an earlier block (maybe behind a fresh prefix) gives tail
    // merge whole and partial candidates.
    if (I && R.nextBool(0.2)) {
      const BasicBlock &Src = *F->Blocks[R.nextBelow(I)];
      for (unsigned K = R.nextBool(0.5) ? 1 + R.nextBelow(2) : 0; K; --K)
        B->Insts.push_back(RandomInst());
      B->Insts.insert(B->Insts.end(), Src.Insts.begin(), Src.Insts.end());
      // Tail merge ignores debug locations.
      if (R.nextBool(0.5))
        for (Instruction &Inst : B->Insts)
          Inst.DL.Line = 1 + static_cast<uint32_t>(R.nextBelow(8));
      continue;
    }
    if (R.nextBool(0.3)) {
      Instruction Probe;
      Probe.Op = Opcode::PseudoProbe;
      Probe.ProbeId = 1 + static_cast<uint32_t>(R.nextBelow(3));
      B->Insts.push_back(Probe);
    }
    for (unsigned K = R.nextBelow(5); K; --K)
      B->Insts.push_back(RandomInst());
    Instruction T;
    uint64_t Kind = R.nextBelow(20);
    if (Kind < 1) {
      T.Op = Opcode::Ret;
      T.A = Reg();
    } else if (Kind < 11) {
      T.Op = Opcode::Br;
      T.Succ0 = Target(I);
    } else {
      T.Op = Opcode::CondBr;
      T.A = Reg();
      T.Succ0 = Target(I);
      T.Succ1 = F->Blocks[R.nextBelow(N)].get();
    }
    B->Insts.push_back(T);
  }
  return M;
}

std::string diffRandomCFG(Rng &R) {
  std::unique_ptr<Module> M = randomCFGModule(R);
  Function &F = *M->Functions.front();
  auto Fail = [&M](const std::string &What) {
    return What + "; function:\n" + printModule(*M);
  };

  if (std::string D = diffCFGAnalyses(F); !D.empty())
    return Fail(D);

  // Each pass on one clone, its reference on another: same change count
  // and the same printed IR, block labels included.
  struct Pair {
    const char *Name;
    unsigned (*Run)(Function &, const OptOptions &);
    unsigned (*Ref)(Function &, const OptOptions &);
  };
  const Pair Pairs[] = {
      {"tail merge", runTailMerge,
       [](Function &G, const OptOptions &) { return referenceTailMerge(G); }},
      {"code motion", runCodeMotion, [](Function &G, const OptOptions &O) {
         return referenceCodeMotion(G, O, /*KeepOuterWrites=*/true);
       }}};
  for (const Pair &P : Pairs) {
    auto A = M->clone(), B = M->clone();
    OptOptions Opts;
    unsigned CA = P.Run(*A->Functions.front(), Opts);
    unsigned CB = P.Ref(*B->Functions.front(), Opts);
    if (CA != CB || printModule(*A) != printModule(*B))
      return Fail(std::string(P.Name) + " differs from the reference (" +
                  std::to_string(CA) + " vs " + std::to_string(CB) +
                  " changes); result:\n" + printModule(*A) +
                  "reference result:\n" + printModule(*B));
  }
  return std::string();
}

} // namespace csspgo
