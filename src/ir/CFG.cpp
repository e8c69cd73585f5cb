//===- ir/CFG.cpp - CFG utilities -----------------------------------------===//

#include "ir/CFG.h"

#include <algorithm>
#include <unordered_set>

namespace csspgo {

PredecessorMap::PredecessorMap(Function &F) {
  Map.reserve(F.Blocks.size());
  for (auto &BB : F.Blocks)
    addBlock(BB.get());
  for (auto &BB : F.Blocks)
    for (BasicBlock *S : BB->successors())
      Map[S].Preds.push_back(BB.get());
}

const std::vector<BasicBlock *> &
PredecessorMap::operator[](const BasicBlock *B) const {
  static const std::vector<BasicBlock *> None;
  auto It = Map.find(B);
  return It == Map.end() ? None : It->second.Preds;
}

void PredecessorMap::detachSuccessors(const BasicBlock *B) {
  for (BasicBlock *S : B->successors()) {
    auto It = Map.find(S);
    if (It == Map.end())
      continue; // S was erased first (both unreachable).
    std::vector<BasicBlock *> &Preds = It->second.Preds;
    auto Pos = std::find(Preds.begin(), Preds.end(), B);
    assert(Pos != Preds.end() && "edge missing from the predecessor map");
    Preds.erase(Pos);
  }
}

void PredecessorMap::attachSuccessors(BasicBlock *B) {
  unsigned Order = Map.at(B).Order;
  for (BasicBlock *S : B->successors()) {
    std::vector<BasicBlock *> &Preds = Map.at(S).Preds;
    auto Pos = std::upper_bound(
        Preds.begin(), Preds.end(), Order,
        [this](unsigned O, BasicBlock *P) { return O < Map.at(P).Order; });
    Preds.insert(Pos, B);
  }
}

void PredecessorMap::addBlock(const BasicBlock *B) {
  Map[B].Order = NextOrder++;
}

void PredecessorMap::eraseBlock(const BasicBlock *B) {
  detachSuccessors(B);
  Map.erase(B);
}

static void postOrderVisit(BasicBlock *B, std::set<BasicBlock *> &Seen,
                           std::vector<BasicBlock *> &Order) {
  Seen.insert(B);
  for (BasicBlock *S : B->successors())
    if (!Seen.count(S))
      postOrderVisit(S, Seen, Order);
  Order.push_back(B);
}

std::vector<BasicBlock *> reversePostOrder(Function &F) {
  std::vector<BasicBlock *> Order;
  if (F.Blocks.empty())
    return Order;
  std::set<BasicBlock *> Seen;
  postOrderVisit(F.getEntry(), Seen, Order);
  std::reverse(Order.begin(), Order.end());
  return Order;
}

DominatorTree::DominatorTree(Function &F) {
  std::vector<BasicBlock *> RPO = reversePostOrder(F);
  unsigned N = static_cast<unsigned>(RPO.size());
  Number.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Number[RPO[I]] = I;
  std::vector<std::vector<unsigned>> Preds(N);
  for (unsigned I = 0; I != N; ++I)
    for (BasicBlock *S : RPO[I]->successors())
      Preds[Number.at(S)].push_back(I);

  // Cooper, Harvey and Kennedy, "A Simple, Fast Dominance Algorithm":
  // iterate idom(b) = intersection of the processed predecessors' idoms
  // over RPO until nothing changes. A dominator always has a smaller RPO
  // number, so intersecting walks both fingers up until they meet.
  constexpr unsigned Undef = ~0u;
  IDom.assign(N, Undef);
  if (N)
    IDom[0] = 0;
  auto Intersect = [this](unsigned A, unsigned B) {
    while (A != B) {
      while (A > B)
        A = IDom[A];
      while (B > A)
        B = IDom[B];
    }
    return A;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned I = 1; I < N; ++I) {
      unsigned New = Undef;
      for (unsigned P : Preds[I])
        if (IDom[P] != Undef)
          New = New == Undef ? P : Intersect(P, New);
      if (IDom[I] != New) {
        IDom[I] = New;
        Changed = true;
      }
    }
  }
}

bool DominatorTree::dominates(const BasicBlock *A, const BasicBlock *B) const {
  auto ItA = Number.find(A), ItB = Number.find(B);
  if (ItA == Number.end() || ItB == Number.end())
    return false;
  unsigned NA = ItA->second, NB = ItB->second;
  while (NB > NA)
    NB = IDom[NB];
  return NB == NA;
}

std::vector<Loop> findLoops(Function &F) {
  std::vector<Loop> Loops;
  DominatorTree DT(F);
  PredecessorMap Preds(F);
  std::unordered_map<const BasicBlock *, size_t> HeaderLoop;

  for (auto &BBPtr : F.Blocks) {
    BasicBlock *B = BBPtr.get();
    if (!DT.isReachable(B))
      continue;
    for (BasicBlock *S : B->successors()) {
      // Back edge B -> S iff S dominates B.
      if (!DT.dominates(S, B))
        continue;
      auto [It, New] = HeaderLoop.try_emplace(S, Loops.size());
      if (New) {
        Loops.emplace_back();
        Loops.back().Header = S;
        Loops.back().Blocks.insert(S);
      }
      Loop &L = Loops[It->second];
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

bool removeUnreachableBlocks(Function &F, PredecessorMap *Preds) {
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
  auto Dead = [&Reachable](const std::unique_ptr<BasicBlock> &BB) {
    return !Reachable.count(BB.get());
  };
  if (Preds)
    for (auto &BB : F.Blocks)
      if (Dead(BB))
        Preds->eraseBlock(BB.get());
  F.Blocks.erase(std::remove_if(F.Blocks.begin(), F.Blocks.end(), Dead),
                 F.Blocks.end());
  return true;
}

} // namespace csspgo
