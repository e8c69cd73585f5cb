//===- ir/CFG.cpp - CFG utilities -----------------------------------------===//

#include "ir/CFG.h"

#include <algorithm>

namespace csspgo {

namespace {

/// Fills \p Begin and \p Items with lists in compressed rows: row R's
/// entries are Items[Begin[R] .. Begin[R + 1]). \p ForEachEdge(Add) must
/// call Add(Row, Item) once per entry; it runs twice (count, then fill),
/// so each row keeps the order of its calls.
template <typename T, typename EdgeFn>
void buildRows(unsigned NumRows, EdgeFn ForEachEdge,
               std::vector<unsigned> &Begin, std::vector<T> &Items) {
  Begin.assign(NumRows + 1, 0);
  ForEachEdge([&Begin](unsigned Row, T) { ++Begin[Row + 1]; });
  for (unsigned R = 0; R != NumRows; ++R)
    Begin[R + 1] += Begin[R];
  Items.resize(Begin[NumRows]);
  // Fill with Begin[R] as row R's cursor, which leaves it at the start of
  // row R + 1; shifting by one restores the row starts.
  ForEachEdge([&](unsigned Row, T Item) { Items[Begin[Row]++] = Item; });
  std::move_backward(Begin.begin(), Begin.end() - 1, Begin.end());
  Begin[0] = 0;
}

} // namespace

PredecessorMap::PredecessorMap(Function &F)
    : Entries(F.getMaxBlockNumber()) {
  for (auto &BB : F.Blocks)
    Entries[BB->getNumber()].Order = NextOrder++;
  for (auto &BB : F.Blocks)
    for (BasicBlock *S : BB->successors())
      Entries[S->getNumber()].Preds.push_back(BB.get());
}

PredecessorMap::Entry *PredecessorMap::find(const BasicBlock *B) {
  unsigned N = B->getNumber();
  return N < Entries.size() && Entries[N].Order != Unknown ? &Entries[N]
                                                           : nullptr;
}

const std::vector<BasicBlock *> &
PredecessorMap::operator[](const BasicBlock *B) const {
  static const std::vector<BasicBlock *> None;
  const Entry *E = const_cast<PredecessorMap *>(this)->find(B);
  return E ? E->Preds : None;
}

void PredecessorMap::detachSuccessors(const BasicBlock *B) {
  for (BasicBlock *S : B->successors()) {
    Entry *E = find(S);
    if (!E)
      continue; // S was erased first (both unreachable).
    auto Pos = std::find(E->Preds.begin(), E->Preds.end(), B);
    assert(Pos != E->Preds.end() && "edge missing from the predecessor map");
    E->Preds.erase(Pos);
  }
}

void PredecessorMap::attachSuccessors(BasicBlock *B) {
  const Entry *E = find(B);
  assert(E && "block unknown to the predecessor map");
  unsigned Order = E->Order;
  for (BasicBlock *S : B->successors()) {
    Entry *SE = find(S);
    assert(SE && "successor unknown to the predecessor map");
    std::vector<BasicBlock *> &Preds = SE->Preds;
    auto Pos = std::upper_bound(
        Preds.begin(), Preds.end(), Order, [this](unsigned O, BasicBlock *P) {
          return O < Entries[P->getNumber()].Order;
        });
    Preds.insert(Pos, B);
  }
}

void PredecessorMap::addBlock(const BasicBlock *B) {
  unsigned N = B->getNumber();
  if (N >= Entries.size())
    Entries.resize(N + 1);
  Entries[N].Order = NextOrder++;
}

void PredecessorMap::eraseBlock(const BasicBlock *B) {
  detachSuccessors(B);
  if (Entry *E = find(B))
    *E = Entry();
}

std::vector<BasicBlock *> reversePostOrder(Function &F) {
  std::vector<BasicBlock *> Order;
  if (F.Blocks.empty())
    return Order;
  Order.reserve(F.Blocks.size());
  // Depth first from the entry, successors in terminator order; each stack
  // entry holds a block and the index of its next successor to visit.
  std::vector<char> Seen(F.getMaxBlockNumber());
  std::vector<std::pair<BasicBlock *, unsigned>> Stack{{F.getEntry(), 0}};
  Seen[F.getEntry()->getNumber()] = 1;
  while (!Stack.empty()) {
    auto &[B, Next] = Stack.back();
    SuccessorList Succs = B->successors();
    if (Next == Succs.size()) {
      Order.push_back(B);
      Stack.pop_back();
      continue;
    }
    BasicBlock *S = Succs[Next++];
    if (!Seen[S->getNumber()]) {
      Seen[S->getNumber()] = 1;
      Stack.emplace_back(S, 0);
    }
  }
  std::reverse(Order.begin(), Order.end());
  return Order;
}

DominatorTree::DominatorTree(Function &F)
    : RPONumber(F.getMaxBlockNumber(), Unreachable) {
  std::vector<BasicBlock *> RPO = reversePostOrder(F);
  unsigned N = static_cast<unsigned>(RPO.size());
  for (unsigned I = 0; I != N; ++I)
    RPONumber[RPO[I]->getNumber()] = I;
  // Predecessors by RPO index, each row in RPO order of the source.
  std::vector<unsigned> PredBegin, Preds;
  buildRows<unsigned>(
      N,
      [&](auto Add) {
        for (unsigned I = 0; I != N; ++I)
          for (BasicBlock *S : RPO[I]->successors())
            Add(RPONumber[S->getNumber()], I);
      },
      PredBegin, Preds);

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
      for (unsigned K = PredBegin[I]; K != PredBegin[I + 1]; ++K) {
        unsigned P = Preds[K];
        if (IDom[P] != Undef)
          New = New == Undef ? P : Intersect(P, New);
      }
      if (IDom[I] != New) {
        IDom[I] = New;
        Changed = true;
      }
    }
  }
}

bool DominatorTree::dominates(const BasicBlock *A, const BasicBlock *B) const {
  unsigned NA = rpoNumber(A), NB = rpoNumber(B);
  if (NA == Unreachable || NB == Unreachable)
    return false;
  while (NB > NA)
    NB = IDom[NB];
  return NB == NA;
}

static bool byNumber(const BasicBlock *A, const BasicBlock *B) {
  return A->getNumber() < B->getNumber();
}

bool Loop::contains(const BasicBlock *B) const {
  return std::binary_search(Blocks.begin(), Blocks.end(), B, byNumber);
}

std::vector<Loop> findLoops(Function &F) {
  std::vector<Loop> Loops;
  DominatorTree DT(F);
  const unsigned NumBlocks = F.getMaxBlockNumber();

  // Back edges B -> S (S dominates B) in layout order of B: the loops in
  // order of their first one, each with its latches.
  constexpr unsigned NoLoop = ~0u;
  std::vector<unsigned> HeaderLoop(NumBlocks, NoLoop);
  for (auto &BBPtr : F.Blocks) {
    BasicBlock *B = BBPtr.get();
    if (!DT.isReachable(B))
      continue;
    for (BasicBlock *S : B->successors()) {
      if (!DT.dominates(S, B))
        continue;
      unsigned &Idx = HeaderLoop[S->getNumber()];
      if (Idx == NoLoop) {
        Idx = static_cast<unsigned>(Loops.size());
        Loops.emplace_back();
        Loops.back().Header = S;
      }
      Loops[Idx].Latches.push_back(B);
    }
  }
  if (Loops.empty())
    return Loops;

  // Predecessors by block number, unreachable ones included.
  std::vector<unsigned> PredBegin;
  std::vector<BasicBlock *> Preds;
  buildRows<BasicBlock *>(
      NumBlocks,
      [&F](auto Add) {
        for (auto &BB : F.Blocks)
          for (BasicBlock *S : BB->successors())
            Add(S->getNumber(), BB.get());
      },
      PredBegin, Preds);

  // Each body: the header, and every block that reaches a latch without
  // passing through the header. Mark holds 1 + the index of the last loop
  // that took the block, so one array serves every loop.
  std::vector<unsigned> Mark(NumBlocks, 0);
  std::vector<BasicBlock *> Work;
  for (unsigned I = 0; I != Loops.size(); ++I) {
    Loop &L = Loops[I];
    const unsigned Stamp = I + 1;
    auto Take = [&](BasicBlock *X) {
      unsigned &M = Mark[X->getNumber()];
      if (M == Stamp)
        return;
      M = Stamp;
      L.Blocks.push_back(X);
      Work.push_back(X);
    };
    Mark[L.Header->getNumber()] = Stamp; // Never walked past.
    L.Blocks.push_back(L.Header);
    for (BasicBlock *Latch : L.Latches)
      Take(Latch);
    while (!Work.empty()) {
      BasicBlock *X = Work.back();
      Work.pop_back();
      unsigned N = X->getNumber();
      for (unsigned K = PredBegin[N]; K != PredBegin[N + 1]; ++K)
        Take(Preds[K]);
    }
    std::sort(L.Blocks.begin(), L.Blocks.end(), byNumber);
  }
  return Loops;
}

bool removeUnreachableBlocks(Function &F, PredecessorMap *Preds) {
  if (F.Blocks.empty())
    return false;
  std::vector<char> Reachable(F.getMaxBlockNumber());
  std::vector<BasicBlock *> Work{F.getEntry()};
  Reachable[F.getEntry()->getNumber()] = 1;
  size_t NumReachable = 1;
  while (!Work.empty()) {
    BasicBlock *B = Work.back();
    Work.pop_back();
    for (BasicBlock *S : B->successors())
      if (!Reachable[S->getNumber()]) {
        Reachable[S->getNumber()] = 1;
        ++NumReachable;
        Work.push_back(S);
      }
  }
  if (NumReachable == F.Blocks.size())
    return false;
  auto Dead = [&Reachable](const std::unique_ptr<BasicBlock> &BB) {
    return !Reachable[BB->getNumber()];
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
