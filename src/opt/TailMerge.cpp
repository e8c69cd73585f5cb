//===- opt/TailMerge.cpp - Code merge ---------------------------------------===//
//
// Merges identical basic blocks (the "tail merge" family of §III-A "Code
// Merge"). Two blocks merge when their instruction sequences are identical
// and they branch to the same successors; predecessors of the duplicate are
// redirected to the survivor.
//
// This is the transformation with *no* sound profile-preserving form: after
// the merge, the combined execution count can no longer be attributed to
// the two original program locations. Consequences per PGO variant:
//  - AutoFDO (no anchors): blocks merge freely; the survivor keeps its own
//    debug lines, so in the next profiling iteration the duplicate's source
//    lines receive zero samples and the survivor's lines absorb both
//    counts — the correlation damage the paper describes.
//  - CSSPGO: each block carries a pseudo-probe with a distinct id, so
//    Instruction::isIdenticalTo fails and the merge is blocked, preserving
//    the original control flow for correlation. This holds at *both*
//    barrier strengths (merge is never unblocked, matching the paper).
//  - Instr PGO: counter increments with distinct counter ids likewise block
//    the merge (the classic "instrumentation as optimization barrier").
//
// Profile maintenance: the survivor's count becomes the sum.
//
//===----------------------------------------------------------------------===//

#include "ir/CFG.h"
#include "opt/PassManager.h"
#include "support/Hashing.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <unordered_map>

namespace csspgo {

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

/// Splits the common suffix of \p A and \p B into a fresh shared block
/// and returns it. Both blocks must currently end with identical
/// terminators.
static BasicBlock *mergeSuffix(Function &F, BasicBlock *A, BasicBlock *B,
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
  return T;
}

/// A hash that agrees with Instruction::isIdenticalTo: identical
/// instructions hash equal. It covers what isIdenticalTo compares and
/// nothing else (debug locations and profile data stay out), and an
/// anchor's identity only where isIdenticalTo checks it.
static uint64_t hashInstruction(const Instruction &I) {
  uint64_t H = (static_cast<uint64_t>(I.Op) << 40) ^
               (static_cast<uint64_t>(I.IsTailCall) << 32) ^ I.Dst;
  auto Add = [&H](uint64_t V) { H = hashCombine(H, V); };
  auto AddOperand = [&Add](const Operand &O) {
    Add((static_cast<uint64_t>(O.K) << 62) ^ static_cast<uint64_t>(O.Val));
  };
  AddOperand(I.A);
  AddOperand(I.B);
  AddOperand(I.C);
  for (const Operand &O : I.Args)
    AddOperand(O);
  if (!I.Callee.empty())
    Add(std::hash<std::string>()(I.Callee));
  Add(reinterpret_cast<uintptr_t>(I.Succ0) ^
      (reinterpret_cast<uintptr_t>(I.Succ1) << 1));
  if (I.isIntrinsic() || (I.isCall() && I.ProbeId != 0))
    Add((static_cast<uint64_t>(I.ProbeId) << 32) ^ I.OriginGuid);
  return H;
}

/// Partial merges factor out a common tail of at least this many
/// instructions (terminator + 2).
constexpr size_t MinSuffix = 3;

/// The candidate keys of one block: a hash of all of its instructions,
/// and one of its last MinSuffix (0 when the block is too short to give
/// up a tail of that length and keep an instruction).
struct BlockKeys {
  uint64_t Whole = 0;
  uint64_t Tail = 0;
};

static BlockKeys keysOf(const BasicBlock &B) {
  BlockKeys K;
  K.Whole = B.Insts.size();
  size_t TailFrom = B.Insts.size() - std::min(B.Insts.size(), MinSuffix);
  for (size_t I = 0; I != B.Insts.size(); ++I) {
    uint64_t H = hashInstruction(B.Insts[I]);
    K.Whole = hashCombine(K.Whole, H);
    if (I >= TailFrom)
      K.Tail = hashCombine(K.Tail, H);
  }
  // 0 is "not a candidate"; remapping a hash keeps it agreeing.
  K.Whole = K.Whole ? K.Whole : 1;
  if (B.Insts.size() <= MinSuffix)
    K.Tail = 0;
  else
    K.Tail = K.Tail ? K.Tail : 1;
  return K;
}

/// Returns the first (I, J), I < J, in index order whose blocks share a
/// nonzero key and satisfy \p Accept, or (0, 0). Only blocks in one key's
/// bucket are compared, so \p Accept must fail for blocks whose keys
/// differ.
template <typename AcceptFn>
static std::pair<size_t, size_t> firstPair(const std::vector<uint64_t> &Keys,
                                           AcceptFn Accept) {
  // Sorted by (key, index), each key's bucket is one run in index order.
  std::vector<std::pair<uint64_t, size_t>> Sorted;
  for (size_t I = 0; I != Keys.size(); ++I)
    if (Keys[I])
      Sorted.emplace_back(Keys[I], I);
  std::sort(Sorted.begin(), Sorted.end());
  std::vector<size_t> Pos(Keys.size());
  for (size_t P = 0; P != Sorted.size(); ++P)
    Pos[Sorted[P].second] = P;
  for (size_t I = 0; I != Keys.size(); ++I) {
    if (!Keys[I])
      continue;
    for (size_t P = Pos[I] + 1;
         P != Sorted.size() && Sorted[P].first == Keys[I]; ++P)
      if (Accept(I, Sorted[P].second))
        return {I, Sorted[P].second};
  }
  return {0, 0};
}

unsigned runTailMerge(Function &F, const OptOptions &Opts) {
  (void)Opts; // Merging is blocked by anchors at any barrier strength.
  unsigned Changed = 0;
  PredecessorMap Preds(F);
  // Keys per block, dropped whenever a block's instructions change.
  std::unordered_map<const BasicBlock *, BlockKeys> KeyCache;
  auto KeysOf = [&KeyCache](const BasicBlock *B) -> const BlockKeys & {
    auto It = KeyCache.find(B);
    if (It == KeyCache.end())
      It = KeyCache.emplace(B, keysOf(*B)).first;
    return It->second;
  };
  std::vector<uint64_t> Keys;
  // Each step takes the first pair in (I, J) index order, whole-block
  // merges before partial ones, and rescans after every merge.
  while (true) {
    Keys.clear();
    for (auto &BB : F.Blocks)
      Keys.push_back(KeysOf(BB.get()).Whole);
    // Whole-block merges first. J > I >= 0, so B is never the entry.
    auto [I, J] = firstPair(Keys, [&F](size_t I, size_t J) {
      return blocksIdentical(*F.Blocks[I], *F.Blocks[J]);
    });
    if (J) {
      // Merge B into A.
      BasicBlock *A = F.Blocks[I].get();
      BasicBlock *B = F.Blocks[J].get();
      std::vector<BasicBlock *> BPreds = Preds[B];
      BPreds.erase(std::unique(BPreds.begin(), BPreds.end()), BPreds.end());
      for (BasicBlock *P : BPreds) {
        Preds.detachSuccessors(P);
        P->replaceSuccessor(B, A);
        Preds.attachSuccessors(P);
        KeyCache.erase(P);
      }
      if (A->HasCount || B->HasCount)
        A->setCount(A->Count + B->Count);
      Preds.eraseBlock(B);
      KeyCache.erase(B);
      F.eraseBlock(B);
      ++Changed;
      continue;
    }
    // Partial (suffix) merges: factor a common tail of >= MinSuffix
    // instructions into a shared block.
    Keys.clear();
    for (auto &BB : F.Blocks)
      Keys.push_back(KeysOf(BB.get()).Tail);
    size_t Suffix = 0;
    std::tie(I, J) = firstPair(Keys, [&F, &Suffix](size_t I, size_t J) {
      const BasicBlock &A = *F.Blocks[I], &B = *F.Blocks[J];
      Suffix = commonSuffixLen(A, B);
      return Suffix >= MinSuffix && Suffix < A.Insts.size() &&
             Suffix < B.Insts.size();
    });
    if (!J)
      break;
    BasicBlock *A = F.Blocks[I].get();
    BasicBlock *B = F.Blocks[J].get();
    Preds.detachSuccessors(A);
    Preds.detachSuccessors(B);
    BasicBlock *T = mergeSuffix(F, A, B, Suffix);
    Preds.addBlock(T);
    for (BasicBlock *X : {A, B, T})
      Preds.attachSuccessors(X);
    KeyCache.erase(A);
    KeyCache.erase(B);
    ++Changed;
  }
  return Changed;
}

} // namespace csspgo
