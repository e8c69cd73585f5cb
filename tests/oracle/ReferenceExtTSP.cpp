//===- tests/oracle/ReferenceExtTSP.cpp - Rescoring Ext-TSP solver --------===//
//
// The Ext-TSP chain merger and the large-function fallback that block
// layout shipped before the incremental solver: every merge step rescores
// every ordered chain pair from scratch as score(A + B) - score(A) -
// score(B), and functions above 64 blocks were laid out by greedy
// fallthrough chaining instead. Both are kept as written so the solver in
// opt/ExtTSPCore.cpp has an independent second implementation to match
// and a floor to beat.
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracle.h"

#include "ir/CFG.h"

#include <algorithm>
#include <cstdio>
#include <string>

namespace csspgo {

namespace {

/// A chain of blocks under construction.
struct Chain {
  std::vector<unsigned> Blocks;
  uint64_t Size = 0;
  bool ContainsEntry = false;
};

class ReferenceSolver {
public:
  ReferenceSolver(std::vector<uint64_t> Sizes, std::vector<exttsp::Edge> Edges,
                  unsigned EntryIdx) {
    In.Sizes = std::move(Sizes);
    In.Edges = std::move(Edges);
    In.Entry = EntryIdx;
    for (unsigned I = 0; I != In.Sizes.size(); ++I) {
      Chain C;
      C.Blocks = {I};
      C.Size = In.Sizes[I];
      C.ContainsEntry = I == EntryIdx;
      Chains.push_back(std::move(C));
    }
  }

  double scoreOfOrder(const std::vector<unsigned> &Order) const {
    return exttsp::scoreOfOrder(In, Order);
  }

  /// Runs greedy chain merging and returns the final block permutation,
  /// entry chain first.
  std::vector<unsigned> run() {
    // Greedy chain merging: pick the pair/orientation with the best gain.
    while (Chains.size() > 1) {
      double BestGain = 0;
      size_t BestA = 0, BestB = 0;
      bool Found = false;
      for (size_t I = 0; I != Chains.size(); ++I) {
        for (size_t J = 0; J != Chains.size(); ++J) {
          if (I == J)
            continue;
          // The entry chain can only be extended at its tail.
          if (Chains[J].ContainsEntry)
            continue;
          double Base =
              scoreOfOrder(Chains[I].Blocks) + scoreOfOrder(Chains[J].Blocks);
          double Gain = scoreMerge(Chains[I], Chains[J]) - Base;
          if (!Found || Gain > BestGain) {
            BestGain = Gain;
            BestA = I;
            BestB = J;
            Found = true;
          }
        }
      }
      if (!Found)
        break;
      // Merge B into A.
      Chain &A = Chains[BestA];
      Chain &B = Chains[BestB];
      A.Blocks.insert(A.Blocks.end(), B.Blocks.begin(), B.Blocks.end());
      A.Size += B.Size;
      A.ContainsEntry |= B.ContainsEntry;
      Chains.erase(Chains.begin() + static_cast<ptrdiff_t>(BestB));
    }

    // Entry chain first, then remaining chains by decreasing hotness proxy
    // (we keep insertion order — remaining chains are cold).
    std::stable_sort(Chains.begin(), Chains.end(),
                     [](const Chain &X, const Chain &Y) {
                       return X.ContainsEntry > Y.ContainsEntry;
                     });
    std::vector<unsigned> Order;
    for (const Chain &C : Chains)
      Order.insert(Order.end(), C.Blocks.begin(), C.Blocks.end());
    return Order;
  }

private:
  double scoreMerge(const Chain &A, const Chain &B) const {
    std::vector<unsigned> Order = A.Blocks;
    Order.insert(Order.end(), B.Blocks.begin(), B.Blocks.end());
    return scoreOfOrder(Order);
  }

  exttsp::Instance In;
  std::vector<Chain> Chains;
};

std::string describeInstance(const exttsp::Instance &In) {
  std::string S = "entry " + std::to_string(In.Entry) + "; sizes";
  for (uint64_t Size : In.Sizes) {
    S += ' ';
    S += std::to_string(Size);
  }
  S += "; edges";
  for (const exttsp::Edge &E : In.Edges) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), " %u->%u:%.17g", E.Src, E.Dst, E.Weight);
    S += Buf;
  }
  return S;
}

std::string describeOrder(const std::vector<unsigned> &Order) {
  std::string S;
  for (unsigned B : Order) {
    if (!S.empty())
      S += ' ';
    S += std::to_string(B);
  }
  return S;
}

} // namespace

std::vector<unsigned> referenceExtTSPOrder(const exttsp::Instance &In) {
  return ReferenceSolver(In.Sizes, In.Edges, In.Entry).run();
}

std::vector<unsigned> greedyChainOrder(Function &F) {
  unsigned N = static_cast<unsigned>(F.Blocks.size());
  std::vector<bool> Placed(N, false);
  std::vector<unsigned> ByHotness(N);
  for (unsigned I = 0; I != N; ++I)
    ByHotness[I] = I;
  std::stable_sort(ByHotness.begin(), ByHotness.end(),
                   [&F](unsigned A, unsigned B) {
                     return F.Blocks[A]->Count > F.Blocks[B]->Count;
                   });

  std::vector<unsigned> Order;
  auto Extend = [&](unsigned Start) {
    unsigned Cur = Start;
    while (true) {
      Placed[Cur] = true;
      Order.push_back(Cur);
      BasicBlock *B = F.Blocks[Cur].get();
      auto Succs = B->successors();
      unsigned Best = N;
      uint64_t BestW = 0;
      for (unsigned S = 0; S != Succs.size(); ++S) {
        unsigned Idx = F.blockIndex(Succs[S]);
        if (Placed[Idx])
          continue;
        uint64_t W = B->succWeight(S);
        if (Best == N || W > BestW) {
          Best = Idx;
          BestW = W;
        }
      }
      if (Best == N)
        return;
      Cur = Best;
    }
  };
  Extend(0); // Entry chain first.
  for (unsigned I : ByHotness)
    if (!Placed[I])
      Extend(I);
  return Order;
}

LayoutMatch matchExtTSPReference(const exttsp::Instance &In,
                                 const std::vector<unsigned> &Order,
                                 std::string *Why) {
  std::vector<unsigned> Ref = referenceExtTSPOrder(In);
  if (Order == Ref)
    return LayoutMatch::Identical;
  if (std::is_permutation(Order.begin(), Order.end(), Ref.begin(),
                          Ref.end()) &&
      exttsp::scoreOfOrder(In, Order) == exttsp::scoreOfOrder(In, Ref))
    return LayoutMatch::EqualScore;

  // Replay the merges: every ordered chain pair gets its exact gain, and,
  // until the first departure, the reference's rounded one.
  const unsigned N = static_cast<unsigned>(In.Sizes.size());
  double Tolerance = 0;
  for (const exttsp::Edge &E : In.Edges)
    Tolerance += E.Weight;
  Tolerance *= 1e-12;
  std::vector<Chain> Chains;
  for (unsigned B = 0; B != N; ++B) {
    Chain C;
    C.Blocks = {B};
    C.Size = In.Sizes[B];
    C.ContainsEntry = B == In.Entry;
    Chains.push_back(std::move(C));
  }
  std::vector<int> Side(N, 0);
  std::vector<uint64_t> Offset(N, 0);
  auto ExactGain = [&](const Chain &X, const Chain &Y) {
    uint64_t Pos = 0;
    for (const Chain *C : {&X, &Y})
      for (unsigned B : C->Blocks) {
        Side[B] = C == &X ? 1 : 2;
        Offset[B] = Pos;
        Pos += In.Sizes[B];
      }
    double Gain = 0;
    for (const exttsp::Edge &E : In.Edges)
      if (Side[E.Src] && Side[E.Dst] && Side[E.Src] != Side[E.Dst])
        Gain += exttsp::edgeScore(Offset[E.Src] + In.Sizes[E.Src],
                                  Offset[E.Dst], E.Weight);
    for (const Chain *C : {&X, &Y})
      for (unsigned B : C->Blocks)
        Side[B] = 0;
    return Gain;
  };
  auto Score = [&](const std::vector<unsigned> &Blocks) {
    return exttsp::scoreOfOrder(In, Blocks);
  };
  auto Fail = [&](const std::string &Msg) {
    if (Why)
      *Why = Msg + "; order [" + describeOrder(Order) + "], reference [" +
             describeOrder(Ref) + "]; instance: " + describeInstance(In);
    return LayoutMatch::Diverged;
  };

  bool Departed = false;
  for (unsigned Step = 0; Chains.size() > 1; ++Step) {
    const size_t None = Chains.size();
    size_t FirstI = None, FirstJ = None, BestI = None, BestJ = None;
    size_t RefI = None, RefJ = None;
    double Best = 0, RefBest = 0;
    for (size_t I = 0; I != Chains.size(); ++I)
      for (size_t J = 0; J != Chains.size(); ++J) {
        if (I == J || Chains[J].ContainsEntry)
          continue;
        if (FirstI == None) {
          FirstI = I;
          FirstJ = J;
        }
        double Gain = ExactGain(Chains[I], Chains[J]);
        if (Gain > 0 && (BestI == None || Gain > Best)) {
          Best = Gain;
          BestI = I;
          BestJ = J;
        }
        if (Departed)
          continue;
        std::vector<unsigned> Merged = Chains[I].Blocks;
        Merged.insert(Merged.end(), Chains[J].Blocks.begin(),
                      Chains[J].Blocks.end());
        double Base = Score(Chains[I].Blocks) + Score(Chains[J].Blocks);
        double Rounded = Score(Merged) - Base;
        if (RefI == None || Rounded > RefBest) {
          RefBest = Rounded;
          RefI = I;
          RefJ = J;
        }
      }
    if (BestI == None) {
      BestI = FirstI;
      BestJ = FirstJ;
    }
    if (!Departed && (RefI != BestI || RefJ != BestJ)) {
      Departed = true;
      double RefGain = ExactGain(Chains[RefI], Chains[RefJ]);
      if (Best - RefGain > Tolerance) {
        char Buf[160];
        std::snprintf(Buf, sizeof(Buf),
                      "merge %u: the reference's pair gains %.17g, the "
                      "best pair %.17g",
                      Step, RefGain, Best);
        return Fail(Buf);
      }
    }
    Chain &A = Chains[BestI];
    Chain &B = Chains[BestJ];
    A.Blocks.insert(A.Blocks.end(), B.Blocks.begin(), B.Blocks.end());
    A.Size += B.Size;
    A.ContainsEntry |= B.ContainsEntry;
    Chains.erase(Chains.begin() + static_cast<ptrdiff_t>(BestJ));
  }
  if (Chains.empty() || Chains.front().Blocks != Order)
    return Fail("the order is not the one the exact gains lead to");
  return LayoutMatch::ExactTie;
}

std::string diffRandomExtTSP(Rng &R) {
  exttsp::Instance In;
  const unsigned N =
      1 + static_cast<unsigned>(R.nextBelow(R.nextBool(0.8) ? 12 : 24));
  for (unsigned B = 0; B != N; ++B)
    // Zero-size blocks stand for probe-only blocks; sizes straddle the
    // forward and backward jump distances.
    In.Sizes.push_back(R.nextBool(0.15) ? 0 : 1 + R.nextBelow(400));
  In.Entry = static_cast<unsigned>(R.nextBelow(N));
  // Self-loops and parallel edges arise freely; small integer weights
  // make equal gains common, so the tie rule is exercised.
  In.Edges.resize(R.nextBelow(3 * static_cast<uint64_t>(N) + 1));
  for (exttsp::Edge &E : In.Edges) {
    E.Src = static_cast<unsigned>(R.nextBelow(N));
    E.Dst = static_cast<unsigned>(R.nextBelow(N));
    uint64_t MaxWeight = R.nextBool(0.5) ? 8 : 5000;
    E.Weight =
        R.nextBool(0.15) ? 0.0 : static_cast<double>(1 + R.nextBelow(MaxWeight));
  }

  std::vector<unsigned> Order = exttsp::solve(In);
  if (Order.empty() || Order.front() != In.Entry)
    return "the entry block does not lead the order [" +
           describeOrder(Order) + "]; instance: " + describeInstance(In);
  std::string Why;
  if (matchExtTSPReference(In, Order, &Why) == LayoutMatch::Diverged)
    return Why;
  return std::string();
}

} // namespace csspgo
