//===- opt/ExtTSPCore.cpp - Ext-TSP scorer and chain solver ---------------===//
//
// The solver keeps, for every block, its chain and its byte offset within
// that chain, and for every pair of chains joined by an edge a bucket with
// those edges (in edge order) and the cached gain of appending either chain
// to the other. Appending Y to X keeps every offset inside X and inside Y,
// so each intra-chain term of score(X + Y) equals its term in score(X) or
// score(Y): the gain of the merge is exactly the score of the cross edges.
// A merge moves the tail chain's buckets onto the head chain and rescores
// only the buckets of the merged chain.
//
//===----------------------------------------------------------------------===//

#include "opt/ExtTSPCore.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace csspgo {
namespace exttsp {

double scoreOfOrder(const Instance &I, const std::vector<unsigned> &Order) {
  constexpr uint64_t NotPlaced = std::numeric_limits<uint64_t>::max();
  // Offsets of each block in the tentative layout.
  std::vector<uint64_t> Offset(I.Sizes.size(), NotPlaced);
  uint64_t Pos = 0;
  for (unsigned B : Order) {
    Offset[B] = Pos;
    Pos += I.Sizes[B];
  }
  double Score = 0;
  for (const Edge &E : I.Edges) {
    if (Offset[E.Src] == NotPlaced || Offset[E.Dst] == NotPlaced)
      continue;
    Score += edgeScore(Offset[E.Src] + I.Sizes[E.Src], Offset[E.Dst],
                       E.Weight);
  }
  return Score;
}

namespace {

constexpr unsigned None = std::numeric_limits<unsigned>::max();

class ChainMerger {
public:
  explicit ChainMerger(const Instance &I);
  std::vector<unsigned> run();

private:
  /// A chain is named by the block it started from; merged-away chains
  /// stay behind empty.
  struct Chain {
    std::vector<unsigned> Blocks;
    uint64_t Size = 0;
    /// (neighbouring chain, bucket of the edges shared with it).
    std::vector<std::pair<unsigned, unsigned>> Adj;
  };
  /// The edges between chains P and Q, ascending, and the cached gains.
  struct Bucket {
    unsigned P = 0, Q = 0;
    std::vector<unsigned> EdgeIds;
    double GainPQ = 0; ///< Gain of appending Q to P.
    double GainQP = 0; ///< Gain of appending P to Q.
    bool Live = true;
  };

  /// Score of \p Bk's edges with the other chain appended to \p Head.
  double gain(unsigned Head, const Bucket &Bk) const;
  void rescore(Bucket &Bk) {
    Bk.GainPQ = gain(Bk.P, Bk);
    Bk.GainQP = gain(Bk.Q, Bk);
  }
  /// Appends chain \p Tail to chain \p Head.
  void merge(unsigned Head, unsigned Tail);

  const Instance &In;
  std::vector<unsigned> ChainOf;
  std::vector<uint64_t> Offset; ///< Within the block's chain.
  std::vector<Chain> Chains;
  std::vector<Bucket> Buckets;
  std::vector<unsigned> Live; ///< Live chains, ascending.
  std::vector<unsigned> BucketWith; ///< Scratch for merge(): by neighbour.
};

ChainMerger::ChainMerger(const Instance &I)
    : In(I), ChainOf(I.Sizes.size()), Offset(I.Sizes.size(), 0),
      Chains(I.Sizes.size()), Live(I.Sizes.size()),
      BucketWith(I.Sizes.size(), None) {
  const unsigned N = static_cast<unsigned>(I.Sizes.size());
  assert((N == 0 || I.Entry < N) && "entry block out of range");
  for (unsigned B = 0; B != N; ++B) {
    ChainOf[B] = B;
    Chains[B].Blocks = {B};
    Chains[B].Size = I.Sizes[B];
    Live[B] = B;
  }
  // One bucket per unordered block pair; a self-loop never crosses chains.
  std::vector<std::pair<uint64_t, unsigned>> Keyed;
  for (unsigned E = 0; E != I.Edges.size(); ++E) {
    const Edge &Ed = I.Edges[E];
    assert(Ed.Src < N && Ed.Dst < N && "edge endpoint out of range");
    if (Ed.Src == Ed.Dst)
      continue;
    uint64_t Lo = std::min(Ed.Src, Ed.Dst), Hi = std::max(Ed.Src, Ed.Dst);
    Keyed.emplace_back(Lo << 32 | Hi, E);
  }
  std::sort(Keyed.begin(), Keyed.end());
  for (size_t K = 0; K != Keyed.size(); ++K) {
    if (K == 0 || Keyed[K].first != Keyed[K - 1].first) {
      Bucket Bk;
      Bk.P = static_cast<unsigned>(Keyed[K].first >> 32);
      Bk.Q = static_cast<unsigned>(Keyed[K].first & 0xFFFFFFFFu);
      unsigned Id = static_cast<unsigned>(Buckets.size());
      Chains[Bk.P].Adj.emplace_back(Bk.Q, Id);
      Chains[Bk.Q].Adj.emplace_back(Bk.P, Id);
      Buckets.push_back(std::move(Bk));
    }
    Buckets.back().EdgeIds.push_back(Keyed[K].second);
  }
  for (Bucket &Bk : Buckets)
    rescore(Bk);
}

double ChainMerger::gain(unsigned Head, const Bucket &Bk) const {
  uint64_t HeadSize = Chains[Head].Size;
  auto Pos = [&](unsigned B) {
    return ChainOf[B] == Head ? Offset[B] : HeadSize + Offset[B];
  };
  double Gain = 0;
  for (unsigned E : Bk.EdgeIds) {
    const Edge &Ed = In.Edges[E];
    Gain += edgeScore(Pos(Ed.Src) + In.Sizes[Ed.Src], Pos(Ed.Dst), Ed.Weight);
  }
  return Gain;
}

void ChainMerger::merge(unsigned Head, unsigned Tail) {
  Chain &H = Chains[Head];
  Chain &T = Chains[Tail];
  for (unsigned B : T.Blocks) {
    ChainOf[B] = Head;
    Offset[B] += H.Size;
  }
  H.Blocks.insert(H.Blocks.end(), T.Blocks.begin(), T.Blocks.end());
  H.Size += T.Size;

  // Move the tail's buckets over: a neighbour of both keeps one bucket
  // with the union of the edges, still in edge order.
  for (auto [C, Bk] : H.Adj)
    BucketWith[C] = Bk;
  for (auto [C, Bk] : T.Adj) {
    Bucket &From = Buckets[Bk];
    if (C == Head) {
      From.Live = false; // Now inside the merged chain.
      continue;
    }
    std::vector<std::pair<unsigned, unsigned>> &CAdj = Chains[C].Adj;
    auto Back = std::find_if(CAdj.begin(), CAdj.end(),
                             [Tail](const auto &A) { return A.first == Tail; });
    assert(Back != CAdj.end() && "bucket adjacency is symmetric");
    if (BucketWith[C] != None) {
      std::vector<unsigned> &Into = Buckets[BucketWith[C]].EdgeIds;
      size_t Mid = Into.size();
      Into.insert(Into.end(), From.EdgeIds.begin(), From.EdgeIds.end());
      std::inplace_merge(Into.begin(), Into.begin() + Mid, Into.end());
      From.Live = false;
      From.EdgeIds.clear();
      *Back = CAdj.back();
      CAdj.pop_back();
    } else {
      (From.P == Tail ? From.P : From.Q) = Head;
      Back->first = Head;
      H.Adj.emplace_back(C, Bk);
    }
  }
  for (auto [C, Bk] : H.Adj)
    BucketWith[C] = None;
  H.Adj.erase(std::remove_if(H.Adj.begin(), H.Adj.end(),
                             [Tail](const auto &A) { return A.first == Tail; }),
              H.Adj.end());
  T = Chain();
  for (auto [C, Bk] : H.Adj)
    rescore(Buckets[Bk]);
}

std::vector<unsigned> ChainMerger::run() {
  while (Live.size() > 1) {
    // The best positive gain; ties go to the smallest (head, tail).
    unsigned Head = None, Tail = None;
    double Best = 0;
    auto Consider = [&](unsigned X, unsigned Y, double Gain) {
      // The entry chain can only be extended at its tail.
      if (Y == In.Entry || Gain <= 0)
        return;
      if (Head == None || Gain > Best ||
          (Gain == Best && std::make_pair(X, Y) < std::make_pair(Head, Tail))) {
        Best = Gain;
        Head = X;
        Tail = Y;
      }
    };
    for (const Bucket &Bk : Buckets) {
      if (!Bk.Live)
        continue;
      Consider(Bk.P, Bk.Q, Bk.GainPQ);
      Consider(Bk.Q, Bk.P, Bk.GainQP);
    }
    if (Head == None) {
      // Nothing gains: the first valid pair in chain order.
      Head = Live[0];
      auto It = std::find_if(Live.begin(), Live.end(), [&](unsigned C) {
        return C != Head && C != In.Entry;
      });
      if (It == Live.end()) {
        Tail = Head;
        Head = In.Entry;
      } else {
        Tail = *It;
      }
    }
    merge(Head, Tail);
    Live.erase(std::lower_bound(Live.begin(), Live.end(), Tail));
  }
  if (Live.empty())
    return {};
  assert(Live.front() == In.Entry && "the entry chain absorbs every other");
  return std::move(Chains[Live.front()].Blocks);
}

} // namespace

std::vector<unsigned> solve(const Instance &I) {
  return ChainMerger(I).run();
}

} // namespace exttsp
} // namespace csspgo
