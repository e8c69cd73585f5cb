//===- preinline/ProfiledCallGraph.cpp - Profiled call graph ----------------===//

#include "preinline/ProfiledCallGraph.h"

#include <algorithm>
#include <functional>
#include <set>

namespace csspgo {

ProfiledCallGraph
ProfiledCallGraph::fromProfile(const ContextProfile &Profile) {
  ProfiledCallGraph G;
  std::set<std::string> NodeSet;
  Profile.forEachNode([&G, &NodeSet](const SampleContext &Ctx,
                                     const ContextTrieNode &N) {
    const std::string &Caller = Ctx.back().Func;
    NodeSet.insert(Caller);
    // Out-of-line calls observed as LBR call branches.
    for (const auto &[Site, Targets] : N.Profile.Calls) {
      for (const auto &[Callee, Count] : Targets) {
        G.Edges[Caller][Callee] += Count;
        G.InWeight[Callee] += Count;
        NodeSet.insert(Callee);
      }
    }
    // Caller->callee edges implied by the context structure itself: a
    // context [.. A:s @ B] proves A calls (or inlined) B, even when no
    // call branch exists in the binary because B's copy was inlined.
    for (size_t I = 0; I + 1 < Ctx.size(); ++I) {
      G.Edges[Ctx[I].Func][Ctx[I + 1].Func] += N.Profile.TotalSamples;
      G.InWeight[Ctx[I + 1].Func] += N.Profile.TotalSamples;
      NodeSet.insert(Ctx[I].Func);
      NodeSet.insert(Ctx[I + 1].Func);
    }
  });
  G.Nodes.assign(NodeSet.begin(), NodeSet.end());
  return G;
}

std::vector<std::string> ProfiledCallGraph::topDownOrder() const {
  // DFS post-order from root candidates (no incoming weight first, then by
  // decreasing out weight), reversed. Cycles are cut by the visited set;
  // starting at the heaviest roots keeps the hot tree intact.
  std::vector<std::string> Roots;
  for (const std::string &N : Nodes)
    if (!InWeight.count(N))
      Roots.push_back(N);
  // Fall back to every node as a potential root (cycle-only graphs).
  std::vector<std::string> Order;
  std::set<std::string> Visited;
  std::function<void(const std::string &)> Visit =
      [&](const std::string &N) {
        if (!Visited.insert(N).second)
          return;
        auto It = Edges.find(N);
        if (It != Edges.end()) {
          // Visit heavier callees first for a stable, hotness-biased order.
          std::vector<std::pair<uint64_t, std::string>> Sorted;
          for (const auto &[Callee, W] : It->second)
            Sorted.emplace_back(W, Callee);
          std::sort(Sorted.rbegin(), Sorted.rend());
          for (const auto &[W, Callee] : Sorted)
            Visit(Callee);
        }
        Order.push_back(N);
      };
  for (const std::string &R : Roots)
    Visit(R);
  for (const std::string &N : Nodes)
    Visit(N);
  std::reverse(Order.begin(), Order.end());
  return Order;
}

} // namespace csspgo
