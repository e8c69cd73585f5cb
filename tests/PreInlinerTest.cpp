//===- tests/PreInlinerTest.cpp - pre-inliner tests -------------*- C++ -*-===//

#include "preinline/PreInliner.h"
#include "preinline/ProfiledCallGraph.h"

#include <gtest/gtest.h>

using namespace csspgo;

namespace {

/// CS profile: main -> {svcA, svcB} -> shared, svcA hot, svcB cold.
ContextProfile makeTrie() {
  ContextProfile CS;
  auto AddNode = [&CS](const SampleContext &Ctx, uint64_t Total,
                       uint64_t CallSite = 0, const std::string &Callee = "",
                       uint64_t CallCount = 0) -> ContextTrieNode & {
    ContextTrieNode &N = CS.getOrCreateNode(Ctx);
    N.HasProfile = true;
    N.Profile.addBody({1, 0}, Total);
    if (!Callee.empty())
      N.Profile.addCall({static_cast<uint32_t>(CallSite), 0}, Callee,
                        CallCount);
    return N;
  };
  AddNode({{"main", 0}}, 100, 2, "svcA", 5000);
  CS.findNode({{"main", 0u}})->Profile.addCall({3, 0}, "svcB", 10);
  AddNode({{"main", 2}, {"svcA", 0}}, 5000, 4, "shared", 5000);
  AddNode({{"main", 3}, {"svcB", 0}}, 10, 4, "shared", 10);
  AddNode({{"main", 2}, {"svcA", 4}, {"shared", 0}}, 4800);
  AddNode({{"main", 3}, {"svcB", 4}, {"shared", 0}}, 9);
  return CS;
}

/// Size table where every context costs \p Bytes.
FuncSizeTable flatSizes(uint64_t Bytes) {
  FuncSizeTable T;
  for (const char *F : {"main", "svcA", "svcB", "shared"})
    T.add({{F, 0}}, Bytes);
  return T;
}

} // namespace

TEST(ProfiledCallGraph, EdgesFromCallsAndContexts) {
  ContextProfile CS = makeTrie();
  ProfiledCallGraph G = ProfiledCallGraph::fromProfile(CS);
  auto EdgeWeight = [&G](const std::string &From, const std::string &To) {
    auto It = G.edges().find(From);
    if (It == G.edges().end())
      return uint64_t(0);
    auto It2 = It->second.find(To);
    return It2 == It->second.end() ? 0 : It2->second;
  };
  EXPECT_GT(EdgeWeight("main", "svcA"), 0u);
  EXPECT_GT(EdgeWeight("svcA", "shared"), 0u);
  EXPECT_EQ(EdgeWeight("shared", "main"), 0u);
}

TEST(ProfiledCallGraph, TopDownOrderCallersFirst) {
  ContextProfile CS = makeTrie();
  ProfiledCallGraph G = ProfiledCallGraph::fromProfile(CS);
  auto Order = G.topDownOrder();
  auto Pos = [&Order](const std::string &N) {
    for (size_t I = 0; I != Order.size(); ++I)
      if (Order[I] == N)
        return I;
    return Order.size();
  };
  EXPECT_LT(Pos("main"), Pos("svcA"));
  EXPECT_LT(Pos("svcA"), Pos("shared"));
}

TEST(PreInliner, MarksHotContextsOnly) {
  ContextProfile CS = makeTrie();
  FuncSizeTable Sizes = flatSizes(100);
  PreInlinerOptions Opts;
  Opts.HotThreshold = 1000;
  PreInlinerStats Stats = runPreInliner(CS, Sizes, Opts);
  EXPECT_GE(Stats.ContextsMarkedInlined, 2u); // svcA chain.

  const ContextTrieNode *HotSvc = CS.findNode({{"main", 2u}, {"svcA", 0u}});
  ASSERT_NE(HotSvc, nullptr);
  EXPECT_TRUE(HotSvc->ShouldBeInlined);
  // The cold svcB context was merged into svcB's base, not marked.
  const ContextTrieNode *ColdSvc = CS.findNode({{"main", 3u}, {"svcB", 0u}});
  if (ColdSvc) {
    EXPECT_FALSE(ColdSvc->ShouldBeInlined);
  }
  const ContextTrieNode *Base = CS.findBase("svcB");
  ASSERT_NE(Base, nullptr);
  EXPECT_TRUE(Base->HasProfile);
}

TEST(PreInliner, SizeCapBlocksLargeCandidates) {
  ContextProfile CS = makeTrie();
  FuncSizeTable Sizes = flatSizes(100000); // Everything enormous.
  PreInlinerOptions Opts;
  Opts.HotThreshold = 1000;
  PreInlinerStats Stats = runPreInliner(CS, Sizes, Opts);
  EXPECT_EQ(Stats.ContextsMarkedInlined, 0u);
}

TEST(PreInliner, BudgetLimitsTotalGrowth) {
  ContextProfile CS = makeTrie();
  FuncSizeTable Sizes = flatSizes(300);
  PreInlinerOptions Opts;
  Opts.HotThreshold = 1;
  Opts.SizeLimitBytes = 350; // Room for barely one candidate.
  PreInlinerStats Stats = runPreInliner(CS, Sizes, Opts);
  // Each function may add at most one candidate (350 < 300*2).
  EXPECT_LE(Stats.ContextsMarkedInlined, 3u);
}

TEST(PreInliner, PromotionPreservesTotalSamples) {
  ContextProfile CS = makeTrie();
  uint64_t Before = CS.totalSamples();
  FuncSizeTable Sizes = flatSizes(100);
  PreInlinerOptions Opts;
  Opts.HotThreshold = 1000;
  runPreInliner(CS, Sizes, Opts);
  EXPECT_EQ(CS.totalSamples(), Before)
      << "moving context profiles to base must conserve samples";
}

TEST(SizeTable, AveragesAcrossCopies) {
  FuncSizeTable T;
  T.add({{"f", 0}}, 100);
  T.add({{"g", 1}, {"f", 0}}, 50);
  EXPECT_EQ(T.averageSizeFor("f"), 75u);
  // Unknown context falls back to the average.
  EXPECT_EQ(T.sizeForContext({{"h", 2}, {"f", 0}}), 75u);
  EXPECT_EQ(T.sizeForContext({{"unknown", 0}}), 0u);
}
