//===- tests/InferenceTest.cpp - profile inference tests --------*- C++ -*-===//

#include "inference/MinCostFlow.h"
#include "inference/ProfileInference.h"
#include "opt/Inliner.h"
#include "pgo/PGODriver.h"
#include "pgo/ProfilePipeline.h"
#include "probe/ProbeInserter.h"
#include "support/Random.h"
#include "workload/Workloads.h"

#include "TestHelpers.h"
#include "oracle/Oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

using namespace csspgo;
using namespace csspgo::testing;

namespace {

/// A straight-line function of \p N blocks, block I annotated with
/// Counts(I).
template <typename CountFn>
Function *addChainFunction(Module &M, int N, CountFn Counts) {
  Function *F = M.createFunction("chain", 0);
  Builder B(F);
  std::vector<BasicBlock *> Chain;
  for (int I = 0; I != N; ++I)
    Chain.push_back(F->createBlock("c"));
  for (int I = 0; I != N; ++I) {
    B.setInsertBlock(Chain[I]);
    B.emitConst(I);
    if (I + 1 < N)
      B.emitBr(Chain[I + 1]);
    else
      B.emitRet(Operand::imm(0));
    Chain[I]->setCount(Counts(I));
  }
  return F;
}

} // namespace

TEST(MinCostFlow, FindsRewardingCirculation) {
  // Triangle a->b->c->a with one rewarded edge of capacity 10.
  MinCostFlowSolver S;
  int A = S.addNode(), B = S.addNode(), C = S.addNode();
  int Rewarded = S.addEdge(A, B, 10, -5);
  S.addEdge(B, C, 100, 1);
  S.addEdge(C, A, 100, 1);
  S.solve();
  EXPECT_EQ(S.flowOn(Rewarded), 10);
}

TEST(MinCostFlow, NoNegativeCycleNoFlow) {
  MinCostFlowSolver S;
  int A = S.addNode(), B = S.addNode();
  int E1 = S.addEdge(A, B, 10, 1);
  int E2 = S.addEdge(B, A, 10, 1);
  S.solve();
  EXPECT_EQ(S.flowOn(E1), 0);
  EXPECT_EQ(S.flowOn(E2), 0);
}

TEST(MinCostFlow, PicksCheaperOfTwoPaths) {
  // a->b reward; two return paths b->a with costs 1 and 3.
  MinCostFlowSolver S;
  int A = S.addNode(), B = S.addNode();
  S.addEdge(A, B, 10, -10);
  int Cheap = S.addEdge(B, A, 6, 1);
  int Pricey = S.addEdge(B, A, 10, 3);
  S.solve();
  EXPECT_EQ(S.flowOn(Cheap), 6);
  EXPECT_EQ(S.flowOn(Pricey), 4);
}

TEST(Inference, MakesDiamondConsistent) {
  Module M("m");
  Function *F = addBranchyFunction(M, "f");
  // Inconsistent raw counts: entry 100, arms 60+70 (=130), join 90.
  F->Blocks[0]->setCount(100);
  F->Blocks[1]->setCount(60);
  F->Blocks[2]->setCount(70);
  F->Blocks[3]->setCount(90);
  inferFunctionProfile(*F);
  EXPECT_TRUE(isProfileConsistent(*F, 1));
  // Total arm flow equals entry flow.
  EXPECT_EQ(F->Blocks[1]->Count + F->Blocks[2]->Count, F->Blocks[0]->Count);
  EXPECT_EQ(F->Blocks[3]->Count, F->Blocks[0]->Count);
}

TEST(Inference, DerivesEdgeWeights) {
  Module M("m");
  Function *F = addBranchyFunction(M, "f");
  F->Blocks[0]->setCount(100);
  F->Blocks[1]->setCount(90);
  F->Blocks[2]->setCount(10);
  F->Blocks[3]->setCount(100);
  inferFunctionProfile(*F);
  ASSERT_EQ(F->Blocks[0]->SuccWeights.size(), 2u);
  EXPECT_GT(F->Blocks[0]->SuccWeights[0], F->Blocks[0]->SuccWeights[1]);
}

TEST(Inference, LoopFlowsConserve) {
  Module M("m");
  Function *F = addLoopFunction(M, "f");
  F->Blocks[0]->setCount(10);   // entry
  F->Blocks[1]->setCount(1000); // header
  F->Blocks[2]->setCount(985);  // body (noisy)
  F->Blocks[3]->setCount(10);   // exit
  inferFunctionProfile(*F);
  EXPECT_TRUE(isProfileConsistent(*F, 1));
  // Header = entry + body backedge.
  EXPECT_EQ(F->Blocks[1]->Count,
            F->Blocks[0]->Count + F->Blocks[2]->Count);
}

TEST(Inference, ZeroProfileIsNoop) {
  Module M("m");
  Function *F = addBranchyFunction(M, "f");
  inferFunctionProfile(*F);
  EXPECT_FALSE(F->Blocks[0]->HasCount);
}

TEST(Inference, UnmeasuredBlocksReceiveFlow) {
  Module M("m");
  Function *F = addBranchyFunction(M, "f");
  F->Blocks[0]->setCount(100);
  F->Blocks[1]->setCount(100); // then
  // else and join unmeasured.
  inferFunctionProfile(*F);
  EXPECT_TRUE(isProfileConsistent(*F, 1));
  EXPECT_EQ(F->Blocks[3]->Count, 100u) << "join must carry the flow";
}

TEST(Inference, LargeFunctionFallbackStaysSane) {
  // A long noisy chain: no block's inferred count drops below the
  // smallest measured count.
  Module M("m");
  Function *F =
      addChainFunction(M, 200, [](int I) { return I % 7 == 0 ? 90 : 100; });
  inferFunctionProfile(*F);
  for (int I = 0; I != 200; ++I)
    EXPECT_GE(F->Blocks[I]->Count, 90u);
}

TEST(Inference, LargeFunctionIsFlowConsistent) {
  // Every function size gets the exact solver: a 700-block chain with one
  // outlier count still comes out flow-consistent.
  Module M("m");
  Function *F =
      addChainFunction(M, 700, [](int I) { return I == 350 ? 200 : 100; });
  inferFunctionProfile(*F);
  EXPECT_TRUE(isProfileConsistent(*F, 1));
  EXPECT_EQ(F->Blocks[0]->Count, 100u);
}

TEST(Inference, SaturatedCountsStayHot) {
  const uint64_t Huge = uint64_t(1) << 41;
  Module M("m");
  Function *F = addChainFunction(M, 4, [&](int) { return Huge; });
  inferFunctionProfile(*F);
  EXPECT_TRUE(isProfileConsistent(*F, 0));
  for (auto &BB : F->Blocks)
    EXPECT_EQ(BB->Count, Huge);

  // What the saturating merges produce: still the function's hottest
  // count, never zero.
  Module M2("m2");
  Function *G = addChainFunction(
      M2, 4, [](int) { return std::numeric_limits<uint64_t>::max(); });
  inferFunctionProfile(*G);
  EXPECT_TRUE(isProfileConsistent(*G, 0));
  for (auto &BB : G->Blocks)
    EXPECT_GE(BB->Count, uint64_t(1) << 59);
}

TEST(MinCostFlow, MatchesReferenceObjectiveOnRandomNetworks) {
  for (uint64_t Seed = 1; Seed != 1001; ++Seed) {
    Rng R(Seed);
    std::string Diff = diffRandomCirculation(R);
    ASSERT_TRUE(Diff.empty()) << "seed " << Seed << ": " << Diff;
  }
}

//===----------------------------------------------------------------------===//
// Oracle property: the same optimal objective as the reference solver on
// every function of every workload preset, after profile loading and after
// bottom-up inlining (the two points where buildWithPGO runs inference).
//===----------------------------------------------------------------------===//

namespace {

/// Infers every function of \p M with the reference solver and then with
/// inferFunctionProfile, leaving the latter's result in place, and checks
/// equal objectives and exact flow consistency.
void inferAgainstOracle(Module &M, const std::string &When) {
  for (auto &F : M.Functions) {
    std::vector<uint64_t> Measured;
    std::vector<std::vector<uint64_t>> Weights;
    std::vector<bool> Has;
    for (auto &BB : F->Blocks) {
      Measured.push_back(BB->HasCount ? BB->Count : 0);
      Weights.push_back(BB->SuccWeights);
      Has.push_back(BB->HasCount);
    }
    inferFunctionProfileReference(*F);
    int64_t RefCost = inferenceObjective(*F, Measured);
    for (size_t I = 0; I != F->Blocks.size(); ++I) {
      BasicBlock &BB = *F->Blocks[I];
      BB.Count = Measured[I];
      BB.HasCount = Has[I];
      BB.SuccWeights = Weights[I];
    }
    inferFunctionProfile(*F);
    EXPECT_EQ(inferenceObjective(*F, Measured), RefCost)
        << F->getName() << " (" << F->Blocks.size() << " blocks) " << When;
    bool Inferred = std::any_of(Measured.begin(), Measured.end(),
                                [](uint64_t W) { return W > 0; });
    EXPECT_TRUE(!Inferred || isProfileConsistent(*F, 0))
        << F->getName() << " " << When;
  }
}

class InferenceOracle : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(InferenceOracle, MatchesReferenceObjectiveOnEveryFunction) {
  ExperimentConfig C;
  // At 0.3, ClangProxy's CSSPGO build carries a function of more than
  // 600 blocks.
  C.Workload =
      workloadPreset(GetParam(), GetParam() == "ClangProxy" ? 0.3 : 0.1);
  C.EvalRuns = 1;
  PGODriver Driver(C);
  for (PGOVariant V : {PGOVariant::AutoFDO, PGOVariant::CSSPGOFull}) {
    SCOPED_TRACE(variantName(V));
    VariantOutcome Out = Driver.run(V);
    ASSERT_TRUE(Out.Profile.Has);
    // The optimized build's steps up to the second inference
    // (buildWithPGO with PGODriver's build configuration).
    auto M = Driver.source().clone();
    LoaderOptions Loader = C.Loader;
    if (V == PGOVariant::CSSPGOFull) {
      insertProbes(*M, AnchorKind::PseudoProbe);
      if (C.RunPreInliner)
        Loader.InlineHotContexts = false;
    }
    ProfilePipeline Pipeline(
        PipelineOptions().transport(Out.Profile.Transport).loader(Loader));
    Expected<LoaderStats> Stats = Pipeline.apply(*M, Out.Profile);
    ASSERT_TRUE(static_cast<bool>(Stats)) << Stats.status().message();
    inferAgainstOracle(*M, "after profile loading");
    InlineParams Inline = C.Inline;
    if (Stats->HotThresholdUsed)
      Inline.HotCallsiteCount = Stats->HotThresholdUsed;
    runBottomUpInliner(*M, Inline);
    inferAgainstOracle(*M, "after inlining");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, InferenceOracle,
    ::testing::Values("AdRanker", "AdRetriever", "AdFinder", "HHVM", "HaaS",
                      "ClangProxy", "RpcFanout", "InterpLoop", "ColdBoot"),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });
