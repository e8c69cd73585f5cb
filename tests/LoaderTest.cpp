//===- tests/LoaderTest.cpp - profile loader tests --------------*- C++ -*-===//

#include "loader/Correlators.h"
#include "ir/Printer.h"
#include "loader/ProfileLoader.h"
#include "probe/ProbeInserter.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace csspgo;
using namespace csspgo::testing;

namespace {

std::vector<BasicBlock *> blocksOf(Function &F) {
  std::vector<BasicBlock *> Out;
  for (auto &BB : F.Blocks)
    Out.push_back(BB.get());
  return Out;
}

} // namespace

TEST(Correlators, LineAnnotationTakesMax) {
  Module M("m");
  Function *F = addBranchyFunction(M, "f");
  FunctionProfile P;
  P.Name = "f";
  // Entry has lines 1-2 (const + cmp): give them different counts.
  P.addBody({1, 0}, 40);
  P.addBody({2, 0}, 100);
  annotateBlocksByLines(blocksOf(*F), P, F->getGuid());
  EXPECT_EQ(F->Blocks[0]->Count, 100u) << "max across the block's lines";
  EXPECT_EQ(F->Blocks[3]->Count, 0u);
  EXPECT_TRUE(F->Blocks[3]->HasCount);
}

TEST(Correlators, AnchorAnnotationUsesBlockProbe) {
  Module M("m");
  Function *F = addBranchyFunction(M, "f");
  insertProbes(M, AnchorKind::PseudoProbe);
  FunctionProfile P;
  P.Name = "f";
  P.addBody({1, 0}, 55); // entry probe
  P.addBody({3, 0}, 11); // else probe
  annotateBlocksByAnchors(blocksOf(*F), P, F->getGuid());
  EXPECT_EQ(F->Blocks[0]->Count, 55u);
  EXPECT_EQ(F->Blocks[1]->Count, 0u);
  EXPECT_EQ(F->Blocks[2]->Count, 11u);
}

TEST(Correlators, CallSiteKeyDependsOnKind) {
  Instruction Call;
  Call.Op = Opcode::Call;
  Call.DL.Line = 17;
  Call.ProbeId = 4;
  EXPECT_EQ(callSiteKey(Call, ProfileKind::LineBased).Index, 17u);
  EXPECT_EQ(callSiteKey(Call, ProfileKind::ProbeBased).Index, 4u);
}

TEST(Loader, AnnotatesAndSetsEntryCounts) {
  auto M = makeCallerModule(5);
  FlatProfile Prof;
  Prof.Kind = ProfileKind::LineBased;
  FunctionProfile &Main = Prof.getOrCreate("main");
  Main.HeadSamples = 9;
  Main.addBody({1, 0}, 100);
  LoaderOptions Opts;
  Opts.MaxInlineSize = 0; // Annotation only.
  LoaderStats Stats = loadFlatProfile(*M, Prof, false, Opts);
  EXPECT_EQ(Stats.FunctionsAnnotated, 1u);
  Function *F = M->getFunction("main");
  EXPECT_TRUE(F->HasEntryCount);
  EXPECT_GE(F->EntryCount, 9u);
}

TEST(Loader, SampleAccurateMarksUnprofiledCold) {
  auto M = makeCallerModule(5);
  FlatProfile Prof;
  Prof.Kind = ProfileKind::LineBased;
  Prof.getOrCreate("main").addBody({1, 0}, 10);
  LoaderOptions Opts;
  loadFlatProfile(*M, Prof, false, Opts);
  Function *Leaf = M->getFunction("leaf");
  for (auto &BB : Leaf->Blocks) {
    EXPECT_TRUE(BB->HasCount);
    EXPECT_EQ(BB->Count, 0u);
  }
}

TEST(Loader, StaleProbeProfileDropped) {
  auto M = makeCallerModule(5);
  insertProbes(*M, AnchorKind::PseudoProbe);
  FlatProfile Prof;
  Prof.Kind = ProfileKind::ProbeBased;
  FunctionProfile &P = Prof.getOrCreate("leaf");
  P.Checksum = 0xDEAD; // Mismatch.
  P.addBody({1, 0}, 100);
  LoaderOptions Opts;
  Opts.RecoverStaleProfiles = false; // Legacy behavior: detect and drop.
  LoaderStats Stats = loadFlatProfile(*M, Prof, false, Opts);
  EXPECT_EQ(Stats.StaleDropped, 1u);
  EXPECT_EQ(Stats.StaleMatched, 0u);
  // 'leaf' must not carry the stale counts (cold-filled instead).
  EXPECT_EQ(M->getFunction("leaf")->Blocks[0]->Count, 0u);
}

TEST(Loader, StaleProbeProfileRecoveredByDefault) {
  auto M = makeCallerModule(5);
  insertProbes(*M, AnchorKind::PseudoProbe);
  FlatProfile Prof;
  Prof.Kind = ProfileKind::ProbeBased;
  FunctionProfile &P = Prof.getOrCreate("leaf");
  P.Checksum = 0xDEAD; // Mismatch, but the CFG is actually unchanged.
  P.addBody({1, 0}, 100);
  LoaderOptions Opts; // RecoverStaleProfiles on by default.
  LoaderStats Stats = loadFlatProfile(*M, Prof, false, Opts);
  EXPECT_EQ(Stats.StaleDropped, 0u);
  EXPECT_EQ(Stats.StaleMatched, 1u);
  ASSERT_EQ(Stats.StaleMatches.size(), 1u);
  EXPECT_EQ(Stats.StaleMatches[0].Name, "leaf");
  EXPECT_TRUE(Stats.StaleMatches[0].Stats.Accepted);
  EXPECT_EQ(Stats.StaleCountsRecovered, 100u);
  // Identity remap: the counts land exactly where they were.
  EXPECT_EQ(M->getFunction("leaf")->Blocks[0]->Count, 100u);
}

TEST(Loader, MatchingChecksumAccepted) {
  auto M = makeCallerModule(5);
  insertProbes(*M, AnchorKind::PseudoProbe);
  FlatProfile Prof;
  Prof.Kind = ProfileKind::ProbeBased;
  FunctionProfile &P = Prof.getOrCreate("leaf");
  P.Checksum = M->getFunction("leaf")->ProbeCFGChecksum;
  P.addBody({1, 0}, 100);
  LoaderOptions Opts;
  LoaderStats Stats = loadFlatProfile(*M, Prof, false, Opts);
  EXPECT_EQ(Stats.StaleDropped, 0u);
  EXPECT_EQ(M->getFunction("leaf")->Blocks[0]->Count, 100u);
}

TEST(Loader, ReplaysNestedInlinees) {
  auto M = makeCallerModule(5);
  insertProbes(*M, AnchorKind::PseudoProbe);
  Function *Main = M->getFunction("main");
  Function *Leaf = M->getFunction("leaf");
  // Find the call probe id.
  uint32_t CallProbe = 0;
  for (auto &BB : Main->Blocks)
    for (auto &I : BB->Insts)
      if (I.isCall())
        CallProbe = I.ProbeId;
  ASSERT_GT(CallProbe, 0u);

  FlatProfile Prof;
  Prof.Kind = ProfileKind::ProbeBased;
  FunctionProfile &P = Prof.getOrCreate("main");
  P.Checksum = Main->ProbeCFGChecksum;
  P.HeadSamples = 10;
  for (uint32_t Id = 1; Id <= 4; ++Id)
    P.addBody({Id, 0}, 100);
  FunctionProfile &Inl = P.getOrCreateInlinee({CallProbe, 0}, "leaf");
  Inl.Checksum = Leaf->ProbeCFGChecksum;
  Inl.HeadSamples = 100;
  Inl.addBody({1, 0}, 100);
  Inl.addBody({2, 0}, 90);
  Inl.addBody({3, 0}, 10);
  Inl.addBody({4, 0}, 100);

  size_t BlocksBefore = Main->Blocks.size();
  LoaderOptions Opts;
  LoaderStats Stats = loadFlatProfile(*M, Prof, false, Opts);
  EXPECT_EQ(Stats.InlinedCallsites, 1u);
  EXPECT_GT(Main->Blocks.size(), BlocksBefore);
  // Cloned leaf blocks carry the nested slice counts.
  uint64_t Cloned90 = 0;
  for (auto &BB : Main->Blocks)
    if (BB->HasCount && BB->Count == 90)
      ++Cloned90;
  EXPECT_GE(Cloned90, 1u);
}

namespace {

/// Builds a CS profile for makeCallerModule: one hot context
/// [main @ leaf] marked for inlining.
ContextProfile makeCSProfile(Module &M, bool Mark) {
  Function *Main = M.getFunction("main");
  Function *Leaf = M.getFunction("leaf");
  uint32_t CallProbe = 0;
  for (auto &BB : Main->Blocks)
    for (auto &I : BB->Insts)
      if (I.isCall())
        CallProbe = I.ProbeId;

  ContextProfile CS;
  ContextTrieNode &MainNode = CS.getOrCreateNode({{"main", 0}});
  MainNode.HasProfile = true;
  MainNode.Profile.Checksum = Main->ProbeCFGChecksum;
  MainNode.Profile.HeadSamples = 1;
  for (uint32_t Id = 1; Id <= 4; ++Id)
    MainNode.Profile.addBody({Id, 0}, 500);
  MainNode.Profile.addCall({CallProbe, 0}, "leaf", 500);

  ContextTrieNode &LeafNode =
      CS.getOrCreateNode({{"main", CallProbe}, {"leaf", 0}});
  LeafNode.HasProfile = true;
  LeafNode.ShouldBeInlined = Mark;
  LeafNode.Profile.Checksum = Leaf->ProbeCFGChecksum;
  LeafNode.Profile.HeadSamples = 500;
  LeafNode.Profile.addBody({1, 0}, 500);
  LeafNode.Profile.addBody({2, 0}, 450);
  LeafNode.Profile.addBody({3, 0}, 50);
  LeafNode.Profile.addBody({4, 0}, 500);
  return CS;
}

} // namespace

TEST(CSLoader, HonorsPreInlinerMarks) {
  auto M = makeCallerModule(5);
  insertProbes(*M, AnchorKind::PseudoProbe);
  ContextProfile CS = makeCSProfile(*M, /*Mark=*/true);
  LoaderOptions Opts;
  Opts.InlineHotContexts = false; // Only marks count.
  LoaderStats Stats = loadContextProfile(*M, CS, Opts);
  EXPECT_EQ(Stats.InlinedCallsites, 1u);
  // Context-sliced annotation: a cloned block holds exactly 450.
  bool Found450 = false;
  for (auto &BB : M->getFunction("main")->Blocks)
    Found450 |= BB->HasCount && BB->Count == 450;
  EXPECT_TRUE(Found450);
}

TEST(CSLoader, UnmarkedContextMergesToBase) {
  auto M = makeCallerModule(5);
  insertProbes(*M, AnchorKind::PseudoProbe);
  ContextProfile CS = makeCSProfile(*M, /*Mark=*/false);
  LoaderOptions Opts;
  Opts.InlineHotContexts = false;
  LoaderStats Stats = loadContextProfile(*M, CS, Opts);
  EXPECT_EQ(Stats.InlinedCallsites, 0u);
  // 'leaf' gets annotated out of line from the merged context.
  Function *Leaf = M->getFunction("leaf");
  EXPECT_EQ(Leaf->Blocks[0]->Count, 500u);
  EXPECT_EQ(Leaf->Blocks[1]->Count, 450u);
}

TEST(CSLoader, HotContextInlinedWithoutMarks) {
  auto M = makeCallerModule(5);
  insertProbes(*M, AnchorKind::PseudoProbe);
  ContextProfile CS = makeCSProfile(*M, /*Mark=*/false);
  LoaderOptions Opts;
  Opts.InlineHotContexts = true;
  Opts.HotCallsiteThreshold = 100; // Context total 1500 >= 100.
  LoaderStats Stats = loadContextProfile(*M, CS, Opts);
  EXPECT_EQ(Stats.InlinedCallsites, 1u);
}

TEST(CSLoader, StaleContextChecksumBlocksInlining) {
  auto M = makeCallerModule(5);
  insertProbes(*M, AnchorKind::PseudoProbe);
  ContextProfile CS = makeCSProfile(*M, /*Mark=*/true);
  // Corrupt the leaf context checksum.
  CS.forEachNodeMutable([](const SampleContext &Ctx, ContextTrieNode &N) {
    if (Ctx.back().Func == "leaf")
      N.Profile.Checksum = 0xBAD;
  });
  LoaderOptions Opts;
  Opts.InlineHotContexts = false;
  Opts.RecoverStaleProfiles = false; // Legacy behavior: detect and drop.
  LoaderStats Stats = loadContextProfile(*M, CS, Opts);
  EXPECT_EQ(Stats.InlinedCallsites, 0u);
  EXPECT_GE(Stats.StaleDropped, 1u);
}

TEST(CSLoader, StaleContextRecoveredRestoresInlining) {
  auto M = makeCallerModule(5);
  insertProbes(*M, AnchorKind::PseudoProbe);
  ContextProfile CS = makeCSProfile(*M, /*Mark=*/true);
  CS.forEachNodeMutable([](const SampleContext &Ctx, ContextTrieNode &N) {
    if (Ctx.back().Func == "leaf")
      N.Profile.Checksum = 0xBAD;
  });
  LoaderOptions Opts; // RecoverStaleProfiles on by default.
  Opts.InlineHotContexts = false;
  LoaderStats Stats = loadContextProfile(*M, CS, Opts);
  // The matcher pre-pass rewrites the stale contexts (the CFG did not
  // actually change), so the marked context inlines again and its sliced
  // annotation is intact.
  EXPECT_EQ(Stats.StaleDropped, 0u);
  EXPECT_GE(Stats.StaleMatched, 1u);
  EXPECT_EQ(Stats.InlinedCallsites, 1u);
  bool Found450 = false;
  for (auto &BB : M->getFunction("main")->Blocks)
    Found450 |= BB->HasCount && BB->Count == 450;
  EXPECT_TRUE(Found450);
}

//===----------------------------------------------------------------------===//
// The inline-replay depth limit: a profile nested deeper than
// MaxInlineReplayDepth + 1 levels replays up to the limit, counts the stop
// in LoaderStats::ReplayDepthCapped, and annotates the inlined body exactly
// as the same profile without its unreachable levels does.
//===----------------------------------------------------------------------===//

namespace {

/// f0 -> f1 -> ... -> fN, one block each: fK(x) = f(K+1)(x) + 1 and
/// fN(x) = x + 1. Pseudo probes inserted.
std::unique_ptr<Module> makeCallChain(int N) {
  auto M = std::make_unique<Module>("chain");
  for (int K = 0; K <= N; ++K) {
    Function *F = M->createFunction("f" + std::to_string(K), 1);
    Builder B(F);
    B.setInsertBlock(F->createBlock("entry"));
    RegId V = K == N ? B.emitMov(Operand::reg(0))
                     : B.emitCall("f" + std::to_string(K + 1),
                                  {Operand::reg(0)});
    RegId R = B.emitBinary(Opcode::Add, Operand::reg(V), Operand::imm(1));
    B.emitRet(Operand::reg(R));
  }
  M->EntryFunction = "f0";
  insertProbes(*M, AnchorKind::PseudoProbe);
  return M;
}

uint32_t callProbeOf(const Function &F) {
  for (auto &BB : F.Blocks)
    for (auto &I : BB->Insts)
      if (I.isCall())
        return I.ProbeId;
  return 0;
}

/// Flat profile of f0 with the chain nested \p Levels inlinees deep:
/// level K is fK's profile at f(K-1)'s call probe.
FlatProfile chainFlatProfile(const Module &M, int Levels) {
  FlatProfile Prof;
  Prof.Kind = ProfileKind::ProbeBased;
  FunctionProfile *P = &Prof.getOrCreate("f0");
  P->HeadSamples = 100;
  for (int K = 0;; ++K) {
    const Function &F = *M.getFunction("f" + std::to_string(K));
    P->Checksum = F.ProbeCFGChecksum;
    P->addBody({1, 0}, 100 + K);
    if (K == Levels)
      return Prof;
    P = &P->getOrCreateInlinee({callProbeOf(F), 0},
                               "f" + std::to_string(K + 1));
    P->HeadSamples = 100;
  }
}

/// The same chain as marked CS contexts [f0 @ c, f1 @ c, ..., fK].
ContextProfile chainContextProfile(const Module &M, int Levels) {
  ContextProfile CS;
  SampleContext Ctx;
  for (int K = 0; K <= Levels; ++K) {
    const Function &F = *M.getFunction("f" + std::to_string(K));
    if (!Ctx.empty())
      Ctx.back().Site =
          callProbeOf(*M.getFunction("f" + std::to_string(K - 1)));
    Ctx.push_back({F.getName(), 0});
    ContextTrieNode &N = CS.getOrCreateNode(Ctx);
    N.HasProfile = true;
    N.ShouldBeInlined = K != 0;
    N.Profile.Checksum = F.ProbeCFGChecksum;
    N.Profile.HeadSamples = 100;
    N.Profile.addBody({1, 0}, 100 + K);
  }
  return CS;
}

LoaderOptions chainOptions() {
  LoaderOptions Opts;
  Opts.InlineHotContexts = false; // Only nesting / marks drive inlining.
  Opts.HotCallsiteThreshold = 1;  // Independent of the profile's depth.
  Opts.Verify = VerifyLevel::Off;
  return Opts;
}

} // namespace

TEST(Loader, ReplayDepthCapIsCountedAndAnnotatesTheSame) {
  constexpr int Deep = 10, Reachable = MaxInlineReplayDepth + 1;
  static_assert(Deep > Reachable, "the profile must outnest the limit");
  auto Full = makeCallChain(Deep), Cut = makeCallChain(Deep);
  LoaderStats FullStats = loadFlatProfile(
      *Full, chainFlatProfile(*Full, Deep), false, chainOptions());
  LoaderStats CutStats = loadFlatProfile(
      *Cut, chainFlatProfile(*Cut, Reachable), false, chainOptions());
  EXPECT_EQ(FullStats.InlinedCallsites, unsigned(Reachable));
  EXPECT_EQ(FullStats.ReplayDepthCapped, 1u);
  EXPECT_EQ(CutStats.InlinedCallsites, unsigned(Reachable));
  EXPECT_EQ(CutStats.ReplayDepthCapped, 0u);
  EXPECT_EQ(printModule(*Full), printModule(*Cut));
}

TEST(CSLoader, ReplayDepthCapIsCountedAndAnnotatesTheSame) {
  constexpr int Deep = 10, Reachable = MaxInlineReplayDepth + 1;
  auto Full = makeCallChain(Deep), Cut = makeCallChain(Deep);
  LoaderStats FullStats = loadContextProfile(
      *Full, chainContextProfile(*Full, Deep), chainOptions());
  LoaderStats CutStats = loadContextProfile(
      *Cut, chainContextProfile(*Cut, Reachable), chainOptions());
  EXPECT_EQ(FullStats.InlinedCallsites, unsigned(Reachable));
  EXPECT_EQ(FullStats.ReplayDepthCapped, 1u);
  EXPECT_EQ(CutStats.InlinedCallsites, unsigned(Reachable));
  EXPECT_EQ(CutStats.ReplayDepthCapped, 0u);
  EXPECT_EQ(printFunction(*Full->getFunction("f0")),
            printFunction(*Cut->getFunction("f0")));
  // Unlike a nested flat inlinee, the context the limit left unconsumed
  // still annotates its function out of line.
  EXPECT_EQ(Full->getFunction("f10")->Blocks[0]->Count, 100u + Deep);
}
