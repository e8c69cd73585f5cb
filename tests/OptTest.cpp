//===- tests/OptTest.cpp - optimizer pass tests -----------------*- C++ -*-===//

#include "ir/CFG.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "opt/InlineCost.h"
#include "opt/Inliner.h"
#include "opt/PassManager.h"
#include "pgo/PGODriver.h"
#include "probe/ProbeInserter.h"
#include "support/Random.h"
#include "workload/ProgramGenerator.h"
#include "workload/Workloads.h"

#include "TestHelpers.h"
#include "oracle/Oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>

using namespace csspgo;
using namespace csspgo::testing;

namespace {

/// Runs M through compile+execute and returns the exit value; verifies.
int64_t runExit(const Module &M) {
  auto R = compileAndRun(M);
  EXPECT_TRUE(R.Completed) << R.Error;
  return R.ExitValue;
}

/// Builds a module with two identical-tail blocks feeding a join.
std::unique_ptr<Module> makeDupTailModule() {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", 0);
  Builder B(F);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *TA = F->createBlock("tailA");
  BasicBlock *TB = F->createBlock("tailB");
  BasicBlock *Join = F->createBlock("join");

  B.setInsertBlock(Entry);
  RegId Acc = B.emitConst(5);
  RegId C = B.emitBinary(Opcode::CmpLT, Operand::reg(Acc), Operand::imm(10));
  B.emitCondBr(Operand::reg(C), TA, TB);

  B.setInsertBlock(TA);
  B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::imm(7));
  TA->Insts.back().Dst = Acc;
  B.emitBr(Join);
  TB->Insts = TA->Insts; // Identical tail.

  B.setInsertBlock(Join);
  B.emitRet(Operand::reg(Acc));
  M->EntryFunction = "main";
  return M;
}

} // namespace

TEST(SimplifyCFG, FoldsConstantCondBr) {
  Module M("m");
  Function *F = M.createFunction("f", 0);
  Builder B(F);
  BasicBlock *E = F->createBlock("entry");
  BasicBlock *T = F->createBlock("t");
  BasicBlock *X = F->createBlock("x");
  B.setInsertBlock(E);
  B.emitCondBr(Operand::imm(1), T, X);
  B.setInsertBlock(T);
  B.emitRet(Operand::imm(1));
  B.setInsertBlock(X);
  B.emitRet(Operand::imm(2));

  OptOptions Opts;
  EXPECT_GT(runSimplifyCFG(*F, Opts), 0u);
  EXPECT_TRUE(verifyFunction(*F).empty());
  // Unreachable 'x' removed, straight-line merged.
  EXPECT_EQ(F->Blocks.size(), 1u);
}

TEST(SimplifyCFG, MergesStraightLineAndPreservesSemantics) {
  Module M("m");
  Function *F = M.createFunction("main", 0);
  Builder B(F);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *Bb = F->createBlock("b");
  B.setInsertBlock(A);
  RegId R = B.emitConst(21);
  B.emitBr(Bb);
  B.setInsertBlock(Bb);
  RegId R2 = B.emitBinary(Opcode::Mul, Operand::reg(R), Operand::imm(2));
  B.emitRet(Operand::reg(R2));
  M.EntryFunction = "main";

  int64_t Before = runExit(M);
  OptOptions Opts;
  runSimplifyCFG(*F, Opts);
  EXPECT_EQ(F->Blocks.size(), 1u);
  EXPECT_EQ(runExit(M), Before);
}

TEST(TailMerge, MergesIdenticalBlocksWithoutAnchors) {
  auto M = makeDupTailModule();
  int64_t Before = runExit(*M);
  OptOptions Opts;
  unsigned Changed = runTailMerge(*M->getFunction("main"), Opts);
  EXPECT_EQ(Changed, 1u);
  EXPECT_EQ(M->getFunction("main")->Blocks.size(), 3u);
  EXPECT_EQ(runExit(*M), Before);
}

TEST(TailMerge, BlockedByPseudoProbes) {
  auto M = makeDupTailModule();
  insertProbes(*M, AnchorKind::PseudoProbe);
  OptOptions Opts;
  EXPECT_EQ(runTailMerge(*M->getFunction("main"), Opts), 0u)
      << "distinct probe ids must block code merge";
}

TEST(TailMerge, BlockedByCounters) {
  auto M = makeDupTailModule();
  insertProbes(*M, AnchorKind::InstrCounter);
  OptOptions Opts;
  EXPECT_EQ(runTailMerge(*M->getFunction("main"), Opts), 0u);
}

TEST(TailMerge, SumsProfileCounts) {
  auto M = makeDupTailModule();
  Function *F = M->getFunction("main");
  F->Blocks[1]->setCount(70);
  F->Blocks[2]->setCount(30);
  OptOptions Opts;
  runTailMerge(*F, Opts);
  EXPECT_EQ(F->Blocks[1]->Count, 100u);
}

namespace {

/// if (x&1) r = a + i; else r = a - i;  join returns r.
std::unique_ptr<Module> makeDiamondModule(bool WithProbes) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", 0);
  Builder B(F);
  BasicBlock *E = F->createBlock("entry");
  BasicBlock *P = F->createBlock("p");
  BasicBlock *Q = F->createBlock("q");
  BasicBlock *J = F->createBlock("j");
  B.setInsertBlock(E);
  RegId A = B.emitConst(40);
  RegId Cond = B.emitBinary(Opcode::And, Operand::reg(A), Operand::imm(1));
  B.emitCondBr(Operand::reg(Cond), P, Q);
  RegId R = F->allocReg();
  B.setInsertBlock(P);
  B.emitBinary(Opcode::Add, Operand::reg(A), Operand::imm(2));
  P->Insts.back().Dst = R;
  B.emitBr(J);
  B.setInsertBlock(Q);
  B.emitBinary(Opcode::Sub, Operand::reg(A), Operand::imm(2));
  Q->Insts.back().Dst = R;
  B.emitBr(J);
  B.setInsertBlock(J);
  B.emitRet(Operand::reg(R));
  M->EntryFunction = "main";
  if (WithProbes)
    insertProbes(*M, AnchorKind::PseudoProbe);
  return M;
}

} // namespace

TEST(IfConvert, ConvertsDiamondToSelects) {
  auto M = makeDiamondModule(false);
  int64_t Before = runExit(*M);
  OptOptions Opts;
  EXPECT_EQ(runIfConvert(*M->getFunction("main"), Opts), 1u);
  EXPECT_TRUE(verifyModule(*M).empty());
  EXPECT_EQ(runExit(*M), Before);
  // No conditional branch left.
  for (auto &BB : M->getFunction("main")->Blocks)
    for (auto &I : BB->Insts)
      EXPECT_NE(I.Op, Opcode::CondBr);
}

TEST(IfConvert, WeakBarrierAllowsProbedArms) {
  auto M = makeDiamondModule(true);
  OptOptions Opts;
  Opts.Barrier = ProbeBarrier::Weak;
  EXPECT_EQ(runIfConvert(*M->getFunction("main"), Opts), 1u)
      << "the paper's tuning unblocks if-convert under probes";
}

TEST(IfConvert, StrongBarrierBlocksProbedArms) {
  auto M = makeDiamondModule(true);
  OptOptions Opts;
  Opts.Barrier = ProbeBarrier::Strong;
  EXPECT_EQ(runIfConvert(*M->getFunction("main"), Opts), 0u);
}

TEST(IfConvert, CountersAlwaysBlock) {
  auto M = makeDiamondModule(false);
  insertProbes(*M, AnchorKind::InstrCounter);
  OptOptions Opts;
  EXPECT_EQ(runIfConvert(*M->getFunction("main"), Opts), 0u);
}

TEST(LoopUnroll, DuplicatesBodyAndPreservesResult) {
  Module M("m");
  addLoopFunction(M, "looper");
  Function *Main = M.createFunction("main", 0);
  Builder B(Main);
  BasicBlock *E = Main->createBlock("entry");
  B.setInsertBlock(E);
  RegId R = B.emitCall("looper", {Operand::imm(37)});
  B.emitRet(Operand::reg(R));
  M.EntryFunction = "main";

  int64_t Before = runExit(M);
  OptOptions Opts;
  Opts.UnrollFactor = 2;
  Function *L = M.getFunction("looper");
  size_t BlocksBefore = L->Blocks.size();
  EXPECT_EQ(runLoopUnroll(*L, Opts), 1u);
  EXPECT_GT(L->Blocks.size(), BlocksBefore);
  EXPECT_TRUE(verifyModule(M).empty());
  EXPECT_EQ(runExit(M), Before);
}

TEST(LoopUnroll, ScalesProfileCounts) {
  Module M("m");
  Function *L = addLoopFunction(M, "looper");
  L->Blocks[1]->setCount(1000); // header
  L->Blocks[2]->setCount(990);  // body
  OptOptions Opts;
  Opts.UnrollFactor = 2;
  runLoopUnroll(*L, Opts);
  EXPECT_EQ(L->Blocks[1]->Count, 500u);
  EXPECT_EQ(L->Blocks[2]->Count, 495u);
}

TEST(CodeMotion, HoistsInvariantFromHeader) {
  // Loop header computes mode*13 (params never change): hoistable.
  Module M("m");
  Function *F = M.createFunction("main", 0);
  Builder B(F);
  BasicBlock *E = F->createBlock("entry");
  BasicBlock *H = F->createBlock("h");
  BasicBlock *Body = F->createBlock("b");
  BasicBlock *X = F->createBlock("x");
  B.setInsertBlock(E);
  RegId Mode = B.emitConst(6);
  RegId I = B.emitConst(0);
  RegId Acc = B.emitConst(0);
  B.emitBr(H);
  B.setInsertBlock(H);
  RegId Inv = B.emitBinary(Opcode::Mul, Operand::reg(Mode), Operand::imm(13));
  RegId C = B.emitBinary(Opcode::CmpLT, Operand::reg(I), Operand::imm(10));
  B.emitCondBr(Operand::reg(C), Body, X);
  B.setInsertBlock(Body);
  B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(Inv));
  Body->Insts.back().Dst = Acc;
  B.emitBinary(Opcode::Add, Operand::reg(I), Operand::imm(1));
  Body->Insts.back().Dst = I;
  B.emitBr(H);
  B.setInsertBlock(X);
  B.emitRet(Operand::reg(Acc));
  M.EntryFunction = "main";

  int64_t Before = runExit(M);
  OptOptions Opts;
  unsigned Hoisted = runCodeMotion(*F, Opts);
  EXPECT_EQ(Hoisted, 1u);
  EXPECT_TRUE(verifyModule(M).empty());
  EXPECT_EQ(runExit(M), Before);
  // The multiply left the header.
  for (auto &Inst : F->Blocks[1]->Insts)
    EXPECT_NE(Inst.Op, Opcode::Mul);
}

TEST(CodeMotion, NestedLoopPreheaderKeepsOuterWrites) {
  // entry -> HO {x = r + 1; k < 3 ? HI : exit}
  //          HI {r = k * 7; j < 2 ? BI : LO}
  //          BI {j += 1; acc += x; br HI}
  //          LO {k += 1; j = 0; br HO}
  // The inner loop hoists r = k * 7 into a preheader between HO and HI,
  // which is inside the outer loop: r is then still written there, and
  // x = r + 1 must stay in HO.
  Module M("m");
  Function *F = M.createFunction("main", 0);
  Builder B(F);
  BasicBlock *E = F->createBlock("entry");
  BasicBlock *HO = F->createBlock("ho");
  BasicBlock *HI = F->createBlock("hi");
  BasicBlock *BI = F->createBlock("bi");
  BasicBlock *LO = F->createBlock("lo");
  BasicBlock *X = F->createBlock("exit");
  auto Into = [](BasicBlock *BB, RegId Dst) { BB->Insts.back().Dst = Dst; };
  B.setInsertBlock(E);
  RegId R = B.emitConst(0), K = B.emitConst(0), J = B.emitConst(0);
  RegId Acc = B.emitConst(0), Xv = B.emitConst(0);
  B.emitBr(HO);
  B.setInsertBlock(HO);
  B.emitBinary(Opcode::Add, Operand::reg(R), Operand::imm(1));
  Into(HO, Xv);
  RegId C1 = B.emitBinary(Opcode::CmpLT, Operand::reg(K), Operand::imm(3));
  B.emitCondBr(Operand::reg(C1), HI, X);
  B.setInsertBlock(HI);
  B.emitBinary(Opcode::Mul, Operand::reg(K), Operand::imm(7));
  Into(HI, R);
  RegId C2 = B.emitBinary(Opcode::CmpLT, Operand::reg(J), Operand::imm(2));
  B.emitCondBr(Operand::reg(C2), BI, LO);
  B.setInsertBlock(BI);
  B.emitBinary(Opcode::Add, Operand::reg(J), Operand::imm(1));
  Into(BI, J);
  B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(Xv));
  Into(BI, Acc);
  B.emitBr(HI);
  B.setInsertBlock(LO);
  B.emitBinary(Opcode::Add, Operand::reg(K), Operand::imm(1));
  Into(LO, K);
  B.emitConst(0);
  Into(LO, J);
  B.emitBr(HO);
  B.setInsertBlock(X);
  B.emitRet(Operand::reg(Acc));
  M.EntryFunction = "main";
  ASSERT_EQ(runExit(M), 20);

  // Without the fix, the outer loop's writes miss r and x = r + 1 leaves
  // HO as well, computed once from the initial r.
  auto Unfixed = M.clone();
  EXPECT_EQ(referenceCodeMotion(*Unfixed->getFunction("main"), OptOptions(),
                                /*KeepOuterWrites=*/false),
            2u);
  EXPECT_EQ(runExit(*Unfixed), 6);

  EXPECT_EQ(runCodeMotion(*F, OptOptions()), 1u);
  EXPECT_TRUE(verifyModule(M).empty());
  EXPECT_EQ(runExit(M), 20);
  EXPECT_EQ(HO->Insts.front().Dst, Xv);
}

TEST(DCE, RemovesUnreadPureInstructions) {
  Module M("m");
  Function *F = M.createFunction("main", 0);
  Builder B(F);
  BasicBlock *E = F->createBlock("entry");
  B.setInsertBlock(E);
  B.emitConst(111); // Dead.
  RegId Live = B.emitConst(5);
  B.emitBinary(Opcode::Mul, Operand::reg(Live), Operand::imm(0)); // Dead.
  B.emitRet(Operand::reg(Live));
  M.EntryFunction = "main";
  OptOptions Opts;
  EXPECT_EQ(runDCE(*F, Opts), 2u);
  EXPECT_EQ(runExit(M), 5);
}

TEST(ConstantFold, FoldsAndPropagatesLocally) {
  Module M("m");
  Function *F = M.createFunction("main", 0);
  Builder B(F);
  BasicBlock *E = F->createBlock("entry");
  B.setInsertBlock(E);
  RegId A = B.emitConst(6);
  RegId Bv = B.emitConst(7);
  RegId C = B.emitBinary(Opcode::Mul, Operand::reg(A), Operand::reg(Bv));
  B.emitRet(Operand::reg(C));
  M.EntryFunction = "main";
  OptOptions Opts;
  EXPECT_GT(runConstantFold(*F, Opts), 0u);
  // The multiply became a constant move.
  EXPECT_EQ(F->Blocks[0]->Insts[2].Op, Opcode::Mov);
  EXPECT_EQ(runExit(M), 42);
}

TEST(ExtTSP, ReordersTowardHotFallthrough) {
  // entry -> (hot) far, (cold) near: layout should move 'far' next to
  // entry.
  Module M("m");
  Function *F = M.createFunction("main", 0);
  Builder B(F);
  BasicBlock *E = F->createBlock("entry");
  BasicBlock *Cold = F->createBlock("cold");
  BasicBlock *Hot = F->createBlock("hot");
  BasicBlock *X = F->createBlock("exit");
  B.setInsertBlock(E);
  RegId C = B.emitConst(1);
  B.emitCondBr(Operand::reg(C), Hot, Cold);
  B.setInsertBlock(Cold);
  B.emitBr(X);
  B.setInsertBlock(Hot);
  B.emitBr(X);
  B.setInsertBlock(X);
  B.emitRet(Operand::imm(0));
  M.EntryFunction = "main";

  E->setCount(100);
  E->SuccWeights = {99, 1};
  Hot->setCount(99);
  Cold->setCount(1);
  X->setCount(100);

  OptOptions Opts;
  EXPECT_EQ(runExtTSPLayout(*F, Opts), 1u);
  EXPECT_EQ(F->Blocks[0].get(), E);
  EXPECT_EQ(F->Blocks[1]->getLabel(), Hot->getLabel());
  EXPECT_TRUE(verifyModule(M).empty());
}

TEST(ExtTSP, NoProfileNoReorder) {
  auto M = makeCallerModule(5);
  Function *F = M->getFunction("leaf");
  OptOptions Opts;
  EXPECT_EQ(runExtTSPLayout(*F, Opts), 0u);
}

TEST(ExtTSP, MatchesReferenceOnRandomGraphs) {
  for (uint64_t Seed = 1; Seed != 1001; ++Seed) {
    Rng R(Seed);
    std::string Diff = diffRandomExtTSP(R);
    ASSERT_TRUE(Diff.empty()) << "seed " << Seed << ": " << Diff;
  }
}

namespace {

/// The order runExtTSPLayout left \p F in, as indices into \p Before (the
/// blocks as they were when it ran).
std::vector<unsigned> appliedOrder(const Function &F,
                                   const std::vector<BasicBlock *> &Before) {
  std::vector<unsigned> Order;
  for (const auto &BB : F.Blocks)
    Order.push_back(static_cast<unsigned>(
        std::find(Before.begin(), Before.end(), BB.get()) - Before.begin()));
  return Order;
}

std::vector<BasicBlock *> blocksOf(const Function &F) {
  std::vector<BasicBlock *> Blocks;
  for (const auto &BB : F.Blocks)
    Blocks.push_back(BB.get());
  return Blocks;
}

} // namespace

TEST(ExtTSP, LargeFunctionUsesFullSolver) {
  // A row of 14 five-block gadgets: E branches to X (20) or Z (10), X to Y
  // (15) or W (5), and Z branches to Y (100). Greedy chaining follows
  // the heaviest successor from E, so Y lands behind X and Z's heavy edge
  // becomes a jump; Ext-TSP places Z before Y.
  Module M("m");
  Function *F = M.createFunction("main", 0);
  Builder B(F);
  constexpr unsigned Gadgets = 14;
  std::vector<BasicBlock *> E, X, Z, Y, W;
  for (unsigned G = 0; G != Gadgets; ++G) {
    std::string N = std::to_string(G);
    E.push_back(F->createBlock("e" + N));
    X.push_back(F->createBlock("x" + N));
    Z.push_back(F->createBlock("z" + N));
    Y.push_back(F->createBlock("y" + N));
    W.push_back(F->createBlock("w" + N));
  }
  BasicBlock *Exit = F->createBlock("exit");
  B.setInsertBlock(E[0]);
  RegId C = B.emitConst(1);
  for (unsigned G = 0; G != Gadgets; ++G) {
    BasicBlock *Next = G + 1 == Gadgets ? Exit : E[G + 1];
    B.setInsertBlock(E[G]);
    B.emitCondBr(Operand::reg(C), X[G], Z[G]);
    E[G]->setCount(30);
    E[G]->SuccWeights = {20, 10};
    B.setInsertBlock(X[G]);
    B.emitCondBr(Operand::reg(C), Y[G], W[G]);
    X[G]->setCount(20);
    X[G]->SuccWeights = {15, 5};
    B.setInsertBlock(Z[G]);
    B.emitBr(Y[G]);
    Z[G]->setCount(100);
    Z[G]->SuccWeights = {100};
    B.setInsertBlock(Y[G]);
    B.emitBr(Next);
    Y[G]->setCount(115);
    Y[G]->SuccWeights = {115};
    B.setInsertBlock(W[G]);
    B.emitBr(Next);
    W[G]->setCount(5);
    W[G]->SuccWeights = {5};
  }
  B.setInsertBlock(Exit);
  B.emitRet(Operand::imm(0));
  Exit->setCount(30);
  M.EntryFunction = "main";
  ASSERT_GT(F->Blocks.size(), 64u);

  exttsp::Instance In = extTSPInstanceOf(*F);
  double Greedy = exttsp::scoreOfOrder(In, greedyChainOrder(*F));
  std::vector<BasicBlock *> Before = blocksOf(*F);
  OptOptions Opts;
  EXPECT_EQ(runExtTSPLayout(*F, Opts), 1u);
  std::vector<unsigned> Order = appliedOrder(*F, Before);
  EXPECT_EQ(Order, exttsp::solve(In));
  EXPECT_GT(exttsp::scoreOfOrder(In, Order), Greedy);
  EXPECT_TRUE(verifyModule(M).empty());
  EXPECT_EQ(runExit(M), 0);
}

//===----------------------------------------------------------------------===//
// Oracle property: on every profiled function of every workload preset, as
// the late pipeline sees it, the layout passes matchExtTSPReference up to
// 64 blocks, and scores at least what greedy chaining did above that.
//===----------------------------------------------------------------------===//

namespace {

class LayoutOracle : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(LayoutOracle, MatchesReferenceOnEveryFunction) {
  ExperimentConfig C;
  // At 0.3, ClangProxy carries functions of more than 600 blocks.
  C.Workload =
      workloadPreset(GetParam(), GetParam() == "ClangProxy" ? 0.3 : 0.1);
  C.EvalRuns = 1;
  PGODriver Driver(C);
  unsigned Checked = 0, Large = 0, EqualScore = 0, ExactTie = 0;
  size_t MaxBlocks = 0;
  for (PGOVariant V : {PGOVariant::AutoFDO, PGOVariant::CSSPGOFull}) {
    SCOPED_TRACE(variantName(V));
    VariantOutcome Out = Driver.run(V);
    ASSERT_TRUE(Out.Profile.Has);
    // PGODriver's build configuration, with layout left to this test.
    BuildConfig BC;
    BC.Variant = V;
    BC.Opt = C.Opt;
    BC.Opt.EnableLayout = false;
    BC.Inline = C.Inline;
    BC.Loader = C.Loader;
    BC.EnableInference = C.EnableInference;
    if (C.VerifyProfiles)
      BC.Loader.Verify = VerifyLevel::Full;
    if (V == PGOVariant::CSSPGOFull && C.RunPreInliner)
      BC.Loader.InlineHotContexts = false;
    BuildResult Build = buildWithPGO(Driver.source(), BC, &Out.Profile);
    for (auto &F : Build.IR->Functions) {
      if (F->Blocks.size() < 3 || !F->getEntry()->HasCount)
        continue; // runExtTSPLayout keeps these as they are.
      exttsp::Instance In = extTSPInstanceOf(*F);
      std::vector<BasicBlock *> Before = blocksOf(*F);
      std::vector<unsigned> Greedy;
      if (F->Blocks.size() > 64)
        Greedy = greedyChainOrder(*F);
      runExtTSPLayout(*F, OptOptions());
      std::vector<unsigned> Order = appliedOrder(*F, Before);
      ++Checked;
      MaxBlocks = std::max(MaxBlocks, Before.size());
      if (!Greedy.empty()) {
        ++Large;
        EXPECT_GE(exttsp::scoreOfOrder(In, Order),
                  exttsp::scoreOfOrder(In, Greedy))
            << F->getName() << " (" << Before.size() << " blocks)";
        continue;
      }
      std::string Why;
      LayoutMatch Match = matchExtTSPReference(In, Order, &Why);
      EqualScore += Match == LayoutMatch::EqualScore;
      ExactTie += Match == LayoutMatch::ExactTie;
      EXPECT_NE(Match, LayoutMatch::Diverged)
          << F->getName() << " (" << Before.size() << " blocks): " << Why;
    }
  }
  std::printf("[ layout   ] %s: %u functions (largest %zu blocks), %u above "
              "64 blocks; of the rest, %u ordered differently at an equal "
              "score and %u at an exact tie the reference broke the other "
              "way\n",
              GetParam().c_str(), Checked, MaxBlocks, Large, EqualScore,
              ExactTie);
  EXPECT_GT(Checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, LayoutOracle,
    ::testing::Values("AdRanker", "AdRetriever", "AdFinder", "HHVM", "HaaS",
                      "ClangProxy", "RpcFanout", "InterpLoop", "ColdBoot"),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

//===----------------------------------------------------------------------===//
// CFG analyses against the set-based oracle on random CFGs.
//===----------------------------------------------------------------------===//

TEST(CFG, FindLoopsMatchesReference) {
  Rng R(0xCF6);
  unsigned Unreachable = 0, SelfLoops = 0, Irreducible = 0, SharedHeaders = 0;
  for (int Iter = 0; Iter != 1000; ++Iter) {
    std::unique_ptr<Module> M = randomCFGModule(R);
    Function &F = *M->Functions.front();
    std::vector<Loop> Loops = findLoops(F);
    ASSERT_EQ(diffLoops(F, Loops, F, referenceFindLoops(F)), "")
        << printModule(*M);

    DominatorTree DT(F);
    std::vector<BasicBlock *> RPO = reversePostOrder(F);
    std::map<BasicBlock *, size_t> Pos;
    for (BasicBlock *B : RPO)
      Pos[B] = Pos.size();
    bool HasIrreducible = false;
    for (auto &B : F.Blocks) {
      Unreachable += !DT.isReachable(B.get());
      for (BasicBlock *S : B->successors()) {
        SelfLoops += S == B.get();
        // A retreating edge whose target does not dominate its source.
        HasIrreducible |= DT.isReachable(B.get()) &&
                          Pos[S] <= Pos[B.get()] && !DT.dominates(S, B.get());
      }
    }
    Irreducible += HasIrreducible;
    for (const Loop &L : Loops)
      SharedHeaders += L.Latches.size() > 1;
  }
  std::printf("[ cfg      ] 1000 random CFGs: %u unreachable blocks, %u "
              "self-loops, %u with irreducible regions, %u loops with "
              "several latches\n",
              Unreachable, SelfLoops, Irreducible, SharedHeaders);
  EXPECT_GT(Unreachable, 0u);
  EXPECT_GT(SelfLoops, 0u);
  EXPECT_GT(Irreducible, 0u);
  EXPECT_GT(SharedHeaders, 0u);
}

TEST(CFG, TailMergeAndCodeMotionMatchReference) {
  Rng R(0x7A11);
  for (int Iter = 0; Iter != 1000; ++Iter)
    ASSERT_EQ(diffRandomCFG(R), "") << "iteration " << Iter;
}

TEST(CFG, PredecessorMapStaysCurrent) {
  // Random edits kept current in place must leave the lists a rebuild
  // computes: one entry per edge, in layout order.
  Rng R(0x9ED5);
  for (int Iter = 0; Iter != 300; ++Iter) {
    std::unique_ptr<Module> M = randomCFGModule(R);
    Function &F = *M->Functions.front();
    PredecessorMap Preds(F);
    for (int Edit = 0; Edit != 10; ++Edit) {
      auto Pick = [&] { return F.Blocks[R.nextBelow(F.Blocks.size())].get(); };
      switch (R.nextBelow(3)) {
      case 0: { // Retarget one block's terminator.
        BasicBlock *B = Pick();
        Preds.detachSuccessors(B);
        B->replaceSuccessor(B->terminator().Succ0, Pick());
        Preds.attachSuccessors(B);
        break;
      }
      case 1: { // Append a block that branches somewhere.
        BasicBlock *N = F.createBlock("new");
        Preds.addBlock(N);
        Instruction Br;
        Br.Op = Opcode::Br;
        Br.Succ0 = Pick();
        N->Insts.push_back(Br);
        Preds.attachSuccessors(N);
        break;
      }
      case 2:
        removeUnreachableBlocks(F, &Preds);
        break;
      }
      PredecessorMap Fresh(F);
      for (auto &B : F.Blocks)
        ASSERT_EQ(Preds[B.get()], Fresh[B.get()])
            << "iteration " << Iter << ", edit " << Edit;
    }
  }
}

namespace {

Instruction brTo(BasicBlock *To) {
  Instruction I;
  I.Op = Opcode::Br;
  I.Succ0 = To;
  return I;
}

Instruction condBrTo(BasicBlock *T, BasicBlock *F) {
  Instruction I;
  I.Op = Opcode::CondBr;
  I.A = Operand::reg(0);
  I.Succ0 = T;
  I.Succ1 = F;
  return I;
}

Instruction ret() {
  Instruction I;
  I.Op = Opcode::Ret;
  I.A = Operand::imm(0);
  return I;
}

/// Layout positions of \p Blocks in \p F.
std::vector<unsigned> positionsOf(const Function &F,
                                  const std::vector<BasicBlock *> &Blocks) {
  std::vector<unsigned> Out;
  for (const BasicBlock *B : Blocks)
    Out.push_back(F.blockIndex(B));
  return Out;
}

/// A random CFG after tail merge and SimplifyCFG have created and erased
/// blocks, so its block numbers have gaps and run past its size.
std::unique_ptr<Module> gappedRandomModule(Rng &R) {
  std::unique_ptr<Module> M = randomCFGModule(R);
  Function &F = *M->Functions.front();
  runTailMerge(F, OptOptions());
  runSimplifyCFG(F, OptOptions());
  return M;
}

} // namespace

TEST(CFG, CondBrWithEqualTargetsListsItsPredecessorTwice) {
  Module M("m");
  Function *F = M.createFunction("main", 0);
  F->ensureRegs(1);
  BasicBlock *E = F->createBlock("entry");
  BasicBlock *T = F->createBlock("t");
  E->Insts = {condBrTo(T, T)};
  T->Insts = {ret()};
  ASSERT_EQ(E->successors().size(), 2u);
  EXPECT_EQ(E->successors()[0], T);
  EXPECT_EQ(E->successors()[1], T);

  PredecessorMap Preds(*F);
  const std::vector<BasicBlock *> Twice{E, E};
  EXPECT_EQ(Preds[T], Twice);
  Preds.detachSuccessors(E);
  EXPECT_TRUE(Preds[T].empty());
  Preds.attachSuccessors(E);
  EXPECT_EQ(Preds[T], Twice);
  EXPECT_EQ(diffCFGAnalyses(*F), "");
}

TEST(CFG, UnreachableCycleAndSelfLoop) {
  // entry -> H; H -> B | X; B -> H (a loop); X -> X | R (a self-loop);
  // U1 <-> U2 is a cycle no path from the entry reaches, and U2 also
  // branches into the loop body.
  Module M("m");
  Function *F = M.createFunction("main", 0);
  F->ensureRegs(1);
  BasicBlock *E = F->createBlock("entry"), *H = F->createBlock("h"),
             *B = F->createBlock("b"), *X = F->createBlock("x"),
             *R = F->createBlock("r"), *U1 = F->createBlock("u1"),
             *U2 = F->createBlock("u2");
  E->Insts = {brTo(H)};
  H->Insts = {condBrTo(B, X)};
  B->Insts = {brTo(H)};
  X->Insts = {condBrTo(X, R)};
  R->Insts = {ret()};
  U1->Insts = {brTo(U2)};
  U2->Insts = {condBrTo(U1, B)};
  ASSERT_EQ(diffCFGAnalyses(*F), "");

  const std::vector<BasicBlock *> RPO{E, H, X, R, B};
  EXPECT_EQ(reversePostOrder(*F), RPO);
  DominatorTree DT(*F);
  EXPECT_FALSE(DT.isReachable(U1));
  EXPECT_FALSE(DT.isReachable(U2));
  EXPECT_TRUE(DT.dominates(H, B));
  EXPECT_FALSE(DT.dominates(B, X));
  EXPECT_FALSE(DT.dominates(U1, U2));

  // The loop body takes the unreachable blocks that reach its latch.
  std::vector<Loop> Loops = findLoops(*F);
  ASSERT_EQ(Loops.size(), 2u);
  EXPECT_EQ(Loops[0].Header, H);
  EXPECT_EQ(Loops[0].Blocks, (std::vector<BasicBlock *>{H, B, U1, U2}));
  EXPECT_EQ(Loops[0].Latches, std::vector<BasicBlock *>{B});
  EXPECT_TRUE(Loops[0].contains(U2));
  EXPECT_FALSE(Loops[0].contains(X));
  EXPECT_EQ(Loops[1].Header, X);
  EXPECT_EQ(Loops[1].Blocks, std::vector<BasicBlock *>{X});
  EXPECT_EQ(Loops[1].Latches, std::vector<BasicBlock *>{X});

  PredecessorMap Preds(*F);
  EXPECT_EQ(Preds[B], (std::vector<BasicBlock *>{H, U2}));
  EXPECT_TRUE(removeUnreachableBlocks(*F, &Preds));
  EXPECT_EQ(F->size(), 5u);
  EXPECT_EQ(Preds[B], std::vector<BasicBlock *>{H});
  EXPECT_EQ(Preds[X], (std::vector<BasicBlock *>{H, X}));
  EXPECT_FALSE(removeUnreachableBlocks(*F, &Preds));
  EXPECT_EQ(diffCFGAnalyses(*F), "");
}

TEST(CFG, ErasedBlockLeavesAGapAndANewBlockTakesTheNextNumber) {
  Module M("m");
  Function *F = M.createFunction("main", 0);
  F->ensureRegs(1);
  BasicBlock *E = F->createBlock("entry"), *A = F->createBlock("a"),
             *X = F->createBlock("x");
  E->Insts = {brTo(A)};
  A->Insts = {brTo(X)};
  X->Insts = {ret()};
  E->Insts = {brTo(X)};
  F->eraseBlock(A);
  EXPECT_EQ(F->getMaxBlockNumber(), 3u);
  EXPECT_EQ(X->getNumber(), 2u);
  DominatorTree Before(*F);
  PredecessorMap Preds(*F);

  BasicBlock *N = F->createBlock("n");
  EXPECT_EQ(N->getNumber(), 3u);
  EXPECT_EQ(N->getLabel(), "n.3");
  EXPECT_EQ(F->getMaxBlockNumber(), 4u);
  // Analyses built before N know nothing of it.
  EXPECT_FALSE(Before.isReachable(N));
  EXPECT_TRUE(Preds[N].empty());

  Preds.addBlock(N);
  Preds.detachSuccessors(E);
  E->Insts = {condBrTo(N, X)};
  Preds.attachSuccessors(E);
  N->Insts = {brTo(X)};
  Preds.attachSuccessors(N);
  EXPECT_EQ(Preds[X], (std::vector<BasicBlock *>{E, N}));
  EXPECT_EQ(Preds[N], std::vector<BasicBlock *>{E});
  EXPECT_TRUE(DominatorTree(*F).dominates(E, N));
  EXPECT_EQ(diffCFGAnalyses(*F), "");
}

TEST(CFG, RenumberBlocksKeepsEveryResult) {
  Rng R(0x5E7);
  unsigned Gapped = 0;
  for (int Iter = 0; Iter != 200; ++Iter) {
    std::unique_ptr<Module> M = gappedRandomModule(R);
    Function &F = *M->Functions.front();
    Gapped += F.getMaxBlockNumber() > F.size();
    std::vector<BasicBlock *> RPO = reversePostOrder(F);
    std::vector<Loop> Loops = findLoops(F);
    F.renumberBlocks();
    ASSERT_EQ(F.getMaxBlockNumber(), F.size());
    for (unsigned I = 0; I != F.size(); ++I)
      ASSERT_EQ(F.Blocks[I]->getNumber(), I);
    EXPECT_EQ(reversePostOrder(F), RPO) << "iteration " << Iter;
    std::vector<Loop> After = findLoops(F);
    ASSERT_EQ(After.size(), Loops.size());
    for (size_t L = 0; L != Loops.size(); ++L) {
      EXPECT_EQ(After[L].Header, Loops[L].Header);
      EXPECT_EQ(After[L].Latches, Loops[L].Latches);
      EXPECT_EQ(After[L].Blocks.size(), Loops[L].Blocks.size());
      for (BasicBlock *B : Loops[L].Blocks)
        EXPECT_TRUE(After[L].contains(B));
    }
    ASSERT_EQ(diffCFGAnalyses(F), "") << "iteration " << Iter;
  }
  EXPECT_GT(Gapped, 0u);
}

TEST(CFG, ModuleCloneNumbersBlocksInLayoutOrder) {
  Rng R(0xC10E);
  for (int Iter = 0; Iter != 200; ++Iter) {
    std::unique_ptr<Module> M = gappedRandomModule(R);
    std::unique_ptr<Module> C = M->clone();
    Function &F = *M->Functions.front(), &G = *C->Functions.front();
    ASSERT_EQ(G.getMaxBlockNumber(), G.size());
    for (unsigned I = 0; I != G.size(); ++I)
      ASSERT_EQ(G.Blocks[I]->getNumber(), I);
    ASSERT_EQ(diffCFGAnalyses(G), "") << "iteration " << Iter;
    // The clone's analyses match the original's by layout position.
    EXPECT_EQ(positionsOf(G, reversePostOrder(G)),
              positionsOf(F, reversePostOrder(F)));
    EXPECT_EQ(diffLoops(G, findLoops(G), F, referenceFindLoops(F)), "")
        << "iteration " << Iter;
    PredecessorMap PG(G), PF(F);
    for (unsigned I = 0; I != F.size(); ++I)
      EXPECT_EQ(positionsOf(G, PG[G.Blocks[I].get()]),
                positionsOf(F, PF[F.Blocks[I].get()]));
  }
}

//===----------------------------------------------------------------------===//
// Oracle property: on every function of every workload preset, plain and
// probed, every ir/CFG.h analysis matches its reference after the inliner
// and after each pass of each mid-level round, as runMidLevelPipeline
// drives them.
//===----------------------------------------------------------------------===//

namespace {

class CFGOracle : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(CFGOracle, AnalysesMatchReferenceAfterEveryMidLevelPass) {
  ExperimentConfig C;
  C.Workload = workloadPreset(GetParam(), 0.1);
  std::unique_ptr<Module> Source = generateProgram(C.Workload);
  const OptOptions &Opts = C.Opt;
  unsigned Checks = 0;
  size_t MaxBlocks = 0;
  for (PGOVariant V : {PGOVariant::None, PGOVariant::CSSPGOProbeOnly}) {
    SCOPED_TRACE(variantName(V));
    // Probes (for the probe-only variant) and the inliner, with every
    // mid-level and late pass left to this test.
    BuildConfig BC;
    BC.Variant = V;
    BC.Opt = C.Opt;
    for (bool *Pass :
         {&BC.Opt.EnableConstantFold, &BC.Opt.EnableSimplifyCFG,
          &BC.Opt.EnableJumpThreading, &BC.Opt.EnableIfConvert,
          &BC.Opt.EnableLoopUnroll, &BC.Opt.EnableCodeMotion,
          &BC.Opt.EnableTailMerge, &BC.Opt.EnableDCE, &BC.Opt.EnableLayout,
          &BC.Opt.EnableFunctionSplit})
      *Pass = false;
    BC.Inline = C.Inline;
    BuildResult Build = buildWithPGO(*Source, BC, nullptr);
    auto Whole = Build.IR->clone();
    runMidLevelPipeline(*Whole, Opts);

    for (auto &FPtr : Build.IR->Functions) {
      Function &F = *FPtr;
      bool Same = true;
      auto Check = [&](const char *After) {
        ++Checks;
        MaxBlocks = std::max(MaxBlocks, F.size());
        std::string D = diffCFGAnalyses(F);
        EXPECT_EQ(D, "") << F.getName() << " after " << After;
        Same = D.empty();
      };
      Check("the inliner");
      for (int Round = 0; Round != 3 && Same; ++Round) {
        unsigned Changed = 0;
        auto Run = [&](bool Enabled, const char *Name,
                       unsigned (*Pass)(Function &, const OptOptions &)) {
          if (!Enabled || !Same)
            return;
          Changed += Pass(F, Opts);
          Check(Name);
        };
        Run(Opts.EnableConstantFold, "constant folding", runConstantFold);
        Run(Opts.EnableSimplifyCFG, "SimplifyCFG", runSimplifyCFG);
        Run(Opts.EnableJumpThreading, "jump threading", runJumpThreading);
        Run(Opts.EnableIfConvert, "if-conversion", runIfConvert);
        Run(Round == 0 && Opts.EnableLoopUnroll, "loop unroll", runLoopUnroll);
        Run(Opts.EnableCodeMotion, "code motion", runCodeMotion);
        Run(Opts.EnableTailMerge, "tail merge", runTailMerge);
        Run(Opts.EnableDCE, "DCE", runDCE);
        Run(Opts.EnableSimplifyCFG, "SimplifyCFG", runSimplifyCFG);
        if (!Changed)
          break;
      }
    }
    EXPECT_EQ(printModule(*Build.IR), printModule(*Whole))
        << "this test's pass loop no longer matches runMidLevelPipeline";
  }
  std::printf("[ cfg      ] %s: %u function states checked, largest %zu "
              "blocks\n",
              GetParam().c_str(), Checks, MaxBlocks);
  EXPECT_GT(Checks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, CFGOracle,
    ::testing::Values("AdRanker", "AdRetriever", "AdFinder", "HHVM", "HaaS",
                      "ClangProxy", "RpcFanout", "InterpLoop", "ColdBoot"),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

//===----------------------------------------------------------------------===//
// Oracle property: on every function of every workload preset, through the
// mid-level pipeline as runMidLevelPipeline drives it, tail merge and code
// motion print the same IR as their set-based references, and loop unroll
// sees the reference's loops. The reference runs in lockstep on a second
// copy of the module, so block labels must match too.
//===----------------------------------------------------------------------===//

namespace {

class MidLevelOracle : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(MidLevelOracle, MatchesReferenceOnEveryFunction) {
  ExperimentConfig C;
  C.Workload =
      workloadPreset(GetParam(), GetParam() == "ClangProxy" ? 0.3 : 0.1);
  C.EvalRuns = 1;
  PGODriver Driver(C);
  const OptOptions &Opts = C.Opt;
  unsigned Funcs = 0, Calls = 0, FixChanged = 0;
  for (PGOVariant V :
       {PGOVariant::None, PGOVariant::AutoFDO, PGOVariant::CSSPGOFull}) {
    SCOPED_TRACE(variantName(V));
    VariantOutcome Out;
    if (V != PGOVariant::None) {
      Out = Driver.run(V);
      ASSERT_TRUE(Out.Profile.Has);
    }
    // PGODriver's build configuration with every mid-level and late pass
    // off, so the built IR is what runMidLevelPipeline would get.
    BuildConfig BC;
    BC.Variant = V;
    BC.Opt = C.Opt;
    for (bool *Pass :
         {&BC.Opt.EnableConstantFold, &BC.Opt.EnableSimplifyCFG,
          &BC.Opt.EnableJumpThreading, &BC.Opt.EnableIfConvert,
          &BC.Opt.EnableLoopUnroll, &BC.Opt.EnableCodeMotion,
          &BC.Opt.EnableTailMerge, &BC.Opt.EnableDCE, &BC.Opt.EnableLayout,
          &BC.Opt.EnableFunctionSplit})
      *Pass = false;
    BC.Inline = C.Inline;
    BC.Loader = C.Loader;
    BC.EnableInference = C.EnableInference;
    if (C.VerifyProfiles)
      BC.Loader.Verify = VerifyLevel::Full;
    if (V == PGOVariant::CSSPGOFull && C.RunPreInliner)
      BC.Loader.InlineHotContexts = false;
    BuildResult Build = buildWithPGO(
        Driver.source(), BC, V == PGOVariant::None ? nullptr : &Out.Profile);
    auto Prod = Build.IR->clone(), Ref = Build.IR->clone();
    auto Whole = Build.IR->clone();
    runMidLevelPipeline(*Whole, Opts);

    for (size_t FI = 0; FI != Prod->Functions.size(); ++FI) {
      Function &P = *Prod->Functions[FI], &R = *Ref->Functions[FI];
      ++Funcs;
      bool Same = true, Fixed = false;
      auto Check = [&](const char *Pass, unsigned CP, unsigned CR) {
        ++Calls;
        std::string TP = printFunction(P), TR = printFunction(R);
        if (CP == CR && TP == TR)
          return;
        ADD_FAILURE() << Pass << " on " << P.getName() << ": " << CP
                      << " vs " << CR << " changes\n"
                      << TP << "reference:\n" << TR;
        Same = false;
      };
      for (int Round = 0; Round != 3 && Same; ++Round) {
        unsigned Changed = 0;
        auto Both = [&](unsigned (*Pass)(Function &, const OptOptions &)) {
          Changed += Pass(P, Opts);
          Pass(R, Opts);
        };
        if (Opts.EnableConstantFold)
          Both(runConstantFold);
        if (Opts.EnableSimplifyCFG)
          Both(runSimplifyCFG);
        if (Opts.EnableJumpThreading)
          Both(runJumpThreading);
        if (Opts.EnableIfConvert)
          Both(runIfConvert);
        if (Round == 0 && Opts.EnableLoopUnroll) {
          std::string D = diffLoops(P, findLoops(P), R, referenceFindLoops(R));
          EXPECT_EQ(D, "") << P.getName();
          Same &= D.empty();
          unsigned CP = runLoopUnroll(P, Opts);
          Check("loop unroll", CP, runLoopUnroll(R, Opts));
          Changed += CP;
        }
        if (Opts.EnableCodeMotion) {
          auto Unfixed = cloneFunctionAlone(R), Fix = cloneFunctionAlone(R);
          referenceCodeMotion(*Unfixed->Functions.front(), Opts, false);
          referenceCodeMotion(*Fix->Functions.front(), Opts, true);
          Fixed |= printModule(*Unfixed) != printModule(*Fix);
          unsigned CP = runCodeMotion(P, Opts);
          Check("code motion", CP, referenceCodeMotion(R, Opts, true));
          Changed += CP;
        }
        if (Opts.EnableTailMerge) {
          unsigned CP = runTailMerge(P, Opts);
          Check("tail merge", CP, referenceTailMerge(R));
          Changed += CP;
        }
        if (Opts.EnableDCE)
          Both(runDCE);
        if (Opts.EnableSimplifyCFG)
          Both(runSimplifyCFG);
        if (!Changed)
          break;
      }
      FixChanged += Fixed;
    }
    EXPECT_EQ(printModule(*Prod), printModule(*Whole))
        << "this test's pass loop no longer matches runMidLevelPipeline";
  }
  std::printf("[ midlevel ] %s: %u function builds, %u tail merge / code "
              "motion / unroll calls matched the reference; the nested-loop "
              "preheader fix changed the code-motion result of %u\n",
              GetParam().c_str(), Funcs, Calls, FixChanged);
  EXPECT_GT(Calls, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, MidLevelOracle,
    ::testing::Values("AdRanker", "AdRetriever", "AdFinder", "HHVM", "HaaS",
                      "ClangProxy", "RpcFanout", "InterpLoop", "ColdBoot"),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

TEST(FunctionSplit, MarksZeroCountBlocksCold) {
  auto M = makeCallerModule(5);
  Function *F = M->getFunction("leaf");
  F->Blocks[0]->setCount(100);
  F->Blocks[1]->setCount(100);
  F->Blocks[2]->setCount(0);
  F->Blocks[3]->setCount(100);
  OptOptions Opts;
  EXPECT_EQ(runFunctionSplit(*F, Opts), 1u);
  EXPECT_TRUE(F->Blocks[2]->IsColdSection);
  EXPECT_FALSE(F->Blocks[0]->IsColdSection);
}

TEST(FunctionSplit, WholeColdFunctionMovesEntirely) {
  auto M = makeCallerModule(5);
  Function *F = M->getFunction("leaf");
  for (auto &BB : F->Blocks)
    BB->setCount(0);
  OptOptions Opts;
  EXPECT_EQ(runFunctionSplit(*F, Opts), 4u);
  for (auto &BB : F->Blocks)
    EXPECT_TRUE(BB->IsColdSection);
  // Still compiles and runs correctly with a fully cold callee.
  auto R = compileAndRun(*M);
  ASSERT_TRUE(R.Completed);
}

TEST(Inliner, RemoveDeadFunctionsReachesTheFixpoint) {
  // main -> live; dead1 -> dead2 -> dead3 (a chain nobody calls); cyc1 <->
  // cyc2 (a dead cycle, which survives); tab (only in the dispatch table).
  Module M("m");
  auto Define = [&M](const std::string &Name,
                     std::vector<std::string> Callees) {
    Function *F = M.createFunction(Name, 0);
    Builder B(F);
    B.setInsertBlock(F->createBlock("entry"));
    for (const std::string &C : Callees)
      B.emitCall(C, {});
    B.emitRet(Operand::imm(0));
  };
  Define("dead3", {});
  Define("cyc1", {"cyc2"});
  Define("dead2", {"dead3", "dead3"});
  Define("live", {});
  Define("cyc2", {"cyc1", "live"});
  Define("dead1", {"dead2"});
  Define("tab", {"dead3"});
  Define("main", {"live"});
  M.EntryFunction = "main";
  M.FunctionTable = {"tab"};
  ASSERT_TRUE(verifyModule(M).empty());
  EXPECT_EQ(removeDeadFunctions(M), 2u);
  std::vector<std::string> Left;
  for (auto &F : M.Functions)
    Left.push_back(F->getName());
  EXPECT_EQ(Left, (std::vector<std::string>{"dead3", "cyc1", "live", "cyc2",
                                            "tab", "main"}));
  EXPECT_EQ(removeDeadFunctions(M), 0u);
}

TEST(Inliner, MechanicsPreserveSemantics) {
  auto M = makeCallerModule(30);
  int64_t Before = runExit(*M);
  Function *Main = M->getFunction("main");
  Function *Leaf = M->getFunction("leaf");
  // Find the call.
  bool Inlined = false;
  for (auto &BB : Main->Blocks) {
    for (size_t I = 0; I != BB->Insts.size(); ++I) {
      if (BB->Insts[I].isCall()) {
        InlinedBody Body = inlineCallSite(*Main, BB.get(), I, *Leaf);
        ASSERT_TRUE(Body.Success);
        Inlined = true;
        break;
      }
    }
    if (Inlined)
      break;
  }
  ASSERT_TRUE(Inlined);
  EXPECT_TRUE(verifyModule(*M).empty());
  EXPECT_EQ(runExit(*M), Before);
}

TEST(Inliner, InlineStacksTrackContext) {
  auto M = makeCallerModule(5);
  Function *Main = M->getFunction("main");
  Function *Leaf = M->getFunction("leaf");
  insertProbes(*M, AnchorKind::PseudoProbe);
  uint32_t CallProbe = 0;
  for (auto &BB : Main->Blocks)
    for (size_t I = 0; I != BB->Insts.size(); ++I)
      if (BB->Insts[I].isCall()) {
        CallProbe = BB->Insts[I].ProbeId;
        InlinedBody Body = inlineCallSite(*Main, BB.get(), I, *Leaf);
        ASSERT_TRUE(Body.Success);
        for (const auto &[Orig, Clone] : Body.BlockMap)
          for (const Instruction &Inst : Clone->Insts)
            if (Inst.isProbe() && Inst.OriginGuid == Leaf->getGuid()) {
              ASSERT_EQ(Inst.InlineStack.size(), 1u);
              EXPECT_EQ(Inst.InlineStack[0].FuncGuid, Main->getGuid());
              EXPECT_EQ(Inst.InlineStack[0].CallProbeId, CallProbe);
            }
        goto done;
      }
done:
  EXPECT_GT(CallProbe, 0u);
}

TEST(Inliner, BottomUpInlinesSmallCallees) {
  auto M = makeCallerModule(30);
  int64_t Before = runExit(*M);
  InlineParams Params;
  InlinerStats Stats = runBottomUpInliner(*M, Params);
  EXPECT_GE(Stats.NumInlined, 1u);
  // 'leaf' has no remaining callers and is removed.
  EXPECT_EQ(M->getFunction("leaf"), nullptr);
  EXPECT_EQ(Stats.NumDeadFunctionsRemoved, 1u);
  EXPECT_EQ(runExit(*M), Before);
}

TEST(Inliner, RespectsNoInline) {
  auto M = makeCallerModule(30);
  M->getFunction("leaf")->NoInline = true;
  InlineParams Params;
  InlinerStats Stats = runBottomUpInliner(*M, Params);
  EXPECT_EQ(Stats.NumInlined, 0u);
}

TEST(Inliner, ColdCallsiteOnlyTinyCallees) {
  auto M = makeCallerModule(30);
  Function *Main = M->getFunction("main");
  for (auto &BB : Main->Blocks)
    BB->setCount(0); // Known cold.
  InlineParams Params;
  Params.HotCallsiteCount = 1000;
  InlineDecision D = shouldInline(*Main, *M->getFunction("leaf"), 0, Params);
  // leaf is ~10 instructions <= ColdSizeThreshold -> still inlined.
  EXPECT_TRUE(D.Inline);
  Params.ColdSizeThreshold = 2;
  D = shouldInline(*Main, *M->getFunction("leaf"), 0, Params);
  EXPECT_FALSE(D.Inline);
}

TEST(Pipeline, MidLevelPreservesSemanticsOnWorkload) {
  // Fuller integration: the whole mid-level pipeline on a generated
  // workload must not change program output.
  WorkloadConfig C;
  C.Seed = 77;
  C.Requests = 40;
  C.NumMids = 6;
  C.NumUtils = 4;
  C.NumServices = 2;
  auto M = generateProgram(C);
  auto Mem0 = generateInput(C, 5);
  auto Bin0 = compileToBinary(*M);
  auto MemA = Mem0;
  int64_t Before = execute(*Bin0, "main", MemA, {}).ExitValue;

  OptOptions Opts;
  runMidLevelPipeline(*M, Opts);
  runLatePipeline(*M, Opts);
  auto Bin1 = compileToBinary(*M);
  auto MemB = Mem0;
  EXPECT_EQ(execute(*Bin1, "main", MemB, {}).ExitValue, Before);
}
