//===- tests/PostLinkTest.cpp - post-link optimizer tests -------*- C++ -*-===//
//
// The post-link subsystem's contract, in three rings: (1) disassembly is
// lossless — reassemble(identityLayout) reproduces every workload binary
// field for field; (2) rewritten layouts still verify and compute the
// same results; (3) malformed binaries are rejected with a clean error,
// never a crash (the fuzz harness leans on exactly this).
//
//===----------------------------------------------------------------------===//

#include "postlink/PostLinkOptimizer.h"

#include "pgo/PGODriver.h"
#include "pgo/ProfilePipeline.h"
#include "workload/Workloads.h"

#include <gtest/gtest.h>

#include "TestHelpers.h"

using namespace csspgo;
using namespace csspgo::postlink;

namespace {

/// Asserts the disassemble -> reassemble identity round trip on \p Bin.
void expectRoundTripIdentity(const Binary &Bin, const std::string &What) {
  Expected<BinaryCFG> CFG = reconstructBinaryCFG(Bin);
  ASSERT_TRUE(CFG.hasValue()) << What << ": " << CFG.status().message();
  std::unique_ptr<Binary> Out = reassemble(*CFG, identityLayout(*CFG));
  std::string Why;
  EXPECT_TRUE(binariesIdentical(Bin, *Out, &Why)) << What << ": " << Why;
}

ExperimentConfig smallExperiment(const char *Name = "AdRanker") {
  ExperimentConfig Config;
  Config.Workload = workloadPreset(Name, 0.15);
  Config.EvalRuns = 2;
  return Config;
}

int64_t runBinary(const Binary &Bin, uint64_t MemWords = 4096) {
  std::vector<int64_t> Memory(MemWords, 0);
  RunResult R = execute(Bin, "main", Memory, {});
  EXPECT_TRUE(R.Completed) << R.Error;
  return R.ExitValue;
}

} // namespace

//===----------------------------------------------------------------------===//
// Ring 1: lossless disassembly.
//===----------------------------------------------------------------------===//

TEST(PostLinkIdentity, SmallCallerModuleRoundTrips) {
  auto M = csspgo::testing::makeCallerModule(50);
  expectRoundTripIdentity(*compileToBinary(*M), "caller module");
}

TEST(PostLinkIdentity, EveryWorkloadBinaryRoundTrips) {
  // The acceptance property: identity holds for every workload binary,
  // plain and probe-anchored (the probed encodings carry the probe
  // records reassembly must reproduce byte for byte).
  std::vector<std::string> Names = serverWorkloadNames();
  Names.push_back("ClangProxy");
  for (const std::string &Name : Names) {
    auto Source = generateProgram(workloadPreset(Name, 0.1));
    for (PGOVariant V : {PGOVariant::None, PGOVariant::CSSPGOFull}) {
      BuildConfig BC;
      BC.Variant = V;
      BuildResult Build = buildWithPGO(*Source, BC, nullptr);
      expectRoundTripIdentity(*Build.Bin,
                              Name + "/" + std::string(variantName(V)));
    }
  }
}

TEST(PostLinkIdentity, ReconstructedCFGCoversEveryInstruction) {
  auto M = csspgo::testing::makeCallerModule(20);
  auto Bin = compileToBinary(*M);
  Expected<BinaryCFG> CFG = reconstructBinaryCFG(*Bin);
  ASSERT_TRUE(CFG.hasValue()) << CFG.status().message();
  ASSERT_EQ(CFG->BlockOfInst.size(), Bin->Code.size());
  for (size_t I = 0; I != Bin->Code.size(); ++I) {
    ASSERT_NE(CFG->BlockOfInst[I], UINT32_MAX) << "instruction " << I;
    const BBlock &B = CFG->blockOf(I);
    EXPECT_GE(I, B.Begin);
    EXPECT_LT(I, B.End);
    EXPECT_TRUE(Bin->Funcs[B.Func].containsIdx(I));
  }
  // Blocks partition the code: sizes sum to the text size.
  uint64_t Bytes = 0;
  for (const BBlock &B : CFG->Blocks)
    Bytes += B.SizeBytes;
  EXPECT_EQ(Bytes, Bin->textSize());
}

//===----------------------------------------------------------------------===//
// Ring 2: rewritten layouts stay valid and semantics-preserving.
//===----------------------------------------------------------------------===//

TEST(PostLinkRewrite, ReversedHotBlocksPreserveSemantics) {
  // Adversarial re-layout: reverse every function's non-entry hot blocks.
  // Reassembly must repair all displaced fallthroughs; the result must
  // still validate and compute the same exit value.
  auto M = csspgo::testing::makeCallerModule(100);
  auto Bin = compileToBinary(*M);
  int64_t Want = runBinary(*Bin);

  Expected<BinaryCFG> CFG = reconstructBinaryCFG(*Bin);
  ASSERT_TRUE(CFG.hasValue());
  LayoutPlan Plan = identityLayout(*CFG);
  for (FuncLayout &FL : Plan.Funcs)
    if (FL.NumHot > 2)
      std::reverse(FL.Blocks.begin() + 1, FL.Blocks.begin() + FL.NumHot);

  ReassembleStats RS;
  std::unique_ptr<Binary> Out = reassemble(*CFG, Plan, &RS);
  EXPECT_GT(RS.BranchesFlipped + RS.BranchesSynthesized, 0u)
      << "reversal must displace at least one fallthrough";
  Expected<BinaryCFG> OutCFG = reconstructBinaryCFG(*Out);
  ASSERT_TRUE(OutCFG.hasValue())
      << "rewritten binary fails validation: " << OutCFG.status().message();
  EXPECT_EQ(runBinary(*Out), Want);
}

TEST(PostLinkRewrite, FoldDropsDuplicateBodies) {
  // Two byte-identical leaf functions; folding keeps one body and
  // redirects the second call sites to it.
  auto M = std::make_unique<Module>("icf");
  csspgo::testing::addBranchyFunction(*M, "leaf");
  csspgo::testing::addBranchyFunction(*M, "leaf2");
  Function *Main = M->createFunction("main", 0);
  Builder B(Main);
  BasicBlock *Entry = Main->createBlock("entry");
  B.setInsertBlock(Entry);
  RegId A = B.emitCall("leaf", {Operand::imm(3)});
  RegId C = B.emitCall("leaf2", {Operand::imm(30)});
  RegId Sum = B.emitBinary(Opcode::Add, Operand::reg(A), Operand::reg(C));
  B.emitRet(Operand::reg(Sum));
  M->EntryFunction = "main";

  auto Bin = compileToBinary(*M);
  int64_t Want = runBinary(*Bin);

  PostLinkOptions Opts;
  Opts.Reorder = false;
  Opts.Split = false;
  Expected<PostLinkResult> R = runPostLink(*Bin, {}, nullptr, nullptr, Opts);
  ASSERT_TRUE(R.hasValue()) << R.status().message();
  EXPECT_EQ(R->Stats.FuncsFolded, 1u);
  EXPECT_LT(R->Stats.TextBytesAfter, R->Stats.TextBytesBefore);
  EXPECT_EQ(runBinary(*R->Bin), Want);
  expectRoundTripIdentity(*R->Bin, "folded binary");
}

TEST(PostLinkRewrite, SplitMovesNeverExecutedBlocks) {
  // main has a guarded error path that never executes; splitting must
  // move it out of the hot section without touching results.
  auto M = std::make_unique<Module>("split");
  Function *Main = M->createFunction("main", 0);
  Builder B(Main);
  BasicBlock *Entry = Main->createBlock("entry");
  BasicBlock *Error = Main->createBlock("error");
  BasicBlock *Work = Main->createBlock("work");
  BasicBlock *Done = Main->createBlock("done");

  B.setInsertBlock(Entry);
  RegId Zero = B.emitConst(0);
  B.emitCondBr(Operand::reg(Zero), Error, Work);
  B.setInsertBlock(Error); // Never reached.
  RegId E1 = B.emitBinary(Opcode::Mul, Operand::imm(9), Operand::imm(9));
  RegId E2 = B.emitBinary(Opcode::Add, Operand::reg(E1), Operand::imm(1));
  (void)E2;
  B.emitBr(Done);
  B.setInsertBlock(Work);
  RegId W = B.emitBinary(Opcode::Add, Operand::imm(20), Operand::imm(22));
  B.emitBr(Done);
  B.setInsertBlock(Done);
  B.emitRet(Operand::reg(W));
  M->EntryFunction = "main";

  auto Bin = compileToBinary(*M);
  // Sample a run so the splitter sees real counts.
  ExecConfig Exec;
  Exec.Sampler.Enabled = true;
  Exec.Sampler.PeriodCycles = 3;
  std::vector<int64_t> Memory(1024, 0);
  RunResult Train = execute(*Bin, "main", Memory, Exec);
  ASSERT_TRUE(Train.Completed);

  PostLinkOptions Opts;
  Opts.Reorder = false;
  Opts.Fold = false;
  // The program runs once, so main's few mapped counts sit below the
  // default sampling-confidence gate; drop it to exercise the mechanism.
  Opts.SplitMinFuncCount = 1;
  Expected<PostLinkResult> R =
      runPostLink(*Bin, Train.Samples, nullptr, nullptr, Opts);
  ASSERT_TRUE(R.hasValue()) << R.status().message();
  EXPECT_GE(R->Stats.BlocksSplit, 1u);
  EXPECT_EQ(R->Stats.FuncsSplit, 1u);
  EXPECT_EQ(runBinary(*R->Bin), Train.ExitValue);
  // The split region lands behind the original hot text: the function
  // gained a cold section.
  const Binary &Out = *R->Bin;
  uint32_t MainIdx = Out.funcIndexByName("main");
  ASSERT_NE(MainIdx, ~0u);
  EXPECT_GT(Out.Funcs[MainIdx].ColdEnd, Out.Funcs[MainIdx].ColdBegin);
  expectRoundTripIdentity(Out, "split binary");
}

TEST(PostLinkRewrite, ReordersFunctionsAboveSixtyFourHotBlocks) {
  // main's loop body is a run of 70 blocks laid out in reverse: each one
  // jumps back to the block before it. Every function goes through the
  // solver whatever its size, so the body must come out in execution
  // order.
  constexpr unsigned Steps = 70;
  auto M = std::make_unique<Module>("large");
  Function *Main = M->createFunction("main", 0);
  Builder B(Main);
  BasicBlock *Entry = Main->createBlock("entry");
  BasicBlock *Header = Main->createBlock("header");
  std::vector<BasicBlock *> Step(Steps);
  for (unsigned S = Steps; S-- != 0;)
    Step[S] = Main->createBlock("step" + std::to_string(S));
  BasicBlock *Latch = Main->createBlock("latch");
  BasicBlock *Exit = Main->createBlock("exit");

  B.setInsertBlock(Entry);
  RegId Acc = B.emitConst(0);
  RegId I = B.emitConst(0);
  B.emitBr(Header);
  B.setInsertBlock(Header);
  RegId Cond = B.emitBinary(Opcode::CmpLT, Operand::reg(I), Operand::imm(40));
  B.emitCondBr(Operand::reg(Cond), Step[0], Exit);
  for (unsigned S = 0; S != Steps; ++S) {
    B.setInsertBlock(Step[S]);
    B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::imm(S));
    Step[S]->Insts.back().Dst = Acc;
    B.emitBr(S + 1 == Steps ? Latch : Step[S + 1]);
  }
  B.setInsertBlock(Latch);
  B.emitBinary(Opcode::Add, Operand::reg(I), Operand::imm(1));
  Latch->Insts.back().Dst = I;
  B.emitBr(Header);
  B.setInsertBlock(Exit);
  B.emitRet(Operand::reg(Acc));
  M->EntryFunction = "main";

  auto Bin = compileToBinary(*M);
  ExecConfig Exec;
  Exec.Sampler.Enabled = true;
  Exec.Sampler.PeriodCycles = 7;
  std::vector<int64_t> Memory(1024, 0);
  RunResult Train = execute(*Bin, "main", Memory, Exec);
  ASSERT_TRUE(Train.Completed);
  EXPECT_EQ(Train.ExitValue, 40 * (Steps * (Steps - 1) / 2));

  PostLinkOptions Opts;
  Opts.Fold = false;
  Opts.Split = false;
  Expected<PostLinkResult> R =
      runPostLink(*Bin, Train.Samples, nullptr, nullptr, Opts);
  ASSERT_TRUE(R.hasValue()) << R.status().message();
  Expected<BinaryCFG> CFG = reconstructBinaryCFG(*Bin);
  ASSERT_TRUE(CFG.hasValue());
  LayoutPlan Plan = identityLayout(*CFG);
  EXPECT_GT(Plan.Funcs[Bin->funcIndexByName("main")].NumHot, 64u);
  EXPECT_EQ(R->Stats.FuncsReordered, 1u);
  EXPECT_EQ(runBinary(*R->Bin), Train.ExitValue);
  expectRoundTripIdentity(*R->Bin, "reordered binary");
}

TEST(PostLinkRewrite, StackedOnPGOPreservesSemantics) {
  PGODriver Driver(smallExperiment());
  PostLinkOutcome Out = Driver.runPostLink(PGOVariant::CSSPGOFull);
  EXPECT_EQ(Out.ExitValue, Out.Base.ExitValue)
      << "post-link rewrite changed program semantics";
  // The samples were collected on exactly the binary being rewritten, so
  // nearly every LBR endpoint must resolve.
  EXPECT_GT(Out.Stats.Map.MappedSampleRate, 0.95);
  EXPECT_FALSE(Out.Stats.TransformsGated);
  EXPECT_GT(Out.EvalCyclesMean, 0.0);
}

TEST(PostLinkRewrite, BoltOnlyOnPlainBinaryPreservesSemantics) {
  PGODriver Driver(smallExperiment("HHVM"));
  PostLinkOutcome Out = Driver.runPostLink(PGOVariant::None);
  EXPECT_EQ(Out.ExitValue, Out.Base.ExitValue);
  EXPECT_GT(Out.Stats.Map.MappedSampleRate, 0.95);
  // A plain binary leaves plenty on the table for layout transforms.
  EXPECT_GT(Out.Stats.FuncsReordered + Out.Stats.FuncsSplit, 0u);
}

TEST(PostLinkRewrite, LowMappedRateGatesLayoutTransforms) {
  // Samples from a *different* binary: endpoints don't resolve, the
  // mapped rate collapses, and reorder/split must stand down.
  auto M1 = csspgo::testing::makeCallerModule(80);
  auto M2 = csspgo::testing::makeCallerModule(200);
  auto Bin1 = compileToBinary(*M1);
  auto Bin2 = compileToBinary(*M2);

  ExecConfig Exec;
  Exec.Sampler.Enabled = true;
  Exec.Sampler.PeriodCycles = 7;
  std::vector<int64_t> Memory(1024, 0);
  RunResult Foreign = execute(*Bin2, "main", Memory, Exec);
  ASSERT_FALSE(Foreign.Samples.empty());

  // Shift every sampled address out of Bin1's text so nothing resolves.
  for (PerfSample &S : Foreign.Samples)
    for (LBREntry &E : S.LBR) {
      E.Src += 1;
      E.Dst += 1;
    }

  int64_t Want = runBinary(*Bin1);
  Expected<PostLinkResult> R = runPostLink(*Bin1, Foreign.Samples);
  ASSERT_TRUE(R.hasValue()) << R.status().message();
  EXPECT_LT(R->Stats.Map.MappedSampleRate, 0.5);
  EXPECT_TRUE(R->Stats.TransformsGated);
  EXPECT_EQ(R->Stats.FuncsReordered, 0u);
  EXPECT_EQ(R->Stats.BlocksSplit, 0u);
  EXPECT_EQ(runBinary(*R->Bin), Want);
}

TEST(PostLinkRewrite, StaleProbeProfileRoutesThroughMatcher) {
  // A probe profile whose checksum disagrees with the IR is stale; the
  // mapper must route it through the anchor matcher instead of using or
  // silently dropping it.
  auto Source = csspgo::testing::makeCallerModule(60);
  BuildConfig BC;
  BC.Variant = PGOVariant::CSSPGOProbeOnly;
  // Keep the leaf call out-of-line: the matcher aligns on call anchors,
  // and a fully inlined main would have none.
  BC.Inline.SizeThreshold = 0;
  BC.Inline.HotSizeThreshold = 0;
  BC.Inline.ColdSizeThreshold = 0;
  BuildResult Build = buildWithPGO(*Source, BC, nullptr);

  ExecConfig Exec;
  Exec.Sampler.Enabled = true;
  Exec.Sampler.PeriodCycles = 11;
  std::vector<int64_t> Memory(1024, 0);
  RunResult Train = execute(*Build.Bin, "main", Memory, Exec);

  PipelineOptions PO;
  PO.Kind = ProfGenKind::ProbeOnly;
  ProfilePipeline Pipe(PO);
  Expected<ProfileBundle> Bundle =
      Pipe.generate(*Build.Bin, &Build.ProbeDescs, Train.Samples);
  ASSERT_TRUE(Bundle.hasValue()) << Bundle.status().message();
  FlatProfile Flat = Bundle->Flat;
  ASSERT_FALSE(Flat.Functions.empty());
  for (auto &[Name, FP] : Flat.Functions)
    FP.Checksum ^= 0xDEADBEEF; // Simulate a CFG-drifted profile.

  Expected<BinaryCFG> CFG = reconstructBinaryCFG(*Build.Bin);
  ASSERT_TRUE(CFG.hasValue());
  // No LBR samples: every function takes the probe-count path.
  BinaryProfile Prof =
      mapProfileToBinary(*CFG, {}, &Flat, Build.IR.get());
  EXPECT_GT(Prof.Stats.StaleProfiles, 0u);
  EXPECT_EQ(Prof.Stats.StaleProfiles,
            Prof.Stats.StaleRecovered + Prof.Stats.StaleDropped);
  // Only the checksum lied — the anchors still align, so the matcher
  // recovers the counts instead of dropping them.
  EXPECT_GT(Prof.Stats.StaleRecovered, 0u);
}

//===----------------------------------------------------------------------===//
// Ring 3: malformed binaries are rejected, not crashed on.
//===----------------------------------------------------------------------===//

namespace {

/// Expects reconstruction of \p Bin to fail with a clean diagnostic.
void expectRejected(const Binary &Bin, const std::string &What) {
  Expected<BinaryCFG> CFG = reconstructBinaryCFG(Bin);
  EXPECT_FALSE(CFG.hasValue()) << What << ": accepted a malformed binary";
  if (!CFG) {
    EXPECT_FALSE(CFG.status().message().empty()) << What;
  }
}

} // namespace

TEST(PostLinkValidation, MutatedBinariesRejectCleanly) {
  auto M = csspgo::testing::makeCallerModule(10);
  auto Good = compileToBinary(*M);
  ASSERT_TRUE(reconstructBinaryCFG(*Good).hasValue());

  size_t BrIdx = SIZE_MAX;
  for (size_t I = 0; I != Good->Code.size(); ++I)
    if (Good->Code[I].Op == Opcode::Br) {
      BrIdx = I;
      break;
    }
  ASSERT_NE(BrIdx, SIZE_MAX);

  {
    Binary Bad = *Good; // Branch target outside the code stream.
    Bad.Code[BrIdx].Target = static_cast<int64_t>(Bad.Code.size()) + 7;
    expectRejected(Bad, "wild branch target");
  }
  {
    Binary Bad = *Good; // Branch target escaping its function.
    Bad.Code[BrIdx].Target = static_cast<int64_t>(Bad.Code.size()) - 1;
    expectRejected(Bad, "cross-function branch target");
  }
  {
    Binary Bad = *Good; // Encoded size disagreeing with the opcode.
    Bad.Code[0].Size += 1;
    expectRejected(Bad, "wrong encoding size");
  }
  {
    Binary Bad = *Good; // Corrupt address table.
    Bad.Code[Bad.Code.size() / 2].Addr ^= 0x40;
    expectRejected(Bad, "corrupt address");
  }
  {
    Binary Bad = *Good; // Invalid opcode byte.
    Bad.Code[0].Op = static_cast<Opcode>(0xEE);
    expectRejected(Bad, "invalid opcode");
  }
  {
    Binary Bad = *Good; // Overlapping section ranges.
    Bad.Funcs[0].HotEnd += 1;
    expectRejected(Bad, "overlapping sections");
  }
  {
    Binary Bad = *Good; // Probe pointing outside its function.
    if (!Bad.Probes.empty()) {
      Bad.Probes[0].InstIdx = Bad.Code.size() + 3;
      expectRejected(Bad, "detached probe");
    }
  }
  {
    Binary Bad = *Good; // Non-branch carrying a branch target.
    for (MInst &MI : Bad.Code)
      if (MI.Op == Opcode::Ret) {
        MI.Target = 0;
        break;
      }
    expectRejected(Bad, "target on a non-branch");
  }
}
