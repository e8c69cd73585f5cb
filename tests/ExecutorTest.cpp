//===- tests/ExecutorTest.cpp - simulator tests -----------------*- C++ -*-===//

#include "ir/GuestArith.h"
#include "probe/ProbeInserter.h"
#include "sim/Executor.h"
#include "sim/InstrRuntime.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace csspgo;
using namespace csspgo::testing;

TEST(Executor, LoopComputesSum) {
  Module M("m");
  addLoopFunction(M, "looper");
  // Wrapper entry that calls looper(100).
  Function *Main = M.createFunction("main", 0);
  Builder B(Main);
  BasicBlock *E = Main->createBlock("entry");
  B.setInsertBlock(E);
  RegId R = B.emitCall("looper", {Operand::imm(100)});
  B.emitRet(Operand::reg(R));
  M.EntryFunction = "main";

  auto Result = compileAndRun(M);
  ASSERT_TRUE(Result.Completed) << Result.Error;
  EXPECT_EQ(Result.ExitValue, 4950); // sum 0..99
}

TEST(Executor, BranchSemantics) {
  auto M = makeCallerModule(20);
  auto Result = compileAndRun(*M);
  ASSERT_TRUE(Result.Completed);
  // leaf(i) = i<10 ? i+1 : i*2; sum over i=0..19
  int64_t Expect = 0;
  for (int64_t I = 0; I != 20; ++I)
    Expect += I < 10 ? I + 1 : I * 2;
  EXPECT_EQ(Result.ExitValue, Expect);
}

TEST(Executor, MemoryLoadStore) {
  Module M("m");
  Function *F = M.createFunction("main", 0);
  Builder B(F);
  BasicBlock *E = F->createBlock("entry");
  B.setInsertBlock(E);
  B.emitStore(Operand::imm(5), Operand::imm(1234));
  RegId L = B.emitLoad(Operand::imm(5));
  B.emitRet(Operand::reg(L));
  M.EntryFunction = "main";
  auto Result = compileAndRun(M);
  EXPECT_EQ(Result.ExitValue, 1234);
}

TEST(Executor, MemoryWrapsNegativeAddresses) {
  Module M("m");
  Function *F = M.createFunction("main", 0);
  Builder B(F);
  BasicBlock *E = F->createBlock("entry");
  B.setInsertBlock(E);
  B.emitStore(Operand::imm(-1), Operand::imm(7));
  RegId L = B.emitLoad(Operand::imm(-1));
  B.emitRet(Operand::reg(L));
  M.EntryFunction = "main";
  auto Result = compileAndRun(M);
  EXPECT_EQ(Result.ExitValue, 7);
}

TEST(Executor, DivisionByZeroIsTotal) {
  Module M("m");
  Function *F = M.createFunction("main", 0);
  Builder B(F);
  BasicBlock *E = F->createBlock("entry");
  B.setInsertBlock(E);
  RegId D = B.emitBinary(Opcode::Div, Operand::imm(10), Operand::imm(0));
  RegId R = B.emitBinary(Opcode::Mod, Operand::reg(D), Operand::imm(0));
  B.emitRet(Operand::reg(R));
  M.EntryFunction = "main";
  auto Result = compileAndRun(M);
  ASSERT_TRUE(Result.Completed);
  EXPECT_EQ(Result.ExitValue, 0);
}

TEST(Executor, CyclesAndCountsAccumulate) {
  auto M = makeCallerModule(100);
  auto Result = compileAndRun(*M);
  EXPECT_GT(Result.Cycles, Result.Instructions);
  EXPECT_GT(Result.TakenBranches, 100u); // Calls + loop backedges.
  EXPECT_GT(Result.Calls, 99u);
}

TEST(Executor, DeterministicAcrossRuns) {
  auto M = makeCallerModule(50);
  auto R1 = compileAndRun(*M);
  auto R2 = compileAndRun(*M);
  EXPECT_EQ(R1.Cycles, R2.Cycles);
  EXPECT_EQ(R1.Instructions, R2.Instructions);
  EXPECT_EQ(R1.ExitValue, R2.ExitValue);
}

TEST(Executor, SamplingProducesSamples) {
  auto M = makeCallerModule(3000);
  ExecConfig Config;
  Config.Sampler.Enabled = true;
  Config.Sampler.PeriodCycles = 501;
  auto Result = compileAndRun(*M, Config);
  ASSERT_TRUE(Result.Completed);
  EXPECT_GT(Result.Samples.size(), 20u);
  for (const PerfSample &S : Result.Samples) {
    EXPECT_FALSE(S.Stack.empty());
    EXPECT_LE(S.LBR.size(), 16u);
  }
}

TEST(Executor, SamplingDoesNotPerturbExecution) {
  auto M = makeCallerModule(500);
  ExecConfig Plain;
  ExecConfig Sampled;
  Sampled.Sampler.Enabled = true;
  Sampled.Sampler.PeriodCycles = 101;
  auto R1 = compileAndRun(*M, Plain);
  auto R2 = compileAndRun(*M, Sampled);
  EXPECT_EQ(R1.Cycles, R2.Cycles);
  EXPECT_EQ(R1.ExitValue, R2.ExitValue);
}

TEST(Executor, LBRRecordsTakenBranchesOnly) {
  auto M = makeCallerModule(2000);
  ExecConfig Config;
  Config.Sampler.Enabled = true;
  Config.Sampler.PeriodCycles = 997;
  auto Bin = compileToBinary(*M);
  std::vector<int64_t> Mem(4096, 0);
  auto Result = execute(*Bin, "main", Mem, Config);
  for (const PerfSample &S : Result.Samples) {
    for (const LBREntry &E : S.LBR) {
      size_t SrcIdx = Bin->indexOfAddr(E.Src);
      size_t DstIdx = Bin->indexOfAddr(E.Dst);
      ASSERT_NE(SrcIdx, SIZE_MAX);
      ASSERT_NE(DstIdx, SIZE_MAX);
      Opcode Op = Bin->Code[SrcIdx].Op;
      EXPECT_TRUE(Op == Opcode::Br || Op == Opcode::CondBr ||
                  Op == Opcode::Call || Op == Opcode::Ret)
          << "LBR source must be a branch";
    }
  }
}

TEST(Executor, StackSampleLeafMatchesExecution) {
  auto M = makeCallerModule(2000);
  ExecConfig Config;
  Config.Sampler.Enabled = true;
  Config.Sampler.PeriodCycles = 701;
  auto Bin = compileToBinary(*M);
  std::vector<int64_t> Mem(4096, 0);
  auto Result = execute(*Bin, "main", Mem, Config);
  ASSERT_FALSE(Result.Samples.empty());
  for (const PerfSample &S : Result.Samples) {
    // Leaf-most stack entry is a valid PC; outer entries are return sites.
    EXPECT_NE(Bin->indexOfAddr(S.Stack[0]), SIZE_MAX);
    // Outermost frame is main (its return site list ends there).
    uint32_t LeafFunc = Bin->funcIndexOf(Bin->indexOfAddr(S.Stack[0]));
    ASSERT_NE(LeafFunc, ~0u);
  }
}

TEST(Executor, InstrCountersMatchExactExecution) {
  auto M = makeCallerModule(100);
  insertProbes(*M, AnchorKind::InstrCounter);
  auto Bin = compileToBinary(*M);
  std::vector<int64_t> Mem(4096, 0);
  auto Result = execute(*Bin, "main", Mem, {});
  ASSERT_TRUE(Result.Completed);

  CounterDump Dump = dumpCounters(*Bin, Result);
  ASSERT_TRUE(Dump.Functions.count("leaf"));
  const auto &Leaf = Dump.Functions["leaf"];
  // Counter 1 = entry block: executed once per call = 100.
  EXPECT_EQ(Leaf[1], 100u);
  // Then (i<10) 10 times; else 90 times; join 100.
  EXPECT_EQ(Leaf[2], 10u);
  EXPECT_EQ(Leaf[3], 90u);
  EXPECT_EQ(Leaf[4], 100u);
}

TEST(Executor, ZeroSkidSamplingDeliversImmediately) {
  // Regression: MaxSkidInstructions = 0 with imprecise sampling fed
  // Rng::nextBelow(0) — division by zero in the skid draw. Zero skid now
  // means "deliver at the triggering instruction", i.e. the sample stream
  // matches precise mode's exactly.
  auto M = makeCallerModule(2000);
  ExecConfig Zero;
  Zero.Sampler.Enabled = true;
  Zero.Sampler.PeriodCycles = 97;
  Zero.Sampler.Precise = false;
  Zero.Sampler.MaxSkidInstructions = 0;
  RunResult R = compileAndRun(*M, Zero);
  ASSERT_TRUE(R.Completed) << R.Error;
  ASSERT_FALSE(R.Samples.empty());
  for (const PerfSample &S : R.Samples)
    EXPECT_FALSE(S.Stack.empty());

  ExecConfig Precise = Zero;
  Precise.Sampler.Precise = true;
  RunResult P = compileAndRun(*M, Precise);
  ASSERT_EQ(P.Samples.size(), R.Samples.size());
  for (size_t I = 0; I != P.Samples.size(); ++I) {
    EXPECT_EQ(P.Samples[I].Stack, R.Samples[I].Stack);
    ASSERT_EQ(P.Samples[I].LBR.size(), R.Samples[I].LBR.size());
    for (size_t J = 0; J != P.Samples[I].LBR.size(); ++J) {
      EXPECT_EQ(P.Samples[I].LBR[J].Src, R.Samples[I].LBR[J].Src);
      EXPECT_EQ(P.Samples[I].LBR[J].Dst, R.Samples[I].LBR[J].Dst);
    }
  }
}

TEST(Executor, TailCallRemovesFrameFromStack) {
  // main -> outer -> (tail) inner: stack samples inside inner must not
  // contain outer's return site.
  Module M("m");
  Function *Inner = M.createFunction("inner", 1);
  {
    Builder B(Inner);
    BasicBlock *E = Inner->createBlock("entry");
    BasicBlock *H = Inner->createBlock("header");
    BasicBlock *Body = Inner->createBlock("body");
    BasicBlock *X = Inner->createBlock("exit");
    B.setInsertBlock(E);
    RegId I = B.emitConst(0);
    B.emitBr(H);
    B.setInsertBlock(H);
    RegId C = B.emitBinary(Opcode::CmpLT, Operand::reg(I), Operand::imm(5000));
    B.emitCondBr(Operand::reg(C), Body, X);
    B.setInsertBlock(Body);
    B.emitBinary(Opcode::Add, Operand::reg(I), Operand::imm(1));
    Body->Insts.back().Dst = I;
    B.emitBr(H);
    B.setInsertBlock(X);
    B.emitRet(Operand::reg(I));
  }
  Function *Outer = M.createFunction("outer", 1);
  {
    Builder B(Outer);
    BasicBlock *E = Outer->createBlock("entry");
    B.setInsertBlock(E);
    RegId R = B.emitCall("inner", {Operand::reg(0)}, /*IsTail=*/true);
    B.emitRet(Operand::reg(R));
  }
  Function *Main = M.createFunction("main", 0);
  {
    Builder B(Main);
    BasicBlock *E = Main->createBlock("entry");
    B.setInsertBlock(E);
    RegId R = B.emitCall("outer", {Operand::imm(1)});
    B.emitRet(Operand::reg(R));
  }
  M.EntryFunction = "main";
  verifyOrDie(M, "tail call test");

  ExecConfig Config;
  Config.Sampler.Enabled = true;
  Config.Sampler.PeriodCycles = 97;
  auto Bin = compileToBinary(M);
  std::vector<int64_t> Mem(64, 0);
  auto Result = execute(*Bin, "main", Mem, Config);
  ASSERT_TRUE(Result.Completed);
  EXPECT_EQ(Result.ExitValue, 5000);

  uint32_t InnerIdx = Bin->funcIndexByName("inner");
  uint32_t OuterIdx = Bin->funcIndexByName("outer");
  bool SawInnerSample = false;
  for (const PerfSample &S : Result.Samples) {
    size_t LeafIdx = Bin->indexOfAddr(S.Stack[0]);
    if (Bin->funcIndexOf(LeafIdx) != InnerIdx)
      continue;
    SawInnerSample = true;
    // The frame below inner must be main, not outer (outer's frame was
    // eliminated by the tail call).
    ASSERT_GE(S.Stack.size(), 2u);
    size_t RetIdx = Bin->indexOfAddr(S.Stack[1]);
    EXPECT_NE(Bin->funcIndexOf(RetIdx), OuterIdx);
  }
  EXPECT_TRUE(SawInnerSample);
}

TEST(Executor, SkidDelaysStackCapture) {
  auto M = makeCallerModule(3000);
  ExecConfig Config;
  Config.Sampler.Enabled = true;
  Config.Sampler.PeriodCycles = 401;
  Config.Sampler.Precise = false;
  Config.Sampler.Seed = 5;
  auto Result = compileAndRun(*M, Config);
  ASSERT_TRUE(Result.Completed);
  EXPECT_GT(Result.Samples.size(), 10u);
}

TEST(Executor, ErrorOnUnknownEntry) {
  auto M = makeCallerModule(5);
  auto Bin = compileToBinary(*M);
  std::vector<int64_t> Mem(16, 0);
  auto Result = execute(*Bin, "nope", Mem, {});
  EXPECT_FALSE(Result.Completed);
  EXPECT_FALSE(Result.Error.empty());
}

TEST(Executor, InstructionLimitEnforced) {
  auto M = makeCallerModule(1000000);
  ExecConfig Config;
  Config.MaxInstructions = 1000;
  auto Result = compileAndRun(*M, Config);
  EXPECT_FALSE(Result.Completed);
  EXPECT_NE(Result.Error.find("limit"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Guest integer semantics (ir/GuestArith.h): i64 wraparound, total
// division, masked shifts. Host signed overflow is UB, so both
// interpreters and the constant folder evaluate through these helpers;
// the sanitizer CI job keeps direct signed ops from sneaking back in.
//===----------------------------------------------------------------------===//

TEST(GuestArith, WrapsAndTotalizes) {
  EXPECT_EQ(guestAdd(INT64_MAX, 1), INT64_MIN);
  EXPECT_EQ(guestSub(INT64_MIN, 1), INT64_MAX);
  // The overflow UBSan first caught: a workload accumulator squared.
  EXPECT_EQ(guestMul(688498802174LL, 688498802174LL),
            static_cast<int64_t>(688498802174ULL * 688498802174ULL));
  EXPECT_EQ(guestDiv(7, 0), 0);
  EXPECT_EQ(guestMod(7, 0), 0);
  EXPECT_EQ(guestDiv(10, -1), -10);
  EXPECT_EQ(guestDiv(INT64_MIN, -1), INT64_MIN); // Hardware would trap.
  EXPECT_EQ(guestMod(INT64_MIN, -1), 0);
  EXPECT_EQ(guestShl(1, 64), 1); // Counts masked to 6 bits.
  EXPECT_EQ(guestShl(3, 2), 12);
  EXPECT_EQ(guestShr(-1, 1), INT64_MAX); // Logical, not arithmetic.
}
