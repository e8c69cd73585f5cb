//===- tests/IRTest.cpp - IR library tests ----------------------*- C++ -*-===//

#include "ir/Builder.h"
#include "ir/CFG.h"
#include "ir/Checksum.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/Hashing.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace csspgo;
using namespace csspgo::testing;

TEST(IR, FunctionGuidStable) {
  Module M("m");
  Function *F = M.createFunction("foo", 2);
  EXPECT_EQ(F->getGuid(), computeFunctionGuid("foo"));
}

TEST(IR, BuilderAssignsIncreasingLines) {
  Module M("m");
  Function *F = addBranchyFunction(M, "f");
  uint32_t Prev = 0;
  for (auto &BB : F->Blocks)
    for (auto &I : BB->Insts) {
      EXPECT_GT(I.DL.Line, Prev);
      Prev = I.DL.Line;
    }
}

TEST(IR, SuccessorsAndPredecessors) {
  Module M("m");
  Function *F = addBranchyFunction(M, "f");
  BasicBlock *Entry = F->Blocks[0].get();
  BasicBlock *Then = F->Blocks[1].get();
  BasicBlock *Else = F->Blocks[2].get();
  BasicBlock *Join = F->Blocks[3].get();

  auto Succs = Entry->successors();
  ASSERT_EQ(Succs.size(), 2u);
  EXPECT_EQ(Succs[0], Then);
  EXPECT_EQ(Succs[1], Else);

  PredecessorMap Preds(*F);
  ASSERT_EQ(Preds[Join].size(), 2u);
  EXPECT_EQ(Preds[Entry].size(), 0u);
}

TEST(IR, ReplaceSuccessor) {
  Module M("m");
  Function *F = addBranchyFunction(M, "f");
  BasicBlock *Entry = F->Blocks[0].get();
  BasicBlock *Else = F->Blocks[2].get();
  BasicBlock *Join = F->Blocks[3].get();
  Entry->replaceSuccessor(Else, Join);
  EXPECT_EQ(Entry->successors()[1], Join);
}

TEST(IR, VerifierAcceptsWellFormed) {
  auto M = makeCallerModule(10);
  EXPECT_TRUE(verifyModule(*M).empty());
}

TEST(IR, VerifierCatchesMissingTerminator) {
  Module M("m");
  Function *F = M.createFunction("f", 0);
  BasicBlock *B = F->createBlock("entry");
  Builder Bld(F);
  Bld.setInsertBlock(B);
  Bld.emitConst(1); // No terminator.
  EXPECT_FALSE(verifyFunction(*F).empty());
}

TEST(IR, VerifierCatchesUnknownCallee) {
  Module M("m");
  Function *F = M.createFunction("f", 0);
  Builder Bld(F);
  BasicBlock *B = F->createBlock("entry");
  Bld.setInsertBlock(B);
  Bld.emitCall("nonexistent", {});
  Bld.emitRet(Operand::imm(0));
  EXPECT_FALSE(verifyFunction(*F).empty());
}

TEST(IR, VerifierCatchesDanglingSuccessor) {
  Module M("m");
  Function *F = M.createFunction("f", 0);
  Function *G = M.createFunction("g", 0);
  BasicBlock *GB = G->createBlock("entry");
  Builder BldG(G);
  BldG.setInsertBlock(GB);
  BldG.emitRet(Operand::imm(0));

  Builder Bld(F);
  BasicBlock *B = F->createBlock("entry");
  Bld.setInsertBlock(B);
  Bld.emitBr(GB); // Branch into another function.
  EXPECT_FALSE(verifyFunction(*F).empty());
}

TEST(IR, ReversePostOrderStartsAtEntry) {
  Module M("m");
  Function *F = addBranchyFunction(M, "f");
  auto RPO = reversePostOrder(*F);
  ASSERT_EQ(RPO.size(), 4u);
  EXPECT_EQ(RPO.front(), F->getEntry());
  EXPECT_EQ(RPO.back()->getLabel(), F->Blocks[3]->getLabel());
}

TEST(IR, DominatorsOfDiamond) {
  Module M("m");
  Function *F = addBranchyFunction(M, "f");
  DominatorTree DT(*F);
  BasicBlock *Entry = F->Blocks[0].get();
  BasicBlock *Then = F->Blocks[1].get();
  BasicBlock *Join = F->Blocks[3].get();
  EXPECT_TRUE(DT.dominates(Entry, Join));
  EXPECT_FALSE(DT.dominates(Then, Join));
  EXPECT_TRUE(DT.dominates(Entry, Then));
  EXPECT_TRUE(DT.dominates(Join, Join));
}

TEST(IR, FindLoopsDetectsNaturalLoop) {
  Module M("m");
  Function *F = addLoopFunction(M, "f");
  auto Loops = findLoops(*F);
  ASSERT_EQ(Loops.size(), 1u);
  EXPECT_EQ(Loops[0].Header->getLabel(), F->Blocks[1]->getLabel());
  EXPECT_EQ(Loops[0].Blocks.size(), 2u); // header + body
  ASSERT_EQ(Loops[0].Latches.size(), 1u);
}

TEST(IR, RemoveUnreachableBlocks) {
  Module M("m");
  Function *F = addBranchyFunction(M, "f");
  BasicBlock *Dead = F->createBlock("dead");
  Builder Bld(F);
  Bld.setInsertBlock(Dead);
  Bld.emitRet(Operand::imm(0));
  EXPECT_EQ(F->Blocks.size(), 5u);
  EXPECT_TRUE(removeUnreachableBlocks(*F));
  EXPECT_EQ(F->Blocks.size(), 4u);
  EXPECT_FALSE(removeUnreachableBlocks(*F));
}

TEST(IR, CloneIsDeepAndEquivalent) {
  auto M = makeCallerModule(5);
  M->getFunction("leaf")->Blocks[0]->setCount(123);
  auto C = M->clone();
  EXPECT_TRUE(verifyModule(*C).empty());
  EXPECT_EQ(C->Functions.size(), M->Functions.size());
  EXPECT_EQ(C->getFunction("leaf")->Blocks[0]->Count, 123u);
  // Mutating the clone must not affect the original.
  C->getFunction("leaf")->Blocks[0]->setCount(7);
  EXPECT_EQ(M->getFunction("leaf")->Blocks[0]->Count, 123u);
  // Successor pointers must point into the clone.
  BasicBlock *CloneEntry = C->getFunction("leaf")->getEntry();
  for (BasicBlock *S : CloneEntry->successors()) {
    bool Owned = false;
    for (auto &BB : C->getFunction("leaf")->Blocks)
      Owned |= BB.get() == S;
    EXPECT_TRUE(Owned);
  }
}

TEST(IR, ChecksumInsensitiveToLineChanges) {
  Module M1("m"), M2("m");
  Function *F1 = addBranchyFunction(M1, "f");
  Function *F2 = addBranchyFunction(M2, "f");
  // Shift every line in F2 (simulates adding a comment above the code).
  for (auto &BB : F2->Blocks)
    for (auto &I : BB->Insts)
      I.DL.Line += 3;
  EXPECT_EQ(computeCFGChecksum(*F1), computeCFGChecksum(*F2));
}

TEST(IR, ChecksumSensitiveToCFGChanges) {
  Module M1("m"), M2("m");
  Function *F1 = addBranchyFunction(M1, "f");
  Function *F2 = addLoopFunction(M2, "f");
  EXPECT_NE(computeCFGChecksum(*F1), computeCFGChecksum(*F2));
}

TEST(IR, PrinterOutputsLabelsAndOpcodes) {
  auto M = makeCallerModule(3);
  std::string S = printModule(*M);
  EXPECT_NE(S.find("func main"), std::string::npos);
  EXPECT_NE(S.find("call leaf"), std::string::npos);
  EXPECT_NE(S.find("condbr"), std::string::npos);
  EXPECT_NE(S.find("ret"), std::string::npos);
}

TEST(IR, InstructionIdenticalIgnoresDebugLoc) {
  Instruction A, B;
  A.Op = B.Op = Opcode::Add;
  A.Dst = B.Dst = 3;
  A.A = B.A = Operand::reg(1);
  A.B = B.B = Operand::imm(5);
  A.DL.Line = 10;
  B.DL.Line = 99;
  EXPECT_TRUE(A.isIdenticalTo(B));
}

TEST(IR, ProbesCompareByIdentity) {
  Instruction A, B;
  A.Op = B.Op = Opcode::PseudoProbe;
  A.ProbeId = 1;
  B.ProbeId = 2;
  A.OriginGuid = B.OriginGuid = 42;
  EXPECT_FALSE(A.isIdenticalTo(B));
  B.ProbeId = 1;
  EXPECT_TRUE(A.isIdenticalTo(B));
}
