//===- tests/ProbeTest.cpp - pseudo-probe tests -----------------*- C++ -*-===//

#include "ir/Checksum.h"
#include "ir/Verifier.h"
#include "probe/ProbeInserter.h"
#include "probe/ProbeTable.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <set>

using namespace csspgo;
using namespace csspgo::testing;

namespace {

/// Instructions of \p F, intrinsics included.
size_t instructionCount(const Function &F) {
  size_t N = 0;
  for (const auto &BB : F.Blocks)
    N += BB->Insts.size();
  return N;
}

} // namespace

TEST(Probe, EveryBlockGetsOneProbe) {
  auto M = makeCallerModule(5);
  insertProbes(*M, AnchorKind::PseudoProbe);
  EXPECT_TRUE(verifyModule(*M).empty());
  for (auto &F : M->Functions) {
    EXPECT_TRUE(F->HasProbes);
    for (auto &BB : F->Blocks) {
      const Instruction *P = BB->getBlockProbe();
      ASSERT_NE(P, nullptr);
      EXPECT_EQ(&BB->Insts.front(), P) << "probe must lead the block";
      EXPECT_GT(P->ProbeId, 0u);
    }
  }
}

TEST(Probe, CallSitesGetProbes) {
  auto M = makeCallerModule(5);
  insertProbes(*M, AnchorKind::PseudoProbe);
  bool FoundCallProbe = false;
  for (auto &BB : M->getFunction("main")->Blocks)
    for (auto &I : BB->Insts)
      if (I.isCall()) {
        EXPECT_GT(I.ProbeId, 0u);
        FoundCallProbe = true;
      }
  EXPECT_TRUE(FoundCallProbe);
}

TEST(Probe, ProbeIdsUniqueWithinFunction) {
  auto M = makeCallerModule(5);
  insertProbes(*M, AnchorKind::PseudoProbe);
  for (auto &F : M->Functions) {
    std::set<uint32_t> Ids;
    for (auto &BB : F->Blocks)
      for (auto &I : BB->Insts) {
        uint32_t Id = 0;
        if (I.isProbe() || (I.isCall() && I.ProbeId))
          Id = I.ProbeId;
        if (Id) {
          EXPECT_TRUE(Ids.insert(Id).second) << "duplicate probe id " << Id;
        }
      }
  }
}

TEST(Probe, Idempotent) {
  auto M = makeCallerModule(5);
  insertProbes(*M, AnchorKind::PseudoProbe);
  size_t Before = instructionCount(*M->getFunction("leaf"));
  insertProbes(*M, AnchorKind::PseudoProbe);
  EXPECT_EQ(instructionCount(*M->getFunction("leaf")), Before);
}

TEST(Probe, ChecksumStoredAndStable) {
  auto M1 = makeCallerModule(5);
  auto M2 = makeCallerModule(5);
  insertProbes(*M1, AnchorKind::PseudoProbe);
  insertProbes(*M2, AnchorKind::PseudoProbe);
  EXPECT_EQ(M1->getFunction("leaf")->ProbeCFGChecksum,
            M2->getFunction("leaf")->ProbeCFGChecksum);
  EXPECT_NE(M1->getFunction("leaf")->ProbeCFGChecksum, 0u);
}

TEST(Probe, InstrCountersLowerToCode) {
  auto M = makeCallerModule(5);
  insertProbes(*M, AnchorKind::InstrCounter);
  Function *Leaf = M->getFunction("leaf");
  EXPECT_FALSE(Leaf->HasProbes);
  EXPECT_EQ(Leaf->NumCounters, 4u); // One per block, no call-site counters.
  for (auto &BB : Leaf->Blocks)
    EXPECT_TRUE(BB->Insts.front().isCounter());
}

TEST(Probe, StripRemovesEverything) {
  auto M = makeCallerModule(5);
  size_t Plain = instructionCount(*M->getFunction("leaf"));
  insertProbes(*M, AnchorKind::PseudoProbe);
  stripProbes(*M);
  EXPECT_EQ(instructionCount(*M->getFunction("leaf")), Plain);
  EXPECT_FALSE(M->getFunction("leaf")->HasProbes);
  for (auto &BB : M->getFunction("main")->Blocks)
    for (auto &I : BB->Insts)
      if (I.isCall()) {
        EXPECT_EQ(I.ProbeId, 0u);
      }
}

TEST(Probe, TableFromModule) {
  auto M = makeCallerModule(5);
  insertProbes(*M, AnchorKind::PseudoProbe);
  ProbeTable T = ProbeTable::fromModule(*M);
  EXPECT_EQ(T.size(), 2u);
  const ProbeDescriptor *D = T.findByName("leaf");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Guid, M->getFunction("leaf")->getGuid());
  EXPECT_EQ(D->CFGChecksum, M->getFunction("leaf")->ProbeCFGChecksum);
  EXPECT_EQ(T.find(D->Guid), D);
  EXPECT_EQ(T.find(12345), nullptr);
}

TEST(Probe, ProbesDoNotChangeProgramResult) {
  auto M1 = makeCallerModule(50);
  auto M2 = makeCallerModule(50);
  insertProbes(*M2, AnchorKind::PseudoProbe);
  auto R1 = compileAndRun(*M1);
  auto R2 = compileAndRun(*M2);
  ASSERT_TRUE(R1.Completed);
  ASSERT_TRUE(R2.Completed);
  EXPECT_EQ(R1.ExitValue, R2.ExitValue);
  // Pseudo probes emit no machine instructions: identical dynamic counts.
  EXPECT_EQ(R1.Instructions, R2.Instructions);
}

TEST(Probe, CountersChangeCyclesButNotResult) {
  auto M1 = makeCallerModule(50);
  auto M2 = makeCallerModule(50);
  insertProbes(*M2, AnchorKind::InstrCounter);
  auto R1 = compileAndRun(*M1);
  auto R2 = compileAndRun(*M2);
  ASSERT_TRUE(R2.Completed);
  EXPECT_EQ(R1.ExitValue, R2.ExitValue);
  EXPECT_GT(R2.Instructions, R1.Instructions);
  EXPECT_GT(R2.Cycles, R1.Cycles);
}
