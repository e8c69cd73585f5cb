//===- tests/ProfgenTest.cpp - profile generation tests ---------*- C++ -*-===//

#include "codegen/Linker.h"
#include "oracle/Oracle.h"
#include "probe/ProbeInserter.h"
#include "probe/ProbeTable.h"
#include "profgen/AutoFDOGenerator.h"
#include "profgen/BinarySizeExtractor.h"
#include "profgen/CSProfileGenerator.h"
#include "profgen/InstrProfileGenerator.h"
#include "profgen/MissingFrameInferrer.h"
#include "profgen/ProfileGenerator.h"
#include "profgen/ShardedProfGen.h"
#include "profgen/Symbolizer.h"
#include "profile/ProfileArena.h"
#include "profile/ProfileIO.h"
#include "opt/Inliner.h"
#include "pgo/BuildPipeline.h"
#include "sim/InstrRuntime.h"
#include "support/Hashing.h"
#include "workload/Workloads.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <array>

using namespace csspgo;
using namespace csspgo::testing;

namespace {

/// main -> {svcA, svcB} -> shared(mode): the Fig. 3/4 shape. shared's
/// branch direction is fully determined by the caller (mode 0 vs 1).
std::unique_ptr<Module> makeContextModule(int64_t Iters) {
  auto M = std::make_unique<Module>("ctx");

  Function *Shared = M->createFunction("shared", 1);
  {
    Builder B(Shared);
    BasicBlock *E = Shared->createBlock("entry");
    BasicBlock *AddP = Shared->createBlock("addpath");
    BasicBlock *SubP = Shared->createBlock("subpath");
    BasicBlock *J = Shared->createBlock("join");
    B.setInsertBlock(E);
    RegId R = B.emitConst(0);
    B.emitCondBr(Operand::reg(0), AddP, SubP);
    B.setInsertBlock(AddP);
    B.emitBinary(Opcode::Add, Operand::imm(10), Operand::imm(1));
    AddP->Insts.back().Dst = R;
    B.emitBr(J);
    B.setInsertBlock(SubP);
    B.emitBinary(Opcode::Sub, Operand::imm(10), Operand::imm(1));
    SubP->Insts.back().Dst = R;
    B.emitBr(J);
    B.setInsertBlock(J);
    B.emitRet(Operand::reg(R));
  }

  for (const char *Svc : {"svcA", "svcB"}) {
    Function *S = M->createFunction(Svc, 0);
    Builder B(S);
    BasicBlock *E = S->createBlock("entry");
    B.setInsertBlock(E);
    RegId R = B.emitCall("shared",
                         {Operand::imm(Svc[3] == 'A' ? 1 : 0)});
    B.emitRet(Operand::reg(R));
  }

  Function *Main = M->createFunction("main", 0);
  {
    Builder B(Main);
    BasicBlock *E = Main->createBlock("entry");
    BasicBlock *H = Main->createBlock("h");
    BasicBlock *Body = Main->createBlock("b");
    BasicBlock *X = Main->createBlock("x");
    B.setInsertBlock(E);
    RegId Acc = B.emitConst(0);
    RegId I = B.emitConst(0);
    B.emitBr(H);
    B.setInsertBlock(H);
    RegId C = B.emitBinary(Opcode::CmpLT, Operand::reg(I),
                           Operand::imm(Iters));
    B.emitCondBr(Operand::reg(C), Body, X);
    B.setInsertBlock(Body);
    RegId A = B.emitCall("svcA", {});
    RegId Bv = B.emitCall("svcB", {});
    B.emitBinary(Opcode::Add, Operand::reg(A), Operand::reg(Bv));
    Body->Insts.back().Dst = Acc;
    B.emitBinary(Opcode::Add, Operand::reg(I), Operand::imm(1));
    Body->Insts.back().Dst = I;
    B.emitBr(H);
    B.setInsertBlock(X);
    B.emitRet(Operand::reg(Acc));
  }
  M->EntryFunction = "main";
  return M;
}

struct Profiled {
  std::unique_ptr<Module> M;
  std::unique_ptr<Binary> Bin;
  ProbeTable Probes;
  std::vector<PerfSample> Samples;
};

Profiled profileContextModule(int64_t Iters, bool Precise = true) {
  Profiled P;
  P.M = makeContextModule(Iters);
  insertProbes(*P.M, AnchorKind::PseudoProbe);
  P.Probes = ProbeTable::fromModule(*P.M);
  P.Bin = compileToBinary(*P.M);
  ExecConfig EC;
  EC.Sampler.Enabled = true;
  EC.Sampler.PeriodCycles = 97;
  EC.Sampler.Precise = Precise;
  std::vector<int64_t> Mem(64, 0);
  RunResult R = execute(*P.Bin, "main", Mem, EC);
  EXPECT_TRUE(R.Completed);
  P.Samples = R.Samples;
  return P;
}

/// Serial (Parallelism 1) ProfileGenerator run of \p Kind over \p Samples.
ProfGenResult generateSerial(const Profiled &P,
                             const std::vector<PerfSample> &Samples,
                             ProfGenKind Kind, bool InferMissingFrames = true) {
  ProfGenOptions Opts;
  Opts.Kind = Kind;
  Opts.InferMissingFrames = InferMissingFrames;
  Opts.Parallelism = 1;
  return ProfileGenerator(*P.Bin, &P.Probes, Opts).generate(Samples);
}

ContextProfile generateCS(const Profiled &P) {
  return generateSerial(P, P.Samples, ProfGenKind::CS).CS;
}

FlatProfile generateProbeOnly(const Profiled &P,
                              const std::vector<PerfSample> &Samples) {
  return generateSerial(P, Samples, ProfGenKind::ProbeOnly).Flat;
}

} // namespace

TEST(Symbolizer, ClassifiesBranches) {
  auto P = profileContextModule(50);
  Symbolizer Sym(*P.Bin);
  bool SawCall = false, SawRet = false, SawCond = false;
  for (size_t I = 0; I != P.Bin->Code.size(); ++I) {
    switch (Sym.classify(I)) {
    case BranchKind::Call:
      SawCall = true;
      break;
    case BranchKind::Return:
      SawRet = true;
      break;
    case BranchKind::Conditional:
      SawCond = true;
      break;
    default:
      break;
    }
  }
  EXPECT_TRUE(SawCall && SawRet && SawCond);
}

TEST(Symbolizer, ResolvesNamesIncludingDebugNames) {
  auto P = profileContextModule(10);
  Symbolizer Sym(*P.Bin);
  EXPECT_EQ(Sym.nameOfGuid(computeFunctionGuid("shared")), "shared");
  EXPECT_EQ(Sym.nameOfGuid(12345), "");
}

TEST(CSProfile, SeparatesCallingContexts) {
  auto P = profileContextModule(3000);
  ContextProfile CS = generateCS(P);

  // Find shared's contexts under svcA and svcB.
  uint64_t AddViaA = 0, SubViaA = 0, AddViaB = 0, SubViaB = 0;
  CS.forEachNode([&](const SampleContext &Ctx, const ContextTrieNode &N) {
    if (Ctx.back().Func != "shared" || Ctx.size() < 2)
      return;
    const std::string &Caller = Ctx[Ctx.size() - 2].Func;
    // Probe ids: entry=1, addpath=2, subpath=3 (insertion order).
    uint64_t Add = N.Profile.bodyAt({2, 0});
    uint64_t Sub = N.Profile.bodyAt({3, 0});
    if (Caller == "svcA") {
      AddViaA += Add;
      SubViaA += Sub;
    } else if (Caller == "svcB") {
      AddViaB += Add;
      SubViaB += Sub;
    }
  });
  // svcA passes mode=1 -> add path; svcB -> sub path (Fig. 3b shape).
  EXPECT_GT(AddViaA, 0u);
  EXPECT_EQ(SubViaA, 0u);
  EXPECT_GT(SubViaB, 0u);
  EXPECT_EQ(AddViaB, 0u);
}

TEST(CSProfile, ChecksumsPersisted) {
  auto P = profileContextModule(500);
  ContextProfile CS = generateCS(P);
  const ContextTrieNode *Base = CS.findBase("main");
  ASSERT_NE(Base, nullptr);
  EXPECT_EQ(Base->Profile.Checksum,
            P.M->getFunction("main")->ProbeCFGChecksum);
}

TEST(CSProfile, FlattenedMatchesProbeOnlyScale) {
  auto P = profileContextModule(2000);
  ContextProfile CS = generateCS(P);
  FlatProfile Probe = generateProbeOnly(P, P.Samples);
  FlatProfile Flat = flattenContextProfile(CS);
  // Context-merged totals should be close to the flat probe totals (same
  // ranges, same probes; flat keeps nested inlinees separate so compare
  // per-function totals including inlinees).
  const FunctionProfile *A = Flat.find("shared");
  const FunctionProfile *B = Probe.find("shared");
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_NEAR(static_cast<double>(A->TotalSamples),
              static_cast<double>(B->totalBodySamples()),
              0.2 * A->TotalSamples + 5);
}

TEST(AutoFDOProfile, RecordsBodyAndCallTargets) {
  auto P = profileContextModule(2000);
  FlatProfile Auto = generateAutoFDOProfile(*P.Bin, P.Samples);
  const FunctionProfile *Main = Auto.find("main");
  ASSERT_NE(Main, nullptr);
  EXPECT_GT(Main->TotalSamples, 0u);
  // Call targets for svcA/svcB recorded somewhere in main's body.
  uint64_t CallsSeen = 0;
  for (const auto &[K, Targets] : Main->Calls)
    for (const auto &[Callee, N] : Targets)
      if (Callee == "svcA" || Callee == "svcB")
        CallsSeen += N;
  EXPECT_GT(CallsSeen, 0u);
  // Head samples for callees.
  ASSERT_NE(Auto.find("shared"), nullptr);
  EXPECT_GT(Auto.find("shared")->HeadSamples, 0u);
}

TEST(AutoFDOProfile, MaxHeuristicUsedForDuplicates) {
  // Directly verify maxBody semantics drive the generator: the same line
  // at two addresses yields max, not sum.
  FunctionProfile P;
  P.maxBody({5, 0}, 100);
  P.maxBody({5, 0}, 80);
  EXPECT_EQ(P.bodyAt({5, 0}), 100u);
}

TEST(InstrProfile, ExactCountsFromCounters) {
  auto M = makeContextModule(100);
  insertProbes(*M, AnchorKind::InstrCounter);
  auto Bin = compileToBinary(*M);
  std::vector<int64_t> Mem(64, 0);
  RunResult R = execute(*Bin, "main", Mem, {});
  FlatProfile Instr = generateInstrProfile(dumpCounters(*Bin, R));
  const FunctionProfile *Shared = Instr.find("shared");
  ASSERT_NE(Shared, nullptr);
  EXPECT_EQ(Shared->bodyAt({1, 0}), 200u); // entry: 2 calls x 100 iters
  EXPECT_EQ(Shared->bodyAt({2, 0}), 100u); // add path via svcA
  EXPECT_EQ(Shared->bodyAt({3, 0}), 100u); // sub path via svcB
  EXPECT_EQ(Shared->HeadSamples, 200u);
}

// Functions are name ids; these follow name order: a < b < c < d < z.
enum : uint32_t { FnA = 1, FnB, FnC, FnD, FnZ };
using Outcome = MissingFrameInferrer::Outcome;

TEST(MissingFrames, UniquePathRecovered) {
  MissingFrameInferrer Inf;
  Inf.addTailCallEdge(FnA, 3, FnB);
  Inf.addTailCallEdge(FnB, 4, FnC);
  const MissingFrameInferrer::Result &R = Inf.infer(FnA, FnC);
  EXPECT_EQ(R.O, Outcome::Recovered);
  ASSERT_EQ(R.Path.size(), 2u);
  EXPECT_EQ(R.Path[0].Func, FnA);
  EXPECT_EQ(R.Path[0].Site, 3u);
  EXPECT_EQ(R.Path[1].Func, FnB);
  EXPECT_EQ(R.Path[1].Site, 4u);
}

TEST(MissingFrames, AmbiguousPathFails) {
  MissingFrameInferrer Inf;
  Inf.addTailCallEdge(FnA, 1, FnB);
  Inf.addTailCallEdge(FnB, 2, FnD);
  Inf.addTailCallEdge(FnA, 3, FnC);
  Inf.addTailCallEdge(FnC, 4, FnD);
  EXPECT_EQ(Inf.infer(FnA, FnD).O, Outcome::Ambiguous);
  // The memoized answer is the same.
  EXPECT_EQ(Inf.infer(FnA, FnD).O, Outcome::Ambiguous);
}

TEST(MissingFrames, NoPathFails) {
  MissingFrameInferrer Inf;
  Inf.addTailCallEdge(FnA, 1, FnB);
  EXPECT_EQ(Inf.infer(FnA, FnZ).O, Outcome::NoPath);
}

TEST(MissingFrames, CyclesDoNotHang) {
  MissingFrameInferrer Inf;
  Inf.addTailCallEdge(FnA, 1, FnB);
  Inf.addTailCallEdge(FnB, 2, FnA);
  EXPECT_EQ(Inf.infer(FnA, FnB).O, Outcome::Recovered);
}

TEST(MissingFrames, StatsCountEachOutcome) {
  MissingFrameInferrer::Stats St;
  St.record(Outcome::Recovered);
  St.record(Outcome::Ambiguous);
  St.record(Outcome::NoPath);
  St.record(Outcome::NoPath);
  EXPECT_EQ(St.Attempts, 4u);
  EXPECT_EQ(St.Recovered, 1u);
  EXPECT_EQ(St.AmbiguousPaths, 1u);
  EXPECT_EQ(St.NoPath, 2u);
  St += St;
  EXPECT_EQ(St.Attempts, 8u);
  EXPECT_EQ(St.NoPath, 4u);
}

// A sample whose stack lost svcA's frame: main's call to svcA is the only
// caller, yet the leaf runs in shared (as if svcA had tail-called it).
// Two LBR branches in shared ask for the same caller context; the second
// reuses the first's expansion and must still count its inference.
TEST(MissingFrames, UnwinderCountsEachOutcomePerBranch) {
  auto M = makeContextModule(1);
  insertProbes(*M, AnchorKind::PseudoProbe);
  auto Bin = compileToBinary(*M);
  Symbolizer Sym(*Bin);
  auto IdOf = [&](const char *Name) {
    return Sym.funcNameId(Bin->funcIndexByName(Name));
  };
  const uint32_t Main = IdOf("main"), SvcA = IdOf("svcA"),
                 SvcB = IdOf("svcB"), Shared = IdOf("shared");
  const MachineFunction &MainFn = Bin->Funcs[Bin->funcIndexByName("main")];
  size_t CallA = MainFn.HotBegin;
  while (Bin->Code[CallA].Op != Opcode::Call ||
         Bin->Code[CallA].CalleeIdx != Bin->funcIndexByName("svcA"))
    ASSERT_LT(++CallA, MainFn.HotEnd);
  const size_t H = Bin->Funcs[Bin->funcIndexByName("shared")].HotBegin;
  for (size_t Idx : {H, H + 2}) {
    BranchKind K = Sym.classify(Idx);
    ASSERT_TRUE(K != BranchKind::Call && K != BranchKind::Return &&
                K != BranchKind::TailCallJump);
  }
  PerfSample S;
  S.LBR = {{Bin->Code[H].Addr, Bin->Code[H + 1].Addr},
           {Bin->Code[H + 2].Addr, Bin->Code[H + 3].Addr}};
  S.Stack = {Bin->Code[H + 3].Addr, Bin->Code[CallA + 1].Addr};

  struct Case {
    const char *Name;
    std::vector<std::array<uint32_t, 3>> Edges;
    MissingFrameInferrer::Stats Want;
  };
  const Case Cases[] = {
      {"recovered", {{SvcA, 7, Shared}}, {2, 2, 0, 0}},
      {"ambiguous",
       {{SvcA, 1, SvcB}, {SvcB, 2, Shared}, {SvcA, 3, Main}, {Main, 4, Shared}},
       {2, 0, 2, 0}},
      {"no path", {{SvcA, 1, SvcB}}, {2, 0, 0, 2}},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    MissingFrameInferrer Inf;
    for (auto [From, Site, To] : C.Edges)
      Inf.addTailCallEdge(From, Site, To);
    ContextPool Pool;
    ContextUnwinder U(Sym, Pool, &Inf);
    // Twice: the second sample re-expands (the stack is rebuilt per
    // sample) and hits the inferrer's memo.
    for (int Round = 1; Round <= 2; ++Round) {
      const UnwoundSample &Out = U.unwind(S);
      ASSERT_TRUE(Out.Synced);
      ASSERT_EQ(Out.Branches.size(), 2u);
      ASSERT_EQ(Out.Ranges.size(), 1u);
      // The range's caller context: main -> svcA@7 when recovered, else
      // truncated to main.
      CallerContext Ctx = Out.Ranges[0].Ctx;
      bool Recovered = C.Want.Recovered != 0;
      EXPECT_EQ(Pool[Ctx.Node].Func, Recovered ? SvcA : Main);
      EXPECT_EQ(Ctx.Site, Recovered ? 7u : Sym.callProbeAt(CallA));
      MissingFrameInferrer::Stats Want;
      for (int I = 0; I != Round; ++I)
        Want += C.Want;
      EXPECT_EQ(U.stats().TailCallStats, Want) << "round " << Round;
    }
  }

  // Without an inferrer nothing is attempted.
  ContextPool Pool;
  ContextUnwinder U(Sym, Pool, nullptr);
  U.unwind(S);
  EXPECT_EQ(U.stats().TailCallStats, MissingFrameInferrer::Stats{});
}

TEST(SizeExtractor, MeasuresFunctionSizes) {
  auto P = profileContextModule(100);
  FuncSizeTable Sizes = extractFuncSizes(*P.Bin);
  uint64_t SharedSize = Sizes.sizeForContext({{"shared", 0}});
  EXPECT_GT(SharedSize, 0u);
  // The measured size roughly matches the summed encoded sizes.
  uint64_t Expect = 0;
  uint32_t FIdx = P.Bin->funcIndexByName("shared");
  const MachineFunction &MF = P.Bin->Funcs[FIdx];
  for (size_t I = MF.HotBegin; I != MF.HotEnd; ++I)
    Expect += P.Bin->Code[I].Size;
  EXPECT_EQ(SharedSize, Expect);
}

TEST(SizeExtractor, InlinedCopiesMeasuredSeparately) {
  // Inline shared into svcA, then sizes for [svcA @ shared] exist and the
  // standalone context keeps its own size.
  auto M = makeContextModule(10);
  insertProbes(*M, AnchorKind::PseudoProbe);
  Function *SvcA = M->getFunction("svcA");
  Function *Shared = M->getFunction("shared");
  for (auto &BB : SvcA->Blocks)
    for (size_t I = 0; I != BB->Insts.size(); ++I)
      if (BB->Insts[I].isCall() && BB->Insts[I].Callee == "shared") {
        ASSERT_TRUE(inlineCallSite(*SvcA, BB.get(), I, *Shared).Success);
        goto inlined;
      }
inlined:
  auto Bin = compileToBinary(*M);
  FuncSizeTable Sizes = extractFuncSizes(*Bin);
  uint64_t Standalone = Sizes.sizeForContext({{"shared", 0}});
  EXPECT_GT(Standalone, 0u);
  // The inlined copy context exists (site = the call's probe id).
  bool FoundInlinedCopy = false;
  for (uint32_t Site = 1; Site != 16 && !FoundInlinedCopy; ++Site)
    FoundInlinedCopy =
        Sizes.sizeForContext({{"svcA", Site}, {"shared", 0}}) > 0 &&
        Sizes.numContexts() > 0;
  EXPECT_TRUE(FoundInlinedCopy);
}

TEST(Unwinder, SkidDegradesSyncedFraction) {
  auto Precise = profileContextModule(3000, /*Precise=*/true);
  auto Skid = profileContextModule(3000, /*Precise=*/false);
  CSProfileGenStats SPrecise =
      generateSerial(Precise, Precise.Samples, ProfGenKind::CS).Stats;
  CSProfileGenStats SSkid =
      generateSerial(Skid, Skid.Samples, ProfGenKind::CS).Stats;
  ASSERT_GT(SPrecise.Samples, 0u);
  ASSERT_GT(SSkid.Samples, 0u);
  double PreciseUnsynced =
      static_cast<double>(SPrecise.UnsyncedSamples) / SPrecise.Samples;
  double SkidUnsynced =
      static_cast<double>(SSkid.UnsyncedSamples) / SSkid.Samples;
  EXPECT_LT(PreciseUnsynced, 0.05);
  EXPECT_GT(SkidUnsynced, PreciseUnsynced);
}

TEST(ShardedProfGen, PlansNearEqualContiguousShards) {
  auto Plan = planShards(10, 4);
  ASSERT_EQ(Plan.size(), 4u);
  EXPECT_EQ(Plan.front().Begin, 0u);
  EXPECT_EQ(Plan.back().End, 10u);
  size_t Prev = 0;
  for (const ShardRange &R : Plan) {
    EXPECT_EQ(R.Begin, Prev);
    EXPECT_GE(R.End - R.Begin, 2u);
    EXPECT_LE(R.End - R.Begin, 3u);
    Prev = R.End;
  }
  // More shards than items: one shard per item, none empty.
  EXPECT_EQ(planShards(3, 8).size(), 3u);
  EXPECT_TRUE(planShards(0, 4).empty());
}

TEST(ShardedProfGen, CSBitIdenticalToSerialForAnyShardCount) {
  auto P = profileContextModule(3000);
  ProfGenResult SerialRun = generateSerial(P, P.Samples, ProfGenKind::CS);
  const CSProfileGenStats &SerialStats = SerialRun.Stats;
  const ContextProfile &Serial = SerialRun.CS;
  std::string SerialDump = serializeContextProfile(Serial);
  ASSERT_GT(SerialStats.Samples, 0u);
  for (unsigned K : {1u, 2u, 4u, 7u}) {
    CSProfileGenStats Stats;
    MergeStats Reduce;
    ContextProfile Sharded = contextProfileOf(generateCSProfileSharded(
        Symbolizer(*P.Bin), P.Probes, P.Samples, /*InferMissingFrames=*/true,
        K, &Stats, &Reduce));
    EXPECT_EQ(serializeContextProfile(Sharded), SerialDump)
        << "shard count " << K;
    EXPECT_EQ(Stats.Samples, SerialStats.Samples) << K;
    EXPECT_EQ(Stats.UnsyncedSamples, SerialStats.UnsyncedSamples) << K;
    EXPECT_EQ(Stats.RangesProcessed, SerialStats.RangesProcessed) << K;
    if (K > 1) {
      EXPECT_GT(Reduce.CountsSummed, 0u) << K;
    }
  }
}

TEST(ShardedProfGen, CSIdenticalUnderSkidAndInference) {
  // Skidded samples exercise the unsynced-degradation path; the shared
  // tail-call edge graph keeps inference identical across partitions.
  auto P = profileContextModule(3000, /*Precise=*/false);
  ProfGenResult SerialRun = generateSerial(P, P.Samples, ProfGenKind::CS);
  const CSProfileGenStats &SerialStats = SerialRun.Stats;
  const ContextProfile &Serial = SerialRun.CS;
  std::string SerialDump = serializeContextProfile(Serial);
  for (unsigned K : {2u, 5u}) {
    CSProfileGenStats Stats;
    ContextProfile Sharded = contextProfileOf(generateCSProfileSharded(
        Symbolizer(*P.Bin), P.Probes, P.Samples, /*InferMissingFrames=*/true,
        K, &Stats));
    EXPECT_EQ(serializeContextProfile(Sharded), SerialDump) << K;
    EXPECT_EQ(Stats.UnsyncedSamples, SerialStats.UnsyncedSamples) << K;
    EXPECT_EQ(Stats.TailCallStats.Attempts, SerialStats.TailCallStats.Attempts)
        << K;
    EXPECT_EQ(Stats.TailCallStats.Recovered,
              SerialStats.TailCallStats.Recovered)
        << K;
  }
}

TEST(ShardedProfGen, ProbeOnlyBitIdenticalToSerial) {
  auto P = profileContextModule(2000);
  ProfGenResult SerialRun =
      generateSerial(P, P.Samples, ProfGenKind::ProbeOnly);
  const CSProfileGenStats &SerialStats = SerialRun.Stats;
  const FlatProfile &Serial = SerialRun.Flat;
  std::string SerialDump = serializeFlatProfile(Serial);
  for (unsigned K : {1u, 2u, 4u, 7u}) {
    CSProfileGenStats Stats;
    MergeStats Reduce;
    FlatProfile Sharded = flatProfileOf(generateProbeOnlyProfileSharded(
        Symbolizer(*P.Bin), P.Probes, P.Samples, K, &Stats, &Reduce));
    EXPECT_EQ(serializeFlatProfile(Sharded), SerialDump) << K;
    EXPECT_EQ(Stats.Samples, SerialStats.Samples) << K;
    EXPECT_EQ(Stats.RangesProcessed, SerialStats.RangesProcessed) << K;
  }
}

TEST(ShardedProfGen, MergeOfSplitSampleSetsEqualsFullSet) {
  // The ProfileMerge property the reduction relies on: profiles of any
  // partition of the samples merge to the profile of the full set.
  auto P = profileContextModule(2000);
  size_t Half = P.Samples.size() / 2;
  std::vector<PerfSample> A(P.Samples.begin(), P.Samples.begin() + Half);
  std::vector<PerfSample> B(P.Samples.begin() + Half, P.Samples.end());

  FlatProfile FullFlat = generateProbeOnly(P, P.Samples);
  FlatProfile MergedFlat = generateProbeOnly(P, A);
  MergeStats FS = mergeFlatProfiles(MergedFlat, generateProbeOnly(P, B));
  EXPECT_EQ(serializeFlatProfile(MergedFlat), serializeFlatProfile(FullFlat));
  EXPECT_GT(FS.ContextsAdded + FS.ContextsMerged, 0u);

  // CS with inference off: per-half edge graphs would differ, but pure
  // accumulation is exactly partition-invariant.
  auto NoInferCS = [&P](const std::vector<PerfSample> &Samples) {
    return generateSerial(P, Samples, ProfGenKind::CS,
                          /*InferMissingFrames=*/false)
        .CS;
  };
  ContextProfile FullCS = NoInferCS(P.Samples);
  ContextProfile MergedCS = NoInferCS(A);
  mergeContextProfiles(MergedCS, NoInferCS(B));
  EXPECT_EQ(serializeContextProfile(MergedCS),
            serializeContextProfile(FullCS));
}

TEST(ProfileGeneratorFacade, StatsLiveInTheResult) {
  auto P = profileContextModule(1500);
  ProfGenOptions Opts;
  Opts.Kind = ProfGenKind::CS;
  ProfGenResult R = ProfileGenerator(*P.Bin, &P.Probes, Opts)
                        .generate(P.Samples);
  EXPECT_TRUE(R.IsCS);
  EXPECT_GT(R.Stats.Samples, 0u);
  EXPECT_EQ(R.ShardsUsed, 1u);
  EXPECT_GT(R.CS.numProfiles(), 0u);

  Opts.Kind = ProfGenKind::CS;
  Opts.Parallelism = 4;
  ProfGenResult RP = ProfileGenerator(*P.Bin, &P.Probes, Opts)
                         .generate(P.Samples);
  EXPECT_EQ(RP.ShardsUsed, 4u);
  EXPECT_EQ(serializeContextProfile(RP.CS), serializeContextProfile(R.CS));
  EXPECT_GT(RP.Reduce.ContextsAdded + RP.Reduce.ContextsMerged, 0u);
}

TEST(ProfileGeneratorFacade, DispatchesEveryKind) {
  auto P = profileContextModule(1000);

  ProfGenOptions Probe;
  Probe.Kind = ProfGenKind::ProbeOnly;
  ProfGenResult RP = ProfileGenerator(*P.Bin, &P.Probes, Probe)
                         .generate(P.Samples);
  EXPECT_FALSE(RP.IsCS);
  EXPECT_EQ(RP.Flat.Kind, ProfileKind::ProbeBased);
  EXPECT_EQ(serializeFlatProfile(RP.Flat),
            serializeFlatProfile(flatProfileOf(generateProbeOnlyProfileSharded(
                Symbolizer(*P.Bin), P.Probes, P.Samples, /*Parallelism=*/1))));

  ProfGenOptions Auto;
  Auto.Kind = ProfGenKind::AutoFDO;
  ProfGenResult RA = ProfileGenerator(*P.Bin, nullptr, Auto)
                         .generate(P.Samples);
  EXPECT_FALSE(RA.IsCS);
  EXPECT_EQ(RA.Flat.Kind, ProfileKind::LineBased);
  EXPECT_EQ(RA.Stats.Samples, P.Samples.size());
  EXPECT_EQ(serializeFlatProfile(RA.Flat),
            serializeFlatProfile(generateAutoFDOProfile(*P.Bin, P.Samples)));

  // Instr kind consumes a counter dump.
  auto M = makeContextModule(100);
  insertProbes(*M, AnchorKind::InstrCounter);
  auto Bin = compileToBinary(*M);
  std::vector<int64_t> Mem(64, 0);
  RunResult R = execute(*Bin, "main", Mem, {});
  ProfGenOptions Instr;
  Instr.Kind = ProfGenKind::Instr;
  ProfGenResult RI = ProfileGenerator(*Bin, nullptr, Instr)
                         .generate(dumpCounters(*Bin, R), &R);
  EXPECT_FALSE(RI.IsCS);
  ASSERT_NE(RI.Flat.find("shared"), nullptr);
  EXPECT_EQ(RI.Flat.find("shared")->bodyAt({1, 0}), 200u);
}

//===----------------------------------------------------------------------===//
// The interned two-phase generators against the string-keyed oracle.
//===----------------------------------------------------------------------===//

namespace {

class ProfgenOracle : public ::testing::TestWithParam<std::string> {};

std::string statsDiff(const CSProfileGenStats &A, const CSProfileGenStats &B) {
  std::string D;
  auto Field = [&D](const char *Name, uint64_t X, uint64_t Y) {
    if (X != Y)
      D += std::string(" ") + Name + " " + std::to_string(X) + " vs " +
           std::to_string(Y);
  };
  Field("Samples", A.Samples, B.Samples);
  Field("UnsyncedSamples", A.UnsyncedSamples, B.UnsyncedSamples);
  Field("RangesProcessed", A.RangesProcessed, B.RangesProcessed);
  Field("DroppedSamples", A.DroppedSamples, B.DroppedSamples);
  Field("BrokenRanges", A.BrokenRanges, B.BrokenRanges);
  Field("Attempts", A.TailCallStats.Attempts, B.TailCallStats.Attempts);
  Field("Recovered", A.TailCallStats.Recovered, B.TailCallStats.Recovered);
  Field("AmbiguousPaths", A.TailCallStats.AmbiguousPaths,
        B.TailCallStats.AmbiguousPaths);
  Field("NoPath", A.TailCallStats.NoPath, B.TailCallStats.NoPath);
  EXPECT_EQ(D.empty(), A == B);
  return D;
}

} // namespace

TEST_P(ProfgenOracle, MatchesStringKeyedGenerators) {
  auto Source = generateProgram(workloadPreset(GetParam(), 0.2));
  BuildConfig BC;
  BC.Variant = PGOVariant::CSSPGOFull;
  BuildResult Build = buildWithPGO(*Source, BC, nullptr);
  Symbolizer Sym(*Build.Bin);
  MissingFrameInferrer::Stats Inferred;
  for (bool Precise : {true, false}) {
    ExecConfig EC;
    EC.Sampler.Enabled = true;
    EC.Sampler.PeriodCycles = 401;
    EC.Sampler.Precise = Precise;
    std::vector<int64_t> Mem =
        generateInput(workloadPreset(GetParam(), 0.2), 1);
    RunResult R = execute(*Build.Bin, "main", Mem, EC);
    ASSERT_TRUE(R.Completed);
    ASSERT_GT(R.Samples.size(), 50u);
    for (bool Infer : {true, false}) {
      SCOPED_TRACE(std::string(Precise ? "precise" : "skid") +
                   (Infer ? ", inference" : ", no inference"));
      CSProfileGenStats RefStats;
      std::string Ref = serializeContextProfile(
          referenceCSProfile(*Build.Bin, Build.ProbeDescs, R.Samples, 0,
                             R.Samples.size(), Infer, &RefStats));
      Inferred += RefStats.TailCallStats;
      for (unsigned K : {1u, 2u, 3u, 7u}) {
        CSProfileGenStats Stats;
        ContextProfile CS = contextProfileOf(generateCSProfileSharded(
            Sym, Build.ProbeDescs, R.Samples, Infer, K, &Stats));
        EXPECT_TRUE(serializeContextProfile(CS) == Ref) << "K=" << K;
        EXPECT_EQ(statsDiff(Stats, RefStats), "") << "K=" << K;
      }
    }
    CSProfileGenStats RefStats;
    std::string Ref = serializeFlatProfile(referenceProbeOnlyProfile(
        *Build.Bin, Build.ProbeDescs, R.Samples, &RefStats));
    for (unsigned K : {1u, 2u, 3u, 7u}) {
      CSProfileGenStats Stats;
      FlatProfile PO = flatProfileOf(generateProbeOnlyProfileSharded(
          Sym, Build.ProbeDescs, R.Samples, K, &Stats));
      EXPECT_TRUE(serializeFlatProfile(PO) == Ref) << "probe-only K=" << K;
      EXPECT_EQ(statsDiff(Stats, RefStats), "") << "probe-only K=" << K;
    }
  }
  // Where a preset's samples reach missing-frame inference, the
  // TailCallStats comparisons above must compare nonzero counts.
  const std::string &Preset = GetParam();
  if (Preset != "InterpLoop" && Preset != "ColdBoot") {
    EXPECT_GT(Inferred.Attempts, 0u);
  }
  if (Preset != "InterpLoop" && Preset != "ColdBoot" && Preset != "RpcFanout") {
    EXPECT_GT(Inferred.Recovered, 0u);
  }
  std::printf("[ profgen  ] %s: %llu inference attempts, %llu recovered\n",
              GetParam().c_str(),
              static_cast<unsigned long long>(Inferred.Attempts),
              static_cast<unsigned long long>(Inferred.Recovered));
}

INSTANTIATE_TEST_SUITE_P(
    Presets, ProfgenOracle,
    ::testing::Values("AdRanker", "AdRetriever", "AdFinder", "HHVM", "HaaS",
                      "ClangProxy", "RpcFanout", "InterpLoop", "ColdBoot"),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

//===----------------------------------------------------------------------===//
// The generators emit canonical views: the views their maps convert back
// to, slot for slot.
//===----------------------------------------------------------------------===//

namespace {

class ProfgenViews : public ::testing::TestWithParam<std::string> {};

/// "" when records \p RA of \p A and \p RB of \p B hold the same
/// scalars and slots (names compared as strings, inlinees recursively);
/// else the first difference.
std::string recordDiff(const ProfileArena &A, uint32_t RA,
                       const ProfileArena &B, uint32_t RB) {
  const FuncRecord &X = A.Records[RA], &Y = B.Records[RB];
  const std::string Where = A.Names.name(X.Name);
  if (Where != B.Names.name(Y.Name) || X.Guid != Y.Guid ||
      X.Checksum != Y.Checksum || X.TotalSamples != Y.TotalSamples ||
      X.HeadSamples != Y.HeadSamples)
    return Where + ": name or scalars differ";
  if (X.BodyEnd - X.BodyBegin != Y.BodyEnd - Y.BodyBegin ||
      X.CallsEnd - X.CallsBegin != Y.CallsEnd - Y.CallsBegin ||
      X.InlineesEnd - X.InlineesBegin != Y.InlineesEnd - Y.InlineesBegin)
    return Where + ": slot counts differ";
  for (uint32_t I = 0; I != X.BodyEnd - X.BodyBegin; ++I) {
    const BodySlot &SX = A.Body[X.BodyBegin + I], &SY = B.Body[Y.BodyBegin + I];
    if (!(SX.Key == SY.Key) || SX.Count != SY.Count)
      return Where + ": body slot " + std::to_string(I);
  }
  for (uint32_t I = 0; I != X.CallsEnd - X.CallsBegin; ++I) {
    const CallSlot &SX = A.Calls[X.CallsBegin + I],
                   &SY = B.Calls[Y.CallsBegin + I];
    if (!(SX.Key == SY.Key) || SX.Count != SY.Count ||
        A.Names.name(SX.Callee) != B.Names.name(SY.Callee))
      return Where + ": call slot " + std::to_string(I);
  }
  for (uint32_t I = 0; I != X.InlineesEnd - X.InlineesBegin; ++I) {
    const InlineSlot &SX = A.Inlinees[X.InlineesBegin + I],
                     &SY = B.Inlinees[Y.InlineesBegin + I];
    if (!(SX.Key == SY.Key) ||
        A.Names.name(SX.Callee) != B.Names.name(SY.Callee))
      return Where + ": inlinee slot " + std::to_string(I);
    if (std::string D = recordDiff(A, SX.Rec, B, SY.Rec); !D.empty())
      return Where + " > " + D;
  }
  return "";
}

/// "" when \p A and \p B hold the same contexts, frames and records,
/// slot for slot; else the first difference.
std::string viewDiff(const ContextProfileView &A,
                     const ContextProfileView &B) {
  if (A.Kind != B.Kind || A.IsCS != B.IsCS ||
      A.Contexts.size() != B.Contexts.size())
    return "kind, shape or context count differs";
  for (size_t C = 0; C != A.Contexts.size(); ++C) {
    const ContextRecord &X = A.Contexts[C], &Y = B.Contexts[C];
    std::string Where = "context " + std::to_string(C);
    if (X.FramesEnd - X.FramesBegin != Y.FramesEnd - Y.FramesBegin ||
        X.ShouldBeInlined != Y.ShouldBeInlined)
      return Where + ": frame count or inline flag differs";
    for (uint32_t I = 0; I != X.FramesEnd - X.FramesBegin; ++I) {
      const FrameSlot &FX = A.Arena.Frames[X.FramesBegin + I],
                      &FY = B.Arena.Frames[Y.FramesBegin + I];
      if (FX.Site != FY.Site ||
          A.Arena.Names.name(FX.Func) != B.Arena.Names.name(FY.Func))
        return Where + ": frame " + std::to_string(I);
    }
    if (std::string D = recordDiff(A.Arena, X.Rec, B.Arena, Y.Rec);
        !D.empty())
      return Where + ": " + D;
  }
  return "";
}

} // namespace

TEST_P(ProfgenViews, EmittedViewsAreCanonical) {
  auto Source = generateProgram(workloadPreset(GetParam(), 0.2));
  BuildConfig BC;
  BC.Variant = PGOVariant::CSSPGOFull;
  BuildResult Build = buildWithPGO(*Source, BC, nullptr);
  Symbolizer Sym(*Build.Bin);
  ExecConfig EC;
  EC.Sampler.Enabled = true;
  EC.Sampler.PeriodCycles = 401;
  std::vector<int64_t> Mem = generateInput(workloadPreset(GetParam(), 0.2), 1);
  RunResult R = execute(*Build.Bin, "main", Mem, EC);
  ASSERT_GT(R.Samples.size(), 50u);
  for (unsigned K : {1u, 2u, 4u}) {
    ContextProfileView CS = generateCSProfileSharded(Sym, Build.ProbeDescs,
                                                     R.Samples, true, K);
    ContextProfileView PO =
        generateProbeOnlyProfileSharded(Sym, Build.ProbeDescs, R.Samples, K);
    ASSERT_TRUE(CS.IsCS);
    ASSERT_FALSE(PO.IsCS);
    EXPECT_GT(CS.Contexts.size(), 0u);
    EXPECT_GT(PO.Contexts.size(), 0u);
    EXPECT_EQ(viewDiff(CS, contextViewOf(contextProfileOf(CS))), "")
        << "CS, K=" << K;
    EXPECT_EQ(viewDiff(PO, flatViewOf(flatProfileOf(PO))), "")
        << "probe-only, K=" << K;
    // mergeContextViews asserts (asserts are on in tests) that each
    // part's contexts are in trie-DFS order.
    MergeStats MS;
    EXPECT_EQ(viewDiff(mergeContextViews({&CS}, MS), CS), "") << K;
    EXPECT_EQ(viewDiff(mergeContextViews({&PO}, MS), PO), "") << K;
    mergeContextViews({&CS, &CS}, MS);
    mergeContextViews({&PO, &PO}, MS);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, ProfgenViews,
    ::testing::Values("AdRanker", "AdRetriever", "AdFinder", "HHVM", "HaaS",
                      "ClangProxy", "RpcFanout", "InterpLoop", "ColdBoot"),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

TEST(Profgen, HostileSamplesAreSkippedAndCounted) {
  auto P = profileContextModule(300);
  const Binary &Bin = *P.Bin;
  Symbolizer Sym(Bin);
  const uint64_t Outside = Binary::BaseAddr - 16;
  const uint64_t PastEnd = Bin.Code.back().Addr + Bin.Code.back().Size + 64;
  // A sample with a call stack to corrupt.
  const PerfSample *Base = nullptr;
  for (const PerfSample &S : P.Samples)
    if (S.Stack.size() >= 2 && S.LBR.size() >= 4) {
      Base = &S;
      break;
    }
  ASSERT_NE(Base, nullptr);
  // An instruction that does not follow a call: a bad return address.
  size_t NotAfterCall = 1;
  while (Bin.Code[NotAfterCall - 1].Op == Opcode::Call)
    ++NotAfterCall;

  std::vector<PerfSample> Dropped;
  auto Drop = [&](auto Mutate) {
    PerfSample S = *Base;
    Mutate(S);
    Dropped.push_back(S);
  };
  Drop([](PerfSample &S) { S.LBR.clear(); });
  Drop([](PerfSample &S) { S.Stack.clear(); });
  Drop([&](PerfSample &S) { S.Stack[1] = Bin.Code[0].Addr; });
  Drop([&](PerfSample &S) { S.Stack[1] = Bin.Code[NotAfterCall].Addr; });
  Drop([&](PerfSample &S) { S.Stack[1] = Outside; });
  Drop([&](PerfSample &S) { S.Stack[0] = PastEnd; });
  Drop([&](PerfSample &S) { S.LBR.back().Dst = Outside; });

  // Dropped samples are counted and change nothing else.
  std::vector<PerfSample> Mixed = P.Samples;
  Mixed.insert(Mixed.begin() + Mixed.size() / 2, Dropped.begin(),
               Dropped.end());
  for (unsigned K : {1u, 3u}) {
    CSProfileGenStats Clean, Hostile;
    std::string Want = serializeContextProfile(contextProfileOf(
        generateCSProfileSharded(Sym, P.Probes, P.Samples, true, K, &Clean)));
    EXPECT_EQ(serializeContextProfile(contextProfileOf(generateCSProfileSharded(
                  Sym, P.Probes, Mixed, true, K, &Hostile))),
              Want);
    EXPECT_EQ(Hostile.Samples, Clean.Samples + Dropped.size());
    EXPECT_EQ(Hostile.DroppedSamples, Clean.DroppedSamples + Dropped.size());
    EXPECT_EQ(Hostile.RangesProcessed, Clean.RangesProcessed);
  }

  // LBR entries outside the text: the entry and the ranges it bounds are
  // skipped and counted, in both generators.
  std::vector<PerfSample> Broken(4, *Base);
  Broken[0].LBR[3].Src = Outside;
  Broken[1].LBR[1].Dst = PastEnd;
  Broken[2].LBR[2].Src = PastEnd;
  Broken[3].LBR[0].Dst = Outside;
  for (const PerfSample &S : Broken) {
    CSProfileGenStats Clean, Hostile;
    generateCSProfileSharded(Sym, P.Probes, {*Base}, true, 1, &Clean);
    generateCSProfileSharded(Sym, P.Probes, {S}, true, 1, &Hostile);
    EXPECT_EQ(Hostile.DroppedSamples, 0u);
    EXPECT_GT(Hostile.BrokenRanges, Clean.BrokenRanges);
    EXPECT_LT(Hostile.RangesProcessed, Clean.RangesProcessed);
    generateProbeOnlyProfileSharded(Sym, P.Probes, {*Base}, 1, &Clean);
    generateProbeOnlyProfileSharded(Sym, P.Probes, {S}, 1, &Hostile);
    EXPECT_GT(Hostile.BrokenRanges, Clean.BrokenRanges);
    EXPECT_LT(Hostile.RangesProcessed, Clean.RangesProcessed);
  }
}

TEST(Profgen, InlineIdPastTheTableReadsNoFrames) {
  // The context module inlines nothing, so ids past every function's
  // inline table must read as "not inlined": the profiles do not move.
  auto P = profileContextModule(300);
  Binary Bad = *P.Bin;
  for (MInst &I : Bad.Code)
    I.InlineId = 1000;
  for (ProbeRecord &R : Bad.Probes)
    R.InlineId = 1000;
  Symbolizer Sym(Bad);
  for (size_t Idx = 0; Idx != Bad.Code.size(); ++Idx)
    EXPECT_TRUE(Sym.inlineFramesAt(Idx).empty());
  EXPECT_EQ(serializeContextProfile(contextProfileOf(generateCSProfileSharded(
                Sym, P.Probes, P.Samples, true, 2))),
            serializeContextProfile(generateCS(P)));
  EXPECT_EQ(serializeFlatProfile(flatProfileOf(generateProbeOnlyProfileSharded(
                Sym, P.Probes, P.Samples, 2))),
            serializeFlatProfile(generateProbeOnly(P, P.Samples)));
}
