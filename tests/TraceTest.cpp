//===- tests/TraceTest.cpp - core-instruction-trace tests -------*- C++ -*-===//
//
// The trace subsystem's property suite: packet round-trips, the headline
// bit-identity of trace-derived profiles with the PMU-sampling path, the
// TSC write-cost cross-check, clean rejection of corrupt or truncated
// streams, and the timing-aware transform gates the measured per-block
// timing feeds.
//
//===----------------------------------------------------------------------===//

#include "opt/PassManager.h"
#include "pgo/ProfilePipeline.h"
#include "probe/ProbeInserter.h"
#include "probe/ProbeTable.h"
#include "profile/ProfileIO.h"
#include "sim/Executor.h"
#include "trace/TraceDecoder.h"
#include "trace/TraceFormat.h"

#include "TestHelpers.h"
#include "oracle/Oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

using namespace csspgo;
using namespace csspgo::testing;

namespace {

/// main loops Iters times: a call to a branchy leaf plus an indirect call
/// through the function table (slot skewed toward 1), so traces carry TNT
/// and TIP packets and stacks have depth.
std::unique_ptr<Module> makeTraceModule(int64_t Iters) {
  auto M = std::make_unique<Module>("trace");
  addBranchyFunction(*M, "leaf");
  for (int T = 0; T != 3; ++T) {
    Function *F = M->createFunction("t" + std::to_string(T), 1);
    Builder B(F);
    BasicBlock *E = F->createBlock("entry");
    B.setInsertBlock(E);
    RegId R = B.emitBinary(Opcode::Add, Operand::reg(0),
                           Operand::imm(10 * (T + 1)));
    B.emitRet(Operand::reg(R));
    M->addFunctionTableEntry(F->getName());
  }

  Function *Main = M->createFunction("main", 0);
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
  RegId C = B.emitBinary(Opcode::CmpLT, Operand::reg(I), Operand::imm(Iters));
  B.emitCondBr(Operand::reg(C), Body, X);
  B.setInsertBlock(Body);
  RegId L = B.emitCall("leaf", {Operand::reg(I)});
  RegId M10 = B.emitBinary(Opcode::Mod, Operand::reg(I), Operand::imm(10));
  RegId Hot = B.emitBinary(Opcode::CmpLT, Operand::reg(M10), Operand::imm(7));
  RegId M3 = B.emitBinary(Opcode::Mod, Operand::reg(I), Operand::imm(3));
  RegId Slot =
      B.emitSelect(Operand::reg(Hot), Operand::imm(1), Operand::reg(M3));
  RegId R = B.emitCallIndirect(Operand::reg(Slot), {Operand::reg(L)});
  B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(R));
  Body->Insts.back().Dst = Acc;
  B.emitBinary(Opcode::Add, Operand::reg(I), Operand::imm(1));
  Body->Insts.back().Dst = I;
  B.emitBr(H);
  B.setInsertBlock(X);
  B.emitRet(Operand::reg(Acc));
  M->EntryFunction = "main";
  insertProbes(*M, AnchorKind::PseudoProbe);
  verifyOrDie(*M, "trace test module");
  return M;
}

RunResult runWith(const Binary &Bin, const ExecConfig &Config) {
  std::vector<int64_t> Mem(4096, 0);
  return execute(Bin, "main", Mem, Config);
}

SamplerConfig testSampler(bool Precise = true, uint32_t Skid = 24) {
  SamplerConfig SC;
  SC.Enabled = true;
  SC.PeriodCycles = 97; // Small prime: dense samples on a small program.
  SC.Precise = Precise;
  SC.MaxSkidInstructions = Skid;
  SC.Seed = 11;
  return SC;
}

/// Runs the PMU-sampling configuration and the traced configuration of
/// the same binary, replays the trace against the sampler configuration,
/// and returns (sampled run, replay result).
struct TracedPair {
  RunResult Sampled;
  RunResult Traced;
  TraceReplayResult Replay;
};

TracedPair sampleAndReplay(const Binary &Bin, SamplerConfig SC,
                           CostModel Costs = {}, TraceConfig TC = {}) {
  TracedPair P;
  ExecConfig SampleCfg;
  SampleCfg.Costs = Costs;
  SampleCfg.Sampler = SC;
  P.Sampled = runWith(Bin, SampleCfg);

  ExecConfig TraceCfg;
  TraceCfg.Costs = Costs;
  TraceCfg.Trace = TC;
  TraceCfg.Trace.Enabled = true;
  P.Traced = runWith(Bin, TraceCfg);

  TraceReplayOptions RO;
  RO.Sampler = SC;
  RO.Costs = Costs;
  RO.Format = TraceCfg.Trace;
  Expected<TraceReplayResult> R =
      replayTrace(Bin, "main", P.Traced.Trace, RO);
  EXPECT_TRUE(static_cast<bool>(R)) << R.status().message();
  if (R)
    P.Replay = R.take();
  return P;
}

/// The replay must reproduce the live sampled run's clock, every counter
/// and every sample.
void expectReplayMatchesSampled(const TracedPair &P) {
  EXPECT_EQ(diffRuns(P.Sampled, replayedRun(P.Sampled, P.Replay)), "");
}

/// Key of the last probe in \p BB (what blockTiming looks up).
std::pair<uint64_t, uint32_t> probeKeyOf(const BasicBlock &BB) {
  const Instruction *P = nullptr;
  for (const Instruction &I : BB.Insts)
    if (I.isProbe())
      P = &I;
  EXPECT_NE(P, nullptr);
  return P ? std::make_pair(P->OriginGuid, P->ProbeId)
           : std::make_pair(uint64_t(0), uint32_t(0));
}

} // namespace

//===----------------------------------------------------------------------===//
// Varint encoding.
//===----------------------------------------------------------------------===//

TEST(TraceVarint, RoundTrip) {
  for (uint64_t V : {uint64_t(0), uint64_t(1), uint64_t(127), uint64_t(128),
                     uint64_t(300), uint64_t(1) << 32, UINT64_MAX}) {
    std::vector<uint8_t> Bytes;
    traceAppendULEB128(Bytes, V);
    size_t Pos = 0;
    uint64_t Back = 0;
    ASSERT_TRUE(traceReadULEB128(Bytes, Pos, Back)) << V;
    EXPECT_EQ(Back, V);
    EXPECT_EQ(Pos, Bytes.size());
  }
}

TEST(TraceVarint, RejectsTruncationAndOverwideValues) {
  std::vector<uint8_t> Bytes;
  traceAppendULEB128(Bytes, UINT64_MAX);
  Bytes.pop_back(); // Continuation bit set on the new last byte.
  size_t Pos = 0;
  uint64_t V = 0;
  EXPECT_FALSE(traceReadULEB128(Bytes, Pos, V));

  // Ten continuation bytes encode more than 64 bits.
  std::vector<uint8_t> Wide(10, 0x80);
  Wide.push_back(0x01);
  Pos = 0;
  EXPECT_FALSE(traceReadULEB128(Wide, Pos, V));
}

//===----------------------------------------------------------------------===//
// Recording: perturbation is cycles-only and fully accounted.
//===----------------------------------------------------------------------===//

TEST(Trace, WriteCostIsTheOnlyPerturbation) {
  auto M = makeTraceModule(400);
  auto Bin = compileToBinary(*M);
  RunResult Plain = runWith(*Bin, {});
  ExecConfig TraceCfg;
  TraceCfg.Trace.Enabled = true;
  RunResult Traced = runWith(*Bin, TraceCfg);

  ASSERT_TRUE(Traced.Completed);
  EXPECT_FALSE(Traced.Trace.Truncated);
  EXPECT_GT(Traced.Trace.Packets, 0u);
  EXPECT_GT(Traced.Trace.BranchEvents, 0u);
  // Default TraceByteCost is 2 cycles/byte; every byte is charged.
  EXPECT_EQ(Traced.Trace.WriteCycles, 2 * Traced.Trace.Bytes.size());
  EXPECT_EQ(Traced.ExitValue, Plain.ExitValue);
  EXPECT_EQ(Traced.Instructions, Plain.Instructions);
  EXPECT_EQ(Traced.Cycles, Plain.Cycles + Traced.Trace.WriteCycles);
}

TEST(Trace, FastAndReferenceMachinesEmitIdenticalBytes) {
  auto M = makeTraceModule(300);
  auto Bin = compileToBinary(*M);
  ExecConfig Fast;
  Fast.Trace.Enabled = true;
  RunResult A = runWith(*Bin, Fast);
  std::vector<int64_t> Mem(4096, 0);
  RunResult B = executeReference(*Bin, "main", Mem, Fast);
  EXPECT_FALSE(A.Trace.Bytes.empty());
  EXPECT_EQ(diffRuns(A, B), "");
}

//===----------------------------------------------------------------------===//
// Replay: the decoder reconstructs the sampling run exactly.
//===----------------------------------------------------------------------===//

TEST(Trace, ReplayReconstructsUnperturbedRun) {
  auto M = makeTraceModule(400);
  auto Bin = compileToBinary(*M);
  RunResult Plain = runWith(*Bin, {});
  TracedPair P = sampleAndReplay(*Bin, testSampler());
  ASSERT_TRUE(P.Replay.Completed);
  EXPECT_EQ(P.Replay.Instructions, Plain.Instructions);
  EXPECT_EQ(P.Replay.Cycles, Plain.Cycles);
  EXPECT_EQ(P.Replay.Mispredicts, Plain.Mispredicts);
  EXPECT_EQ(P.Replay.ICacheMisses, Plain.ICacheMisses);
  EXPECT_EQ(P.Replay.Calls, Plain.Calls);
  EXPECT_EQ(P.Replay.IndirectCalls, Plain.IndirectCalls);
}

TEST(Trace, ReplaySamplesMatchPreciseSamplingBitForBit) {
  auto M = makeTraceModule(500);
  auto Bin = compileToBinary(*M);
  TracedPair P = sampleAndReplay(*Bin, testSampler(/*Precise=*/true));
  ASSERT_TRUE(P.Replay.Completed);
  ASSERT_GT(P.Sampled.Samples.size(), 10u);
  expectReplayMatchesSampled(P);
  EXPECT_EQ(P.Replay.TimestampMismatches, 0u);
  EXPECT_GT(P.Replay.Timestamps, 0u);
}

TEST(Trace, ReplaySamplesMatchSkiddedSampling) {
  auto M = makeTraceModule(500);
  auto Bin = compileToBinary(*M);
  for (uint32_t Skid : {24u, 4u, 0u}) { // 0 = the zero-skid regression.
    TracedPair P =
        sampleAndReplay(*Bin, testSampler(/*Precise=*/false, Skid));
    ASSERT_TRUE(P.Replay.Completed) << "skid " << Skid;
    ASSERT_FALSE(P.Sampled.Samples.empty()) << "skid " << Skid;
    expectReplayMatchesSampled(P);
  }
}

TEST(Trace, ReplayMatchesUnderInterruptCostPerturbation) {
  // The machine model lives in one place: whatever the cost model, the
  // replay's clock (perturbed by interrupt delivery), counters and
  // samples equal the live sampled run's.
  auto M = makeTraceModule(500);
  auto Bin = compileToBinary(*M);
  std::vector<CostModel> Models(5);
  Models[0].SampleInterruptCost = 7;
  Models[1].MispredictPenalty = 3;
  Models[1].TakenBranchCost = 5;
  Models[1].SampleInterruptCost = 1;
  Models[2].ICacheLines = 8;
  Models[2].ICacheWays = 2;
  Models[2].SampleInterruptCost = 11;
  Models[3].BranchPredictorEntries = 16;
  Models[3].MispredictPenalty = 30;
  Models[4].ICacheLines = 64;
  Models[4].ICacheWays = 1;
  Models[4].TakenBranchCost = 1;
  Models[4].BranchPredictorEntries = 64;
  Models[4].SampleInterruptCost = 40;
  for (size_t I = 0; I != Models.size(); ++I) {
    SCOPED_TRACE("cost model " + std::to_string(I));
    TracedPair P = sampleAndReplay(*Bin, testSampler(), Models[I]);
    ASSERT_TRUE(P.Replay.Completed);
    ASSERT_FALSE(P.Sampled.Samples.empty());
    EXPECT_EQ(P.Replay.TimestampMismatches, 0u);
    expectReplayMatchesSampled(P);
  }
}

TEST(Trace, UncompressedTimestampsValidateToo) {
  auto M = makeTraceModule(400);
  auto Bin = compileToBinary(*M);
  TraceConfig Compressed, Raw;
  Raw.CompressTimestamps = false;
  TracedPair A = sampleAndReplay(*Bin, testSampler(), {}, Compressed);
  TracedPair B = sampleAndReplay(*Bin, testSampler(), {}, Raw);
  ASSERT_TRUE(A.Replay.Completed);
  ASSERT_TRUE(B.Replay.Completed);
  EXPECT_EQ(A.Replay.TimestampMismatches, 0u);
  EXPECT_EQ(B.Replay.TimestampMismatches, 0u);
  // Raw 8-byte timestamps cost more wire than ULEB deltas.
  EXPECT_GT(B.Traced.Trace.Bytes.size(), A.Traced.Trace.Bytes.size());
  EXPECT_TRUE(A.Replay.Samples == B.Replay.Samples);
}

TEST(Trace, WrongReplayCostModelIsCaughtByTimestamps) {
  auto M = makeTraceModule(400);
  auto Bin = compileToBinary(*M);
  auto Traced = [&] {
    ExecConfig C;
    C.Trace.Enabled = true;
    return runWith(*Bin, C);
  }();
  TraceReplayOptions RO;
  RO.Sampler = testSampler();
  RO.Costs.TraceByteCost += 1; // Replaying under the wrong write cost.
  RO.Format.Enabled = true;
  Expected<TraceReplayResult> R =
      replayTrace(*Bin, "main", Traced.Trace, RO);
  ASSERT_TRUE(static_cast<bool>(R)) << R.status().message();
  // The cross-check flags every TSC packet, but control flow (and thus
  // the profile) is untouched: mismatches are diagnostics, not errors.
  EXPECT_TRUE(R->Completed);
  EXPECT_GT(R->TimestampMismatches, 0u);
  EXPECT_EQ(R->TimestampMismatches, R->Timestamps);
}

//===----------------------------------------------------------------------===//
// Profile bit-identity through the pipeline.
//===----------------------------------------------------------------------===//

TEST(Trace, PipelineProfileBitIdenticalToSamplingPath) {
  auto M = makeTraceModule(600);
  ProbeTable Probes = ProbeTable::fromModule(*M);
  auto Bin = compileToBinary(*M);

  SamplerConfig SC = testSampler();
  ExecConfig SampleCfg;
  SampleCfg.Sampler = SC;
  RunResult Sampled = runWith(*Bin, SampleCfg);
  ExecConfig TraceCfg;
  TraceCfg.Trace.Enabled = true;
  RunResult Traced = runWith(*Bin, TraceCfg);

  ProfilePipeline FromSamples{PipelineOptions()};
  Expected<ProfileBundle> A =
      FromSamples.generate(*Bin, &Probes, Sampled.Samples);
  ASSERT_TRUE(static_cast<bool>(A)) << A.status().message();

  TraceReplayOptions RO;
  RO.Sampler = SC;
  RO.Format = TraceCfg.Trace;
  ProfilePipeline FromTrace{PipelineOptions()};
  Expected<ProfileBundle> B =
      FromTrace.generate(*Bin, &Probes, Traced.Trace, RO);
  ASSERT_TRUE(static_cast<bool>(B)) << B.status().message();

  ASSERT_TRUE(A->IsCS);
  ASSERT_TRUE(B->IsCS);
  EXPECT_EQ(serializeContextProfile(A->CS), serializeContextProfile(B->CS));
  EXPECT_GT(A->CS.totalSamples(), 0u);

  // Only the trace path carries measured timing.
  EXPECT_EQ(A->Timing, nullptr);
  ASSERT_NE(B->Timing, nullptr);
  EXPECT_FALSE(B->Timing->empty());
  EXPECT_EQ(FromTrace.lastTraceReplay().TimestampMismatches, 0u);
}

//===----------------------------------------------------------------------===//
// Corruption and truncation.
//===----------------------------------------------------------------------===//

TEST(Trace, TruncatedTraceDecodesAsCleanPrefix) {
  auto M = makeTraceModule(600);
  auto Bin = compileToBinary(*M);
  ExecConfig C;
  C.Trace.Enabled = true;
  C.Trace.MaxBytes = 256; // Force truncation early.
  RunResult Traced = runWith(*Bin, C);
  ASSERT_TRUE(Traced.Trace.Truncated);
  ASSERT_LE(Traced.Trace.Bytes.size(), 256u);
  // Execution itself runs to completion; only recording stops.
  EXPECT_TRUE(Traced.Completed);

  TraceReplayOptions RO;
  RO.Sampler = testSampler();
  RO.Format = C.Trace;
  Expected<TraceReplayResult> R =
      replayTrace(*Bin, "main", Traced.Trace, RO);
  ASSERT_TRUE(static_cast<bool>(R)) << R.status().message();
  EXPECT_FALSE(R->Completed);
  EXPECT_TRUE(R->Truncated);
  EXPECT_GT(R->Instructions, 0u);
}

TEST(Trace, CorruptStreamsAreRejectedNotCrashed) {
  auto M = makeTraceModule(300);
  auto Bin = compileToBinary(*M);
  ExecConfig C;
  C.Trace.Enabled = true;
  RunResult Traced = runWith(*Bin, C);
  ASSERT_FALSE(Traced.Trace.Truncated);
  TraceReplayOptions RO;
  RO.Sampler = testSampler();
  RO.Format = C.Trace;

  // Unknown tag byte where a packet must start.
  TraceData BadTag = Traced.Trace;
  BadTag.Bytes[0] = 0x0f;
  EXPECT_FALSE(
      static_cast<bool>(replayTrace(*Bin, "main", BadTag, RO)));

  // Trailing garbage after the END packet.
  TraceData Trailing = Traced.Trace;
  Trailing.Bytes.push_back(0x00);
  EXPECT_FALSE(
      static_cast<bool>(replayTrace(*Bin, "main", Trailing, RO)));

  // END missing on a stream not marked truncated.
  TraceData NoEnd = Traced.Trace;
  NoEnd.Bytes.pop_back();
  EXPECT_FALSE(static_cast<bool>(replayTrace(*Bin, "main", NoEnd, RO)));
}

TEST(Trace, OutOfRangeTipCalleeIsRejected) {
  // A module whose very first branch event is the indirect call, so the
  // trace opens with a TIP packet we can corrupt surgically.
  auto M = std::make_unique<Module>("tip");
  Function *T0 = M->createFunction("t0", 1);
  {
    Builder B(T0);
    BasicBlock *E = T0->createBlock("entry");
    B.setInsertBlock(E);
    B.emitRet(Operand::reg(0));
    M->addFunctionTableEntry("t0");
  }
  Function *Main = M->createFunction("main", 0);
  {
    Builder B(Main);
    BasicBlock *E = Main->createBlock("entry");
    B.setInsertBlock(E);
    RegId R = B.emitCallIndirect(Operand::imm(0), {Operand::imm(5)});
    B.emitRet(Operand::reg(R));
  }
  M->EntryFunction = "main";
  verifyOrDie(*M, "tip test module");
  auto Bin = compileToBinary(*M);
  ExecConfig C;
  C.Trace.Enabled = true;
  RunResult Traced = runWith(*Bin, C);
  ASSERT_GE(Traced.Trace.Bytes.size(), 2u);
  ASSERT_EQ(Traced.Trace.Bytes[0], TraceTagTIP);

  TraceData Bad = Traced.Trace;
  // Replace the one-byte callee index with a huge ULEB value.
  Bad.Bytes[1] = 0xff;
  Bad.Bytes.insert(Bad.Bytes.begin() + 2, {0xff, 0x7f});
  TraceReplayOptions RO;
  RO.Sampler = testSampler();
  RO.Format = C.Trace;
  Expected<TraceReplayResult> R = replayTrace(*Bin, "main", Bad, RO);
  EXPECT_FALSE(static_cast<bool>(R));
}

TEST(Trace, MalformedBranchTargetIsRejected) {
  auto M = makeTraceModule(50);
  auto Bin = compileToBinary(*M);
  ExecConfig C;
  C.Trace.Enabled = true;
  RunResult Traced = runWith(*Bin, C);
  ASSERT_TRUE(Traced.Completed);

  TraceReplayOptions RO;
  RO.Sampler = testSampler();
  RO.Format = C.Trace;
  auto ExpectRejected = [&](const Binary &Bad) {
    Expected<TraceReplayResult> R = replayTrace(Bad, "main", Traced.Trace, RO);
    ASSERT_FALSE(static_cast<bool>(R));
    EXPECT_NE(R.status().message().find("malformed binary"),
              std::string::npos)
        << R.status().message();
    RunResult Live = runWith(Bad, C);
    EXPECT_FALSE(Live.Completed);
    EXPECT_NE(Live.Error.find("malformed binary"), std::string::npos)
        << Live.Error;
    EXPECT_EQ(Live.Instructions, 0u);
  };
  auto FirstOf = [](Binary &B, Opcode Op) {
    return std::find_if(B.Code.begin(), B.Code.end(),
                        [Op](const MInst &I) { return I.Op == Op; });
  };

  // A conditional branch past the end of the code.
  Binary BadTarget = *Bin;
  auto Br = FirstOf(BadTarget, Opcode::CondBr);
  ASSERT_NE(Br, BadTarget.Code.end());
  Br->Target = static_cast<int64_t>(BadTarget.Code.size()) + 3;
  ExpectRejected(BadTarget);

  // A direct call past the end of the function array.
  Binary BadCallee = *Bin;
  auto Call = FirstOf(BadCallee, Opcode::Call);
  ASSERT_NE(Call, BadCallee.Code.end());
  Call->CalleeIdx = static_cast<uint32_t>(BadCallee.Funcs.size());
  ExpectRejected(BadCallee);
}

//===----------------------------------------------------------------------===//
// Measured timing and the transform gates.
//===----------------------------------------------------------------------===//

TEST(Trace, TimingProfileIsSane) {
  auto M = makeTraceModule(500);
  auto Bin = compileToBinary(*M);
  RunResult Plain = runWith(*Bin, {});
  TracedPair P = sampleAndReplay(*Bin, testSampler());
  ASSERT_TRUE(P.Replay.Completed);
  ASSERT_FALSE(P.Replay.Timing.empty());

  uint64_t Cycles = 0, Mispredicts = 0, Executed = 0;
  for (const auto &[Key, St] : P.Replay.Timing.Blocks) {
    Executed += St.Executed;
    Cycles += St.Cycles;
    Mispredicts += St.Mispredicts;
  }
  EXPECT_GT(Executed, 0u);
  // Attribution hands out unperturbed cycles; it can never exceed the
  // unperturbed run's total, and conditional mispredicts are a subset of
  // all mispredicts.
  EXPECT_LE(Cycles, Plain.Cycles);
  EXPECT_GT(Cycles, 0u);
  EXPECT_LE(Mispredicts, Plain.Mispredicts);
}

TEST(TimingGate, IfConvertWeighsMeasuredArmLatency) {
  // Diamond with probes in the branch block and both arms. The gate
  // vetoes only when it has measurements for all three and executing the
  // skipped arm's measured latency every pass costs more than the
  // measured mispredict cycles plus the eliminated control flow. Missing
  // arm timing means the profiling binary converted the diamond itself
  // (dropping the arm probes), so the frequency-only decision stands.
  auto Make = [] {
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
    insertProbes(*M, AnchorKind::PseudoProbe);
    return M;
  };

  auto Keys = [](Module &M) {
    Function *F = M.getFunction("main");
    return std::array{probeKeyOf(*F->Blocks[0]), probeKeyOf(*F->Blocks[1]),
                      probeKeyOf(*F->Blocks[2])};
  };

  {
    // Well-predicted branch guarding long-latency arms (20 cycles/exec):
    // skipping an arm is worth far more than the branch costs — veto.
    auto M = Make();
    auto [BK, PK, QK] = Keys(*M);
    TimingProfile T;
    T.Blocks[BK] = {1000, 3000, 0};
    T.Blocks[PK] = {500, 10000, 0};
    T.Blocks[QK] = {500, 10000, 0};
    OptOptions Opts;
    Opts.Timing = &T;
    EXPECT_EQ(runIfConvert(*M->getFunction("main"), Opts), 0u);
  }
  {
    // Same arms at 10 cycles/exec but a 40% mispredict rate: the
    // measured mispredict penalty outweighs the extra arm — convert.
    auto M = Make();
    auto [BK, PK, QK] = Keys(*M);
    TimingProfile T;
    T.Blocks[BK] = {1000, 3000, 400};
    T.Blocks[PK] = {500, 5000, 0};
    T.Blocks[QK] = {500, 5000, 0};
    OptOptions Opts;
    Opts.Timing = &T;
    EXPECT_EQ(runIfConvert(*M->getFunction("main"), Opts), 1u);
  }
  {
    // Well-predicted branch but tiny arms (4 cycles/exec): eliminating
    // the control flow still wins — convert even with zero mispredicts.
    auto M = Make();
    auto [BK, PK, QK] = Keys(*M);
    TimingProfile T;
    T.Blocks[BK] = {1000, 3000, 0};
    T.Blocks[PK] = {500, 2000, 0};
    T.Blocks[QK] = {500, 2000, 0};
    OptOptions Opts;
    Opts.Timing = &T;
    EXPECT_EQ(runIfConvert(*M->getFunction("main"), Opts), 1u);
  }
  {
    // Branch measured but arms unmeasured: the profiling binary already
    // converted this diamond, so its stats describe the converted form —
    // no veto.
    auto M = Make();
    auto [BK, PK, QK] = Keys(*M);
    (void)PK;
    (void)QK;
    TimingProfile T;
    T.Blocks[BK] = {1000, 3000, 0};
    OptOptions Opts;
    Opts.Timing = &T;
    EXPECT_EQ(runIfConvert(*M->getFunction("main"), Opts), 1u);
  }
  {
    auto M = Make(); // No timing: frequency-only behavior unchanged.
    OptOptions Opts;
    EXPECT_EQ(runIfConvert(*M->getFunction("main"), Opts), 1u);
  }
}

TEST(TimingGate, UnrollVetoedOnLongLatencyBody) {
  auto Make = [] {
    auto M = std::make_unique<Module>("m");
    addLoopFunction(*M, "looper");
    M->EntryFunction = "looper";
    insertProbes(*M, AnchorKind::PseudoProbe);
    return M;
  };
  OptOptions Opts;
  Opts.UnrollFactor = 2;

  {
    auto M = Make();
    Function *L = M->getFunction("looper");
    TimingProfile T;
    // 100 cycles/iteration in each block: the removed back-edge jump's 2
    // cycles are a sliver of the iteration — reject.
    T.Blocks[probeKeyOf(*L->Blocks[1])] = {100, 10000, 0};
    T.Blocks[probeKeyOf(*L->Blocks[2])] = {100, 10000, 0};
    OptOptions Gated = Opts;
    Gated.Timing = &T;
    EXPECT_EQ(runLoopUnroll(*L, Gated), 0u);
  }
  {
    auto M = Make();
    Function *L = M->getFunction("looper");
    TimingProfile T;
    // 2 cycles/iteration per block: the jump dominates — unroll.
    T.Blocks[probeKeyOf(*L->Blocks[1])] = {100, 200, 0};
    T.Blocks[probeKeyOf(*L->Blocks[2])] = {100, 200, 0};
    OptOptions Gated = Opts;
    Gated.Timing = &T;
    EXPECT_EQ(runLoopUnroll(*L, Gated), 1u);
  }
  {
    auto M = Make(); // No timing: frequency-only behavior unchanged.
    Function *L = M->getFunction("looper");
    EXPECT_EQ(runLoopUnroll(*L, Opts), 1u);
  }
}
