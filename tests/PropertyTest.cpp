//===- tests/PropertyTest.cpp - parameterized property tests ----*- C++ -*-===//
//
// Property-style sweeps (TEST_P): invariants that must hold across many
// randomly generated programs, profiles and configurations:
//  - every optimization pass preserves program semantics and IR validity;
//  - profile inference always produces flow-consistent profiles;
//  - profile text serialization round-trips losslessly;
//  - the virtual unwinder only emits intra-function ranges;
//  - whole PGO pipelines preserve semantics for every variant x seed.
//
//===----------------------------------------------------------------------===//

#include "codegen/Linker.h"
#include "inference/ProfileInference.h"
#include "ir/Verifier.h"
#include "opt/PassManager.h"
#include "pgo/PGODriver.h"
#include "probe/ProbeInserter.h"
#include "profgen/ContextUnwinder.h"
#include "profile/ProfileIO.h"
#include "sim/Executor.h"
#include "support/Random.h"
#include "workload/Workloads.h"

#include "oracle/Oracle.h"

#include <gtest/gtest.h>

#include <cctype>

using namespace csspgo;

namespace {

WorkloadConfig propConfig(uint64_t Seed) {
  WorkloadConfig C;
  C.Seed = Seed;
  C.Requests = 50;
  C.NumServices = 3;
  C.NumMids = 10;
  C.NumUtils = 6;
  C.NumColdHandlers = 3;
  C.MidsPerService = 4;
  C.TailCallProb = 0.4;
  C.DupTailProb = 0.6;
  return C;
}

int64_t runModule(const Module &M, uint64_t InputSeed) {
  auto Bin = compileToBinary(M);
  auto Mem = generateInput(propConfig(1), InputSeed);
  RunResult R = execute(*Bin, "main", Mem, {});
  EXPECT_TRUE(R.Completed) << R.Error;
  return R.ExitValue;
}

using PassFn = unsigned (*)(Function &, const OptOptions &);

struct NamedPass {
  const char *Name;
  PassFn Fn;
};

constexpr NamedPass AllPasses[] = {
    {"SimplifyCFG", runSimplifyCFG}, {"TailMerge", runTailMerge},
    {"IfConvert", runIfConvert},     {"JumpThreading", runJumpThreading},
    {"LoopUnroll", runLoopUnroll},   {"CodeMotion", runCodeMotion},
    {"DCE", runDCE},                 {"ConstantFold", runConstantFold},
    {"ExtTSP", runExtTSPLayout},     {"FunctionSplit", runFunctionSplit},
};

} // namespace

//===----------------------------------------------------------------------===//
// Pass semantics property.
//===----------------------------------------------------------------------===//

class PassSemantics
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, bool>> {};

TEST_P(PassSemantics, PreservesSemanticsAndVerifies) {
  auto [PassIdx, Seed, WithProbes] = GetParam();
  const NamedPass &Pass = AllPasses[PassIdx];

  WorkloadConfig C = propConfig(Seed);
  auto M = generateProgram(C);
  if (WithProbes)
    insertProbes(*M, AnchorKind::PseudoProbe);
  // Pseudo-random profile annotation so profile-dependent passes run too.
  Rng R(Seed * 31 + 7);
  for (auto &F : M->Functions)
    for (auto &BB : F->Blocks)
      BB->setCount(R.nextBelow(1000));

  int64_t Before = runModule(*M, Seed + 100);
  OptOptions Opts;
  for (auto &F : M->Functions)
    Pass.Fn(*F, Opts);
  auto Problems = verifyModule(*M);
  EXPECT_TRUE(Problems.empty())
      << Pass.Name << " broke the IR: " << Problems.front();
  EXPECT_EQ(runModule(*M, Seed + 100), Before)
      << Pass.Name << " changed program semantics (seed " << Seed << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AllPassesManySeeds, PassSemantics,
    ::testing::Combine(::testing::Range(0, 10),
                       ::testing::Values(11u, 22u, 33u),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<PassSemantics::ParamType> &Info) {
      return std::string(AllPasses[std::get<0>(Info.param)].Name) + "_s" +
             std::to_string(std::get<1>(Info.param)) +
             (std::get<2>(Info.param) ? "_probed" : "_plain");
    });

//===----------------------------------------------------------------------===//
// Inference consistency property.
//===----------------------------------------------------------------------===//

class InferenceConsistency : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InferenceConsistency, ProducesFlowConsistentProfiles) {
  uint64_t Seed = GetParam();
  auto M = generateProgram(propConfig(Seed));
  Rng R(Seed);
  for (auto &F : M->Functions)
    for (auto &BB : F->Blocks)
      BB->setCount(R.nextBelow(5000));
  inferModuleProfile(*M);
  for (auto &F : M->Functions) {
    EXPECT_TRUE(isProfileConsistent(*F, 1))
        << F->getName() << " inconsistent after inference (seed " << Seed
        << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InferenceConsistency,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

//===----------------------------------------------------------------------===//
// Profile IO round-trip property.
//===----------------------------------------------------------------------===//

class ProfileRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProfileRoundTrip, FlatAndContextProfilesAreStable) {
  uint64_t Seed = GetParam();
  Rng R(Seed);

  FlatProfile Flat;
  Flat.Kind = R.nextBool(0.5) ? ProfileKind::ProbeBased
                              : ProfileKind::LineBased;
  for (int F = 0; F != 5; ++F) {
    FunctionProfile &P = Flat.getOrCreate("func" + std::to_string(F));
    P.Checksum = R.next();
    P.HeadSamples = R.nextBelow(1000);
    for (int B = 0; B != 8; ++B)
      P.addBody({static_cast<uint32_t>(R.nextBelow(60)),
                 static_cast<uint32_t>(R.nextBelow(3))},
                R.nextBelow(100000));
    P.addCall({static_cast<uint32_t>(1 + R.nextBelow(50)), 0},
              "func" + std::to_string((F + 1) % 5), R.nextBelow(500));
    FunctionProfile &Inl =
        P.getOrCreateInlinee({static_cast<uint32_t>(1 + R.nextBelow(50)), 0},
                             "inlinee" + std::to_string(F));
    Inl.HeadSamples = R.nextBelow(100);
    Inl.addBody({1, 0}, R.nextBelow(1000));
  }
  std::string T1 = serializeFlatProfile(Flat);
  FlatProfile Back;
  ASSERT_TRUE(parseFlatProfile(T1, Back));
  EXPECT_EQ(serializeFlatProfile(Back), T1);

  ContextProfile CS;
  for (int N = 0; N != 10; ++N) {
    SampleContext Ctx;
    unsigned Depth = 1 + R.nextBelow(4);
    for (unsigned D = 0; D != Depth; ++D)
      Ctx.push_back({"f" + std::to_string(R.nextBelow(6)),
                     static_cast<uint32_t>(R.nextBelow(20))});
    Ctx.back().Site = 0;
    ContextTrieNode &Node = CS.getOrCreateNode(Ctx);
    Node.HasProfile = true;
    Node.ShouldBeInlined = R.nextBool(0.3);
    Node.Profile.addBody({static_cast<uint32_t>(1 + R.nextBelow(30)), 0},
                         R.nextBelow(100000));
  }
  std::string T2 = serializeContextProfile(CS);
  ContextProfile CSBack;
  ASSERT_TRUE(parseContextProfile(T2, CSBack));
  EXPECT_EQ(serializeContextProfile(CSBack), T2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileRoundTrip,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

//===----------------------------------------------------------------------===//
// Unwinder range property.
//===----------------------------------------------------------------------===//

class UnwinderRanges : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UnwinderRanges, RangesStayWithinOneFunction) {
  uint64_t Seed = GetParam();
  WorkloadConfig C = propConfig(Seed);
  auto M = generateProgram(C);
  insertProbes(*M, AnchorKind::PseudoProbe);
  auto Bin = compileToBinary(*M);
  ExecConfig EC;
  EC.Sampler.Enabled = true;
  EC.Sampler.PeriodCycles = 997;
  auto Mem = generateInput(C, Seed);
  RunResult R = execute(*Bin, "main", Mem, EC);
  ASSERT_TRUE(R.Completed);

  Symbolizer Sym(*Bin);
  ContextPool Pool;
  ContextUnwinder Unwinder(Sym, Pool, nullptr);
  size_t Ranges = 0;
  for (const PerfSample &S : R.Samples) {
    const UnwoundSample &U = Unwinder.unwind(S);
    for (const RangeWithContext &Range : U.Ranges) {
      ++Ranges;
      ASSERT_LE(Range.BeginIdx, Range.EndIdx);
      EXPECT_EQ(Bin->funcIndexOf(Range.BeginIdx),
                Bin->funcIndexOf(Range.EndIdx))
          << "linear range crosses a function boundary";
      // Caller frames must name real functions.
      for (uint32_t N = Range.Ctx.Node; N != 0; N = Pool[N].Parent)
        EXPECT_FALSE(Sym.name(Pool[N].Func).empty());
    }
  }
  EXPECT_GT(Ranges, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnwinderRanges,
                         ::testing::Values(7u, 17u, 27u));

//===----------------------------------------------------------------------===//
// End-to-end variant x workload property.
//===----------------------------------------------------------------------===//

class VariantSemantics
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(VariantSemantics, PipelinePreservesSemantics) {
  auto [VariantIdx, Workload] = GetParam();
  PGOVariant V = static_cast<PGOVariant>(VariantIdx);
  ExperimentConfig Config;
  Config.Workload = workloadPreset(Workload, 0.08);
  Config.EvalRuns = 1;
  PGODriver Driver(Config);
  const VariantOutcome &Base = Driver.baseline();
  VariantOutcome Out = Driver.run(V);
  EXPECT_EQ(Out.ExitValue, Base.ExitValue)
      << variantName(V) << " on " << Workload;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, VariantSemantics,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(PGOVariant::Instr),
                          static_cast<int>(PGOVariant::AutoFDO),
                          static_cast<int>(PGOVariant::CSSPGOProbeOnly),
                          static_cast<int>(PGOVariant::CSSPGOFull)),
        ::testing::Values("AdRanker", "AdRetriever", "AdFinder", "HHVM",
                          "HaaS", "ClangProxy")),
    [](const ::testing::TestParamInfo<VariantSemantics::ParamType> &Info) {
      std::string Name = variantName(
          static_cast<PGOVariant>(std::get<0>(Info.param)));
      Name += "_" + std::get<1>(Info.param);
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// Executor fast-path equivalence property.
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Bin twice — reference interpreter and fast path — on identical
/// memory images and asserts every observable output matches.
void runBothAndCompare(const Binary &Bin, const ExecConfig &Config,
                       const WorkloadConfig &WC, uint64_t InputSeed,
                       const std::string &Label) {
  std::vector<int64_t> MemRef = generateInput(WC, InputSeed);
  std::vector<int64_t> MemFast = MemRef;
  RunResult Ref = executeReference(Bin, "main", MemRef, Config);
  RunResult Fast = execute(Bin, "main", MemFast, Config);
  EXPECT_EQ(diffRuns(Ref, Fast), "") << Label;
  EXPECT_EQ(MemRef, MemFast) << Label << ": final memory images differ";
}

/// Every cost-model knob off its default (and tracing on, so the
/// per-byte write cost is charged): a knob the shared machine model
/// ignored but the oracle honoured would diverge here.
CostModel skewedCosts() {
  CostModel C;
  C.TakenBranchCost = 3;
  C.MispredictPenalty = 9;
  C.CallCost = 5;
  C.RetCost = 2;
  C.ICacheMissPenalty = 31;
  C.ICacheLines = 96;
  C.ICacheWays = 2;
  C.ICacheLineBytes = 32;
  C.CounterCost = 4;
  C.SampleInterruptCost = 5;
  C.TraceByteCost = 3;
  C.BranchPredictorEntries = 512;
  return C;
}

} // namespace

class ExecutorEquivalence
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(ExecutorEquivalence, FastPathBitIdenticalToReference) {
  auto [Seed, Precise] = GetParam();
  // Randomized workloads with tail calls and indirect dispatch, both
  // plain and probed, so calls, returns, sampling, value profiling and
  // instruction counting all get exercised.
  WorkloadConfig WC = propConfig(Seed);
  WC.TailCallProb = 0.5;
  WC.IndirectDispatchProb = 0.6;

  for (bool Probed : {false, true}) {
    auto M = generateProgram(WC);
    if (Probed)
      insertProbes(*M, AnchorKind::InstrCounter);
    auto Bin = compileToBinary(*M);

    ExecConfig Config;
    Config.Sampler.Enabled = true;
    Config.Sampler.PeriodCycles = 97; // Dense sampling stresses the PMU.
    Config.Sampler.Precise = Precise;
    Config.Sampler.Seed = Seed;
    Config.CollectInstCounts = true;
    Config.CollectValueProfile = true;
    std::string Label = std::string(Precise ? "precise" : "skid") +
                        (Probed ? "/probed" : "/plain") + " seed " +
                        std::to_string(Seed);
    runBothAndCompare(*Bin, Config, WC, Seed + 100, Label);

    // Error paths must match too: truncate at the instruction limit.
    ExecConfig Limited = Config;
    Limited.MaxInstructions = 2000;
    runBothAndCompare(*Bin, Limited, WC, Seed + 100, Label + "/limited");

    ExecConfig Skewed = Config;
    Skewed.Costs = skewedCosts();
    Skewed.Trace.Enabled = true;
    runBothAndCompare(*Bin, Skewed, WC, Seed + 100, Label + "/skewed-costs");
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsBySampling, ExecutorEquivalence,
    ::testing::Combine(::testing::Values(3u, 13u, 23u, 43u),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ExecutorEquivalence::ParamType> &Info) {
      return "s" + std::to_string(std::get<0>(Info.param)) +
             (std::get<1>(Info.param) ? "_precise" : "_skid");
    });

//===----------------------------------------------------------------------===//
// Generated-profile serialization fixpoint property.
//===----------------------------------------------------------------------===//

#include "probe/ProbeTable.h"
#include "profgen/ProfileGenerator.h"
#include "verify/ProfileVerifier.h"

class GeneratedProfileRoundTrip : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(GeneratedProfileRoundTrip, SerializeParseSerializeIsFixpoint) {
  // The handcrafted ProfileRoundTrip sweep covers the container shapes;
  // this one feeds the parser what profgen actually emits (real contexts,
  // checksums, call targets) and additionally requires the profiles to
  // verify clean against the producing build's probe table.
  uint64_t Seed = GetParam();
  WorkloadConfig WC = propConfig(Seed);
  auto M = generateProgram(WC);
  insertProbes(*M, AnchorKind::PseudoProbe);
  auto Bin = compileToBinary(*M);
  ProbeTable PT = ProbeTable::fromModule(*M);

  ExecConfig EC;
  EC.Sampler.Enabled = true;
  EC.Sampler.PeriodCycles = 997;
  EC.Sampler.Seed = Seed;
  auto Mem = generateInput(WC, Seed);
  RunResult Train = execute(*Bin, "main", Mem, EC);
  ASSERT_TRUE(Train.Completed) << Train.Error;

  ProfGenOptions GO;
  GO.Verify = VerifyLevel::Full;

  GO.Kind = ProfGenKind::CS;
  ProfileGenerator CSGen(*Bin, &PT, GO);
  ProfGenResult CSRes = CSGen.generate(Train.Samples);
  EXPECT_TRUE(CSRes.Verify.ok()) << CSRes.Verify.str();
  std::string T1 = serializeContextProfile(CSRes.CS);
  ContextProfile CSBack;
  ASSERT_TRUE(parseContextProfile(T1, CSBack));
  EXPECT_EQ(serializeContextProfile(CSBack), T1);

  GO.Kind = ProfGenKind::ProbeOnly;
  ProfileGenerator FlatGen(*Bin, &PT, GO);
  ProfGenResult FlatRes = FlatGen.generate(Train.Samples);
  EXPECT_TRUE(FlatRes.Verify.ok()) << FlatRes.Verify.str();
  std::string F1 = serializeFlatProfile(FlatRes.Flat);
  FlatProfile FlatBack;
  ASSERT_TRUE(parseFlatProfile(F1, FlatBack));
  EXPECT_EQ(serializeFlatProfile(FlatBack), F1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedProfileRoundTrip,
                         ::testing::Values(19u, 29u, 39u));
