//===- tests/PGOEndToEndTest.cpp - end-to-end pipeline tests ----*- C++ -*-===//
//
// Integration tests over the complete profile-guided optimization loop:
// build -> profile -> regenerate -> rebuild -> measure, for every variant.
// These are the "does the whole system hold together" tests; the benches
// then quantify the paper's claims on top.
//
//===----------------------------------------------------------------------===//

#include "pgo/PGODriver.h"
#include "postlink/BinaryCFG.h"
#include "profile/ProfileIO.h"
#include "quality/BlockOverlap.h"
#include "workload/Workloads.h"

#include <gtest/gtest.h>

using namespace csspgo;

namespace {

ExperimentConfig smallExperiment(const char *Name = "AdRanker") {
  ExperimentConfig Config;
  Config.Workload = workloadPreset(Name, 0.15);
  Config.EvalRuns = 2;
  return Config;
}

} // namespace

TEST(PGOEndToEnd, AllVariantsPreserveSemantics) {
  PGODriver Driver(smallExperiment());
  const VariantOutcome &Base = Driver.baseline();
  ASSERT_NE(Base.ExitValue, 0);
  for (PGOVariant V : {PGOVariant::Instr, PGOVariant::AutoFDO,
                       PGOVariant::CSSPGOProbeOnly, PGOVariant::CSSPGOFull}) {
    VariantOutcome Out = Driver.run(V);
    EXPECT_EQ(Out.ExitValue, Base.ExitValue)
        << variantName(V) << " changed program semantics";
    EXPECT_GT(Out.CodeSizeBytes, 0u);
  }
}

TEST(PGOEndToEnd, SamplingVariantsHaveNearZeroProfilingOverhead) {
  PGODriver Driver(smallExperiment());
  const VariantOutcome &Plain = Driver.baseline();
  VariantOutcome Auto = Driver.run(PGOVariant::AutoFDO);
  VariantOutcome Probe = Driver.run(PGOVariant::CSSPGOProbeOnly);
  EXPECT_NEAR(PGODriver::overheadPct(Auto, Plain), 0.0, 0.5);
  EXPECT_LT(std::abs(PGODriver::overheadPct(Probe, Plain)), 3.0)
      << "probes must be near-zero overhead";
}

TEST(PGOEndToEnd, InstrumentationHasLargeProfilingOverhead) {
  PGODriver Driver(smallExperiment());
  const VariantOutcome &Plain = Driver.baseline();
  VariantOutcome Instr = Driver.run(PGOVariant::Instr);
  EXPECT_GT(PGODriver::overheadPct(Instr, Plain), 30.0)
      << "counter increments must slow the profiling binary substantially";
}

TEST(PGOEndToEnd, PlainBaselineShipsItsOnlyBuild) {
  PGODriver Driver(smallExperiment());
  const VariantOutcome &Base = Driver.baseline();
  const ExperimentConfig &C = Driver.config();
  BuildConfig Plain;
  Plain.Opt = C.Opt;
  Plain.Inline = C.Inline;
  Plain.Loader = C.Loader;
  Plain.Loader.Verify = VerifyLevel::Full;
  Plain.EnableInference = C.EnableInference;
  BuildResult Fresh = buildWithPGO(Driver.source(), Plain, nullptr);

  std::string Why;
  EXPECT_TRUE(postlink::binariesIdentical(*Base.Build->Bin, *Fresh.Bin, &Why))
      << Why;
  EXPECT_EQ(Base.CodeSizeBytes, Fresh.Bin->textSize());
  EvalResult Eval = evaluateBinary(*Fresh.Bin, C, C.Costs);
  EXPECT_EQ(Base.EvalCycles, Eval.Cycles);
  EXPECT_EQ(Base.EvalCyclesMean, Eval.Mean);
  EXPECT_EQ(Base.ExitValue, Eval.First.ExitValue);
  EXPECT_EQ(Base.EvalInstructions, Eval.First.Instructions);
}

TEST(PGOEndToEnd, ProfilesImprovePerformance) {
  PGODriver Driver(smallExperiment("HHVM"));
  const VariantOutcome &Base = Driver.baseline();
  VariantOutcome Full = Driver.run(PGOVariant::CSSPGOFull);
  EXPECT_LT(Full.EvalCyclesMean, Base.EvalCyclesMean)
      << "full CSSPGO must beat the plain build";
}

TEST(PGOEndToEnd, CSProfileIsContextSensitive) {
  PGODriver Driver(smallExperiment());
  VariantOutcome Full = Driver.run(PGOVariant::CSSPGOFull);
  ASSERT_TRUE(Full.Profile.IsCS);
  bool HasDeepContext = false;
  Full.Profile.CS.forEachNode(
      [&HasDeepContext](const SampleContext &Ctx, const ContextTrieNode &) {
        HasDeepContext |= Ctx.size() >= 2;
      });
  EXPECT_TRUE(HasDeepContext);
}

TEST(PGOEndToEnd, ProfileQualityOrdering) {
  PGODriver Driver(smallExperiment("HHVM"));
  VariantOutcome Instr = Driver.run(PGOVariant::Instr);
  VariantOutcome Auto = Driver.run(PGOVariant::AutoFDO);
  VariantOutcome Probe = Driver.run(PGOVariant::CSSPGOProbeOnly);

  auto GT = annotateForQuality(Driver.source(), Instr.Profile);
  auto InstrSelf = annotateForQuality(Driver.source(), Instr.Profile);
  double SelfOverlap = computeBlockOverlap(*InstrSelf, *GT).ProgramOverlap;
  EXPECT_NEAR(SelfOverlap, 1.0, 1e-9);

  auto AAuto = annotateForQuality(Driver.source(), Auto.Profile);
  auto AProbe = annotateForQuality(Driver.source(), Probe.Profile);
  double OAuto = computeBlockOverlap(*AAuto, *GT).ProgramOverlap;
  double OProbe = computeBlockOverlap(*AProbe, *GT).ProgramOverlap;
  EXPECT_GT(OAuto, 0.5);
  EXPECT_GT(OProbe, OAuto - 0.02)
      << "probe correlation must not be worse than line correlation";
}

TEST(PGOEndToEnd, ProfilesSerializeAndReload) {
  PGODriver Driver(smallExperiment());
  VariantOutcome Auto = Driver.run(PGOVariant::AutoFDO);
  std::string Text = serializeFlatProfile(Auto.Profile.Flat);
  FlatProfile Back;
  ASSERT_TRUE(parseFlatProfile(Text, Back));
  EXPECT_EQ(Back.Functions.size(), Auto.Profile.Flat.Functions.size());
  EXPECT_EQ(serializeFlatProfile(Back), Text) << "round trip must be stable";

  VariantOutcome Full = Driver.run(PGOVariant::CSSPGOFull);
  std::string CSText = serializeContextProfile(Full.Profile.CS);
  ContextProfile CSBack;
  ASSERT_TRUE(parseContextProfile(CSText, CSBack));
  EXPECT_EQ(serializeContextProfile(CSBack), CSText);
}

TEST(PGOEndToEnd, DeterministicAcrossRuns) {
  PGODriver D1(smallExperiment());
  PGODriver D2(smallExperiment());
  VariantOutcome A = D1.run(PGOVariant::CSSPGOFull);
  VariantOutcome B = D2.run(PGOVariant::CSSPGOFull);
  EXPECT_EQ(A.EvalCyclesMean, B.EvalCyclesMean);
  EXPECT_EQ(A.CodeSizeBytes, B.CodeSizeBytes);
}

TEST(PGOEndToEnd, TrimmingKeepsSemanticsAndShrinksProfile) {
  ExperimentConfig WithTrim = smallExperiment();
  ExperimentConfig NoTrim = smallExperiment();
  NoTrim.TrimColdContexts = false;
  PGODriver D1(WithTrim), D2(NoTrim);
  VariantOutcome T = D1.run(PGOVariant::CSSPGOFull);
  VariantOutcome U = D2.run(PGOVariant::CSSPGOFull);
  EXPECT_EQ(T.ExitValue, U.ExitValue);
  // Trimming merges cold contexts into base profiles. The pre-inliner
  // also reshapes both tries afterwards, so compare with a small slack
  // rather than exactly.
  EXPECT_LE(T.Profile.CS.numProfiles(), U.Profile.CS.numProfiles() + 3);
  EXPECT_LE(profileSizeBytes(T.Profile.CS),
            profileSizeBytes(U.Profile.CS) * 105 / 100);
}

