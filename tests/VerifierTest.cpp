//===- tests/VerifierTest.cpp - profile verifier tests ----------*- C++ -*-===//
//
// One test per invariant class: a clean database verifies, and planting
// exactly one corruption of each ViolationKind makes the verifier report
// exactly that kind. The probe-metadata kinds need real descriptors, so
// those tests run against a generated probed module; the last section
// checks the end-to-end property that freshly generated profiles (CS,
// probe-only, trimmed CS) verify clean at Full level.
//
// Every case runs three ways: the map entry point, the view checker on the
// profile's view, and the test oracle's map-container verifier, and the
// three reports must agree field for field. The map-shape cases (a flat
// key that disagrees with its profile's name, trie edges a view cannot
// carry) must be caught by the map entry point, and agree with the oracle
// in counts; their view, which lost the fault, verifies clean.
//
//===----------------------------------------------------------------------===//

#include "codegen/Linker.h"
#include "oracle/Oracle.h"
#include "probe/ProbeInserter.h"
#include "probe/ProbeTable.h"
#include "profgen/ProfileGenerator.h"
#include "profile/Trimmer.h"
#include "sim/Executor.h"
#include "verify/ProfileVerifier.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace csspgo;

namespace {

bool hasKind(const VerifyReport &R, ViolationKind K) {
  for (const Violation &V : R.Details)
    if (V.Kind == K)
      return true;
  return false;
}

/// verifyFlatProfile's report on \p P, after checking that the view
/// checker on flatViewOf(P) and the oracle report exactly the same.
VerifyReport checkedFlat(const FlatProfile &P, const VerifierOptions &VO = {}) {
  VerifyReport Map = verifyFlatProfile(P, VO);
  VerifyReport Ref = referenceVerifyFlatProfile(P, VO);
  EXPECT_EQ(diffVerifyReports(Map, Ref), "");
  EXPECT_EQ(diffVerifyReports(verifyProfileView(flatViewOf(P), VO), Ref), "");
  return Map;
}

/// verifyContextProfile's report on \p P, checked like checkedFlat.
VerifyReport checkedContext(const ContextProfile &P,
                            const VerifierOptions &VO = {}) {
  VerifyReport Map = verifyContextProfile(P, VO);
  VerifyReport Ref = referenceVerifyContextProfile(P, VO);
  EXPECT_EQ(diffVerifyReports(Map, Ref), "");
  EXPECT_EQ(diffVerifyReports(verifyProfileView(contextViewOf(P), VO), Ref),
            "");
  return Map;
}

/// verifyContextProfile's report on a trie with a fault its view cannot
/// carry: the oracle's report, field for field, while the view verifies
/// clean.
VerifyReport mapShapeContext(const ContextProfile &P,
                             const VerifierOptions &VO) {
  VerifyReport Map = verifyContextProfile(P, VO);
  EXPECT_EQ(diffVerifyReports(Map, referenceVerifyContextProfile(P, VO)), "");
  EXPECT_TRUE(verifyProfileView(contextViewOf(P), VO).ok());
  return Map;
}

/// A two-function sampled probe profile whose head/call edges conserve:
/// main calls foo 40 times, and foo's head count is exactly 40.
FlatProfile sampledFlat() {
  FlatProfile P;
  P.Kind = ProfileKind::ProbeBased;
  FunctionProfile &Main = P.getOrCreate("main");
  Main.addBody({1, 0}, 100);
  Main.addBody({2, 0}, 60);
  Main.addCall({2, 0}, "foo", 40);
  FunctionProfile &Foo = P.getOrCreate("foo");
  Foo.HeadSamples = 40;
  Foo.addBody({1, 0}, 40);
  return P;
}

WorkloadConfig smallWC() {
  WorkloadConfig C;
  C.Seed = 9;
  C.Requests = 40;
  C.NumServices = 2;
  C.NumMids = 5;
  C.NumUtils = 4;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Flat-profile invariants (no descriptors needed).
//===----------------------------------------------------------------------===//

TEST(Verifier, CleanSampledDatabaseIsClean) {
  FlatProfile P = sampledFlat();
  VerifyReport R = checkedFlat(P);
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(R.FunctionsChecked, 2u);
  EXPECT_NE(R.str().find("clean"), std::string::npos);
}

TEST(Verifier, OffLevelChecksNothing) {
  FlatProfile P = sampledFlat();
  P.getOrCreate("main").TotalSamples += 5; // Corrupt; Off must not notice.
  VerifierOptions VO;
  VO.Level = VerifyLevel::Off;
  VerifyReport R = checkedFlat(P, VO);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.FunctionsChecked, 0u);
}

TEST(Verifier, CatchesTotalMismatch) {
  FlatProfile P = sampledFlat();
  P.getOrCreate("main").TotalSamples += 5;
  VerifyReport R = checkedFlat(P);
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::TotalMismatch)) << R.str();
}

TEST(Verifier, CatchesHeadEdgeMismatch) {
  FlatProfile P = sampledFlat();
  P.getOrCreate("foo").HeadSamples += 1; // 41 heads vs 40 call targets.
  VerifyReport R = checkedFlat(P);
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::HeadEdgeMismatch)) << R.str();
}

TEST(Verifier, CatchesTargetsIntoHeadlessFunction) {
  FlatProfile P = sampledFlat();
  // A call-target record into a function the database has never seen (and
  // thus records no head for) breaks edge conservation too.
  P.getOrCreate("main").addCall({1, 0}, "ghost", 3);
  VerifyReport R = checkedFlat(P);
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::HeadEdgeMismatch)) << R.str();
}

TEST(Verifier, ReportsEdgeMismatchesInNameOrder) {
  // "z" is interned before "y" (a's targets come before b's), so the view
  // checker must sort the edge report by name, as a std::map orders it.
  FlatProfile P;
  P.getOrCreate("a").addCall({1, 0}, "z", 3);
  P.getOrCreate("b").addCall({1, 0}, "y", 4);
  VerifyReport R = checkedFlat(P);
  ASSERT_EQ(R.Violations, 2u) << R.str();
  EXPECT_EQ(R.Details[0].Where, "y");
  EXPECT_EQ(R.Details[1].Where, "z");
}

TEST(Verifier, SummaryLevelSkipsEdgeConservation) {
  FlatProfile P = sampledFlat();
  P.getOrCreate("foo").HeadSamples += 1;
  VerifierOptions VO;
  VO.Level = VerifyLevel::Summary;
  EXPECT_TRUE(checkedFlat(P, VO).ok());
  // ...but Summary still sees count conservation.
  P.getOrCreate("main").TotalSamples += 5;
  VerifyReport R = checkedFlat(P, VO);
  EXPECT_TRUE(hasKind(R, ViolationKind::TotalMismatch)) << R.str();
}

TEST(Verifier, ExactCountsCatchHeadExceedingTotal) {
  FlatProfile P;
  P.Kind = ProfileKind::LineBased;
  FunctionProfile &F = P.getOrCreate("f");
  F.addBody({1, 0}, 10);
  F.HeadSamples = 20;

  VerifierOptions Exact;
  Exact.ExactCounts = true;
  Exact.CheckHeadEdges = false;
  VerifyReport R = checkedFlat(P, Exact);
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::HeadExceedsTotal)) << R.str();

  // Sampled semantics must accept head > total: a cold callee observed
  // only as the newest LBR call branch serializes as "name:0:1".
  VerifierOptions Sampled;
  Sampled.CheckHeadEdges = false;
  EXPECT_TRUE(checkedFlat(P, Sampled).ok());
}

TEST(Verifier, CatchesDiscriminatorOnProbeKey) {
  FlatProfile P;
  P.Kind = ProfileKind::ProbeBased;
  P.getOrCreate("f").addBody({1, 3}, 5);
  VerifierOptions VO;
  VO.CheckHeadEdges = false;
  VerifyReport R = checkedFlat(P, VO);
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::DiscOnProbeKey)) << R.str();

  // The same key is perfectly legal on a line-based profile.
  P.Kind = ProfileKind::LineBased;
  EXPECT_TRUE(checkedFlat(P, VO).ok());
}

TEST(Verifier, CatchesNameMismatch) {
  // A map key that disagrees with its profile's name is map shape: the
  // view names the function by its profile.
  FlatProfile P = sampledFlat();
  P.Functions.at("main").Name = "not_main";
  VerifyReport R = verifyFlatProfile(P);
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::NameMismatch)) << R.str();
  EXPECT_EQ(diffVerifyReports(R, referenceVerifyFlatProfile(P)), "");
  EXPECT_TRUE(verifyProfileView(flatViewOf(P)).ok());

  // An empty profile name is the view's to catch; it anchors to the
  // (empty) name the view files the function under, not the map key.
  FlatProfile Q;
  Q.getOrCreate("g").Name.clear();
  VerifierOptions VO;
  VO.CheckHeadEdges = false;
  VerifyReport E = verifyFlatProfile(Q, VO);
  EXPECT_TRUE(hasKind(E, ViolationKind::NameMismatch)) << E.str();
  EXPECT_EQ(E.Violations, referenceVerifyFlatProfile(Q, VO).Violations);
  EXPECT_TRUE(hasKind(verifyProfileView(flatViewOf(Q), VO),
                      ViolationKind::NameMismatch));
}

TEST(Verifier, ChecksNestedInlineeProfiles) {
  FlatProfile P = sampledFlat();
  FunctionProfile &Inl =
      P.getOrCreate("main").getOrCreateInlinee({1, 0}, "leaf");
  Inl.addBody({1, 0}, 7);
  Inl.TotalSamples += 2; // Corrupt only the nested profile.
  VerifyReport R = checkedFlat(P);
  EXPECT_FALSE(R.ok());
  ASSERT_TRUE(hasKind(R, ViolationKind::TotalMismatch)) << R.str();
  // The violation anchors to the nested context, not the top level.
  EXPECT_NE(R.Details.front().Where.find("leaf"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Probe-metadata agreement (needs real descriptors).
//===----------------------------------------------------------------------===//

namespace {

/// A probed module plus its descriptor table and main's descriptor.
struct ProbedSetup {
  std::unique_ptr<Module> M;
  ProbeTable PT;
  const ProbeDescriptor *MainDesc;

  ProbedSetup() : M(generateProgram(smallWC())) {
    insertProbes(*M, AnchorKind::PseudoProbe);
    PT = ProbeTable::fromModule(*M);
    MainDesc = PT.findByName("main");
  }

  /// A minimal probe profile for main, consistent with the descriptors.
  FlatProfile cleanProfile() const {
    FlatProfile P;
    P.Kind = ProfileKind::ProbeBased;
    FunctionProfile &F = P.getOrCreate("main");
    F.Guid = MainDesc->Guid;
    F.Checksum = MainDesc->CFGChecksum;
    F.addBody({1, 0}, 10);
    return P;
  }

  VerifierOptions options() const {
    VerifierOptions VO;
    VO.Probes = &PT;
    VO.CheckHeadEdges = false;
    return VO;
  }
};

} // namespace

TEST(VerifierProbes, CleanAgainstDescriptors) {
  ProbedSetup S;
  ASSERT_NE(S.MainDesc, nullptr);
  VerifyReport R = checkedFlat(S.cleanProfile(), S.options());
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(VerifierProbes, CatchesOutOfDomainKey) {
  ProbedSetup S;
  ASSERT_NE(S.MainDesc, nullptr);
  FlatProfile P = S.cleanProfile();
  P.getOrCreate("main").addBody({S.MainDesc->NumProbes + 7, 0}, 1);
  VerifyReport R = checkedFlat(P, S.options());
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::ProbeOutOfDomain)) << R.str();
}

TEST(VerifierProbes, CatchesGuidAndChecksumMismatch) {
  ProbedSetup S;
  ASSERT_NE(S.MainDesc, nullptr);
  FlatProfile P = S.cleanProfile();
  P.getOrCreate("main").Guid += 1;
  EXPECT_TRUE(hasKind(checkedFlat(P, S.options()),
                      ViolationKind::GuidMismatch));

  FlatProfile Q = S.cleanProfile();
  Q.getOrCreate("main").Checksum += 1;
  EXPECT_TRUE(hasKind(checkedFlat(Q, S.options()),
                      ViolationKind::ChecksumMismatch));
}

TEST(VerifierProbes, CatchesMissingDescriptor) {
  ProbedSetup S;
  FlatProfile P = S.cleanProfile();
  P.getOrCreate("no_such_function").addBody({1, 0}, 1);
  VerifyReport R = checkedFlat(P, S.options());
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::NameMismatch)) << R.str();
}

TEST(VerifierProbes, ZeroMetadataSkipsAgreement) {
  // A profile that never persisted Guid/Checksum (both zero) is not in
  // disagreement with the descriptors — the loader handles staleness.
  ProbedSetup S;
  FlatProfile P = S.cleanProfile();
  P.getOrCreate("main").Guid = 0;
  P.getOrCreate("main").Checksum = 0;
  EXPECT_TRUE(checkedFlat(P, S.options()).ok());
}

//===----------------------------------------------------------------------===//
// Context-trie structure.
//===----------------------------------------------------------------------===//

TEST(VerifierTrie, CatchesRootEdgeWithNonzeroSite) {
  ContextProfile CS;
  ContextTrieNode &N = CS.Root.getOrCreateChild(5, "main");
  N.HasProfile = true;
  N.Profile.addBody({1, 0}, 10);
  VerifierOptions VO;
  VO.CheckHeadEdges = false;
  VerifyReport R = mapShapeContext(CS, VO);
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::TrieEdgeMismatch)) << R.str();
}

TEST(VerifierTrie, CatchesEdgeCalleeVsNodeName) {
  ContextProfile CS;
  ContextTrieNode &N = CS.Root.getOrCreateChild(0, "main");
  N.FuncName = "other";
  N.Profile.Name = "other";
  N.HasProfile = true;
  N.Profile.addBody({1, 0}, 10);
  VerifierOptions VO;
  VO.CheckHeadEdges = false;
  VerifyReport R = mapShapeContext(CS, VO);
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::NameMismatch)) << R.str();
}

TEST(VerifierTrie, CatchesGhostCountsWithoutHasProfile) {
  ContextProfile CS;
  ContextTrieNode &N = CS.Root.getOrCreateChild(0, "main");
  N.Profile.addBody({1, 0}, 10); // Counts, but HasProfile stays false.
  VerifierOptions VO;
  VO.CheckHeadEdges = false;
  VerifyReport R = mapShapeContext(CS, VO);
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::TrieEdgeMismatch)) << R.str();
  EXPECT_EQ(R.ContextsChecked, 0u); // The ghost node holds no profile.
}

TEST(VerifierTrie, CatchesEdgeSiteOutsideParentDomain) {
  ProbedSetup S;
  ASSERT_NE(S.MainDesc, nullptr);
  ContextProfile CS;
  ContextTrieNode &Main = CS.Root.getOrCreateChild(0, "main");
  Main.HasProfile = true;
  Main.Profile.Guid = S.MainDesc->Guid;
  Main.Profile.Checksum = S.MainDesc->CFGChecksum;
  Main.Profile.addBody({1, 0}, 10);
  // Child edge site beyond main's probe domain ("main" as callee keeps
  // the descriptor lookup of the child itself happy).
  Main.getOrCreateChild(S.MainDesc->NumProbes + 9, "main");
  VerifyReport R = mapShapeContext(CS, S.options());
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::ProbeOutOfDomain)) << R.str();
}

// An edge into a profile-less node that profiled contexts pass through is
// carried by the view: its site is checked once, however many contexts
// run through it.
TEST(VerifierTrie, ChecksAnIntermediateEdgeSiteOnce) {
  ProbedSetup S;
  ASSERT_NE(S.MainDesc, nullptr);
  ContextProfile CS;
  ContextTrieNode &Main = CS.Root.getOrCreateChild(0, "main");
  ContextTrieNode &Mid =
      Main.getOrCreateChild(S.MainDesc->NumProbes + 3, "no_such_mid");
  for (uint32_t Site : {1u, 2u}) {
    ContextTrieNode &Leaf = Mid.getOrCreateChild(Site, "no_such_leaf");
    Leaf.HasProfile = true;
    Leaf.Profile.addBody({1, 0}, 5);
  }
  VerifyReport R = checkedContext(CS, S.options());
  uint64_t OutOfDomain = 0;
  for (const Violation &V : R.Details)
    OutOfDomain += V.Kind == ViolationKind::ProbeOutOfDomain;
  EXPECT_EQ(OutOfDomain, 1u) << R.str();
  EXPECT_EQ(R.ContextsChecked, 2u);
}

//===----------------------------------------------------------------------===//
// End-to-end: freshly generated profiles verify clean at Full level.
//===----------------------------------------------------------------------===//

TEST(VerifierEndToEnd, GeneratedProfilesVerifyClean) {
  WorkloadConfig WC = smallWC();
  auto M = generateProgram(WC);
  insertProbes(*M, AnchorKind::PseudoProbe);
  auto Bin = compileToBinary(*M);
  ProbeTable PT = ProbeTable::fromModule(*M);

  ExecConfig EC;
  EC.Sampler.Enabled = true;
  EC.Sampler.PeriodCycles = 997;
  EC.Sampler.Seed = 9;
  auto Mem = generateInput(WC, 9);
  RunResult Train = execute(*Bin, "main", Mem, EC);
  ASSERT_TRUE(Train.Completed) << Train.Error;
  ASSERT_FALSE(Train.Samples.empty());

  ProfGenOptions GO;
  GO.Verify = VerifyLevel::Full;

  GO.Kind = ProfGenKind::CS;
  ProfileGenerator CSGen(*Bin, &PT, GO);
  ProfGenResult CSRes = CSGen.generate(Train.Samples);
  EXPECT_TRUE(CSRes.Verify.ok()) << CSRes.Verify.str();

  GO.Kind = ProfGenKind::ProbeOnly;
  ProfileGenerator FlatGen(*Bin, &PT, GO);
  ProfGenResult FlatRes = FlatGen.generate(Train.Samples);
  EXPECT_TRUE(FlatRes.Verify.ok()) << FlatRes.Verify.str();

  // Trimming moves counts but never drops one side of an edge, so the
  // trimmed trie still satisfies the full invariant set.
  trimColdContexts(CSRes.CS, 2);
  VerifierOptions VO;
  VO.Probes = &PT;
  VerifyReport Trimmed = checkedContext(CSRes.CS, VO);
  EXPECT_TRUE(Trimmed.ok()) << Trimmed.str();

  // And a single tampered count is caught.
  bool Tampered = false;
  CSRes.CS.forEachNodeMutable(
      [&](const SampleContext &, ContextTrieNode &N) {
        if (!Tampered && N.Profile.TotalSamples) {
          N.Profile.TotalSamples += 1;
          Tampered = true;
        }
      });
  ASSERT_TRUE(Tampered);
  VerifyReport Bad = checkedContext(CSRes.CS, VO);
  EXPECT_FALSE(Bad.ok());
  EXPECT_TRUE(hasKind(Bad, ViolationKind::TotalMismatch)) << Bad.str();
}
