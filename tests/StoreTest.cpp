//===- tests/StoreTest.cpp - binary profile store tests ---------*- C++ -*-===//
//
// The store's contract in three parts: (1) the container is lossless —
// text -> binary -> text reproduces the input, loading what was written
// and re-writing it is byte-identical, and Guid/Checksum metadata the
// text format drops survives; (2) the reader rejects every truncation and
// bit-flip at open() with a diagnostic, never a crash; (3) ingestEpoch's
// decay algebra matches the plain merge at decay 1.0, replacement at
// decay 0.0, respects saturation, and every folded store still passes
// strict Full verification (including head/call-edge conservation, which
// the cumulative-rounding scaler preserves by construction).
//
//===----------------------------------------------------------------------===//

#include "codegen/Linker.h"
#include "ir/Printer.h"
#include "loader/ProfileLoader.h"
#include "oracle/Oracle.h"
#include "probe/ProbeInserter.h"
#include "probe/ProbeTable.h"
#include "profgen/ProfileGenerator.h"
#include "profile/ProfileIO.h"
#include "profile/ProfileSummary.h"
#include "sim/Executor.h"
#include "store/ProfileStore.h"
#include "support/Hashing.h"
#include "verify/ProfileVerifier.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace csspgo;

namespace {

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

/// Line-based flat profile exercising discriminators, inlinee nesting and
/// multi-target call sites.
FlatProfile lineFlat() {
  FlatProfile P;
  P.Kind = ProfileKind::LineBased;
  FunctionProfile &Main = P.getOrCreate("main");
  Main.addBody({1, 0}, 50);
  Main.addBody({1, 2}, 7);
  Main.addCall({3, 1}, "a", 20);
  Main.addCall({3, 1}, "b", 10);
  FunctionProfile &Inl = Main.getOrCreateInlinee({4, 0}, "leaf");
  Inl.addBody({1, 0}, 12);
  Inl.addCall({2, 0}, "a", 5);
  FunctionProfile &A = P.getOrCreate("a");
  A.HeadSamples = 25;
  A.addBody({1, 0}, 25);
  FunctionProfile &B = P.getOrCreate("b");
  B.HeadSamples = 10;
  B.addBody({1, 0}, 10);
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

/// Generated program + samples + profiles of the requested kind, shared by
/// the CS/loader tests.
struct GeneratedSetup {
  std::unique_ptr<Module> M;
  std::unique_ptr<Binary> Bin;
  ProbeTable PT;
  std::vector<PerfSample> Samples;

  GeneratedSetup() : M(generateProgram(smallWC())) {
    insertProbes(*M, AnchorKind::PseudoProbe);
    Bin = compileToBinary(*M);
    PT = ProbeTable::fromModule(*M);
    ExecConfig EC;
    EC.Sampler.Enabled = true;
    EC.Sampler.PeriodCycles = 997;
    EC.Sampler.Seed = 9;
    auto Mem = generateInput(smallWC(), 9);
    RunResult Train = execute(*Bin, "main", Mem, EC);
    Samples = Train.Samples;
  }

  ProfGenResult generate(ProfGenKind Kind) const {
    ProfGenOptions GO;
    GO.Kind = Kind;
    GO.Verify = VerifyLevel::Full;
    return ProfileGenerator(*Bin, &PT, GO).generate(Samples);
  }
};

ProfileStore openOrDie(const std::string &Bytes) {
  Expected<ProfileStore> S = ProfileStore::open(Bytes);
  EXPECT_TRUE(bool(S)) << S.status().message();
  return S ? S.take() : ProfileStore();
}

FlatProfile loadFlatOrDie(const ProfileStore &S) {
  Expected<ContextProfileView> V = S.loadView();
  EXPECT_TRUE(bool(V)) << V.status().message();
  return V ? flatProfileOf(*V) : FlatProfile();
}

ContextProfile loadContextOrDie(const ProfileStore &S) {
  Expected<ContextProfileView> V = S.loadView();
  EXPECT_TRUE(bool(V)) << V.status().message();
  return V ? contextProfileOf(*V) : ContextProfile();
}

} // namespace

//===----------------------------------------------------------------------===//
// Lossless round trips.
//===----------------------------------------------------------------------===//

TEST(Store, FlatRoundTripIsLossless) {
  for (FlatProfile P : {sampledFlat(), lineFlat()}) {
    std::string Bytes =
        writeStore(flatViewOf(P), {{123, P.totalSamples(), 1000}});
    ProfileStore S = openOrDie(Bytes);
    EXPECT_EQ(S.isCS(), false);
    EXPECT_EQ(S.kind(), P.Kind);
    EXPECT_EQ(S.numFunctions(), P.Functions.size());
    EXPECT_EQ(S.totalSamples(), P.totalSamples());

    FlatProfile Back = loadFlatOrDie(S);
    EXPECT_EQ(serializeFlatProfile(Back), serializeFlatProfile(P));

    // Binary fixpoint: writing what was loaded is byte-identical.
    EXPECT_EQ(writeStore(flatViewOf(Back), {{123, P.totalSamples(), 1000}}),
              Bytes);
  }
}

TEST(Store, TextToBinaryToTextIsIdentity) {
  std::string Text = serializeFlatProfile(lineFlat());
  FlatProfile Parsed;
  ASSERT_TRUE(parseFlatProfile(Text, Parsed));
  ProfileStore S = openOrDie(writeStore(flatViewOf(Parsed), {}));
  EXPECT_EQ(serializeFlatProfile(loadFlatOrDie(S)), Text);
}

TEST(Store, GuidAndChecksumSurviveUnlikeText) {
  FlatProfile P = sampledFlat();
  P.getOrCreate("main").Guid = 0xDEADBEEF12345678ull;
  P.getOrCreate("main").Checksum = 42;

  // The text format drops top-level Guid...
  FlatProfile Reparsed;
  ASSERT_TRUE(parseFlatProfile(serializeFlatProfile(P), Reparsed));
  EXPECT_EQ(Reparsed.Functions.at("main").Guid, 0u);

  // ...the store keeps it, including an explicit zero.
  ProfileStore S = openOrDie(writeStore(flatViewOf(P), {}));
  FlatProfile Back = loadFlatOrDie(S);
  EXPECT_EQ(Back.Functions.at("main").Guid, 0xDEADBEEF12345678ull);
  EXPECT_EQ(Back.Functions.at("main").Checksum, 42u);
  EXPECT_EQ(Back.Functions.at("foo").Guid, 0u);
}

TEST(Store, CSRoundTripIsLossless) {
  GeneratedSetup G;
  ASSERT_FALSE(G.Samples.empty());
  ProfGenResult Res = G.generate(ProfGenKind::CS);
  ASSERT_TRUE(Res.IsCS);
  ASSERT_TRUE(Res.Verify.ok()) << Res.Verify.str();

  std::string Bytes =
      writeStore(contextViewOf(Res.CS), {{7, Res.CS.totalSamples(), 1000}});
  ProfileStore S = openOrDie(Bytes);
  EXPECT_TRUE(S.isCS());
  EXPECT_EQ(S.kind(), ProfileKind::ProbeBased);

  ContextProfile Back = loadContextOrDie(S);
  EXPECT_EQ(serializeContextProfile(Back), serializeContextProfile(Res.CS));
  EXPECT_EQ(
      writeStore(contextViewOf(Back), {{7, Res.CS.totalSamples(), 1000}}),
      Bytes);

  // The reconstructed trie passes strict verification against the probe
  // table of the producing build.
  VerifierOptions VO;
  VO.Probes = &G.PT;
  VerifyReport R = verifyContextProfile(Back, VO);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(Store, EmptyProfileRoundTrips) {
  FlatProfile Empty;
  ProfileStore S = openOrDie(writeStore(flatViewOf(Empty), {}));
  EXPECT_EQ(S.numFunctions(), 0u);
  EXPECT_EQ(S.totalSamples(), 0u);
  EXPECT_TRUE(S.epochs().empty());
  EXPECT_TRUE(loadFlatOrDie(S).Functions.empty());
}

//===----------------------------------------------------------------------===//
// The per-function index: lazy loads, lookups, totals.
//===----------------------------------------------------------------------===//

TEST(Store, LazyUnionEqualsEagerLoad) {
  FlatProfile P = lineFlat();
  ProfileStore S = openOrDie(writeStore(flatViewOf(P), {}));

  StoreViewLoader Union(S);
  for (size_t I = 0; I != S.numFunctions(); ++I) {
    Status St = Union.load(I);
    ASSERT_TRUE(St.ok()) << St.message();
  }
  EXPECT_EQ(serializeFlatProfile(flatProfileOf(Union.view())),
            serializeFlatProfile(P));

  // A single-function load materializes exactly that function, with the
  // totals the index advertised.
  int MainIdx = S.findFunction("main");
  ASSERT_GE(MainIdx, 0);
  StoreViewLoader OneLoader(S);
  Status St = OneLoader.load(MainIdx);
  ASSERT_TRUE(St.ok()) << St.message();
  FlatProfile One = flatProfileOf(OneLoader.view());
  EXPECT_EQ(One.Functions.size(), 1u);
  EXPECT_EQ(One.Functions.at("main").TotalSamples,
            S.functionTotalSamples(MainIdx));
}

TEST(Store, FunctionLookupByNameAndGuid) {
  FlatProfile P = sampledFlat();
  ProfileStore S = openOrDie(writeStore(flatViewOf(P), {}));
  int Foo = S.findFunction("foo");
  ASSERT_GE(Foo, 0);
  EXPECT_EQ(S.functionName(Foo), "foo");
  EXPECT_EQ(S.functionTotalSamples(Foo), 40u);
  EXPECT_EQ(S.findFunction("ghost"), -1);

  // A compact store names functions by GUID until resolved.
  StoreWriteOptions Compact;
  Compact.CompactNames = true;
  ProfileStore C = openOrDie(writeStore(flatViewOf(P), {}, Compact));
  int ByGuid =
      C.findFunction("guid." + std::to_string(computeFunctionGuid("foo")));
  ASSERT_GE(ByGuid, 0);
  EXPECT_EQ(C.functionTotalSamples(ByGuid), 40u);
}

//===----------------------------------------------------------------------===//
// Inlinee nesting: the text and store readers share MaxInlineeNesting.
//===----------------------------------------------------------------------===//

namespace {

/// "main" over a chain of \p Depth nested inlinees, one sample per level.
FlatProfile nestedProfile(unsigned Depth) {
  FlatProfile P;
  FunctionProfile *Cur = &P.getOrCreate("main");
  for (unsigned D = 0; D != Depth; ++D) {
    Cur->addBody({1, 0}, 1);
    Cur = &Cur->getOrCreateInlinee({2, 0}, "f" + std::to_string(D + 1));
  }
  Cur->addBody({1, 0}, 1);
  return P;
}

} // namespace

TEST(Store, InlineeNestingBoundIsSharedByBothReaders) {
  // At the bound, text -> store -> text is the identity.
  std::string Text = serializeFlatProfile(nestedProfile(MaxInlineeNesting));
  FlatProfile Parsed;
  ASSERT_TRUE(parseFlatProfile(Text, Parsed));
  ProfileStore S = openOrDie(writeStore(flatViewOf(Parsed), {}));
  Expected<ContextProfileView> View = S.loadView();
  ASSERT_TRUE(View) << View.status().message();
  EXPECT_EQ(serializeFlatProfile(flatProfileOf(*View)), Text);

  // One level deeper, the text readers (flat and context) and the store
  // reader all refuse.
  FlatProfile Deep = nestedProfile(MaxInlineeNesting + 1);
  FlatProfile FlatBack;
  EXPECT_FALSE(parseFlatProfile(serializeFlatProfile(Deep), FlatBack));
  ContextProfile CS;
  ContextTrieNode &N = CS.getOrCreateNode({{"main", 0}});
  N.HasProfile = true;
  N.Profile = Deep.Functions.at("main");
  ContextProfile CSBack;
  EXPECT_FALSE(parseContextProfile(serializeContextProfile(CS), CSBack));
  Expected<ProfileStore> DeepStore =
      ProfileStore::open(writeStore(flatViewOf(Deep), {}));
  ASSERT_TRUE(DeepStore) << DeepStore.status().message();
  Expected<ContextProfileView> DeepView = DeepStore->loadView();
  ASSERT_FALSE(DeepView);
  EXPECT_EQ(DeepView.status().message(),
            "inlinee nesting exceeds depth limit");
}

TEST(Store, HotThresholdMatchesProfileSummary) {
  GeneratedSetup G;
  ASSERT_FALSE(G.Samples.empty());
  ProfGenResult Flat = G.generate(ProfGenKind::ProbeOnly);
  ProfGenResult CS = G.generate(ProfGenKind::CS);
  ProfileStore SF = openOrDie(writeStore(flatViewOf(Flat.Flat), {}));
  ProfileStore SC = openOrDie(writeStore(contextViewOf(CS.CS), {}));
  for (double Cutoff : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(SF.hotThreshold(Cutoff),
              summaryThreshold(referenceHotCountDistribution(Flat.Flat),
                               Cutoff));
    EXPECT_EQ(SC.hotThreshold(Cutoff),
              summaryThreshold(referenceHotCountDistribution(CS.CS), Cutoff));
  }
}

// The view writer against the map writer it replaced (test oracle):
// generated flat, exact-count and CS profiles, names and GUID tables.
TEST(Store, ViewWriterMatchesReferenceWriter) {
  GeneratedSetup G;
  ASSERT_FALSE(G.Samples.empty());
  std::vector<EpochInfo> Epochs{{5, 77, 1000}, {9, 12, 500}};
  StoreWriteOptions Compact;
  Compact.CompactNames = true;
  for (ProfGenKind K : {ProfGenKind::ProbeOnly, ProfGenKind::AutoFDO}) {
    FlatProfile P = G.generate(K).Flat;
    for (const StoreWriteOptions &WO : {StoreWriteOptions(), Compact})
      for (bool Exact : {false, true})
        EXPECT_EQ(writeStore(flatViewOf(P), Epochs, WO, Exact),
                  referenceWriteStore(P, Epochs, WO, Exact))
            << profGenKindName(K);
  }
  ContextProfile CS = G.generate(ProfGenKind::CS).CS;
  for (const StoreWriteOptions &WO : {StoreWriteOptions(), Compact})
    EXPECT_EQ(writeStore(contextViewOf(CS), Epochs, WO),
              referenceWriteStore(CS, Epochs, WO));
}

TEST(Store, CompactNamesShrinkTheTableAndResolve) {
  // Long C++-style names make the GUID table the clear winner.
  FlatProfile P;
  P.Kind = ProfileKind::LineBased;
  std::vector<std::string> Names;
  for (int I = 0; I != 8; ++I) {
    Names.push_back("namespace_alpha::ClassWithALongName" +
                    std::to_string(I) + "::method_with_a_long_name");
    P.getOrCreate(Names.back()).addBody({1, 0}, 10 + I);
  }
  StoreWriteOptions Compact;
  Compact.CompactNames = true;
  std::string Full = writeStore(flatViewOf(P), {});
  std::string Small = writeStore(flatViewOf(P), {}, Compact);
  EXPECT_LT(Small.size(), Full.size());

  ProfileStore S = openOrDie(Small);
  EXPECT_TRUE(S.compactNames());
  // Unresolved compact names are stable placeholders...
  EXPECT_EQ(S.functionName(0).rfind("guid.", 0), 0u);
  EXPECT_EQ(S.findFunction(Names[0]), -1);

  // ...and resolve against a module carrying the real functions.
  Module M("resolver");
  for (const std::string &N : Names)
    M.createFunction(N, 0);
  S.resolveNames(M);
  int Idx = S.findFunction(Names[3]);
  ASSERT_GE(Idx, 0);
  StoreViewLoader L(S);
  Status St = L.load(Idx);
  ASSERT_TRUE(St.ok()) << St.message();
  FlatProfile Back = flatProfileOf(L.view());
  EXPECT_EQ(Back.Functions.at(Names[3]).bodyAt({1, 0}), 13u);
}

//===----------------------------------------------------------------------===//
// Corruption rejection. Every truncation and bit-flip fails open() with a
// diagnostic; nothing reaches the load path.
//===----------------------------------------------------------------------===//

TEST(Store, EveryTruncationIsRejected) {
  std::string Bytes = writeStore(flatViewOf(sampledFlat()), {{1, 240, 1000}});
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    Expected<ProfileStore> S = ProfileStore::open(Bytes.substr(0, Len));
    EXPECT_FALSE(bool(S)) << "prefix of " << Len << " bytes accepted";
    EXPECT_FALSE(S.status().message().empty());
  }
}

TEST(Store, BitFlipsAreRejected) {
  std::string Bytes = writeStore(flatViewOf(lineFlat()), {{1, 129, 1000}});
  // Flip one bit in every byte position; the content hash (or the header
  // validation for the hash field itself) must catch each one.
  for (size_t Pos = 0; Pos != Bytes.size(); ++Pos) {
    std::string Bad = Bytes;
    Bad[Pos] = static_cast<char>(Bad[Pos] ^ 0x10);
    EXPECT_FALSE(bool(ProfileStore::open(Bad)))
        << "flip at byte " << Pos << " accepted";
  }
}

//===----------------------------------------------------------------------===//
// Continuous ingestion: decay algebra and post-ingest verification.
//===----------------------------------------------------------------------===//

TEST(StoreIngest, DecayOneEqualsPlainMerge) {
  FlatProfile Epoch = sampledFlat();
  std::string Bytes;
  IngestOptions IO;
  IO.Timestamp = 100;
  IngestResult R1 = ingestEpoch(Bytes, flatViewOf(Epoch), IO);
  ASSERT_TRUE(R1.Ok) << R1.Error;
  IO.Timestamp = 200;
  IngestResult R2 = ingestEpoch(Bytes, flatViewOf(Epoch), IO);
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(R2.EpochsNow, 2u);

  FlatProfile Merged = sampledFlat();
  mergeFlatProfiles(Merged, Epoch);

  ProfileStore S = openOrDie(Bytes);
  EXPECT_EQ(serializeFlatProfile(loadFlatOrDie(S)),
            serializeFlatProfile(Merged));
}

TEST(StoreIngest, DecayZeroReplacesTheAggregate) {
  std::string Bytes;
  IngestOptions IO;
  IO.Timestamp = 1;
  ASSERT_TRUE(ingestEpoch(Bytes, flatViewOf(sampledFlat()), IO).Ok);

  FlatProfile Second;
  Second.Kind = ProfileKind::ProbeBased;
  Second.getOrCreate("fresh_only").addBody({1, 0}, 9);
  IO.Timestamp = 2;
  IO.DecayPermille = 0;
  IngestResult R = ingestEpoch(Bytes, flatViewOf(Second), IO);
  ASSERT_TRUE(R.Ok) << R.Error;

  ProfileStore S = openOrDie(Bytes);
  // The prior aggregate is gone; only the fresh epoch remains. The epoch
  // history still records both folds.
  EXPECT_EQ(serializeFlatProfile(loadFlatOrDie(S)),
            serializeFlatProfile(Second));
  ASSERT_EQ(S.epochs().size(), 2u);
  EXPECT_EQ(S.epochs()[1].DecayPermille, 0u);
}

TEST(StoreIngest, HalfDecayPassesStrictVerification) {
  // The decay scaler must preserve the verifier's *exact* head == target
  // edge equation, which naive per-slot rounding breaks. Fold the same
  // edge-conserving profile several times at decay 0.5 and re-verify the
  // loaded aggregate independently at Full level.
  std::string Bytes;
  IngestOptions IO;
  IO.DecayPermille = 500;
  for (uint64_t T = 1; T <= 4; ++T) {
    IO.Timestamp = T;
    IngestResult R = ingestEpoch(Bytes, flatViewOf(sampledFlat()), IO);
    ASSERT_TRUE(R.Ok) << "epoch " << T << ": " << R.Error;
    EXPECT_TRUE(R.Verify.ok()) << R.Verify.str();
  }
  ProfileStore S = openOrDie(Bytes);
  FlatProfile Back = loadFlatOrDie(S);
  VerifyReport R = verifyFlatProfile(Back);
  EXPECT_TRUE(R.ok()) << R.str();
  // Geometric series: 100 * (1 + 1/2 + 1/4 + 1/8) = 187 or 188 after
  // rounding — decayed history converges instead of growing unboundedly.
  uint64_t MainBody = Back.Functions.at("main").bodyAt({1, 0});
  EXPECT_GE(MainBody, 186u);
  EXPECT_LE(MainBody, 189u);
}

TEST(StoreIngest, CSIngestKeepsTrieVerified) {
  GeneratedSetup G;
  ASSERT_FALSE(G.Samples.empty());
  ProfGenResult Res = G.generate(ProfGenKind::CS);
  ASSERT_TRUE(Res.Verify.ok()) << Res.Verify.str();

  std::string Bytes;
  IngestOptions IO;
  IO.DecayPermille = 500;
  IO.Timestamp = 10;
  IngestResult R1 = ingestEpoch(Bytes, contextViewOf(Res.CS), IO);
  ASSERT_TRUE(R1.Ok) << R1.Error;
  IO.Timestamp = 20;
  IngestResult R2 = ingestEpoch(Bytes, contextViewOf(Res.CS), IO);
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_TRUE(R2.Verify.ok()) << R2.Verify.str();

  // Independent strict re-verification of the loaded trie, including the
  // probe-table agreement the ingest path does not have access to.
  ProfileStore S = openOrDie(Bytes);
  ASSERT_TRUE(S.isCS());
  ContextProfile Back = loadContextOrDie(S);
  VerifierOptions VO;
  VO.Probes = &G.PT;
  VerifyReport R = verifyContextProfile(Back, VO);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(StoreIngest, CountsSaturateInsteadOfWrapping) {
  FlatProfile Huge;
  Huge.Kind = ProfileKind::LineBased;
  FunctionProfile &F = Huge.getOrCreate("hot");
  F.addBody({1, 0}, UINT64_MAX - 5);

  std::string Bytes;
  ASSERT_TRUE(ingestEpoch(Bytes, flatViewOf(Huge)).Ok);
  IngestResult R = ingestEpoch(Bytes, flatViewOf(Huge));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.Merge.SaturatedCounts, 0u);

  ProfileStore S = openOrDie(Bytes);
  FlatProfile Back = loadFlatOrDie(S);
  EXPECT_EQ(Back.Functions.at("hot").bodyAt({1, 0}), UINT64_MAX);
  EXPECT_EQ(Back.Functions.at("hot").TotalSamples, UINT64_MAX);
}

TEST(StoreIngest, EpochMetadataPersists) {
  std::string Bytes;
  IngestOptions IO;
  for (uint64_t T : {11u, 22u, 33u}) {
    IO.Timestamp = T;
    IO.DecayPermille = T == 33 ? 750 : 1000;
    ASSERT_TRUE(ingestEpoch(Bytes, flatViewOf(sampledFlat()), IO).Ok);
  }
  ProfileStore S = openOrDie(Bytes);
  ASSERT_EQ(S.epochs().size(), 3u);
  EXPECT_EQ(S.epochs()[0].Timestamp, 11u);
  EXPECT_EQ(S.epochs()[2].Timestamp, 33u);
  EXPECT_EQ(S.epochs()[2].DecayPermille, 750u);
  EXPECT_EQ(S.epochs()[0].TotalSamples, sampledFlat().totalSamples());
}

TEST(StoreIngest, MismatchedEpochsFailCleanly) {
  std::string Bytes;
  ASSERT_TRUE(ingestEpoch(Bytes, flatViewOf(sampledFlat())).Ok); // probe-based
  std::string Before = Bytes;

  FlatProfile Line = lineFlat();
  IngestResult Kind = ingestEpoch(Bytes, flatViewOf(Line));
  EXPECT_FALSE(Kind.Ok);
  EXPECT_FALSE(Kind.Error.empty());
  EXPECT_EQ(Bytes, Before); // Failed ingests never touch the store.

  GeneratedSetup G;
  ProfGenResult CS = G.generate(ProfGenKind::CS);
  IngestResult Shape = ingestEpoch(Bytes, contextViewOf(CS.CS));
  EXPECT_FALSE(Shape.Ok);
  EXPECT_FALSE(Shape.Error.empty());
  EXPECT_EQ(Bytes, Before);
}

TEST(StoreIngest, DecayZeroStillRejectsAKindMismatch) {
  // A replacing fold never materializes the prior aggregate, but the
  // store's kind still binds it: otherwise a line-based epoch would flip
  // a probe-based store's kind while keeping its epoch history.
  std::string Bytes;
  IngestOptions IO;
  IO.Timestamp = 1;
  ASSERT_TRUE(ingestEpoch(Bytes, flatViewOf(sampledFlat()), IO).Ok);
  const std::string Before = Bytes;

  IO.Timestamp = 2;
  IO.DecayPermille = 0;
  IngestResult R = ingestEpoch(Bytes, flatViewOf(lineFlat()), IO);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("kind"), std::string::npos) << R.Error;
  EXPECT_EQ(Bytes, Before);

  // A store that holds no function has no kind to keep.
  std::string Empty;
  FlatProfile None;
  None.Kind = ProfileKind::ProbeBased;
  ASSERT_TRUE(ingestEpoch(Empty, flatViewOf(None), IO).Ok);
  IngestResult Adopt = ingestEpoch(Empty, flatViewOf(lineFlat()), IO);
  ASSERT_TRUE(Adopt.Ok) << Adopt.Error;
  EXPECT_EQ(openOrDie(Empty).kind(), ProfileKind::LineBased);
}

//===----------------------------------------------------------------------===//
// Loader integration: store-backed loads annotate bit-identically to the
// direct in-memory load, lazily or eagerly.
//===----------------------------------------------------------------------===//

TEST(StoreLoader, LazyEagerAndDirectLoadsAnnotateIdentically) {
  GeneratedSetup G;
  ASSERT_FALSE(G.Samples.empty());
  ProfGenResult Res = G.generate(ProfGenKind::ProbeOnly);
  ASSERT_FALSE(Res.IsCS);

  auto freshModule = [] {
    auto M = generateProgram(smallWC());
    insertProbes(*M, AnchorKind::PseudoProbe);
    return M;
  };

  auto Direct = freshModule();
  LoaderStats DS = loadFlatProfile(*Direct, Res.Flat, /*IsInstr=*/false);

  std::string Bytes =
      writeStore(flatViewOf(Res.Flat), {{0, Res.Flat.totalSamples(), 1000}});
  ProfileStore S1 = openOrDie(Bytes);
  auto Lazy = freshModule();
  Expected<LoaderStats> LSE = loadProfileFromStore(*Lazy, S1, {}, true);
  ASSERT_TRUE(bool(LSE)) << LSE.status().message();
  LoaderStats LS = LSE.take();

  ProfileStore S2 = openOrDie(Bytes);
  auto Eager = freshModule();
  Expected<LoaderStats> ESE = loadProfileFromStore(*Eager, S2, {}, false);
  ASSERT_TRUE(bool(ESE)) << ESE.status().message();
  LoaderStats ES = ESE.take();

  std::string Want = printModule(*Direct);
  EXPECT_EQ(printModule(*Lazy), Want);
  EXPECT_EQ(printModule(*Eager), Want);
  EXPECT_EQ(LS.HotThresholdUsed, DS.HotThresholdUsed);
  EXPECT_EQ(LS.InlinedCallsites, DS.InlinedCallsites);
  EXPECT_GT(LS.StoreFunctionsMaterialized, 0u);
  EXPECT_EQ(ES.StoreFunctionsSkipped, 0u);
}

TEST(StoreLoader, LazyLoadSkipsFunctionsAbsentFromTheModule) {
  GeneratedSetup G;
  ASSERT_FALSE(G.Samples.empty());
  ProfGenResult Res = G.generate(ProfGenKind::ProbeOnly);

  // A module with only "main" materializes one function and skips the
  // rest — the lazy-loading payoff.
  Module M("partial");
  M.createFunction("main", 0)->createBlock("entry");
  ProfileStore S = openOrDie(writeStore(flatViewOf(Res.Flat), {}));
  Expected<LoaderStats> LS = loadProfileFromStore(M, S);
  ASSERT_TRUE(bool(LS)) << LS.status().message();
  EXPECT_EQ(LS->StoreFunctionsMaterialized, 1u);
  EXPECT_EQ(LS->StoreFunctionsMaterialized + LS->StoreFunctionsSkipped,
            S.numFunctions());
}
