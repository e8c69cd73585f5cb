//===- tests/PipelineTest.cpp - ProfilePipeline facade tests ----*- C++ -*-===//
//
// Status/Expected error-model tests plus the ProfilePipeline facade:
// generate → apply (all four transports, bit-identical) → ingest
// (verifier-gated), and the unified PipelineStats the stages feed.
//
//===----------------------------------------------------------------------===//

#include "pgo/ProfilePipeline.h"
#include "profile/ProfileIO.h"
#include "probe/ProbeInserter.h"
#include "sim/Executor.h"
#include "store/ProfileStore.h"
#include "support/Status.h"
#include "workload/ProgramGenerator.h"
#include "workload/Workloads.h"

#include <gtest/gtest.h>

using namespace csspgo;

namespace {

WorkloadConfig smallWorkload() {
  WorkloadConfig W = workloadPreset("AdRanker", 0.05);
  W.Seed = 17;
  return W;
}

/// A probed profiling build plus one sampled run of it.
struct Profiled {
  std::unique_ptr<Module> Source;
  BuildResult Build;
  RunResult Run;
};

Profiled profiledRun() {
  Profiled P;
  WorkloadConfig W = smallWorkload();
  P.Source = generateProgram(W);
  BuildConfig BC;
  BC.Variant = PGOVariant::CSSPGOFull;
  P.Build = buildWithPGO(*P.Source, BC, nullptr);
  std::vector<int64_t> Mem = generateInput(W, 5);
  ExecConfig EC;
  EC.Sampler.Enabled = true;
  EC.Sampler.PeriodCycles = 211;
  EC.Sampler.Precise = true;
  EC.Sampler.Seed = 7;
  P.Run = execute(*P.Build.Bin, "main", Mem, EC);
  return P;
}

/// Sampled flat probe profile whose head/call edges conserve (verifier
/// fixture shared with VerifierTest).
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

ProfileBundle flatBundle(FlatProfile Flat) {
  ProfileBundle B;
  B.Has = true;
  B.Flat = std::move(Flat);
  return B;
}

} // namespace

//===----------------------------------------------------------------------===//
// Status / Expected.
//===----------------------------------------------------------------------===//

TEST(Status, DefaultIsSuccessErrorCarriesMessage) {
  Status OK;
  EXPECT_TRUE(OK.ok());
  EXPECT_TRUE(static_cast<bool>(OK));
  EXPECT_TRUE(OK.message().empty());

  Status E = Status::error("boom");
  EXPECT_FALSE(E.ok());
  EXPECT_EQ(E.message(), "boom");
}

TEST(Status, WithContextPrefixesOnlyErrors) {
  EXPECT_TRUE(Status().withContext("outer").ok());
  Status E = Status::error("inner").withContext("outer");
  EXPECT_EQ(E.message(), "outer: inner");
  EXPECT_EQ(E.withContext("top").message(), "top: outer: inner");
}

TEST(Expected, ValueAndErrorPaths) {
  Expected<int> V(42);
  ASSERT_TRUE(V.hasValue());
  EXPECT_EQ(*V, 42);
  EXPECT_TRUE(V.status().ok());
  EXPECT_EQ(V.take(), 42);

  Expected<int> E(Status::error("missing"));
  ASSERT_FALSE(E.hasValue());
  EXPECT_EQ(E.status().message(), "missing");
  EXPECT_EQ(E.takeError().message(), "missing");
}

TEST(Expected, MoveOnlyValuesWork) {
  Expected<std::unique_ptr<int>> V(std::make_unique<int>(7));
  ASSERT_TRUE(V.hasValue());
  std::unique_ptr<int> P = V.take();
  EXPECT_EQ(*P, 7);
}

//===----------------------------------------------------------------------===//
// generate: the full CS pipeline behind one call.
//===----------------------------------------------------------------------===//

TEST(ProfilePipeline, GenerateProducesVerifiedCSProfile) {
  Profiled P = profiledRun();
  ProfilePipeline Pipe(PipelineOptions().kind(ProfGenKind::CS));
  Expected<ProfileBundle> B =
      Pipe.generate(*P.Build.Bin, &P.Build.ProbeDescs, P.Run.Samples);
  ASSERT_TRUE(B.hasValue()) << B.status().message();
  EXPECT_TRUE(B->Has);
  EXPECT_TRUE(B->IsCS);
  EXPECT_GT(B->CS.totalSamples(), 0u);
  EXPECT_TRUE(Pipe.lastVerify().ok()) << Pipe.lastVerify().str();
  const PipelineStats &S = Pipe.stats();
  EXPECT_GT(S.ProfGen.Samples, 0u);
  EXPECT_EQ(S.TotalSamples, B->CS.totalSamples());
}

TEST(ProfilePipeline, ShardedGenerateMatchesSerial) {
  Profiled P = profiledRun();
  ProfilePipeline Serial(PipelineOptions().kind(ProfGenKind::CS));
  ProfilePipeline Sharded(
      PipelineOptions().kind(ProfGenKind::CS).parallelism(4));
  Expected<ProfileBundle> A =
      Serial.generate(*P.Build.Bin, &P.Build.ProbeDescs, P.Run.Samples);
  Expected<ProfileBundle> B =
      Sharded.generate(*P.Build.Bin, &P.Build.ProbeDescs, P.Run.Samples);
  ASSERT_TRUE(A.hasValue() && B.hasValue());
  EXPECT_EQ(serializeContextProfile(A->CS), serializeContextProfile(B->CS));
  EXPECT_GE(Sharded.stats().ShardsUsed, Serial.stats().ShardsUsed);
}

TEST(ProfilePipeline, TrimAndPreInlineStayVerified) {
  Profiled P = profiledRun();
  ProfilePipeline Pipe(PipelineOptions()
                           .kind(ProfGenKind::CS)
                           .trimColdContexts(true)
                           .preInliner(true));
  Expected<ProfileBundle> B =
      Pipe.generate(*P.Build.Bin, &P.Build.ProbeDescs, P.Run.Samples);
  ASSERT_TRUE(B.hasValue()) << B.status().message();
  // The re-verification after trim/preinline is the one recorded last.
  EXPECT_TRUE(Pipe.lastVerify().ok()) << Pipe.lastVerify().str();
  EXPECT_GT(Pipe.stats().Verify.ContextsChecked, 0u);
}

//===----------------------------------------------------------------------===//
// apply: one bundle, four transports, identical annotation.
//===----------------------------------------------------------------------===//

TEST(ProfilePipeline, ApplyIsTransportInvariant) {
  Profiled P = profiledRun();
  ProfilePipeline Gen(PipelineOptions().kind(ProfGenKind::CS));
  Expected<ProfileBundle> B =
      Gen.generate(*P.Build.Bin, &P.Build.ProbeDescs, P.Run.Samples);
  ASSERT_TRUE(B.hasValue()) << B.status().message();

  LoaderStats Ref;
  bool First = true;
  for (ProfileTransport T :
       {ProfileTransport::InMemory, ProfileTransport::Text,
        ProfileTransport::BinaryEager, ProfileTransport::BinaryLazy}) {
    ProfileBundle Routed = *B;
    Routed.Transport = T;
    std::unique_ptr<Module> Target = P.Source->clone();
    insertProbes(*Target, AnchorKind::PseudoProbe);
    ProfilePipeline Apply{PipelineOptions()};
    Expected<LoaderStats> St = Apply.apply(*Target, Routed);
    ASSERT_TRUE(St.hasValue())
        << transportName(T) << ": " << St.status().message();
    EXPECT_GT(St->FunctionsAnnotated, 0u);
    if (First) {
      Ref = *St;
      First = false;
      continue;
    }
    EXPECT_EQ(St->FunctionsAnnotated, Ref.FunctionsAnnotated)
        << transportName(T);
    EXPECT_EQ(St->InlinedCallsites, Ref.InlinedCallsites) << transportName(T);
    EXPECT_EQ(St->StaleDropped, Ref.StaleDropped) << transportName(T);
  }
}

//===----------------------------------------------------------------------===//
// ingest: decay folding behind the verifier gate.
//===----------------------------------------------------------------------===//

TEST(ProfilePipeline, IngestFoldsEpochsAndCountsThem) {
  ProfilePipeline Pipe(PipelineOptions().decay(800));
  std::string Bytes;
  ASSERT_TRUE(Pipe.ingest(Bytes, flatBundle(sampledFlat()), 100).ok());
  ASSERT_TRUE(Pipe.ingest(Bytes, flatBundle(sampledFlat()), 200).ok());
  EXPECT_EQ(Pipe.stats().EpochsFolded, 2u);
  Expected<ProfileStore> St = ProfileStore::open(std::move(Bytes));
  ASSERT_TRUE(St.hasValue()) << St.status().message();
  EXPECT_EQ(St->epochs().size(), 2u);
  EXPECT_EQ(St->epochs()[1].Timestamp, 200u);
}

TEST(ProfilePipeline, IngestRejectsEmptyBundle) {
  ProfilePipeline Pipe{PipelineOptions()};
  std::string Bytes;
  Status S = Pipe.ingest(Bytes, ProfileBundle(), 1);
  EXPECT_FALSE(S.ok());
  EXPECT_TRUE(Bytes.empty());
}

TEST(ProfilePipeline, IngestGateRejectsViolatingProfileAndKeepsStore) {
  ProfilePipeline Pipe{PipelineOptions()};
  std::string Bytes;
  ASSERT_TRUE(Pipe.ingest(Bytes, flatBundle(sampledFlat()), 1).ok());
  std::string Before = Bytes;

  FlatProfile Bad = sampledFlat();
  Bad.getOrCreate("foo").HeadSamples += 1; // 41 heads vs 40 call targets.
  Status S = Pipe.ingest(Bytes, flatBundle(std::move(Bad)), 2);
  EXPECT_FALSE(S.ok());
  EXPECT_NE(S.message().find("ingest"), std::string::npos);
  EXPECT_EQ(Bytes, Before) << "rejected fold must not touch the store";
  EXPECT_EQ(Pipe.stats().EpochsFolded, 1u);
}

//===----------------------------------------------------------------------===//
// PipelineStats: composition and JSON.
//===----------------------------------------------------------------------===//

TEST(PipelineStats, AccumulatesAcrossPipelines) {
  PipelineStats A, B;
  A.ProfGen.Samples = 10;
  A.EpochsFolded = 2;
  A.TotalSamples = 100;
  A.ShardsUsed = 2;
  B.ProfGen.Samples = 5;
  B.EpochsFolded = 1;
  B.TotalSamples = 50;
  B.ShardsUsed = 4;
  A += B;
  EXPECT_EQ(A.ProfGen.Samples, 15u);
  EXPECT_EQ(A.EpochsFolded, 3u);
  EXPECT_EQ(A.TotalSamples, 150u);
  EXPECT_EQ(A.ShardsUsed, 4u);
}

TEST(PipelineStats, JSONIsStableAndCarriesEveryGroup) {
  PipelineStats S;
  S.ProfGen.Samples = 7;
  S.Loader.FunctionsAnnotated = 3;
  std::string J = S.toJSON();
  EXPECT_EQ(J, S.toJSON());
  for (const char *Key : {"\"profgen\":", "\"reduce\":", "\"ingest\":",
                          "\"loader\":", "\"verify\":", "\"shards\":",
                          "\"epochs_folded\":", "\"total_samples\":"})
    EXPECT_NE(J.find(Key), std::string::npos) << Key;
  EXPECT_NE(J.find("\"samples\":7"), std::string::npos);
  EXPECT_NE(J.find("\"annotated\":3"), std::string::npos);
}

TEST(PipelineStats, JSONReportsSamplesProfgenSkipped) {
  // A sample with no stack is dropped whole; an LBR entry outside the text
  // breaks the ranges it bounds. Both are counted and reach toJSON().
  Profiled P = profiledRun();
  const PerfSample *Base = nullptr;
  for (const PerfSample &S : P.Run.Samples)
    if (!S.Stack.empty() && S.LBR.size() >= 4) {
      Base = &S;
      break;
    }
  ASSERT_NE(Base, nullptr);
  std::vector<PerfSample> Samples = P.Run.Samples;
  Samples.push_back(*Base);
  Samples.back().Stack.clear();
  Samples.push_back(*Base);
  Samples.back().LBR[2].Src = Binary::BaseAddr - 16;

  auto StatsOf = [&P](const std::vector<PerfSample> &S) {
    ProfilePipeline Pipe(PipelineOptions().kind(ProfGenKind::CS));
    EXPECT_TRUE(
        Pipe.generate(*P.Build.Bin, &P.Build.ProbeDescs, S).hasValue());
    return Pipe.stats();
  };
  PipelineStats Clean = StatsOf(P.Run.Samples);
  PipelineStats Hostile = StatsOf(Samples);
  EXPECT_EQ(Hostile.ProfGen.DroppedSamples, Clean.ProfGen.DroppedSamples + 1);
  EXPECT_GT(Hostile.ProfGen.BrokenRanges, Clean.ProfGen.BrokenRanges);
  std::string J = Hostile.toJSON();
  EXPECT_NE(J.find("\"dropped_samples\":" +
                   std::to_string(Hostile.ProfGen.DroppedSamples)),
            std::string::npos)
      << J;
  EXPECT_NE(J.find("\"broken_ranges\":" +
                   std::to_string(Hostile.ProfGen.BrokenRanges)),
            std::string::npos)
      << J;
}

//===----------------------------------------------------------------------===//
// Status-based store entry points: the owned and borrowed opens decode
// the same bytes to the same profile and agree on failure diagnostics.
//===----------------------------------------------------------------------===//

TEST(StatusMigration, OwnedAndBorrowedOpensAgree) {
  std::string Bytes = writeStore(flatViewOf(sampledFlat()), {});
  Expected<ProfileStore> S = ProfileStore::open(std::string(Bytes));
  ASSERT_TRUE(bool(S)) << S.status().message();
  Expected<ContextProfileView> Back = S->loadView();
  ASSERT_TRUE(bool(Back)) << Back.status().message();
  EXPECT_EQ(serializeFlatProfile(flatProfileOf(*Back)),
            serializeFlatProfile(sampledFlat()));

  Expected<ProfileStore> B = ProfileStore::openBorrowed(Bytes);
  ASSERT_TRUE(bool(B)) << B.status().message();
  Expected<ContextProfileView> BorrowedBack = B->loadView();
  ASSERT_TRUE(bool(BorrowedBack)) << BorrowedBack.status().message();
  EXPECT_EQ(serializeFlatProfile(flatProfileOf(*BorrowedBack)),
            serializeFlatProfile(sampledFlat()));

  // And the two surfaces agree on failures.
  std::string Junk = "CSPF this is not a store";
  Expected<ProfileStore> E = ProfileStore::open(std::string(Junk));
  Expected<ProfileStore> EB = ProfileStore::openBorrowed(Junk);
  EXPECT_FALSE(E.hasValue());
  EXPECT_FALSE(EB.hasValue());
  EXPECT_EQ(E.status().message(), EB.status().message());
}
