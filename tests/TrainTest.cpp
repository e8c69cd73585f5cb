//===- tests/TrainTest.cpp - release-train simulator tests ------*- C++ -*-===//
//
// Property suite for the longitudinal release-train simulator
// (train/ReleaseTrain.h): fixed-seed determinism, serial-vs-sharded
// bit-identity, the matcher's per-release dominance over the drop
// policy, store freshness, and resumability from a mid-train store
// snapshot.
//
//===----------------------------------------------------------------------===//

#include "train/ReleaseTrain.h"
#include "workload/Workloads.h"

#include <gtest/gtest.h>

using namespace csspgo;
using namespace csspgo::train;

namespace {

/// Small enough for the full train to run in test time, big enough for
/// the drift editors and matcher to have something to chew on.
TrainConfig tinyTrain(unsigned Releases = 3) {
  TrainConfig TC;
  WorkloadConfig &W = TC.Exp.Workload;
  W.Name = "TrainTiny";
  W.Seed = 3;
  W.Requests = 60;
  W.NumServices = 3;
  W.NumMids = 8;
  W.NumUtils = 5;
  W.NumColdHandlers = 3;
  W.MidsPerService = 4;
  TC.Exp.EvalRuns = 2;
  TC.Releases = Releases;
  return TC;
}

} // namespace

TEST(Train, PolicyNamesRoundTrip) {
  for (StalePolicy P :
       {StalePolicy::Drop, StalePolicy::Match, StalePolicy::Ingest}) {
    StalePolicy Out;
    ASSERT_TRUE(parsePolicy(policyName(P), Out)) << policyName(P);
    EXPECT_EQ(Out, P);
  }
  StalePolicy Out;
  EXPECT_FALSE(parsePolicy("bogus", Out));
  EXPECT_FALSE(parsePolicy("Drop", Out)) << "names are exact";
}

TEST(Train, ReleaseConfigDriftsInputsNotWorkload) {
  TrainConfig TC = tinyTrain();
  ExperimentConfig R1 = releaseConfig(TC, 1);
  ExperimentConfig R3 = releaseConfig(TC, 3);
  EXPECT_EQ(R1.TrainSeed, TC.Exp.TrainSeed + 1);
  EXPECT_EQ(R3.TrainSeed, TC.Exp.TrainSeed + 3);
  EXPECT_EQ(R3.EvalSeedBase, TC.Exp.EvalSeedBase + 300);
  EXPECT_EQ(R1.Workload.Seed, R3.Workload.Seed)
      << "the program evolves via drift plans, not reseeding";
}

TEST(Train, FixedSeedTrajectoriesAreBitIdentical) {
  TrainConfig TC = tinyTrain();
  TrainResult A = runTrain(TC);
  TrainResult B = runTrain(TC);
  EXPECT_EQ(A.toJSON(), B.toJSON());
  ASSERT_EQ(A.StoreSnapshots.size(), B.StoreSnapshots.size());
  for (size_t I = 0; I != A.StoreSnapshots.size(); ++I)
    EXPECT_EQ(A.StoreSnapshots[I], B.StoreSnapshots[I]) << "snapshot " << I;
}

TEST(Train, ShardedRunIsBitIdenticalToSerial) {
  TrainConfig Serial = tinyTrain();
  TrainConfig Sharded = tinyTrain();
  Sharded.Jobs = 3;
  EXPECT_EQ(runTrain(Serial).toJSON(), runTrain(Sharded).toJSON());
}

TEST(Train, MatcherDominatesDropOnEveryRelease) {
  TrainConfig TC = tinyTrain();
  TrainResult R = runTrain(TC);
  ASSERT_EQ(R.Rows.size(), TC.Releases);
  EXPECT_TRUE(R.allClean());
  for (const ReleaseRow &Row : R.Rows) {
    const PolicyCell *Drop = R.cell(Row, StalePolicy::Drop);
    const PolicyCell *Match = R.cell(Row, StalePolicy::Match);
    const PolicyCell *Ingest = R.cell(Row, StalePolicy::Ingest);
    ASSERT_NE(Drop, nullptr);
    ASSERT_NE(Match, nullptr);
    ASSERT_NE(Ingest, nullptr);
    // Every release's drift stales profiles; drop discards them while
    // the matcher recovers.
    EXPECT_GT(Drop->StaleDropped, 0u) << "release " << Row.Release;
    EXPECT_GT(Match->StaleMatched, 0u) << "release " << Row.Release;
    EXPECT_GT(Match->CountsRecovered, 0u) << "release " << Row.Release;
    // Ground-truth-weighted overlap: the annotation the matcher
    // recovers is strictly closer to the oracle's than what survives
    // dropping, on every single release.
    EXPECT_GT(Match->Overlap, Drop->Overlap) << "release " << Row.Release;
    EXPECT_GE(Ingest->Overlap, Drop->Overlap) << "release " << Row.Release;
    // Full pre-load verification and semantics preservation are row
    // invariants, not just aggregates.
    for (const PolicyCell &C : Row.Cells) {
      EXPECT_TRUE(C.VerifyClean)
          << "release " << Row.Release << " " << policyName(C.Policy);
      EXPECT_TRUE(C.ExitMatch)
          << "release " << Row.Release << " " << policyName(C.Policy);
    }
  }
}

TEST(Train, StoreFreshnessTracksTheTrain) {
  TrainConfig TC = tinyTrain();
  TrainResult R = runTrain(TC);
  ASSERT_EQ(R.StoreSnapshots.size(), TC.Releases + 1u);
  for (const ReleaseRow &Row : R.Rows) {
    // Release r's ingest cell consumed the store holding epochs
    // 0..r-1, whose newest timestamp is release r-1's.
    EXPECT_EQ(Row.StoreEpochs, Row.Release);
    EXPECT_EQ(Row.StoreTimestamp, 100ull * Row.Release);
    EXPECT_TRUE(Row.IngestFoldClean) << "release " << Row.Release;
  }
}

TEST(Train, ResumesFromMidTrainSnapshot) {
  TrainConfig Full = tinyTrain(3);
  TrainResult All = runTrain(Full);
  ASSERT_EQ(All.Rows.size(), 3u);

  TrainConfig Tail = Full;
  Tail.FirstRelease = 2;
  Tail.InitialStore = All.StoreSnapshots[1];
  TrainResult Resumed = runTrain(Tail);
  ASSERT_EQ(Resumed.Rows.size(), 2u);

  // The resumed rows must be bit-identical to the full run's tail —
  // compare through the same serialization the CLI emits.
  TrainResult TailOfFull;
  TailOfFull.Rows.assign(All.Rows.begin() + 1, All.Rows.end());
  EXPECT_EQ(Resumed.toJSON(), TailOfFull.toJSON());
  // And the stores converge: folding the resumed releases on top of
  // the snapshot reproduces the full run's final store.
  EXPECT_EQ(Resumed.StoreSnapshots.back(), All.StoreSnapshots.back());
}

TEST(Train, SinglePolicyTrainsAndJSONShapeIsStable) {
  TrainConfig TC = tinyTrain(2);
  TC.Policies = {StalePolicy::Match};
  TrainResult R = runTrain(TC);
  ASSERT_EQ(R.Rows.size(), 2u);
  EXPECT_EQ(R.cell(R.Rows[0], StalePolicy::Drop), nullptr);
  ASSERT_NE(R.cell(R.Rows[0], StalePolicy::Match), nullptr);
  std::string J = R.toJSON();
  // Stable shape: fixed key order, the aggregate block only naming the
  // policies that ran.
  EXPECT_EQ(J.rfind("{\n  \"rows\": [", 0), 0u) << J.substr(0, 16);
  EXPECT_NE(J.find("\"release\": 1"), std::string::npos);
  EXPECT_NE(J.find("\"policy\": \"match\""), std::string::npos);
  EXPECT_EQ(J.find("\"policy\": \"drop\""), std::string::npos);
  EXPECT_NE(J.find("\"aggregate\": {\"match\": "), std::string::npos);
  EXPECT_EQ(J.find("\"drop\":"), std::string::npos);
}

TEST(Train, PostLinkColumnReportsAndPreservesSemantics) {
  TrainConfig TC = tinyTrain(2);
  TC.PostLink = true;
  TrainResult R = runTrain(TC);
  for (const ReleaseRow &Row : R.Rows) {
    EXPECT_TRUE(Row.HasPostLink);
    EXPECT_GT(Row.PostLinkCycles, 0.0);
    EXPECT_TRUE(Row.PostLinkExitMatch) << "release " << Row.Release;
  }
  EXPECT_NE(R.toJSON().find("\"postlink\": {"), std::string::npos);
}

TEST(Train, InstrIngestPolicyVerifiesClean) {
  // The ingest policy rebuilds from the store's aggregate, so the bundle
  // loaded back out of the store must keep the exact-counts flag: an
  // Instr profile checked against the sampled-profile invariants reports
  // violations on every release.
  TrainConfig TC = tinyTrain(2);
  TC.Variant = PGOVariant::Instr;
  TC.Policies = {StalePolicy::Ingest};
  TrainResult R = runTrain(TC);
  ASSERT_EQ(R.Rows.size(), 2u);
  for (const ReleaseRow &Row : R.Rows) {
    const PolicyCell *C = R.cell(Row, StalePolicy::Ingest);
    ASSERT_NE(C, nullptr);
    EXPECT_TRUE(C->VerifyClean) << "release " << Row.Release;
  }
  EXPECT_TRUE(R.allClean());
}
