//===- train/ReleaseTrain.cpp - Longitudinal release-train simulator --------===//

#include "train/ReleaseTrain.h"

#include "pgo/ProfilePipeline.h"
#include "quality/BlockOverlap.h"
#include "store/ProfileStore.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>

namespace csspgo {
namespace train {

const char *policyName(StalePolicy P) {
  switch (P) {
  case StalePolicy::Drop:
    return "drop";
  case StalePolicy::Match:
    return "match";
  case StalePolicy::Ingest:
    return "ingest";
  }
  return "unknown";
}

bool parsePolicy(const std::string &Name, StalePolicy &Out) {
  if (Name == "drop")
    Out = StalePolicy::Drop;
  else if (Name == "match")
    Out = StalePolicy::Match;
  else if (Name == "ingest")
    Out = StalePolicy::Ingest;
  else
    return false;
  return true;
}

ExperimentConfig releaseConfig(const TrainConfig &Config, unsigned Release) {
  ExperimentConfig CR = Config.Exp;
  // Successive releases train and evaluate on drifted inputs: fresh seeds
  // per release, same shift model as a single experiment.
  CR.TrainSeed += Release;
  CR.EvalSeedBase += 100 * static_cast<uint64_t>(Release);
  return CR;
}

namespace {

double improvePct(double Cycles, double Base) {
  return Base ? 100.0 * (Base - Cycles) / Base : 0;
}

/// Deterministic epoch timestamp of release \p R (seconds; arbitrary
/// monotone scale — the store records, never interprets, them).
uint64_t releaseTimestamp(unsigned R) { return 100 * (R + 1ull); }

/// Everything phase A computes per release.
struct ReleaseArtifact {
  double PlainCycles = 0;
  int64_t PlainExit = 0;
  double OracleCycles = 0;
  int64_t OracleExit = 0;
  ProfileBundle Profile; ///< The release's fresh (oracle) profile.

  bool HasPostLink = false;
  double PostLinkCycles = 0;
  bool RewriteKept = false;
  int64_t PostLinkExit = 0;
};

[[noreturn]] void fatal(const std::string &Msg) {
  std::fprintf(stderr, "csspgo train: %s\n", Msg.c_str());
  std::abort();
}

} // namespace

TrainResult runTrain(const TrainConfig &Config) {
  if (Config.Releases == 0)
    fatal("Releases must be >= 1");
  if (Config.FirstRelease < 1 || Config.FirstRelease > Config.Releases)
    fatal("FirstRelease out of range");
  if (Config.FirstRelease > 1 && Config.InitialStore.empty())
    fatal("resuming (FirstRelease > 1) requires InitialStore");
  if (Config.Policies.empty())
    fatal("no policies selected");
  if (Config.Variant == PGOVariant::None)
    fatal("the train needs a PGO variant (it builds from profiles)");

  const unsigned N = Config.Releases;
  const unsigned First = Config.FirstRelease;
  const unsigned R0 = First - 1; // Earliest release needing artifacts.

  // --- Sources: release 0 is the pristine workload, release r applies
  // the seeded per-release drift plan to its predecessor. Serial and
  // cheap; the plans are the same helpers the drift ablation stages.
  std::vector<std::unique_ptr<Module>> Sources(N + 1);
  std::vector<std::string> DriftNames(N + 1, "seed");
  std::vector<unsigned> DriftEdits(N + 1, 0);
  Sources[0] = generateProgram(Config.Exp.Workload);
  for (unsigned R = 1; R <= N; ++R) {
    DriftPlan Plan = releaseDriftPlan(Config.DriftSeed, R);
    Sources[R] = Sources[R - 1]->clone();
    DriftEdits[R] = applyDriftPlan(*Sources[R], Plan);
    DriftNames[R] = driftPlanName(Plan);
  }

  // --- Phase A: per-release plain + oracle (fresh-profile) pipelines,
  // independent across releases; the PGO+BOLT column rides along here
  // because it rewrites the oracle's binary.
  std::vector<ReleaseArtifact> Artifacts(N + 1);
  forEachIndex(N + 1 - R0, Config.Jobs, [&](size_t Idx) {
    unsigned R = R0 + static_cast<unsigned>(Idx);
    ExperimentConfig CR = releaseConfig(Config, R);
    PGODriver Driver(CR, Sources[R]->clone());
    ReleaseArtifact &A = Artifacts[R];

    const VariantOutcome &Plain = Driver.baseline();
    A.PlainCycles = Plain.EvalCyclesMean;
    A.PlainExit = Plain.ExitValue;

    VariantOutcome Oracle = Driver.run(Config.Variant);
    if (Config.PostLink && R >= First) {
      // One-release-stale samples: the rewriter profiles this release's
      // binary under the *previous* release's eval-shifted input. The
      // rollout guard inside stackPostLink still consults only the
      // current training input.
      PostLinkOutcome PL = Driver.stackPostLink(
          std::move(Oracle), Config.PostLinkOpts,
          Config.Exp.TrainSeed + (R - 1), Config.Exp.EvalShift);
      A.HasPostLink = true;
      A.PostLinkCycles = PL.EvalCyclesMean;
      A.RewriteKept = PL.RewriteKept;
      A.PostLinkExit = PL.ExitValue;
      Oracle = std::move(PL.Base);
    }
    A.OracleCycles = Oracle.EvalCyclesMean;
    A.OracleExit = Oracle.ExitValue;
    A.Profile = std::move(Oracle.Profile);
  });

  // --- Phase B: the store evolves serially — release r's fresh profile
  // folds in under decay at its release timestamp. Snapshot[r] is the
  // store as release r+1's build sees it.
  TrainResult Result;
  Result.StoreSnapshots.assign(N + 1, std::string());
  std::vector<bool> FoldClean(N + 1, false);
  {
    PipelineOptions IngestOpts;
    IngestOpts.DecayPermille = Config.DecayPermille;
    ProfilePipeline Pipeline(IngestOpts);
    std::string Store = Config.InitialStore;
    for (unsigned R = R0; R <= N; ++R) {
      if (R == R0 && !Config.InitialStore.empty()) {
        // Resume: the caller supplied Snapshot[First-1] of a prior run.
        FoldClean[R] = true;
      } else {
        Status S =
            Pipeline.ingest(Store, Artifacts[R].Profile, releaseTimestamp(R));
        FoldClean[R] = S.ok();
        if (!S.ok())
          std::fprintf(stderr, "csspgo train: fold of release %u failed: %s\n",
                       R, S.message().c_str());
      }
      Result.StoreSnapshots[R] = Store;
    }
  }

  // --- Phase C: the train cells — (release, policy) pairs, each an
  // independent stale build + evaluation, sharded over Jobs.
  const unsigned Rows = N + 1 - First;
  const size_t PerRow = Config.Policies.size();
  std::vector<PolicyCell> Cells(Rows * PerRow);
  forEachIndex(Cells.size(), Config.Jobs, [&](size_t Idx) {
    unsigned R = First + static_cast<unsigned>(Idx / PerRow);
    StalePolicy Policy = Config.Policies[Idx % PerRow];
    ExperimentConfig CR = releaseConfig(Config, R);
    const ReleaseArtifact &A = Artifacts[R];
    const Module &Source = *Sources[R];

    BuildConfig BC = staleVariantBuildConfig(Config.Variant, CR);
    BC.Loader.Verify = VerifyLevel::Full;
    if (Policy == StalePolicy::Drop)
      BC.Loader.RecoverStaleProfiles = false;

    ProfileBundle StoreBundle;
    const ProfileBundle *Stale = &Artifacts[R - 1].Profile;
    if (Policy == StalePolicy::Ingest) {
      Expected<ProfileBundle> Loaded =
          loadStoreBundle(Result.StoreSnapshots[R - 1]);
      if (!Loaded)
        fatal("store snapshot does not load: " + Loaded.status().message());
      StoreBundle = Loaded.take();
      Stale = &StoreBundle;
    }

    BuildResult Build = buildWithPGO(Source, BC, Stale);

    PolicyCell &Cell = Cells[Idx];
    Cell.Policy = Policy;
    EvalResult Eval = evaluateBinary(*Build.Bin, CR);
    Cell.EvalCyclesMean = Eval.Mean;
    Cell.VsPlainPct = improvePct(Cell.EvalCyclesMean, A.PlainCycles);
    Cell.VsOraclePct = improvePct(Cell.EvalCyclesMean, A.OracleCycles);
    Cell.StaleDropped = Build.Loader.StaleDropped;
    Cell.StaleMatched = Build.Loader.StaleMatched;
    Cell.CountsRecovered = Build.Loader.StaleCountsRecovered;
    Cell.VerifyClean = Build.Loader.VerifyViolations == 0;
    Cell.ExitValue = Eval.First.ExitValue;
    Cell.ExitMatch = Cell.ExitValue == A.PlainExit;

    // Quality: both the stale policy's profile and the oracle's annotate
    // the same pristine release source, so their block counts compare
    // directly. The policy's loader settings carry into the annotation
    // (a drop build's quality must not benefit from the matcher).
    auto GroundTruth = annotateForQuality(Source, A.Profile);
    auto Measured = annotateForQuality(Source, *Stale, BC.Loader);
    // Ground-truth weighting: a hot function the stale profile dropped
    // must pull the score down, not silently leave the aggregate.
    Cell.Overlap = computeBlockOverlap(*Measured, *GroundTruth,
                                       OverlapWeight::GroundTruth)
                       .ProgramOverlap;
  });

  // --- Assembly, in release order.
  Result.Rows.resize(Rows);
  for (unsigned I = 0; I != Rows; ++I) {
    unsigned R = First + I;
    const ReleaseArtifact &A = Artifacts[R];
    ReleaseRow &Row = Result.Rows[I];
    Row.Release = R;
    Row.DriftName = DriftNames[R];
    Row.DriftEdits = DriftEdits[R];
    Row.PlainCycles = A.PlainCycles;
    Row.PlainExit = A.PlainExit;
    Row.OracleCycles = A.OracleCycles;
    Row.OracleVsPlainPct = improvePct(A.OracleCycles, A.PlainCycles);
    Row.HasPostLink = A.HasPostLink;
    if (A.HasPostLink) {
      Row.PostLinkCycles = A.PostLinkCycles;
      Row.PostLinkVsOraclePct = improvePct(A.PostLinkCycles, A.OracleCycles);
      Row.RewriteKept = A.RewriteKept;
      Row.PostLinkExitMatch = A.PostLinkExit == A.PlainExit;
    }
    Row.IngestFoldClean = FoldClean[R];
    Expected<ProfileStore> Prev =
        ProfileStore::openBorrowed(Result.StoreSnapshots[R - 1]);
    if (Prev && !Prev->epochs().empty()) {
      Row.StoreEpochs = static_cast<unsigned>(Prev->epochs().size());
      Row.StoreTimestamp = Prev->epochs().back().Timestamp;
    }
    Row.Cells.assign(Cells.begin() + I * PerRow,
                     Cells.begin() + (I + 1) * PerRow);
  }
  return Result;
}

const PolicyCell *TrainResult::cell(const ReleaseRow &Row,
                                    StalePolicy P) const {
  for (const PolicyCell &C : Row.Cells)
    if (C.Policy == P)
      return &C;
  return nullptr;
}

double TrainResult::aggregate(StalePolicy P) const {
  long double Sum = 0;
  size_t Count = 0;
  for (const ReleaseRow &Row : Rows)
    if (const PolicyCell *C = cell(Row, P)) {
      Sum += C->VsPlainPct;
      ++Count;
    }
  return Count ? static_cast<double>(Sum / Count) : 0;
}

bool TrainResult::allClean() const {
  for (const ReleaseRow &Row : Rows) {
    if (!Row.IngestFoldClean)
      return false;
    for (const PolicyCell &C : Row.Cells)
      if (!C.VerifyClean || !C.ExitMatch)
        return false;
  }
  return true;
}

namespace {

std::string fmtF(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.4f", V);
  return Buf;
}

} // namespace

std::string TrainResult::toJSON() const {
  std::string J = "{\n  \"rows\": [";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const ReleaseRow &Row = Rows[I];
    J += I ? ",\n    {" : "\n    {";
    J += "\"release\": " + std::to_string(Row.Release);
    J += ", \"drift\": \"" + Row.DriftName + "\"";
    J += ", \"edits\": " + std::to_string(Row.DriftEdits);
    J += ", \"plain_cycles\": " + fmtF(Row.PlainCycles);
    J += ", \"oracle_cycles\": " + fmtF(Row.OracleCycles);
    J += ", \"oracle_vs_plain_pct\": " + fmtF(Row.OracleVsPlainPct);
    if (Row.HasPostLink) {
      J += ", \"postlink\": {\"cycles\": " + fmtF(Row.PostLinkCycles);
      J += ", \"vs_oracle_pct\": " + fmtF(Row.PostLinkVsOraclePct);
      J += std::string(", \"kept\": ") + (Row.RewriteKept ? "true" : "false");
      J += std::string(", \"exit_match\": ") +
           (Row.PostLinkExitMatch ? "true" : "false") + "}";
    }
    J += ", \"store\": {\"epochs\": " + std::to_string(Row.StoreEpochs);
    J += ", \"timestamp\": " + std::to_string(Row.StoreTimestamp);
    J += std::string(", \"fold_clean\": ") +
         (Row.IngestFoldClean ? "true" : "false") + "}";
    J += ", \"policies\": [";
    for (size_t P = 0; P != Row.Cells.size(); ++P) {
      const PolicyCell &C = Row.Cells[P];
      J += P ? ", {" : "{";
      J += std::string("\"policy\": \"") + policyName(C.Policy) + "\"";
      J += ", \"eval_cycles\": " + fmtF(C.EvalCyclesMean);
      J += ", \"vs_plain_pct\": " + fmtF(C.VsPlainPct);
      J += ", \"vs_oracle_pct\": " + fmtF(C.VsOraclePct);
      J += ", \"overlap\": " + fmtF(C.Overlap);
      J += ", \"stale_dropped\": " + std::to_string(C.StaleDropped);
      J += ", \"stale_matched\": " + std::to_string(C.StaleMatched);
      J += ", \"counts_recovered\": " + std::to_string(C.CountsRecovered);
      J += std::string(", \"exit_match\": ") + (C.ExitMatch ? "true" : "false");
      J += std::string(", \"verify_clean\": ") +
           (C.VerifyClean ? "true" : "false") + "}";
    }
    J += "]}";
  }
  J += "\n  ],\n  \"aggregate\": {";
  // Aggregate over the distinct policies present, in enum order.
  bool FirstAgg = true;
  for (StalePolicy P :
       {StalePolicy::Drop, StalePolicy::Match, StalePolicy::Ingest}) {
    bool Present = false;
    for (const ReleaseRow &Row : Rows)
      if (cell(Row, P))
        Present = true;
    if (!Present)
      continue;
    if (!FirstAgg)
      J += ", ";
    FirstAgg = false;
    J += std::string("\"") + policyName(P) + "\": " + fmtF(aggregate(P));
  }
  J += "}\n}\n";
  return J;
}

} // namespace train
} // namespace csspgo
