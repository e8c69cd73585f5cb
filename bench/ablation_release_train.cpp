//===- bench/ablation_release_train.cpp - longitudinal staleness ----*- C++ -*-===//
//
// The longitudinal release-train ablation: the deployment scenario behind
// §III-A, extended from one stale release to a 4-release train. Each
// workload's source evolves through seeded drift plans; release r is
// built from release r-1's profile under three staleness policies (drop /
// match / ingest — see train/ReleaseTrain.h) and the whole trajectory is
// scored against per-release plain builds and fresh-profile oracles.
//
// The harness *gates by exit code*, so CI can run it as a regression
// check:
//   - the ingest policy's aggregate gain must strictly beat drop's,
//   - every (release, policy) build must pass Full profile verification
//     and preserve program semantics,
//   - with -j N the trajectory must be byte-identical to the serial run.
//
// Knobs: CSSPGO_CELLS (run the first N workloads of the matrix), plus
// the usual CSSPGO_SCALE / -j N.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "train/ReleaseTrain.h"

using namespace csspgo;
using namespace csspgo::bench;
using namespace csspgo::train;

namespace {

std::string fmtPct(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%+.2f%%", V);
  return Buf;
}

std::string fmtOverlap(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", V);
  return Buf;
}

struct WorkloadVerdict {
  double Drop = 0, Match = 0, Ingest = 0;
  bool Clean = false;
  bool Deterministic = true; ///< Only exercised when Jobs > 1.
};

WorkloadVerdict runWorkload(const char *Workload, unsigned Releases,
                            unsigned Jobs) {
  TrainConfig TC;
  TC.Exp = makeConfig(Workload);
  TC.Releases = Releases;
  TC.Jobs = Jobs;
  // The PGO+BOLT column: each release's oracle binary additionally goes
  // through the post-link rewriter fed with one-release-stale samples.
  TC.PostLink = true;

  TrainResult R = runTrain(TC);

  TextTable Table({"rel", "drift", "edits", "oracle", "drop", "match",
                   "ingest", "ovl d/m/i", "store", "bolt", "verify"});
  for (const ReleaseRow &Row : R.Rows) {
    const PolicyCell *D = R.cell(Row, StalePolicy::Drop);
    const PolicyCell *M = R.cell(Row, StalePolicy::Match);
    const PolicyCell *I = R.cell(Row, StalePolicy::Ingest);
    bool RowClean = Row.IngestFoldClean;
    for (const PolicyCell &C : Row.Cells)
      RowClean = RowClean && C.VerifyClean && C.ExitMatch;
    Table.addRow(
        {std::to_string(Row.Release), Row.DriftName,
         std::to_string(Row.DriftEdits), fmtPct(Row.OracleVsPlainPct),
         D ? fmtPct(D->VsPlainPct) : "-", M ? fmtPct(M->VsPlainPct) : "-",
         I ? fmtPct(I->VsPlainPct) : "-",
         (D ? fmtOverlap(D->Overlap) : "-") + "/" +
             (M ? fmtOverlap(M->Overlap) : "-") + "/" +
             (I ? fmtOverlap(I->Overlap) : "-"),
         std::to_string(Row.StoreEpochs) + "@" +
             std::to_string(Row.StoreTimestamp),
         Row.HasPostLink
             ? (Row.RewriteKept ? fmtPct(Row.PostLinkVsOraclePct) : "plain")
             : "-",
         RowClean ? "clean" : "VIOLATIONS"});
  }
  std::printf("%s\n", Table.render().c_str());

  WorkloadVerdict V;
  V.Drop = R.aggregate(StalePolicy::Drop);
  V.Match = R.aggregate(StalePolicy::Match);
  V.Ingest = R.aggregate(StalePolicy::Ingest);
  V.Clean = R.allClean();

  if (Jobs > 1) {
    // The determinism gate: the sharded trajectory above must be
    // byte-identical to a serial re-run.
    TrainConfig Serial = TC;
    Serial.Jobs = 1;
    V.Deterministic = runTrain(Serial).toJSON() == R.toJSON();
    if (!V.Deterministic)
      std::printf("DETERMINISM VIOLATION: -j %u trajectory differs from "
                  "the serial run\n\n",
                  Jobs);
  }
  return V;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Jobs = benchJobs(argc, argv);
  printHeader("Ablation", "release train — longitudinal staleness");

  const unsigned Releases = 4;

  // The server preset plus the three archetypes the train introduced:
  // RPC fan-out, interpreter dispatch, cold-start boot.
  const char *Workloads[] = {"AdRanker", "RpcFanout", "InterpLoop",
                             "ColdBoot"};
  size_t Count = cellLimit(std::size(Workloads));

  TextTable Agg({"workload", "releases", "drop", "match", "ingest",
                 "ingest-drop", "clean", "-j det"});
  std::vector<WorkloadVerdict> Verdicts;
  for (size_t I = 0; I != Count; ++I) {
    std::printf("-- %s, %u releases --\n", Workloads[I], Releases);
    WorkloadVerdict V = runWorkload(Workloads[I], Releases, Jobs);
    Agg.addRow({Workloads[I], std::to_string(Releases), fmtPct(V.Drop),
                fmtPct(V.Match), fmtPct(V.Ingest),
                fmtPct(V.Ingest - V.Drop), V.Clean ? "yes" : "NO",
                Jobs > 1 ? (V.Deterministic ? "yes" : "NO") : "n/a"});
    Verdicts.push_back(V);
  }
  std::printf("-- trajectory aggregates (mean vs-plain gain over the "
              "train) --\n%s\n",
              Agg.render().c_str());
  std::printf("drop = stale profiles discarded each release; match = stale\n"
              "matcher recovers them; ingest = decayed multi-epoch store\n"
              "aggregate. The longer the train, the further drop decays\n"
              "while ingest tracks the drifting CFG.\n");

  // Gates. The perf gate compares matrix means (a single archetype may
  // sit inside run-to-run noise at smoke scale; the matrix mean is the
  // stable signal).
  double MeanDrop = 0, MeanIngest = 0;
  bool AllClean = true, AllDet = true;
  for (const WorkloadVerdict &V : Verdicts) {
    MeanDrop += V.Drop;
    MeanIngest += V.Ingest;
    AllClean = AllClean && V.Clean;
    AllDet = AllDet && V.Deterministic;
  }
  MeanDrop /= Verdicts.size();
  MeanIngest /= Verdicts.size();

  bool GateGain = MeanIngest > MeanDrop;
  printBenchJson("ablation_release_train",
                 {{"releases", double(Releases)},
                  {"workloads", double(Count)},
                  {"drop_agg", MeanDrop},
                  {"ingest_agg", MeanIngest},
                  {"ingest_minus_drop", MeanIngest - MeanDrop},
                  {"all_clean", AllClean ? 1.0 : 0.0},
                  {"deterministic", AllDet ? 1.0 : 0.0},
                  {"gate_pass", (GateGain && AllClean && AllDet) ? 1.0 : 0.0}});

  if (!GateGain)
    std::fprintf(stderr,
                 "GATE: ingest aggregate %+.4f does not beat drop %+.4f\n",
                 MeanIngest, MeanDrop);
  if (!AllClean)
    std::fprintf(stderr, "GATE: a release failed Full profile "
                         "verification or changed semantics\n");
  if (!AllDet)
    std::fprintf(stderr, "GATE: sharded run not byte-identical to serial\n");
  return (GateGain && AllClean && AllDet) ? 0 : 1;
}
