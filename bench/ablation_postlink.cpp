//===- bench/ablation_postlink.cpp - PGO / BOLT / PGO+BOLT ------*- C++ -*-===//
//
// The post-link ablation: for every workload, the three-way comparison
// between PGO alone (full CSSPGO), the post-link optimizer alone on the
// plain binary (the BOLT-only configuration), and the two stacked —
// post-link rewriting the already-PGO'd binary using samples collected
// from it. This is the experiment the BOLT paper runs against
// FDO-compiled binaries: the stacked configuration must not lose to PGO
// alone in aggregate.
//
// Every cell re-validates the optimizer's own hard gate (the output
// binary must survive another disassemble->reassemble identity round
// trip) and the semantics check (identical exit values across all four
// binaries of a workload). The workload cells fan out over runMany
// (-j N); any job count prints byte-identical output.
//
// Over the full matrix the aggregate PGO+BOLT-over-PGO ratio (geomean)
// must be at least 1 or the bench exits 1; a run truncated by
// CSSPGO_CELLS (the first N workloads, a CI smoke) skips that gate.
// CSSPGO_SCALE scales the workloads (BenchCommon).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "pgo/ProfilePipeline.h"
#include "postlink/BinaryCFG.h"

#include <cmath>
#include <cstring>

using namespace csspgo;
using namespace csspgo::bench;

namespace {

struct Row {
  std::string Workload;
  double PlainCycles = 0;
  double PGOCycles = 0;
  double BoltOnlyCycles = 0;
  double StackedCycles = 0;
  double StackedMappedRate = 0;
  unsigned StackedReordered = 0;
  unsigned StackedSplit = 0;
  bool StackedKept = false;
  bool SemanticsOk = false;
  bool RoundTripOk = false;
};

/// The rewritten binary must itself be reconstructible and reassemble to
/// identity — the same gate the optimizer applies to its input, applied
/// to its output.
bool outputRoundTrips(const Binary &Bin) {
  Expected<postlink::BinaryCFG> CFG = postlink::reconstructBinaryCFG(Bin);
  if (!CFG)
    return false;
  std::unique_ptr<Binary> Again =
      postlink::reassemble(*CFG, postlink::identityLayout(*CFG));
  return postlink::binariesIdentical(Bin, *Again);
}

Row runWorkload(const std::string &Workload) {
  Row R;
  R.Workload = Workload;
  ExperimentConfig Config = makeConfig(Workload);
  PGODriver Driver(Config);

  const VariantOutcome &Plain = Driver.baseline();
  PostLinkOutcome BoltOnly = Driver.runPostLink(PGOVariant::None);
  PostLinkOutcome Stacked = Driver.runPostLink(PGOVariant::CSSPGOFull);

  R.PlainCycles = Plain.EvalCyclesMean;
  R.PGOCycles = Stacked.Base.EvalCyclesMean;
  R.BoltOnlyCycles = BoltOnly.EvalCyclesMean;
  R.StackedCycles = Stacked.EvalCyclesMean;
  R.StackedMappedRate = Stacked.Stats.Map.MappedSampleRate;
  R.StackedReordered = Stacked.Stats.FuncsReordered;
  R.StackedSplit = Stacked.Stats.FuncsSplit;
  R.StackedKept = Stacked.RewriteKept;
  R.SemanticsOk = BoltOnly.ExitValue == Plain.ExitValue &&
                  Stacked.ExitValue == Plain.ExitValue &&
                  Stacked.Base.ExitValue == Plain.ExitValue;
  R.RoundTripOk = outputRoundTrips(*BoltOnly.Bin) &&
                  outputRoundTrips(*Stacked.Bin);
  return R;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Jobs = benchJobs(argc, argv);
  printHeader("Ablation", "post-link optimizer: PGO vs BOLT vs PGO+BOLT");

  std::vector<std::string> Workloads = serverWorkloadNames();
  Workloads.push_back("ClangProxy");
  const size_t FullMatrix = Workloads.size();
  Workloads.resize(cellLimit(FullMatrix));

  auto Rows = runMany<Row>(Workloads.size(), Jobs, [&](size_t I) {
    return runWorkload(Workloads[I]);
  });

  TextTable Table({"workload", "pgo", "bolt", "pgo+bolt", "stack vs pgo",
                   "mapped", "ship", "checks"});
  bool AllOk = true;
  double LogRatioSum = 0;
  for (const Row &R : Rows) {
    double StackVsPGO =
        R.StackedCycles > 0 ? R.PGOCycles / R.StackedCycles : 0;
    LogRatioSum += std::log(StackVsPGO > 0 ? StackVsPGO : 1e-9);
    AllOk &= R.SemanticsOk && R.RoundTripOk;
    char Mapped[32];
    std::snprintf(Mapped, sizeof(Mapped), "%.1f%%",
                  R.StackedMappedRate * 100.0);
    char StackCol[32];
    std::snprintf(StackCol, sizeof(StackCol), "%.3fx", StackVsPGO);
    Table.addRow(
        {R.Workload,
         formatSignedPercent(improvement(R.PGOCycles, R.PlainCycles)),
         formatSignedPercent(improvement(R.BoltOnlyCycles, R.PlainCycles)),
         formatSignedPercent(improvement(R.StackedCycles, R.PlainCycles)),
         StackCol, Mapped, R.StackedKept ? "rewrite" : "variant",
         R.SemanticsOk && R.RoundTripOk ? "ok"
         : !R.SemanticsOk              ? "EXIT MISMATCH"
                                       : "ROUND-TRIP FAIL"});
  }
  std::printf("%s\n", Table.render().c_str());

  double Geomean = std::exp(LogRatioSum / Rows.size());
  std::printf("aggregate PGO+BOLT over PGO-only: %.4fx (geomean of %zu "
              "workloads)\n\n",
              Geomean, Rows.size());
  printBenchJson("ablation_postlink",
                 {{"workloads", static_cast<double>(Rows.size())},
                  {"stacked_over_pgo_geomean", Geomean},
                  {"all_checks_ok", AllOk ? 1.0 : 0.0}});

  if (!AllOk) {
    std::fprintf(stderr, "FAIL: a semantics or round-trip check failed "
                         "(see the checks column)\n");
    return 1;
  }
  // The aggregate is a claim about the whole matrix; a truncated smoke
  // run says so instead of gating on a subset.
  if (Rows.size() < FullMatrix) {
    std::fprintf(stderr,
                 "aggregate gate skipped: %zu of %zu workloads ran\n",
                 Rows.size(), FullMatrix);
    return 0;
  }
  if (Geomean < 1.0) {
    std::fprintf(stderr,
                 "FAIL: stacked PGO+BOLT is only %.4fx PGO-only in "
                 "aggregate (minimum 1x)\n",
                 Geomean);
    return 1;
  }
  return 0;
}
