//===- bench/ablation_source_drift.cpp - §III-A drift experiment --*- C++ -*-===//
//
// §III-A "source drifting": a source edit between profiling and the next
// build. Two tables:
//
// 1. Comment drift (legacy behavior): line numbers shift, CFG unchanged.
//    AutoFDO's line-offset keys silently mis-correlate below the shift;
//    the paper observed an 8% loss from minor drift on a server workload.
//    CSSPGO's probe ids are line-independent and its CFG checksum still
//    matches, so the profile applies cleanly. Stale-profile matching is
//    OFF here to reproduce the paper's numbers.
//
// 2. CFG drift, drop vs match: edits that change block structure
//    (insert-drift: never-taken guard + block split + callee rename;
//    delete-drift: the inverse guard removal), staling probe CFG
//    checksums. Each cell builds the drifted "next release" twice from
//    the same profile — once with stale profiles dropped (legacy,
//    RecoverStaleProfiles=false; for AutoFDO this means the mis-keyed
//    profile applies as-is) and once with the stale matcher recovering
//    them — and compares both against a plain build of the drifted
//    source.
//
// All cells are independent pipelines and fan out over runMany (-j N);
// any job count prints byte-identical tables. CSSPGO_CELLS=N runs the
// first N cells of tables 2 and 3; a truncated run skips table 1, whose
// paper comparison needs all four cells.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "pgo/ProfilePipeline.h"
#include "sim/Executor.h"
#include "store/ProfileStore.h"
#include "workload/DriftPlan.h"

using namespace csspgo;
using namespace csspgo::bench;

namespace {

void legacyCommentDriftTable(unsigned Jobs) {
  struct Cell {
    const char *Workload;
    PGOVariant Variant;
  };
  const Cell Cells[] = {{"AdRanker", PGOVariant::AutoFDO},
                        {"AdRanker", PGOVariant::CSSPGOFull},
                        {"HHVM", PGOVariant::AutoFDO},
                        {"HHVM", PGOVariant::CSSPGOFull}};
  if (cellLimit(std::size(Cells)) < std::size(Cells))
    return;
  std::printf("-- comment drift (CFG preserved), stale matching off --\n");
  TextTable Table({"workload", "variant", "no-drift vs plain",
                   "drifted vs plain", "drift cost", "stale drops"});
  auto Rows = runMany<std::vector<std::string>>(
      std::size(Cells), Jobs, [&](size_t Idx) {
        const Cell &C = Cells[Idx];
        ExperimentConfig Config = makeConfig(C.Workload);
        PGODriver Driver(Config);
        const VariantOutcome &Plain = Driver.baseline();

        // Drifted "next release" source.
        auto Drifted = Driver.source().clone();
        applySourceDrift(*Drifted, /*ShiftLines=*/3);

        VariantOutcome Out = Driver.run(C.Variant);

        BuildConfig BC = staleVariantBuildConfig(C.Variant, Config);
        BC.Loader.RecoverStaleProfiles = false; // Paper's legacy behavior.
        BuildResult DriftBuild = buildWithPGO(*Drifted, BC, &Out.Profile);

        double DriftMean = evaluateBinary(*DriftBuild.Bin, Config).Mean;
        double NoDrift = improvement(Out.EvalCyclesMean, Plain.EvalCyclesMean);
        double WithDrift = improvement(DriftMean, Plain.EvalCyclesMean);
        return std::vector<std::string>{
            C.Workload, variantName(C.Variant), formatSignedPercent(NoDrift),
            formatSignedPercent(WithDrift),
            formatSignedPercent(NoDrift - WithDrift),
            std::to_string(DriftBuild.Loader.StaleDropped)};
      });
  for (const auto &Row : Rows)
    Table.addRow(Row);
  std::printf("%s\n", Table.render().c_str());
  std::printf("paper: minor drift cost AutoFDO up to ~8%%; CSSPGO is\n"
              "unaffected (probe ids don't shift; CFG checksum matches).\n\n");
}

void cfgDriftDropVsMatchTable(unsigned Jobs) {
  TextTable Table({"workload", "variant", "drift", "no-drift vs plain",
                   "drop vs plain", "match vs plain", "recovered",
                   "stale d/m", "anchors", "counts rec"});

  struct Cell {
    const char *Workload;
    PGOVariant Variant;
    bool DeleteDrift; ///< false = insert-drift, true = delete-drift.
  };
  const Cell Cells[] = {{"AdRanker", PGOVariant::AutoFDO, false},
                        {"AdRanker", PGOVariant::CSSPGOFull, false},
                        {"AdRanker", PGOVariant::AutoFDO, true},
                        {"AdRanker", PGOVariant::CSSPGOFull, true}};
  size_t Count = cellLimit(std::size(Cells));
  auto Rows = runMany<std::vector<std::string>>(Count, Jobs, [&](size_t Idx) {
    const Cell &C = Cells[Idx];
    ExperimentConfig Config = makeConfig(C.Workload);

    // The profiled release: pristine source for insert-drift; for
    // delete-drift the guards must already exist when profiling, so the
    // driver runs over an externally drifted module.
    DriftPlan Plan = C.DeleteDrift ? deleteDriftPlan() : insertDriftPlan();
    std::unique_ptr<Module> V1 = generateProgram(Config.Workload);
    applyDriftSteps(*V1, Plan.PrepSteps);
    PGODriver Driver(Config, std::move(V1));
    const VariantOutcome &Plain = Driver.baseline();
    VariantOutcome Out = Driver.run(C.Variant);

    // The drifted "next release".
    auto V2 = Driver.source().clone();
    applyDriftSteps(*V2, Plan.Steps);

    // Plain build of the drifted source: the fair baseline for both
    // drifted PGO builds (the drift itself perturbs code layout).
    BuildConfig PlainBC;
    BuildResult PlainV2 = buildWithPGO(*V2, PlainBC, nullptr);
    double PlainV2Mean = evaluateBinary(*PlainV2.Bin, Config).Mean;

    // Drop build (legacy) vs match build (stale matcher on) from the
    // same stale profile.
    BuildConfig DropBC = staleVariantBuildConfig(C.Variant, Config);
    DropBC.Loader.RecoverStaleProfiles = false;
    BuildResult DropBuild = buildWithPGO(*V2, DropBC, &Out.Profile);
    double DropMean = evaluateBinary(*DropBuild.Bin, Config).Mean;

    BuildConfig MatchBC = staleVariantBuildConfig(C.Variant, Config);
    BuildResult MatchBuild = buildWithPGO(*V2, MatchBC, &Out.Profile);
    double MatchMean = evaluateBinary(*MatchBuild.Bin, Config).Mean;

    double NoDrift = improvement(Out.EvalCyclesMean, Plain.EvalCyclesMean);
    double Drop = improvement(DropMean, PlainV2Mean);
    double Match = improvement(MatchMean, PlainV2Mean);
    return std::vector<std::string>{
        C.Workload, variantName(C.Variant),
        C.DeleteDrift ? "delete" : "insert", formatSignedPercent(NoDrift),
        formatSignedPercent(Drop), formatSignedPercent(Match),
        formatSignedPercent(Match - Drop),
        std::to_string(DropBuild.Loader.StaleDropped) + "/" +
            std::to_string(MatchBuild.Loader.StaleMatched),
        std::to_string(MatchBuild.Loader.StaleAnchorsMatched),
        std::to_string(MatchBuild.Loader.StaleCountsRecovered)};
  });
  for (const auto &Row : Rows)
    Table.addRow(Row);
  std::printf("%s\n", Table.render().c_str());
  std::printf("stale d/m = functions dropped (drop build) / matched (match\n"
              "build); recovered = match-vs-drop delta. AutoFDO's drop\n"
              "column applies the mis-keyed line profile as-is.\n");
}

void continuousIngestTable(unsigned Jobs) {
  TextTable Table({"workload", "variant", "stale v1 vs plain",
                   "merged store vs plain", "ingest gain", "verify"});

  struct Cell {
    const char *Workload;
    PGOVariant Variant;
  };
  const Cell Cells[] = {{"AdRanker", PGOVariant::AutoFDO},
                        {"AdRanker", PGOVariant::CSSPGOFull}};
  size_t Count = cellLimit(std::size(Cells));
  auto Rows = runMany<std::vector<std::string>>(Count, Jobs, [&](size_t Idx) {
    const Cell &C = Cells[Idx];
    ExperimentConfig Config = makeConfig(C.Workload);

    // Release v1: profiled as deployed, its profile ingested as epoch 1.
    PGODriver DriverV1(Config);
    VariantOutcome OutV1 = DriverV1.run(C.Variant);

    // Release v2: CFG drift lands between the releases. v2 is deployed
    // and profiled too — epoch 2, folded in at decay 0.5.
    auto V2 = DriverV1.source().clone();
    applyDriftSteps(*V2, {{CFGDriftKind::GuardInsert, 1}});
    PGODriver DriverV2(Config, V2->clone());
    const VariantOutcome &PlainV2 = DriverV2.baseline();
    VariantOutcome OutV2 = DriverV2.run(C.Variant);

    std::string Bytes;
    IngestOptions IO;
    IO.Timestamp = 100;
    auto ViewOf = [](const ProfileBundle &B) {
      return B.IsCS ? contextViewOf(B.CS) : flatViewOf(B.Flat);
    };
    IngestResult R1 = ingestEpoch(Bytes, ViewOf(OutV1.Profile), IO);
    IO.Timestamp = 200;
    IO.DecayPermille = 500;
    IngestResult R2 = ingestEpoch(Bytes, ViewOf(OutV2.Profile), IO);
    if (!R1.Ok || !R2.Ok) {
      std::fprintf(stderr, "continuous ingest failed: %s\n",
                   (R1.Ok ? R2.Error : R1.Error).c_str());
      std::exit(1);
    }

    // The merged aggregate out of the store vs the stale v1 profile
    // alone, both applied to the next build of the v2 source.
    Expected<ProfileBundle> Merged = loadStoreBundle(Bytes);
    if (!Merged) {
      std::fprintf(stderr, "ingested store does not load: %s\n",
                   Merged.status().message().c_str());
      std::exit(1);
    }

    BuildConfig BC = staleVariantBuildConfig(C.Variant, Config);
    BuildResult StaleBuild = buildWithPGO(*V2, BC, &OutV1.Profile);
    BuildResult MergedBuild = buildWithPGO(*V2, BC, &*Merged);
    double StaleMean = evaluateBinary(*StaleBuild.Bin, Config).Mean;
    double MergedMean = evaluateBinary(*MergedBuild.Bin, Config).Mean;

    double Stale = improvement(StaleMean, PlainV2.EvalCyclesMean);
    double MergedImp = improvement(MergedMean, PlainV2.EvalCyclesMean);
    return std::vector<std::string>{
        C.Workload, variantName(C.Variant), formatSignedPercent(Stale),
        formatSignedPercent(MergedImp),
        formatSignedPercent(MergedImp - Stale),
        R2.Verify.ok() ? "clean" : "VIOLATIONS"};
  });
  for (const auto &Row : Rows)
    Table.addRow(Row);
  std::printf("%s\n", Table.render().c_str());
  std::printf("stale v1 = build v2 from the v1 epoch alone (continuous\n"
              "collection off); merged store = two-epoch ingest at decay\n"
              "0.5, strict-verified on every fold. The fresh epoch keeps\n"
              "the aggregate aligned with the deployed CFG.\n");
}

} // namespace

int main(int argc, char **argv) {
  unsigned Jobs = benchJobs(argc, argv);
  printHeader("Ablation", "source drift — §III-A + stale matching");

  legacyCommentDriftTable(Jobs);
  std::printf("-- CFG drift, drop vs match --\n");
  cfgDriftDropVsMatchTable(Jobs);
  std::printf("\n-- continuous ingestion across drift "
              "(two-epoch store vs stale single epoch) --\n");
  continuousIngestTable(Jobs);
  return 0;
}
