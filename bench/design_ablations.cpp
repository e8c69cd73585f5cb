//===- bench/design_ablations.cpp - §III design ablations ---------*- C++ -*-===//
//
// The six design choices §III defends, each ablated by turning it off,
// from one set of runs: every (workload, knob, variant) pipeline the
// tables read runs once, and each table is a view of those outcomes.
//
// - §III-B missing tail-call frames: the inferrer rebuilds frames that
//   tail-call elimination removes from sampled stacks (AdFinder, the
//   call-dense preset). Paper: more than two-thirds recovered.
// - §III-B cold-context trimming: untrimmed CS profiles can be ~10x a
//   flat profile on dense call graphs; trimming makes them comparable in
//   size "without losing its benefit".
// - §III-B CS pre-inliner: global, top-down inline decisions with
//   binary-measured sizes, persisted in the profile, vs the loader's
//   local hot-context heuristic.
// - §III-A probe barrier strength: weak probes (production) unblock
//   if-conversion and code motion; strong ones preserve control flow for
//   profile fidelity at some run-time cost. Overlap is measured against
//   the instrumentation ground truth.
// - §III-B sampling skid: without PEBS-precise sampling the stack
//   snapshot can lag the LBR, desynchronizing the two.
// - §IV-A profi: MCF profile inference on and off, for CSSPGO and for
//   the AutoFDO baseline (which the paper also runs with it).
//
// Each knob acts only on profiles or probes, so a knob-off run compares
// against its workload's one plain baseline. The 26 pipelines fan out
// over runMany (-j N); each task owns its PGODriver, so any job count
// prints the same bytes.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "profile/ProfileIO.h"
#include "quality/BlockOverlap.h"

#include <map>
#include <tuple>

using namespace csspgo;
using namespace csspgo::bench;

namespace {

using Row = std::vector<std::string>;

/// The design choice a run turns off; Default is the preset config.
enum class Knob {
  Default,
  NoFrameInference,
  NoTrimming,
  NoPreInliner,
  StrongBarrier,
  Skid,
  NoInference,
};

/// The workload config of a run. AdFinder-dense is AdFinder with a dense
/// dynamic call graph, the scenario where the paper reports ~10x
/// untrimmed growth.
ExperimentConfig configFor(const std::string &W, Knob K) {
  ExperimentConfig C = makeConfig(W == "AdFinder-dense" ? "AdFinder" : W);
  if (W == "AdFinder-dense") {
    C.Workload.Name = W;
    C.Workload.MidsPerService = 24;
    C.Workload.UtilCallsPerMid = 4;
    C.Workload.TailCallProb = 0.6;
    C.SamplePeriodCycles = 997; // Denser sampling reaches colder contexts.
  }
  switch (K) {
  case Knob::Default:
    break;
  case Knob::NoFrameInference:
    C.InferMissingFrames = false;
    break;
  case Knob::NoTrimming:
    C.TrimColdContexts = false;
    break;
  case Knob::NoPreInliner:
    C.RunPreInliner = false;
    break;
  case Knob::StrongBarrier:
    C.Opt.Barrier = ProbeBarrier::Strong;
    break;
  case Knob::Skid:
    C.PreciseSampling = false;
    break;
  case Knob::NoInference:
    C.EnableInference = false;
    break;
  }
  return C;
}

using RunKey = std::tuple<std::string, Knob, PGOVariant>;

/// Every pipeline the six tables read, once: the plain baselines, then
/// each table's variant runs not already listed.
const RunKey Runs[] = {
    {"AdFinder", Knob::Default, PGOVariant::None},
    {"HHVM", Knob::Default, PGOVariant::None},
    {"AdRanker", Knob::Default, PGOVariant::None},
    {"HaaS", Knob::Default, PGOVariant::None},
    // Missing-frame inference.
    {"AdFinder", Knob::Default, PGOVariant::CSSPGOFull},
    {"AdFinder", Knob::NoFrameInference, PGOVariant::CSSPGOFull},
    // Trimming.
    {"HHVM", Knob::Default, PGOVariant::CSSPGOProbeOnly},
    {"HHVM", Knob::Default, PGOVariant::CSSPGOFull},
    {"HHVM", Knob::NoTrimming, PGOVariant::CSSPGOFull},
    {"AdFinder-dense", Knob::Default, PGOVariant::CSSPGOProbeOnly},
    {"AdFinder-dense", Knob::Default, PGOVariant::CSSPGOFull},
    {"AdFinder-dense", Knob::NoTrimming, PGOVariant::CSSPGOFull},
    // Pre-inliner.
    {"HHVM", Knob::NoPreInliner, PGOVariant::CSSPGOFull},
    {"AdRanker", Knob::Default, PGOVariant::CSSPGOFull},
    {"AdRanker", Knob::NoPreInliner, PGOVariant::CSSPGOFull},
    {"HaaS", Knob::Default, PGOVariant::CSSPGOFull},
    {"HaaS", Knob::NoPreInliner, PGOVariant::CSSPGOFull},
    // Probe barrier strength (Instr is the overlap ground truth).
    {"HHVM", Knob::Default, PGOVariant::Instr},
    {"HHVM", Knob::StrongBarrier, PGOVariant::CSSPGOFull},
    // Sampling skid.
    {"HHVM", Knob::Skid, PGOVariant::CSSPGOFull},
    // Profile inference.
    {"HHVM", Knob::Default, PGOVariant::AutoFDO},
    {"HHVM", Knob::NoInference, PGOVariant::AutoFDO},
    {"HHVM", Knob::NoInference, PGOVariant::CSSPGOFull},
    {"AdRanker", Knob::Default, PGOVariant::AutoFDO},
    {"AdRanker", Knob::NoInference, PGOVariant::AutoFDO},
    {"AdRanker", Knob::NoInference, PGOVariant::CSSPGOFull},
};

void printTable(Row Header, const std::vector<Row> &Rows) {
  TextTable Table(std::move(Header));
  for (const Row &R : Rows)
    Table.addRow(R);
  std::printf("%s\n", Table.render().c_str());
}

} // namespace

int main(int argc, char **argv) {
  auto Outcomes = runMany<VariantOutcome>(
      std::size(Runs), benchJobs(argc, argv), [&](size_t I) {
        const auto &[W, K, V] = Runs[I];
        return PGODriver(configFor(W, K)).run(V);
      });
  std::map<RunKey, const VariantOutcome *> ByKey;
  for (size_t I = 0; I != std::size(Runs); ++I)
    ByKey[Runs[I]] = &Outcomes[I];
  auto Out = [&](const std::string &W, Knob K,
                 PGOVariant V) -> const VariantOutcome & {
    return *ByKey.at({W, K, V});
  };
  auto Plain = [&](const std::string &W) -> const VariantOutcome & {
    return Out(W, Knob::Default, PGOVariant::None);
  };
  auto VsPlain = [&](const std::string &W, const VariantOutcome &O) {
    return formatSignedPercent(
        improvement(O.EvalCyclesMean, Plain(W).EvalCyclesMean));
  };
  const PGOVariant Full = PGOVariant::CSSPGOFull;

  printHeader("Ablation", "missing-frame inference for tail calls — §III-B");
  std::vector<Row> Rows;
  for (bool Infer : {true, false}) {
    const VariantOutcome &O = Out(
        "AdFinder", Infer ? Knob::Default : Knob::NoFrameInference, Full);
    const auto &S = O.ProfGen.TailCallStats;
    double Rate = S.Attempts ? 100.0 * S.Recovered / S.Attempts : 0;
    Rows.push_back({Infer ? "inferrer on" : "inferrer off",
                    Infer ? formatPercent(Rate) : "-",
                    std::to_string(S.Attempts),
                    std::to_string(S.AmbiguousPaths),
                    std::to_string(S.NoPath),
                    std::to_string(O.Profile.CS.numProfiles()),
                    VsPlain("AdFinder", O)});
  }
  printTable({"config", "recovery rate", "attempts", "ambiguous", "no path",
              "CS contexts", "vs plain"},
             Rows);
  std::printf("paper: more than two-thirds of missing tail-call frames\n"
              "recovered in practice.\n");

  printHeader("Ablation", "cold-context trimming — §III-B scalability");
  Rows.clear();
  for (const char *W : {"HHVM", "AdFinder-dense"}) {
    const VariantOutcome &Trimmed = Out(W, Knob::Default, Full);
    const VariantOutcome &Untrimmed = Out(W, Knob::NoTrimming, Full);
    size_t FlatBytes = profileSizeBytes(
        Out(W, Knob::Default, PGOVariant::CSSPGOProbeOnly).Profile.Flat);
    size_t TrimBytes = profileSizeBytes(Trimmed.Profile.CS);
    size_t RawBytes = profileSizeBytes(Untrimmed.Profile.CS);
    char RawRatio[32], TrimRatio[32];
    std::snprintf(RawRatio, sizeof(RawRatio), "%.2fx",
                  static_cast<double>(RawBytes) / FlatBytes);
    std::snprintf(TrimRatio, sizeof(TrimRatio), "%.2fx",
                  static_cast<double>(TrimBytes) / FlatBytes);
    Rows.push_back({W, std::to_string(FlatBytes), std::to_string(RawBytes),
                    std::to_string(TrimBytes), RawRatio, TrimRatio,
                    formatSignedPercent(improvement(
                        Trimmed.EvalCyclesMean, Untrimmed.EvalCyclesMean))});
  }
  printTable({"workload", "flat bytes", "CS untrimmed", "CS trimmed",
              "untrimmed/flat", "trimmed/flat", "perf delta"},
             Rows);
  std::printf("paper: dense call graphs can see ~10x untrimmed growth;\n"
              "trimming brings the CS profile to a size comparable to the\n"
              "regular profile without losing its benefit.\n");

  printHeader("Ablation", "context-sensitive pre-inliner — §III-B");
  Rows.clear();
  for (const char *W : {"HHVM", "AdRanker", "HaaS"})
    for (bool Pre : {true, false}) {
      const VariantOutcome &O =
          Out(W, Pre ? Knob::Default : Knob::NoPreInliner, Full);
      Rows.push_back({W, Pre ? "pre-inliner" : "loader heuristic",
                      VsPlain(W, O), formatBytes(O.CodeSizeBytes),
                      std::to_string(O.Build->Loader.InlinedCallsites)});
    }
  printTable({"workload", "config", "vs plain", "code size",
              "topdown inlines"},
             Rows);
  std::printf("paper: the pre-inliner's global budgeted decisions with\n"
              "measured sizes give more selective inlining (smaller code)\n"
              "and better post-inline profiles under ThinLTO-style\n"
              "isolation.\n");

  printHeader("Ablation", "probe barrier strength — §III-A flexibility");
  Rows.clear();
  // The barrier is a build knob, not a workload one: every HHVM run
  // profiles the same source.
  auto Source = generateProgram(configFor("HHVM", Knob::Default).Workload);
  auto GroundTruth = annotateForQuality(
      *Source, Out("HHVM", Knob::Default, PGOVariant::Instr).Profile);
  for (bool Weak : {true, false}) {
    const VariantOutcome &O =
        Out("HHVM", Weak ? Knob::Default : Knob::StrongBarrier, Full);
    auto Annotated = annotateForQuality(*Source, O.Profile);
    double Overlap =
        computeBlockOverlap(*Annotated, *GroundTruth).ProgramOverlap;
    Rows.push_back({Weak ? "weak (production)" : "strong",
                    formatSignedPercent(
                        PGODriver::overheadPct(O, Plain("HHVM"))),
                    formatPercent(100 * Overlap), VsPlain("HHVM", O)});
  }
  printTable({"barrier", "probed-binary overhead", "overlap",
              "CSSPGO vs plain"},
             Rows);
  std::printf("paper: the weak setting trades a little profile fidelity\n"
              "for near-zero overhead; strong preserves control flow at\n"
              "some run-time cost.\n");

  printHeader("Ablation", "sampling skid vs PEBS-precise — §III-B");
  Rows.clear();
  for (bool Precise : {true, false}) {
    const VariantOutcome &O =
        Out("HHVM", Precise ? Knob::Default : Knob::Skid, Full);
    double UnsyncedPct =
        O.ProfGen.Samples
            ? 100.0 * O.ProfGen.UnsyncedSamples / O.ProfGen.Samples
            : 0;
    Rows.push_back({Precise ? "PEBS-precise" : "skidding",
                    formatPercent(UnsyncedPct),
                    std::to_string(O.Profile.CS.numProfiles()),
                    VsPlain("HHVM", O)});
  }
  printTable({"sampling", "unsynced samples", "CS contexts",
              "CSSPGO vs plain"},
             Rows);
  std::printf("paper: PEBS eliminates the skid so LBR and stack samples\n"
              "are always synchronized; without it context recovery\n"
              "degrades.\n");

  printHeader("Ablation", "MCF profile inference (profi) on/off");
  Rows.clear();
  for (const char *W : {"HHVM", "AdRanker"})
    for (PGOVariant V : {PGOVariant::AutoFDO, Full})
      for (bool Inference : {true, false})
        Rows.push_back(
            {W, variantName(V), Inference ? "on" : "off",
             VsPlain(W, Out(W, Inference ? Knob::Default : Knob::NoInference,
                            V))});
  printTable({"workload", "variant", "inference", "vs plain"}, Rows);
  return 0;
}
