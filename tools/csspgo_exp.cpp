//===- tools/csspgo_exp.cpp - experiment CLI ----------------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Command-line driver over the experiment pipeline, the library's
// "binary distribution" face. The subcommand table, shared flag parsing
// and all help text live in ExpCLI.{h,cpp} (golden-tested); this file
// maps table entries to handlers.
//
//===----------------------------------------------------------------------===//

#include "ExpCLI.h"
#include "FuzzHarness.h"
#include "ir/Printer.h"
#include "pgo/PGODriver.h"
#include "pgo/ProfilePipeline.h"
#include "profile/ProfileIO.h"
#include "service/ProfileService.h"
#include "store/ProfileStore.h"
#include "support/SourceText.h"
#include "train/ReleaseTrain.h"
#include "workload/Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

using namespace csspgo;

namespace {

int usage();

/// Options shared by every subcommand, stripped from argv before dispatch.
cli::GlobalOptions G;

bool parseVariant(const std::string &S, PGOVariant &V) {
  if (S == "none")
    V = PGOVariant::None;
  else if (S == "instr")
    V = PGOVariant::Instr;
  else if (S == "autofdo")
    V = PGOVariant::AutoFDO;
  else if (S == "probeonly")
    V = PGOVariant::CSSPGOProbeOnly;
  else if (S == "csspgo")
    V = PGOVariant::CSSPGOFull;
  else if (S == "trace")
    V = PGOVariant::Trace;
  else
    return false;
  return true;
}

/// Every workload name `list` prints, in its order.
std::vector<std::string> workloadNames() {
  std::vector<std::string> Names = serverWorkloadNames();
  for (const std::string &W : archetypeWorkloadNames())
    Names.push_back(W);
  Names.push_back("ClangProxy");
  return Names;
}

/// Fills \p Config from the <workload> [scale] operands (\p Scale null:
/// 1.0). An unknown workload, a scale that is not a finite number > 0, or
/// one whose request count does not fit an unsigned is reported and
/// returns false; the caller exits with usage().
bool makeConfig(const std::string &Workload, const char *Scale,
                ExperimentConfig &Config) {
  std::vector<std::string> Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), Workload) == Names.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", Workload.c_str());
    return false;
  }
  double S = 1.0;
  if (Scale) {
    char *End = nullptr;
    S = std::strtod(Scale, &End);
    if (End == Scale || *End || !std::isfinite(S) || S <= 0) {
      std::fprintf(stderr, "bad scale '%s': want a finite number > 0\n",
                   Scale);
      return false;
    }
    const double Requests = workloadPreset(Workload).Requests * S;
    if (Requests > std::numeric_limits<unsigned>::max()) {
      std::fprintf(stderr,
                   "bad scale '%s': %s would run %.3g requests, more than "
                   "%u\n",
                   Scale, Workload.c_str(), Requests,
                   std::numeric_limits<unsigned>::max());
      return false;
    }
  }
  Config.Workload = workloadPreset(Workload, S);
  Config.Parallelism = G.Parallelism;
  Config.Transport = G.Transport;
  return true;
}

bool readFileAll(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool writeFileAll(const std::string &Path, const std::string &Data) {
  std::ofstream OutS(Path, std::ios::binary | std::ios::trunc);
  OutS.write(Data.data(), static_cast<std::streamsize>(Data.size()));
  return static_cast<bool>(OutS);
}

bool isStoreBytes(const std::string &Data) {
  return Data.size() >= 4 && std::memcmp(Data.data(), StoreMagic, 4) == 0;
}

/// Context-profile text carries "[ctx]:T:H" records; flat text carries
/// "name:T:H" at column 0. Directive lines ("!kind: ...") and indented
/// body lines are common to both.
bool looksLikeContextText(const std::string &Text) {
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    if (End > Pos && Text[Pos] != '!' && Text[Pos] != ' ')
      return Text[Pos] == '[';
    Pos = End + 1;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Subcommand handlers. Each receives argv with option flags stripped:
// argv[1] is the subcommand name, operands start at argv[2].
//===----------------------------------------------------------------------===//

int cmdList(int, char **) {
  std::printf("workloads:");
  for (const std::string &W : workloadNames())
    std::printf(" %s", W.c_str());
  std::printf("\nvariants: none instr autofdo probeonly csspgo trace\n");
  return 0;
}

/// `run --json`: the run header plus the unified PipelineStats, one
/// object, stable key order — the same stats shape the fleet dashboard
/// embeds per service.
void printRunJSON(const char *Workload, PGOVariant V,
                  const ExperimentConfig &Config, const VariantOutcome &Out,
                  const VariantOutcome &Base) {
  PipelineStats PS;
  PS.ProfGen = Out.ProfGen;
  PS.Reduce = Out.ProfGenReduce;
  PS.Loader = Out.Build->Loader;
  PS.Verify = Out.ProfGenVerify;
  PS.ShardsUsed = std::max(1u, G.Parallelism);
  PS.TotalSamples = Out.ProfGen.Samples;

  std::printf("{\"workload\":\"%s\",\"requests\":%u,\"variant\":\"%s\","
              "\"transport\":\"%s\","
              "\"profiling_overhead_pct\":%.4f,"
              "\"eval_cycles\":%.0f,\"plain_cycles\":%.0f,"
              "\"speedup_pct\":%.4f,\"code_size_bytes\":%llu,"
              "\"exit_value\":%lld,\"exit_match\":%s,"
              "\"pipeline\":%s}\n",
              Workload, Config.Workload.Requests, variantName(V),
              transportName(G.Transport), PGODriver::overheadPct(Out, Base),
              Out.EvalCyclesMean, Base.EvalCyclesMean,
              PGODriver::improvementPct(Out, Base),
              static_cast<unsigned long long>(Out.CodeSizeBytes),
              static_cast<long long>(Out.ExitValue),
              Out.ExitValue == Base.ExitValue ? "true" : "false",
              PS.toJSON().c_str());
}

int cmdRun(int argc, char **argv) {
  PGOVariant V;
  if (!parseVariant(argv[3], V)) {
    std::fprintf(stderr, "unknown variant '%s'\n", argv[3]);
    return 2;
  }
  ExperimentConfig Config;
  if (!makeConfig(argv[2], argc > 4 ? argv[4] : nullptr, Config))
    return usage();
  PGODriver Driver(Config);
  const VariantOutcome &Base = Driver.baseline();
  VariantOutcome Out = Driver.run(V);
  bool ExitOk = Out.ExitValue == Base.ExitValue;
  if (G.JSON) {
    printRunJSON(argv[2], V, Config, Out, Base);
    if (V == PGOVariant::Trace)
      std::printf("{\"trace\":{\"bytes\":%llu,\"packets\":%llu,"
                  "\"branch_events\":%llu,\"truncated\":%s,"
                  "\"timestamps\":%llu,\"timestamp_mismatches\":%llu}}\n",
                  static_cast<unsigned long long>(Out.TraceBytes),
                  static_cast<unsigned long long>(Out.TracePackets),
                  static_cast<unsigned long long>(Out.TraceBranchEvents),
                  Out.TraceTruncated ? "true" : "false",
                  static_cast<unsigned long long>(Out.TraceTimestamps),
                  static_cast<unsigned long long>(
                      Out.TraceTimestampMismatches));
    return ExitOk ? 0 : 1;
  }
  std::printf("workload:            %s (%u requests)\n", argv[2],
              Config.Workload.Requests);
  std::printf("variant:             %s\n", variantName(V));
  std::printf("profiling overhead:  %s\n",
              formatSignedPercent(PGODriver::overheadPct(Out, Base)).c_str());
  if (V == PGOVariant::Trace)
    std::printf("trace:               %s%s, %llu packets, %llu TSC "
                "(%llu mismatches)\n",
                formatBytes(Out.TraceBytes).c_str(),
                Out.TraceTruncated ? " (truncated)" : "",
                static_cast<unsigned long long>(Out.TracePackets),
                static_cast<unsigned long long>(Out.TraceTimestamps),
                static_cast<unsigned long long>(
                    Out.TraceTimestampMismatches));
  std::printf("eval cycles:         %.0f (plain %.0f)\n", Out.EvalCyclesMean,
              Base.EvalCyclesMean);
  std::printf("speedup vs plain:    %s\n",
              formatSignedPercent(PGODriver::improvementPct(Out, Base))
                  .c_str());
  std::printf("code size:           %s\n",
              formatBytes(Out.CodeSizeBytes).c_str());
  if (V != PGOVariant::None)
    std::printf("verifier:            %s\n",
                Out.ProfGenVerify.str().c_str());
  std::printf("loader: %u annotated, %u top-down inlines, %u ICP, "
              "%u stale drops\n",
              Out.Build->Loader.FunctionsAnnotated,
              Out.Build->Loader.InlinedCallsites,
              Out.Build->Loader.PromotedIndirectCalls,
              Out.Build->Loader.StaleDropped);
  if (Out.Build->Loader.StaleMatched)
    std::printf("stale matching:      %u recovered, %llu anchors, "
                "%llu counts\n",
                Out.Build->Loader.StaleMatched,
                static_cast<unsigned long long>(
                    Out.Build->Loader.StaleAnchorsMatched),
                static_cast<unsigned long long>(
                    Out.Build->Loader.StaleCountsRecovered));
  if (G.Transport != ProfileTransport::InMemory) {
    std::printf("profile transport:   %s", transportName(G.Transport));
    if (Out.Build->Loader.StoreFunctionsMaterialized ||
        Out.Build->Loader.StoreFunctionsSkipped)
      std::printf(" (%u store functions materialized, %u skipped)",
                  Out.Build->Loader.StoreFunctionsMaterialized,
                  Out.Build->Loader.StoreFunctionsSkipped);
    std::printf("\n");
  }
  std::printf("exit value:          %lld (plain %lld%s)\n",
              static_cast<long long>(Out.ExitValue),
              static_cast<long long>(Base.ExitValue),
              ExitOk ? ", identical" : " — MISMATCH!");
  return ExitOk ? 0 : 1;
}

/// `trace <workload> [scale]`: one traced training run cross-checked
/// against the PMU-sampling path. The exit status pins the headline
/// property (trace-derived profile bit-identical to the sampling path's),
/// so the CI smoke can gate on it.
int cmdTrace(int argc, char **argv) {
  unsigned long long Every = 32, MaxKB = 64 * 1024;
  bool NoCompress = cli::takeBoolFlag(argc, argv, "--no-compress");
  std::string Err;
  if (!cli::takeUnsignedFlag(argc, argv, "--every", Every, Err) ||
      !cli::takeUnsignedFlag(argc, argv, "--max-kb", MaxKB, Err)) {
    std::fprintf(stderr, "trace: %s\n", Err.c_str());
    return 2;
  }
  if (const char *Flag = cli::firstFlag(argc, argv)) {
    std::fprintf(stderr, "trace: unknown option '%s'\n", Flag);
    return 2;
  }
  if (argc < 3)
    return usage();

  ExperimentConfig Config;
  if (!makeConfig(argv[2], argc > 3 ? argv[3] : nullptr, Config))
    return usage();
  Config.Trace.TimestampEvery = static_cast<uint32_t>(Every);
  Config.Trace.MaxBytes = MaxKB * 1024;
  Config.Trace.CompressTimestamps = !NoCompress;

  PGODriver Driver(Config);
  const VariantOutcome &Base = Driver.baseline();
  VariantOutcome T = Driver.run(PGOVariant::Trace);
  VariantOutcome S = Driver.run(PGOVariant::CSSPGOFull);

  // The decoder replays the trace against the exact sampler configuration
  // the sampling path ran under, so the two context profiles must be
  // byte-identical whenever frequencies suffice.
  bool Identical = serializeContextProfile(T.Profile.CS) ==
                   serializeContextProfile(S.Profile.CS);
  bool ExitOk = T.ExitValue == Base.ExitValue;
  double BytesPerEvent =
      T.TraceBranchEvents
          ? static_cast<double>(T.TraceBytes) / T.TraceBranchEvents
          : 0.0;

  uint64_t TimedBlocks = 0, TimedCycles = 0, TimedMispredicts = 0;
  if (T.Profile.Timing) {
    TimedBlocks = T.Profile.Timing->Blocks.size();
    for (const auto &[Key, St] : T.Profile.Timing->Blocks) {
      TimedCycles += St.Cycles;
      TimedMispredicts += St.Mispredicts;
    }
  }

  if (G.JSON) {
    std::printf(
        "{\"workload\":\"%s\",\"trace_bytes\":%llu,\"packets\":%llu,"
        "\"branch_events\":%llu,\"bytes_per_branch\":%.4f,"
        "\"truncated\":%s,\"timestamps\":%llu,"
        "\"timestamp_mismatches\":%llu,"
        "\"trace_overhead_pct\":%.4f,\"sampling_overhead_pct\":%.4f,"
        "\"profile_match\":%s,\"timing_blocks\":%llu,"
        "\"timing_cycles\":%llu,\"timing_mispredicts\":%llu,"
        "\"exit_match\":%s}\n",
        argv[2], static_cast<unsigned long long>(T.TraceBytes),
        static_cast<unsigned long long>(T.TracePackets),
        static_cast<unsigned long long>(T.TraceBranchEvents), BytesPerEvent,
        T.TraceTruncated ? "true" : "false",
        static_cast<unsigned long long>(T.TraceTimestamps),
        static_cast<unsigned long long>(T.TraceTimestampMismatches),
        PGODriver::overheadPct(T, Base), PGODriver::overheadPct(S, Base),
        Identical ? "true" : "false",
        static_cast<unsigned long long>(TimedBlocks),
        static_cast<unsigned long long>(TimedCycles),
        static_cast<unsigned long long>(TimedMispredicts),
        ExitOk ? "true" : "false");
    return Identical && ExitOk ? 0 : 1;
  }
  std::printf("workload:            %s (%u requests)\n", argv[2],
              Config.Workload.Requests);
  std::printf("trace:               %s%s, %llu packets, %llu branch "
              "events\n",
              formatBytes(T.TraceBytes).c_str(),
              T.TraceTruncated ? " (truncated)" : "",
              static_cast<unsigned long long>(T.TracePackets),
              static_cast<unsigned long long>(T.TraceBranchEvents));
  std::printf("compression:         %.2f bytes/branch event (timestamp "
              "every %llu%s)\n",
              BytesPerEvent, Every, NoCompress ? ", raw" : "");
  std::printf("timestamp check:     %llu TSC packets, %llu mismatches\n",
              static_cast<unsigned long long>(T.TraceTimestamps),
              static_cast<unsigned long long>(T.TraceTimestampMismatches));
  std::printf("profiling overhead:  %s (sampling %s)\n",
              formatSignedPercent(PGODriver::overheadPct(T, Base)).c_str(),
              formatSignedPercent(PGODriver::overheadPct(S, Base)).c_str());
  std::printf("profile match:       %s\n",
              Identical ? "bit-identical to the sampling path"
                        : "MISMATCH vs the sampling path!");
  std::printf("timing profile:      %llu blocks, %llu cycles attributed, "
              "%llu mispredicts\n",
              static_cast<unsigned long long>(TimedBlocks),
              static_cast<unsigned long long>(TimedCycles),
              static_cast<unsigned long long>(TimedMispredicts));
  std::printf("exit value:          %lld (plain %lld%s)\n",
              static_cast<long long>(T.ExitValue),
              static_cast<long long>(Base.ExitValue),
              ExitOk ? ", identical" : " — MISMATCH!");
  return Identical && ExitOk ? 0 : 1;
}

int cmdBolt(int argc, char **argv) {
  postlink::PostLinkOptions Opts;
  if (cli::takeBoolFlag(argc, argv, "--no-fold"))
    Opts.Fold = false;
  if (cli::takeBoolFlag(argc, argv, "--no-reorder"))
    Opts.Reorder = false;
  if (cli::takeBoolFlag(argc, argv, "--no-split"))
    Opts.Split = false;
  unsigned long long MinMapped = 500;
  std::string Err;
  if (!cli::takeUnsignedFlag(argc, argv, "--min-mapped", MinMapped, Err) ||
      MinMapped > 1000) {
    std::fprintf(stderr, "bolt: %s\n",
                 Err.empty() ? "--min-mapped takes a permille (0..1000)"
                             : Err.c_str());
    return 2;
  }
  Opts.MinMappedRate = static_cast<double>(MinMapped) / 1000.0;
  if (const char *Flag = cli::firstFlag(argc, argv)) {
    std::fprintf(stderr, "bolt: unknown option '%s'\n", Flag);
    return 2;
  }
  if (argc < 4)
    return usage();
  PGOVariant V;
  if (!parseVariant(argv[3], V)) {
    std::fprintf(stderr, "unknown variant '%s'\n", argv[3]);
    return 2;
  }
  ExperimentConfig Config;
  if (!makeConfig(argv[2], argc > 4 ? argv[4] : nullptr, Config))
    return usage();
  PGODriver Driver(Config);
  const VariantOutcome &Base = Driver.baseline();
  PostLinkOutcome PL = Driver.runPostLink(V, Opts);
  const postlink::PostLinkStats &S = PL.Stats;
  double VsVariant = PL.Base.EvalCyclesMean > 0
                         ? (PL.Base.EvalCyclesMean - PL.EvalCyclesMean) /
                               PL.Base.EvalCyclesMean * 100.0
                         : 0.0;
  double VsPlain = Base.EvalCyclesMean > 0
                       ? (Base.EvalCyclesMean - PL.EvalCyclesMean) /
                             Base.EvalCyclesMean * 100.0
                       : 0.0;
  bool ExitOk =
      PL.ExitValue == PL.Base.ExitValue && PL.ExitValue == Base.ExitValue;
  if (G.JSON) {
    std::printf(
        "{\"workload\":\"%s\",\"variant\":\"%s\","
        "\"eval_cycles_variant\":%.0f,\"eval_cycles_bolt\":%.0f,"
        "\"plain_cycles\":%.0f,"
        "\"speedup_vs_variant_pct\":%.4f,\"speedup_vs_plain_pct\":%.4f,"
        "\"mapped_sample_rate\":%.4f,"
        "\"funcs_folded\":%u,\"funcs_reordered\":%u,\"funcs_split\":%u,"
        "\"blocks_split\":%u,\"transforms_gated\":%s,"
        "\"text_bytes_before\":%llu,\"text_bytes_after\":%llu,"
        "\"rewrite_kept\":%s,\"exit_match\":%s}\n",
        argv[2], variantName(V), PL.Base.EvalCyclesMean, PL.EvalCyclesMean,
        Base.EvalCyclesMean, VsVariant, VsPlain, S.Map.MappedSampleRate,
        S.FuncsFolded, S.FuncsReordered, S.FuncsSplit, S.BlocksSplit,
        S.TransformsGated ? "true" : "false",
        static_cast<unsigned long long>(S.TextBytesBefore),
        static_cast<unsigned long long>(S.TextBytesAfter),
        PL.RewriteKept ? "true" : "false", ExitOk ? "true" : "false");
    return ExitOk ? 0 : 1;
  }
  std::printf("workload:            %s (%u requests)\n", argv[2],
              Config.Workload.Requests);
  std::printf("variant:             %s + post-link\n", variantName(V));
  std::printf("eval cycles:         %.0f (variant %.0f, plain %.0f)\n",
              PL.EvalCyclesMean, PL.Base.EvalCyclesMean,
              Base.EvalCyclesMean);
  std::printf("speedup vs variant:  %s\n",
              formatSignedPercent(VsVariant).c_str());
  std::printf("speedup vs plain:    %s\n",
              formatSignedPercent(VsPlain).c_str());
  std::printf("mapped sample rate:  %.1f%% (%llu of %llu LBR endpoints)\n",
              S.Map.MappedSampleRate * 100.0,
              static_cast<unsigned long long>(S.Map.LBRResolved),
              static_cast<unsigned long long>(S.Map.LBREndpoints));
  std::printf("transforms:          %u folded, %u reordered, %u split "
              "(%u blocks)%s\n",
              S.FuncsFolded, S.FuncsReordered, S.FuncsSplit, S.BlocksSplit,
              S.TransformsGated
                  ? " — layout transforms gated: low mapped rate"
                  : "");
  if (S.Map.StaleProfiles)
    std::printf("stale profiles:      %u routed through the matcher "
                "(%u recovered, %u dropped)\n",
                S.Map.StaleProfiles, S.Map.StaleRecovered,
                S.Map.StaleDropped);
  std::printf("text bytes:          %llu -> %llu\n",
              static_cast<unsigned long long>(S.TextBytesBefore),
              static_cast<unsigned long long>(S.TextBytesAfter));
  std::printf("train guard:         %s (train cycles %llu -> %llu)\n",
              PL.RewriteKept ? "rewrite shipped"
                             : "rewrite rejected, variant binary shipped",
              static_cast<unsigned long long>(PL.TrainCyclesVariant),
              static_cast<unsigned long long>(PL.TrainCyclesRewrite));
  std::printf("exit value:          %lld (variant %lld, plain %lld%s)\n",
              static_cast<long long>(PL.ExitValue),
              static_cast<long long>(PL.Base.ExitValue),
              static_cast<long long>(Base.ExitValue),
              ExitOk ? ", identical" : " — MISMATCH!");
  return ExitOk ? 0 : 1;
}

int cmdProfile(int argc, char **argv) {
  PGOVariant V;
  if (!parseVariant(argv[3], V)) {
    std::fprintf(stderr, "unknown variant '%s'\n", argv[3]);
    return 2;
  }
  ExperimentConfig Config;
  if (!makeConfig(argv[2], argc > 4 ? argv[4] : nullptr, Config))
    return usage();
  PGODriver Driver(Config);
  VariantOutcome Out = Driver.run(V);
  if (!Out.Profile.Has) {
    std::fprintf(stderr, "variant '%s' produces no profile\n",
                 variantName(V));
    return 1;
  }
  std::string Text =
      Out.Profile.IsCS
          ? serializeContextProfile(Out.Profile.CS)
          : serializeFlatProfile(Out.Profile.Flat, Out.Profile.IsInstr);
  std::fputs(Text.c_str(), stdout);
  return 0;
}

int cmdCompare(int argc, char **argv) {
  ExperimentConfig Config;
  if (!makeConfig(argv[2], argc > 3 ? argv[3] : nullptr, Config))
    return usage();
  PGODriver Driver(Config);
  const VariantOutcome &Base = Driver.baseline();
  TextTable Table({"variant", "profiling overhead", "vs plain", "size"});
  for (PGOVariant V : {PGOVariant::Instr, PGOVariant::AutoFDO,
                       PGOVariant::CSSPGOProbeOnly, PGOVariant::CSSPGOFull,
                       PGOVariant::Trace}) {
    VariantOutcome Out = Driver.run(V);
    Table.addRow({variantName(V),
                  formatSignedPercent(PGODriver::overheadPct(Out, Base)),
                  formatSignedPercent(PGODriver::improvementPct(Out, Base)),
                  formatBytes(Out.CodeSizeBytes)});
  }
  std::printf("%s", Table.render().c_str());
  return 0;
}

int cmdIR(int argc, char **argv) {
  ExperimentConfig Config;
  if (!makeConfig(argv[2], argc > 3 ? argv[3] : nullptr, Config))
    return usage();
  auto M = generateProgram(Config.Workload);
  std::fputs(printModule(*M).c_str(), stdout);
  return 0;
}

int cmdFuzz(int argc, char **argv) {
  FuzzOptions Opts;
  if (argc > 2) {
    unsigned long long N = 0;
    if (!cli::parseUnsigned(argv[2], N) || N == 0) {
      std::fprintf(stderr, "fuzz: bad iteration count '%s'\n", argv[2]);
      return 2;
    }
    Opts.Iterations = static_cast<unsigned>(N);
  }
  if (argc > 3) {
    unsigned long long S = 0;
    // Base 0: accepts the 0x-prefixed seeds the failure report prints.
    if (!cli::parseUnsigned(argv[3], S, 0)) {
      std::fprintf(stderr, "fuzz: bad seed '%s'\n", argv[3]);
      return 2;
    }
    Opts.BaseSeed = S;
  }
  return runProfileFuzz(Opts);
}

int cmdConvert(int, char **argv) {
  std::string In;
  if (!readFileAll(argv[2], In)) {
    std::fprintf(stderr, "convert: cannot read '%s'\n", argv[2]);
    return 1;
  }
  std::string Out;
  if (isStoreBytes(In)) {
    // Binary -> text.
    Expected<ProfileBundle> Bundle = loadStoreBundle(In);
    if (!Bundle) {
      std::fprintf(stderr, "convert: %s: %s\n", argv[2],
                   Bundle.status().message().c_str());
      return 1;
    }
    Out = Bundle->IsCS ? serializeContextProfile(Bundle->CS)
                       : serializeFlatProfile(Bundle->Flat, Bundle->IsInstr);
  } else {
    // Text -> binary.
    StoreWriteOptions WO;
    WO.CompactNames = G.CompactNames;
    if (looksLikeContextText(In)) {
      ContextProfile CS;
      if (!parseContextProfile(In, CS)) {
        std::fprintf(stderr, "convert: '%s' is not a valid context profile\n",
                     argv[2]);
        return 1;
      }
      Out = writeStore(contextViewOf(CS), {}, WO);
    } else {
      FlatProfile Flat;
      bool Exact = false;
      if (!parseFlatProfile(In, Flat, &Exact)) {
        std::fprintf(stderr, "convert: '%s' is not a valid profile\n",
                     argv[2]);
        return 1;
      }
      Out = writeStore(flatViewOf(Flat), {}, WO, Exact);
    }
  }
  if (!writeFileAll(argv[3], Out)) {
    std::fprintf(stderr, "convert: cannot write '%s'\n", argv[3]);
    return 1;
  }
  return 0;
}

int storeInspect(const char *Path, bool Layout) {
  std::string Data;
  if (!readFileAll(Path, Data)) {
    std::fprintf(stderr, "store: cannot read '%s'\n", Path);
    return 1;
  }
  Expected<ProfileStore> S = ProfileStore::open(std::move(Data));
  if (!S) {
    std::fprintf(stderr, "store: %s: %s\n", Path,
                 S.status().message().c_str());
    return 1;
  }
  std::printf("shape:        %s\n", S->isCS() ? "context-sensitive" : "flat");
  std::printf("kind:         %s%s\n",
              S->kind() == ProfileKind::ProbeBased ? "probe" : "line",
              S->isInstr() ? " (exact counts)" : "");
  std::printf("names:        %s\n", S->compactNames() ? "compact (guid)"
                                                      : "full");
  std::printf("size:         %s\n", formatBytes(S->sizeBytes()).c_str());
  std::printf("functions:    %zu\n", S->numFunctions());
  std::printf("total samples: %llu\n",
              static_cast<unsigned long long>(S->totalSamples()));
  std::printf("sections:\n");
  for (const auto &[Name, Size] : S->sectionSizes())
    std::printf("  %-12s %s\n", Name.c_str(), formatBytes(Size).c_str());
  std::printf("epochs:       %zu\n", S->epochs().size());
  for (size_t I = 0; I != S->epochs().size(); ++I) {
    const EpochInfo &E = S->epochs()[I];
    std::printf("  #%zu time %llu, %llu samples, decay %u/1000\n", I,
                static_cast<unsigned long long>(E.Timestamp),
                static_cast<unsigned long long>(E.TotalSamples),
                E.DecayPermille);
  }
  if (Layout) {
    // Physical file layout: where every section sits, then the payload
    // tiles — the directly-addressable slices the zero-copy readers
    // cursor over without touching the rest of the container.
    std::printf("layout:\n");
    std::printf("  %-12s %10s %10s\n", "section", "offset", "size");
    for (const auto &[Name, Off, Size] : S->sectionLayout())
      std::printf("  %-12s %10llu %10llu\n", Name.c_str(),
                  static_cast<unsigned long long>(Off),
                  static_cast<unsigned long long>(Size));
    std::printf("tiles:\n");
    for (size_t I = 0; I != S->numFunctions(); ++I) {
      auto [Off, Size] = S->functionTile(I);
      std::printf("  %10llu %10llu  %s\n",
                  static_cast<unsigned long long>(Off),
                  static_cast<unsigned long long>(Size),
                  std::string(S->functionName(I)).c_str());
    }
  }
  return 0;
}

int storeIngest(int argc, char **argv) {
  // store ingest <file> <workload> <variant> [scale]
  if (argc < 6)
    return usage();
  PGOVariant V;
  if (!parseVariant(argv[5], V) || V == PGOVariant::None) {
    std::fprintf(stderr, "store: variant '%s' produces no profile\n",
                 argv[5]);
    return 2;
  }
  std::string Bytes; // Missing file = create a fresh store.
  readFileAll(argv[3], Bytes);

  ExperimentConfig Config;
  if (!makeConfig(argv[4], argc > 6 ? argv[6] : nullptr, Config))
    return usage();
  PGODriver Driver(Config);
  VariantOutcome Out = Driver.run(V);
  if (!Out.Profile.Has) {
    std::fprintf(stderr, "store: no profile generated\n");
    return 1;
  }

  ProfilePipeline Pipeline(PipelineOptions()
                               .decay(G.DecayPermille)
                               .compactNames(G.CompactNames));
  if (Status St = Pipeline.ingest(Bytes, Out.Profile, G.EpochTimestamp);
      !St) {
    std::fprintf(stderr, "store: %s\n", St.message().c_str());
    return 1;
  }
  if (!writeFileAll(argv[3], Bytes)) {
    std::fprintf(stderr, "store: cannot write '%s'\n", argv[3]);
    return 1;
  }
  const PipelineStats &PS = Pipeline.stats();
  size_t EpochsNow = 0;
  if (Expected<ProfileStore> Now = ProfileStore::open(std::string(Bytes)))
    EpochsNow = Now->epochs().size();
  std::printf("ingested %s/%s epoch into %s (decay %u/1000)\n", argv[4],
              variantName(V), argv[3], G.DecayPermille);
  std::printf("merge:   %llu contexts added, %llu merged, %llu saturated\n",
              static_cast<unsigned long long>(PS.Ingest.ContextsAdded),
              static_cast<unsigned long long>(PS.Ingest.ContextsMerged),
              static_cast<unsigned long long>(PS.Ingest.SaturatedCounts));
  std::printf("verify:  %s\n", PS.Verify.str().c_str());
  std::printf("epochs:  %zu\n", EpochsNow);
  return 0;
}

int cmdStore(int argc, char **argv) {
  bool Layout = cli::takeBoolFlag(argc, argv, "--layout");
  if (const char *Flag = cli::firstFlag(argc, argv)) {
    std::fprintf(stderr, "unknown option '%s'\n", Flag);
    return usage();
  }
  if (std::strcmp(argv[2], "inspect") == 0 && argc > 3)
    return storeInspect(argv[3], Layout);
  if (Layout) {
    std::fprintf(stderr, "--layout only applies to store inspect\n");
    return usage();
  }
  if (std::strcmp(argv[2], "ingest") == 0)
    return storeIngest(argc, argv);
  return usage();
}

/// serve: drive the continuous-profiling service. One "pass" streams
/// --epochs epochs end to end and prints the dashboard; passes repeat
/// forever unless --exit-after-drain.
int cmdServe(int argc, char **argv) {
  unsigned long long Hosts = 32, NumServices = 3, Epochs = 8, Seed = 1,
                     ScalePermille = 50, QueueBound = 16, DriftEvery = 0;
  std::string Err;
  if (!cli::takeUnsignedFlag(argc, argv, "--hosts", Hosts, Err) ||
      !cli::takeUnsignedFlag(argc, argv, "--services", NumServices, Err) ||
      !cli::takeUnsignedFlag(argc, argv, "--epochs", Epochs, Err) ||
      !cli::takeUnsignedFlag(argc, argv, "--seed", Seed, Err) ||
      !cli::takeUnsignedFlag(argc, argv, "--scale", ScalePermille, Err) ||
      !cli::takeUnsignedFlag(argc, argv, "--queue-bound", QueueBound, Err) ||
      !cli::takeUnsignedFlag(argc, argv, "--drift-every", DriftEvery, Err)) {
    std::fprintf(stderr, "serve: %s\n", Err.c_str());
    return 2;
  }
  bool ExitAfterDrain = cli::takeBoolFlag(argc, argv, "--exit-after-drain");
  if (const char *Flag = cli::firstFlag(argc, argv)) {
    std::fprintf(stderr, "serve: unknown option '%s'\n", Flag);
    return 2;
  }
  if (Epochs == 0 || Hosts == 0 || NumServices == 0 || ScalePermille == 0) {
    std::fprintf(stderr, "serve: --hosts, --services, --epochs and --scale "
                         "must be nonzero\n");
    return 2;
  }

  ServiceConfig SC;
  SC.Fleet.Hosts = static_cast<unsigned>(Hosts);
  SC.Fleet.Services = static_cast<unsigned>(NumServices);
  SC.Fleet.Epochs = static_cast<unsigned>(Epochs);
  SC.Fleet.Seed = Seed;
  SC.Fleet.RequestScale = static_cast<double>(ScalePermille) / 1000.0;
  SC.Shards = G.Parallelism;
  SC.QueueBound = static_cast<size_t>(QueueBound);
  SC.DecayPermille = G.DecayPermille;
  SC.CompactNames = G.CompactNames;
  SC.DriftEveryEpochs = static_cast<unsigned>(DriftEvery);

  ProfileService Svc(SC);
  for (;;) {
    if (Status St = Svc.run(static_cast<unsigned>(Epochs)); !St) {
      std::fprintf(stderr, "serve: %s\n", St.message().c_str());
      return 1;
    }
    FleetSnapshot Snap = Svc.snapshot();
    std::fputs((G.JSON ? Snap.toJSON() : Snap.toText()).c_str(), stdout);
    std::fflush(stdout);
    if (ExitAfterDrain)
      return 0;
  }
}


/// `train [scale]`: the longitudinal release-train simulator
/// (train/ReleaseTrain.h). The exit status pins the train's invariants —
/// every release Full-verified and semantics-preserving — so the CI
/// smoke can gate on it.
int cmdTrain(int argc, char **argv) {
  bool PostLink = cli::takeBoolFlag(argc, argv, "--postlink");
  std::string Workload = "AdRanker", Policy = "all", Variant = "csspgo", Err;
  unsigned long long Releases = 4, Seed = 1;
  if (!cli::takeValueFlag(argc, argv, "--archetype", Workload, Err) ||
      !cli::takeValueFlag(argc, argv, "--policy", Policy, Err) ||
      !cli::takeValueFlag(argc, argv, "--variant", Variant, Err) ||
      !cli::takeUnsignedFlag(argc, argv, "--releases", Releases, Err) ||
      !cli::takeUnsignedFlag(argc, argv, "--seed", Seed, Err)) {
    std::fprintf(stderr, "train: %s\n", Err.c_str());
    return 2;
  }
  if (const char *Flag = cli::firstFlag(argc, argv)) {
    std::fprintf(stderr, "train: unknown option '%s'\n", Flag);
    return 2;
  }
  train::TrainConfig TC;
  if (!parseVariant(Variant, TC.Variant) ||
      TC.Variant == PGOVariant::None) {
    std::fprintf(stderr, "train: variant '%s' produces no profile\n",
                 Variant.c_str());
    return 2;
  }
  if (Releases == 0) {
    std::fprintf(stderr, "train: --releases must be nonzero\n");
    return 2;
  }
  if (Policy != "all") {
    train::StalePolicy P;
    if (!train::parsePolicy(Policy, P)) {
      std::fprintf(stderr,
                   "train: unknown --policy '%s' (drop|match|ingest|all)\n",
                   Policy.c_str());
      return 2;
    }
    TC.Policies = {P};
  }
  if (!makeConfig(Workload, argc > 2 ? argv[2] : nullptr, TC.Exp))
    return usage();
  TC.Releases = static_cast<unsigned>(Releases);
  TC.DriftSeed = Seed;
  TC.PostLink = PostLink;
  TC.Jobs = std::max(1u, G.Parallelism);
  // The global --decay default (1000, plain merge) is an ingest-command
  // default; the train's store folds default to the library's 500.
  if (G.DecayPermille != 1000)
    TC.DecayPermille = G.DecayPermille;

  train::TrainResult R = runTrain(TC);
  if (G.JSON) {
    std::fputs(R.toJSON().c_str(), stdout);
    return R.allClean() ? 0 : 1;
  }
  std::printf("workload:  %s (%u requests/release)\n", Workload.c_str(),
              TC.Exp.Workload.Requests);
  std::printf("variant:   %s, %u releases, drift seed %llu\n",
              variantName(TC.Variant), TC.Releases,
              static_cast<unsigned long long>(TC.DriftSeed));
  TextTable Table({"rel", "drift", "edits", "oracle", "policy", "vs plain",
                   "vs oracle", "overlap", "stale d/m", "store"});
  for (const train::ReleaseRow &Row : R.Rows) {
    bool First = true;
    for (const train::PolicyCell &C : Row.Cells) {
      char Overlap[32];
      std::snprintf(Overlap, sizeof(Overlap), "%.3f", C.Overlap);
      Table.addRow({First ? std::to_string(Row.Release) : "",
                    First ? Row.DriftName : "",
                    First ? std::to_string(Row.DriftEdits) : "",
                    First ? formatSignedPercent(Row.OracleVsPlainPct) : "",
                    train::policyName(C.Policy),
                    formatSignedPercent(C.VsPlainPct),
                    formatSignedPercent(C.VsOraclePct), Overlap,
                    std::to_string(C.StaleDropped) + "/" +
                        std::to_string(C.StaleMatched),
                    First ? std::to_string(Row.StoreEpochs) + "@" +
                                std::to_string(Row.StoreTimestamp)
                          : ""});
      First = false;
    }
    if (Row.HasPostLink)
      Table.addRow({"", "", "", "", "bolt",
                    Row.RewriteKept ? "kept" : "plain",
                    formatSignedPercent(Row.PostLinkVsOraclePct), "-", "-",
                    ""});
  }
  std::printf("%s", Table.render().c_str());
  for (const train::StalePolicy P : TC.Policies)
    std::printf("aggregate %-6s %s\n", train::policyName(P),
                formatSignedPercent(R.aggregate(P)).c_str());
  std::printf("invariants: %s\n",
              R.allClean() ? "every release Full-verified, semantics "
                             "preserved"
                           : "VIOLATED — see trajectory");
  return R.allClean() ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Dispatch: the shared table (ExpCLI) names the surface; this maps each
// entry to its handler.
//===----------------------------------------------------------------------===//

struct HandlerEntry {
  const char *Name;
  int (*Handler)(int argc, char **argv);
};

const HandlerEntry Handlers[] = {
    {"run", cmdRun},       {"trace", cmdTrace},     {"bolt", cmdBolt},
    {"profile", cmdProfile}, {"compare", cmdCompare}, {"ir", cmdIR},
    {"convert", cmdConvert}, {"store", cmdStore},   {"fuzz", cmdFuzz},
    {"serve", cmdServe},   {"train", cmdTrain},     {"list", cmdList},
};

int usage() {
  std::fputs(cli::usageText().c_str(), stderr);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string Err;
  if (!cli::parseGlobalFlags(argc, argv, G, Err)) {
    std::fprintf(stderr, "%s\n", Err.c_str());
    return usage();
  }
  if (argc < 2)
    return usage();

  const cli::SubcommandInfo *Info = cli::findSubcommand(argv[1]);
  if (!Info) {
    std::fprintf(stderr, "unknown subcommand '%s'\n", argv[1]);
    return usage();
  }
  if (cli::takeBoolFlag(argc, argv, "--help")) {
    std::fputs(cli::helpText(*Info).c_str(), stdout);
    return 0;
  }
  if (!Info->LocalFlags) {
    if (const char *Flag = cli::firstFlag(argc, argv)) {
      std::fprintf(stderr, "unknown option '%s'\n", Flag);
      return usage();
    }
  }
  if (argc - 2 < Info->MinOperands)
    return usage();
  for (const HandlerEntry &H : Handlers)
    if (std::strcmp(argv[1], H.Name) == 0)
      return H.Handler(argc, argv);
  return usage(); // Table entry without a handler: unreachable.
}
