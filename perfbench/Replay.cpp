//===- perfbench/Replay.cpp - Traced replays of PGO experiments -----------===//

#include "Replay.h"

#include "codegen/Linker.h"
#include "inference/ProfileInference.h"
#include "ir/Verifier.h"
#include "pgo/ProfilePipeline.h"
#include "probe/ProbeInserter.h"
#include "profile/ProfileArena.h"
#include "store/ProfileStore.h"
#include "support/ThreadPool.h"
#include "workload/Workloads.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <optional>

using namespace csspgo;

namespace perfbench {

using Scope = SpanLog::Scope;

namespace {

// Size cutoffs of the fallbacks the replay counts from outside: MCF falls
// back to localSmooth above 600 blocks (inference/ProfileInference.cpp),
// Ext-TSP to greedy chaining above 64 (opt/ExtTSPLayout.cpp), and the
// mid-level fixpoint stops after 3 rounds (opt/PassManager.cpp).
constexpr size_t InferenceBlockCap = 600;
constexpr size_t LayoutBlockCap = 64;
constexpr int MidLevelRounds = 3;

bool usesProbes(PGOVariant V) { return V == PGOVariant::CSSPGOFull; }

/// Mirrors PGODriver::makeBuildConfig.
BuildConfig makeBuildConfig(const ExperimentConfig &C, PGOVariant V) {
  BuildConfig B;
  B.Variant = V;
  B.Opt = C.Opt;
  B.Inline = C.Inline;
  B.Loader = C.Loader;
  B.EnableInference = C.EnableInference;
  if (C.VerifyProfiles)
    B.Loader.Verify = VerifyLevel::Full;
  if (V == PGOVariant::CSSPGOFull && C.RunPreInliner)
    B.Loader.InlineHotContexts = false;
  return B;
}

/// Mirrors inferModuleProfile, counting the functions MCF solves and the
/// ones above the cutoff that get localSmooth instead.
void infer(Module &M, SpanLog &Log, Counters &K) {
  Scope S(Log, "inference.module");
  for (auto &F : M.Functions) {
    bool Any = false;
    for (auto &BB : F->Blocks)
      Any |= BB->HasCount && BB->Count > 0;
    if (!Any || F->Blocks.empty())
      continue; // inferFunctionProfile is a no-op here.
    K["inference.funcs"] += 1;
    K["inference.blocks"] += static_cast<double>(F->Blocks.size());
    bool Capped = F->Blocks.size() > InferenceBlockCap;
    K["inference.capped_funcs"] += Capped;
    Scope FS(Log, Capped ? "inference.smooth" : "inference.mcf");
    inferFunctionProfile(*F);
  }
}

void verify(Module &M, const char *When, SpanLog &Log) {
  Scope S(Log, "ir.verify");
  verifyOrDie(M, When);
}

/// Mirrors runMidLevelPipeline, one span per pass call.
void midLevel(Module &M, const OptOptions &Opts, SpanLog &Log, Counters &K) {
  {
    Scope S(Log, "opt.midlevel");
    for (auto &F : M.Functions) {
      for (int Round = 0; Round != MidLevelRounds; ++Round) {
        unsigned Changed = 0;
        auto Run = [&](const char *Name,
                       unsigned (*Pass)(Function &, const OptOptions &)) {
          Scope PS(Log, Name);
          Changed += Pass(*F, Opts);
        };
        if (Opts.EnableConstantFold)
          Run("opt.constantfold", runConstantFold);
        if (Opts.EnableSimplifyCFG)
          Run("opt.simplifycfg", runSimplifyCFG);
        if (Opts.EnableJumpThreading)
          Run("opt.jumpthreading", runJumpThreading);
        if (Opts.EnableIfConvert)
          Run("opt.ifconvert", runIfConvert);
        if (Round == 0 && Opts.EnableLoopUnroll)
          Run("opt.unroll", runLoopUnroll);
        if (Opts.EnableCodeMotion)
          Run("opt.codemotion", runCodeMotion);
        if (Opts.EnableTailMerge)
          Run("opt.tailmerge", runTailMerge);
        if (Opts.EnableDCE)
          Run("opt.dce", runDCE);
        if (Opts.EnableSimplifyCFG)
          Run("opt.simplifycfg", runSimplifyCFG);
        K["opt.midlevel_changes"] += Changed;
        if (!Changed)
          break;
        if (Round == MidLevelRounds - 1)
          K["opt.midlevel_capped_funcs"] += 1;
      }
    }
  }
  verify(M, "after mid-level pipeline", Log);
}

/// Mirrors runLatePipeline, counting functions laid out by the greedy
/// fallback instead of Ext-TSP.
void late(Module &M, const OptOptions &Opts, SpanLog &Log, Counters &K) {
  {
    Scope S(Log, "opt.late");
    for (auto &F : M.Functions) {
      if (Opts.EnableFunctionSplit) {
        Scope PS(Log, "opt.split");
        runFunctionSplit(*F, Opts);
      }
      if (Opts.EnableLayout) {
        K["opt.layout_capped_funcs"] +=
            F->Blocks.size() > LayoutBlockCap && F->getEntry()->HasCount;
        Scope PS(Log, "opt.layout");
        runExtTSPLayout(*F, Opts);
      }
    }
  }
  verify(M, "after late pipeline", Log);
}

/// Mirrors buildWithPGO for the None, AutoFDO and CSSPGOFull variants.
/// Returns false where buildWithPGO aborts (a transport failure).
bool build(const Module &Source, const BuildConfig &Config,
           const ProfileBundle *Profile, BuildResult &Result, SpanLog &Log,
           Counters &K) {
  Scope Root(Log, "bench.build");
  {
    Scope S(Log, "ir.clone");
    Result.IR = Source.clone();
  }
  Module &M = *Result.IR;
  if (usesProbes(Config.Variant)) {
    Scope S(Log, "probe.insert");
    insertProbes(M, AnchorKind::PseudoProbe);
    Result.ProbeDescs = ProbeTable::fromModule(M);
  }

  bool Has = Profile && Profile->Has;
  if (Has) {
    {
      Scope S(Log, "loader.apply");
      ProfilePipeline Pipeline(PipelineOptions()
                                   .transport(Profile->Transport)
                                   .loader(Config.Loader));
      Expected<LoaderStats> Stats = Pipeline.apply(M, *Profile);
      if (!Stats)
        return false;
      Result.Loader = Stats.take();
    }
    K["loader.annotated"] += Result.Loader.FunctionsAnnotated;
    K["loader.inlined"] += Result.Loader.InlinedCallsites;
    K["loader.stale_matched"] += Result.Loader.StaleMatched;
    K["loader.stale_dropped"] += Result.Loader.StaleDropped;
    if (Config.EnableInference)
      infer(M, Log, K);
  }
  verify(M, "after profile loading", Log);

  InlineParams Inline = Config.Inline;
  if (Has && Result.Loader.HotThresholdUsed)
    Inline.HotCallsiteCount = Result.Loader.HotThresholdUsed;
  {
    Scope S(Log, "opt.inliner");
    Result.Inliner = runBottomUpInliner(M, Inline);
  }
  K["opt.inlined"] += Result.Inliner.NumInlined;
  verify(M, "after bottom-up inlining", Log);
  if (Has && Config.EnableInference)
    infer(M, Log, K);

  OptOptions Opt = Config.Opt;
  if (Has && Profile->Timing && !Profile->Timing->empty())
    Opt.Timing = Profile->Timing.get();
  midLevel(M, Opt, Log, K);
  late(M, Opt, Log, K);

  {
    Scope S(Log, "codegen.compile");
    Result.Bin = compileToBinary(M);
  }
  K["codegen.text_bytes"] += static_cast<double>(Result.Bin->textSize());
  return true;
}

RunResult run(const Binary &Bin, std::vector<int64_t> &Mem,
              const ExecConfig &EC, const char *Name, SpanLog &Log,
              Counters &K) {
  RunResult R;
  {
    Scope S(Log, Name);
    R = execute(Bin, "main", Mem, EC);
  }
  K["sim.instructions"] += static_cast<double>(R.Instructions);
  return R;
}

std::vector<int64_t> input(const WorkloadConfig &W, uint64_t Seed,
                           double Shift, SpanLog &Log) {
  Scope S(Log, "workload.input");
  return generateInput(W, Seed, Shift);
}

void countProfGen(const CSProfileGenStats &S, Counters &K) {
  K["profgen.samples"] += static_cast<double>(S.Samples);
  K["profgen.unsynced_samples"] += static_cast<double>(S.UnsyncedSamples);
}

} // namespace

VariantSummary summarize(const VariantOutcome &O) {
  VariantSummary S;
  S.Variant = O.Variant;
  S.CodeSizeBytes = O.CodeSizeBytes;
  S.ExitValue = O.ExitValue;
  S.EvalCycles = O.EvalCycles;
  S.EvalCyclesMean = O.EvalCyclesMean;
  return S;
}

VariantSummary replayVariant(const ExperimentConfig &C, const Module &Source,
                             PGOVariant V, SpanLog &Log, Counters &K) {
  VariantSummary Out;
  Out.Variant = V;
  BuildResult ProfBuild;
  if (!build(Source, makeBuildConfig(C, V), nullptr, ProfBuild, Log, K)) {
    Out.Failed = true;
    return Out;
  }

  // Profile collection (PGODriver::collectProfile for the sampling
  // variants), or the plain binary's train-input reference run.
  ProfileBundle Profile;
  std::vector<int64_t> TrainMem = input(C.Workload, C.TrainSeed, 0.0, Log);
  if (V == PGOVariant::None) {
    ExecConfig Plain;
    Plain.Costs = C.Costs;
    run(*ProfBuild.Bin, TrainMem, Plain, "sim.train", Log, K);
  } else {
    ExecConfig Exec;
    Exec.Costs = C.Costs;
    Exec.Sampler.Enabled = true;
    Exec.Sampler.PeriodCycles = C.SamplePeriodCycles;
    Exec.Sampler.Precise = C.PreciseSampling;
    Exec.Sampler.Seed = C.TrainSeed;
    Exec.Trace = C.Trace;
    Exec.Trace.Enabled = false;
    RunResult Train = run(*ProfBuild.Bin, TrainMem, Exec, "sim.train", Log, K);

    PipelineOptions PO;
    PO.InferMissingFrames = C.InferMissingFrames;
    PO.Parallelism = C.Parallelism;
    PO.Transport = C.Transport;
    PO.Verify = C.VerifyProfiles ? VerifyLevel::Full : VerifyLevel::Off;
    PO.Strict = C.VerifyStrict;
    if (V == PGOVariant::AutoFDO) {
      PO.Kind = ProfGenKind::AutoFDO;
    } else {
      PO.Kind = ProfGenKind::CS;
      PO.trimColdContexts(C.TrimColdContexts, C.TrimThresholdDivisor);
      PO.RunPreInliner = C.RunPreInliner;
    }
    ProfilePipeline Pipeline(PO);
    Expected<ProfileBundle> Generated = [&] {
      Scope S(Log, "profgen.generate");
      return Pipeline.generate(*ProfBuild.Bin,
                               usesProbes(V) ? &ProfBuild.ProbeDescs : nullptr,
                               Train.Samples);
    }();
    if (!Generated) {
      Out.Failed = true;
      return Out;
    }
    Profile = Generated.take();
    countProfGen(Pipeline.stats().ProfGen, K);
  }

  BuildResult Opt;
  if (!build(Source, makeBuildConfig(C, V), Profile.Has ? &Profile : nullptr,
             Opt, Log, K)) {
    Out.Failed = true;
    return Out;
  }
  if (C.VerifyProfiles && C.VerifyStrict && Profile.Has &&
      Opt.Loader.VerifyViolations)
    Out.Failed = true;
  Out.CodeSizeBytes = Opt.Bin->textSize();

  ExecConfig Eval;
  Eval.Costs = C.Costs;
  long double Sum = 0;
  for (unsigned E = 0; E != C.EvalRuns; ++E) {
    std::vector<int64_t> EvalMem =
        input(C.Workload, C.EvalSeedBase + E, C.EvalShift, Log);
    RunResult R = run(*Opt.Bin, EvalMem, Eval, "sim.eval", Log, K);
    Out.EvalCycles.push_back(R.Cycles);
    Sum += R.Cycles;
    if (E == 0)
      Out.ExitValue = R.ExitValue;
  }
  Out.EvalCyclesMean =
      C.EvalRuns ? static_cast<double>(Sum / C.EvalRuns) : 0;
  return Out;
}

//===----------------------------------------------------------------------===//
// Fleet replay.
//===----------------------------------------------------------------------===//

namespace {

/// One deployed binary version of a service (ProfileService's Release).
struct Release {
  std::shared_ptr<const Module> Source;
  std::unique_ptr<Binary> Bin;
  ProbeTable Probes;
};

std::shared_ptr<Release> buildRelease(const Module &Source, SpanLog &Log,
                                      Counters &K) {
  Scope S(Log, "service.release_build");
  auto R = std::make_shared<Release>();
  {
    Scope CS(Log, "ir.clone");
    R->Source = std::shared_ptr<const Module>(Source.clone().release());
  }
  BuildConfig BC;
  BC.Variant = PGOVariant::CSSPGOFull;
  BuildResult B;
  build(Source, BC, nullptr, B, Log, K); // No profile: cannot fail.
  R->Bin = std::move(B.Bin);
  R->Probes = B.ProbeDescs;
  return R;
}

struct FleetService {
  WorkloadConfig Workload;
  std::unique_ptr<Module> Current;
  std::shared_ptr<Release> Rel;
  unsigned Releases = 1;
  ProfilePipeline Pipeline;
  std::string StoreBytes;
};

/// What one worker produced for one host assignment.
struct HostResult {
  ContextProfile CS;
  uint64_t Samples = 0;
  SpanLog Log;
  Counters K;
};

unsigned workerTid() {
  static std::atomic<unsigned> Next{1};
  thread_local unsigned Tid = Next++;
  return Tid;
}

/// Mirrors the service's profileHost.
void profileHost(const Release &R, const WorkloadConfig &W, const HostTask &T,
                 HostResult &Out) {
  SpanLog &Log = Out.Log;
  Log.setRequest("e" + std::to_string(T.Epoch) + "/h" +
                 std::to_string(T.Host));
  Scope Root(Log, "bench.host");
  std::vector<int64_t> Mem = input(W, T.InputSeed, 0.0, Log);
  ExecConfig EC;
  EC.Sampler.Enabled = true;
  EC.Sampler.PeriodCycles = T.SamplePeriodCycles;
  EC.Sampler.Precise = true;
  EC.Sampler.Seed = T.SamplerSeed;
  RunResult Run = run(*R.Bin, Mem, EC, "sim.sampled", Log, Out.K);

  ProfGenOptions GO;
  GO.Kind = ProfGenKind::CS;
  GO.Parallelism = 1;
  GO.Verify = VerifyLevel::Off;
  ProfGenResult PR;
  {
    Scope S(Log, "profgen.host");
    ProfileGenerator Gen(*R.Bin, &R.Probes, GO);
    PR = Gen.generate(Run.Samples);
  }
  countProfGen(PR.Stats, Out.K);
  Out.CS = std::move(PR.CS);
  Out.Samples = Out.CS.totalSamples();
}

struct Batch {
  std::vector<std::shared_ptr<Release>> Rels;
  std::vector<HostTask> Tasks;
  std::vector<std::unique_ptr<HostResult>> Results; ///< Indexed by host.
  std::vector<std::future<void>> Done;
};

} // namespace

std::vector<std::string> replayFleet(const ServiceConfig &SC, unsigned Epochs,
                                     unsigned Workers, SpanLog &Log,
                                     Counters &K) {
  FleetSim Fleet(SC.Fleet);
  const FleetConfig &FC = Fleet.config();
  std::vector<std::unique_ptr<FleetService>> Services;
  {
    Log.setRequest("setup");
    Scope Root(Log, "bench.setup");
    for (unsigned S = 0; S != FC.Services; ++S) {
      auto Svc = std::make_unique<FleetService>();
      Svc->Workload = Fleet.serviceWorkload(S);
      {
        Scope GS(Log, "workload.generate");
        Svc->Current = generateProgram(Svc->Workload);
      }
      Svc->Rel = buildRelease(*Svc->Current, Log, K);
      PipelineOptions PO;
      PO.kind(ProfGenKind::CS)
          .verify(VerifyLevel::Full)
          .strict(true)
          .decay(SC.DecayPermille)
          .compactNames(SC.CompactNames);
      Svc->Pipeline = ProfilePipeline(PO);
      Services.push_back(std::move(Svc));
    }
  }

  ThreadPool Pool(Workers);
  Log.setRequest("pass");
  Scope Pass(Log, "bench.pass");
  const int64_t PassId = Pass.id();

  // Deploys the epoch's releases and hands its host tasks to the pool;
  // the workers run them while the main thread folds the previous epoch.
  auto Produce = [&](unsigned E) {
    auto B = std::make_unique<Batch>();
    if (SC.DriftEveryEpochs && E && E % SC.DriftEveryEpochs == 0) {
      Log.setRequest("e" + std::to_string(E) + "/deploy");
      for (auto &Svc : Services) {
        CFGDriftKind Kind = Svc->Releases % 2 ? CFGDriftKind::GuardInsert
                                              : CFGDriftKind::BlockSplit;
        {
          Scope DS(Log, "workload.drift");
          applyCFGDrift(*Svc->Current, Kind, E);
        }
        Svc->Rel = buildRelease(*Svc->Current, Log, K);
        ++Svc->Releases;
      }
    }
    for (auto &Svc : Services)
      B->Rels.push_back(Svc->Rel);
    B->Tasks = Fleet.epochTasks(E);
    B->Results.resize(FC.Hosts);
    for (const HostTask &T : B->Tasks) {
      auto &Slot = B->Results[T.Host];
      Slot = std::make_unique<HostResult>();
      HostResult *Res = Slot.get();
      const Release *Rel = B->Rels[T.Service].get();
      const WorkloadConfig *W = &Services[T.Service]->Workload;
      B->Done.push_back(Pool.async([Res, Rel, W, T] {
        Res->Log = SpanLog(workerTid());
        profileHost(*Rel, *W, T, *Res);
      }));
    }
    return B;
  };

  std::unique_ptr<Batch> Next = Produce(0);
  for (unsigned E = 0; E != Epochs; ++E) {
    std::unique_ptr<Batch> B = std::move(Next);
    if (E + 1 != Epochs)
      Next = Produce(E + 1);
    for (auto &D : B->Done)
      D.get();
    for (auto &R : B->Results) {
      if (!R)
        continue;
      Log.adopt(std::move(R->Log), PassId);
      for (const auto &[Name, V] : R->K)
        K[Name] += V;
    }

    // Mirrors ProfileService::foldEpoch.
    for (unsigned S = 0; S != FC.Services; ++S) {
      FleetService &Svc = *Services[S];
      Log.setRequest("e" + std::to_string(E) + "/s" + std::to_string(S));
      Scope FS(Log, "bench.fold");
      std::vector<ContextProfileView> HostViews;
      uint64_t EpochSamples = 0;
      ContextProfile Epoch;
      {
        Scope MS(Log, "profile.merge");
        for (unsigned H = 0; H != FC.Hosts; ++H) {
          if (Fleet.serviceOfHost(H) != S || !B->Results[H])
            continue;
          EpochSamples += B->Results[H]->Samples;
          HostViews.push_back(contextViewOf(B->Results[H]->CS));
        }
        std::vector<const ContextProfileView *> Ptrs;
        for (const ContextProfileView &V : HostViews)
          Ptrs.push_back(&V);
        MergeStats Stats;
        Epoch = contextProfileOf(mergeContextViews(Ptrs, Stats, true));
      }
      if (!EpochSamples) {
        K["service.epochs_dropped"] += 1;
        continue;
      }
      ProfileBundle Bundle;
      Bundle.Has = true;
      Bundle.IsCS = true;
      Bundle.CS = std::move(Epoch);
      {
        Scope IS(Log, "store.ingest");
        if (!Svc.Pipeline.ingest(Svc.StoreBytes, Bundle,
                                 Fleet.timestamp(E))) {
          K["service.epochs_dropped"] += 1;
          continue;
        }
      }

      // The post-fold freshness probe: the current release annotated
      // straight from the store, stale profiles matched on the way.
      std::optional<Expected<ProfileStore>> St;
      {
        Scope LS(Log, "store.load");
        St.emplace(ProfileStore::openBorrowed(Svc.StoreBytes));
        if (!*St)
          continue;
        std::vector<std::pair<uint64_t, std::string_view>> Hot;
        for (size_t I = 0; I != (**St).numFunctions(); ++I)
          Hot.emplace_back((**St).functionTotalSamples(I),
                           (**St).functionName(I));
        std::partial_sort(
            Hot.begin(), Hot.begin() + std::min<size_t>(SC.HotTopN, Hot.size()),
            Hot.end(), [](const auto &A, const auto &B) {
              return A.first != B.first ? A.first > B.first
                                        : A.second < B.second;
            });
      }
      std::unique_ptr<Module> Target;
      {
        Scope CS(Log, "ir.clone");
        Target = B->Rels[S]->Source->clone();
      }
      {
        Scope PS(Log, "probe.insert");
        insertProbes(*Target, AnchorKind::PseudoProbe);
      }
      {
        Scope RS(Log, "store.load");
        (**St).resolveNames(*Target);
      }
      Expected<LoaderStats> Probe = [&] {
        Scope AS(Log, "loader.apply");
        return loadProfileFromStore(*Target, **St, LoaderOptions(), true);
      }();
      if (!Probe)
        continue;
      K["loader.annotated"] += Probe->FunctionsAnnotated;
      K["loader.inlined"] += Probe->InlinedCallsites;
      K["loader.stale_matched"] += Probe->StaleMatched;
      K["loader.stale_dropped"] += Probe->StaleDropped;
    }
  }

  std::vector<std::string> Stores;
  for (auto &Svc : Services)
    Stores.push_back(std::move(Svc->StoreBytes));
  return Stores;
}

} // namespace perfbench
