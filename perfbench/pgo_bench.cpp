//===- perfbench/pgo_bench.cpp - End-to-end PGO benchmark program ---------===//
//
// Part of the CSSPGO reproduction project.
//
// Usage:
//   pgo_bench --workload W --seed N --seconds S --trace 0|1 [--trace-out F]
//
// Workloads (each puts a different layer on the critical path):
//   server_hhvm   HHVM preset; plain, AutoFDO and CSSPGO per seed. MCF
//                 inference and Ext-TSP layout dominate the builds.
//   client_clang  ClangProxy preset; plain and CSSPGO per seed. The
//                 mid-level passes dominate; inference is small.
//   fleet_ingest  ProfileService, 32 hosts x 3 services, a drifted release
//                 every 4 epochs, 2 ingestion shards. Sampled simulation,
//                 profgen, merge, store and stale matching; no inference.
//
// The untraced run (--trace 0) drives PGODriver::run / ProfileService::run
// for at least S seconds and reports the end-to-end metrics. The traced
// run (--trace 1) runs one unit of work untraced, replays it with spans
// through each module's public entry points (Replay.h), checks the replay
// reproduced the untraced outputs, and reports per-layer metrics.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics, and the outputs run.py checks against reference.json.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "Spans.h"

#include "support/Hashing.h"
#include "workload/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <string>
#include <vector>

using namespace csspgo;
using namespace perfbench;

namespace {

// A run keeps measuring until both its time is up and it has done at least
// this much work; the simulated metrics are taken from that fixed prefix,
// so they depend only on the seed.
constexpr unsigned MinExperiments = 2;
constexpr unsigned SetupRepeats = 5;
constexpr unsigned FleetPassEpochs = 4;     // One release per pass.
constexpr unsigned FleetQualityEpochs = 16; // Store hashes checked here.

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut;
};

struct CompileWorkload {
  const char *Name;
  const char *Preset;
  std::vector<PGOVariant> Variants; ///< None first.
};

const std::vector<CompileWorkload> &compileWorkloads() {
  static const std::vector<CompileWorkload> W = {
      {"server_hhvm",
       "HHVM",
       {PGOVariant::None, PGOVariant::AutoFDO, PGOVariant::CSSPGOFull}},
      {"client_clang",
       "ClangProxy",
       {PGOVariant::None, PGOVariant::CSSPGOFull}},
  };
  return W;
}

double secondsBetween(uint64_t A, uint64_t B) { return (B - A) * 1e-9; }

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double peakRssMB() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// Starts a new peak-RSS window: hands freed heap back to the OS, then
/// resets VmHWM to the current RSS, so the next peakRssMB() reads the peak
/// of the work in between rather than of everything the process did.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Experiment seed \p K of a run with workload seed \p Seed. Seeds below
/// 1000 draw from one pool of ExperimentPool experiment seeds, starting at
/// a seed-dependent offset; each further thousand is a disjoint pool, so a
/// seed from 1000 up is held out from the default seeds' inputs. A run
/// covers most of its pool, so runs with different seeds time nearly the
/// same mix of inputs, and reference.json can cover every experiment.
constexpr unsigned ExperimentPool = 16;
uint64_t experimentSeed(uint64_t Seed, unsigned K) {
  return Seed / 1000 * 1000 + (Seed % 1000 + K) % ExperimentPool;
}

/// The fig6 configuration of the preset, with the train input (and the
/// sampler seed) and the eval inputs derived from the experiment seed. The
/// program itself stays the preset's: another WorkloadConfig::Seed draws a
/// program whose build cost differs by 2x and whose inference share differs
/// by 5x, which would make each seed a different workload.
ExperimentConfig experimentConfig(const CompileWorkload &W, uint64_t ExpSeed) {
  ExperimentConfig C;
  C.Workload = workloadPreset(W.Preset);
  C.TrainSeed = hashCombine(7, ExpSeed);
  C.EvalSeedBase = 5000 + 1000 * ExpSeed;
  return C;
}

/// The fleet of FleetConfig's default seed, with its sampling period and
/// diurnal swing derived from the workload seed. FleetConfig::Seed would
/// also redraw the three service programs, whose profiling cost differs by
/// up to 30% from one draw to the next.
ServiceConfig fleetConfig(uint64_t Seed) {
  ServiceConfig SC;
  SC.Fleet.Hosts = 32;
  SC.Fleet.Services = 3;
  uint64_t H = hashCombine(0x5eed, Seed);
  SC.Fleet.BaseSamplePeriod = 3901 + 2 * (H % 101);
  SC.Fleet.DiurnalAmplitudePermille =
      300 + static_cast<uint32_t>(H >> 32) % 201;
  SC.DriftEveryEpochs = 4;
  SC.Shards = 2;
  return SC;
}

/// Metrics in report order, each with its unit and group.
class Report {
public:
  void add(const std::string &Group, const std::string &Name, double Value,
           const std::string &Unit) {
    Rows.push_back({Group, Name, Value, Unit});
  }

  void print() const {
    std::string Last;
    for (const Row &R : Rows) {
      if (R.Group != Last)
        std::printf("[%s]\n", R.Group.c_str());
      Last = R.Group;
      std::printf("  %-32s %16.6f %s\n", R.Name.c_str(), R.Value,
                  R.Unit.c_str());
    }
  }

  /// JSON of the rows in \p Groups.
  std::string json(const std::vector<std::string> &Groups) const {
    std::string Out = "{";
    char Buf[96];
    for (const Row &R : Rows) {
      if (std::find(Groups.begin(), Groups.end(), R.Group) == Groups.end())
        continue;
      std::snprintf(Buf, sizeof(Buf), "%.9g", R.Value);
      if (Out.size() > 1)
        Out += ",";
      Out += "\"" + R.Name + "\":{\"value\":" + Buf + ",\"unit\":\"" +
             R.Unit + "\"}";
    }
    return Out + "}";
  }

private:
  struct Row {
    std::string Group, Name;
    double Value;
    std::string Unit;
  };
  std::vector<Row> Rows;
};

struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  Report R;
  std::vector<std::string> MetricGroups;
  std::string Outputs = "{}";
};

void printResult(const Result &Res) {
  Res.R.print();
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s,\"outputs\":%s}\n",
              Res.Failed ? "false" : "true",
              static_cast<unsigned long long>(Res.Attempted),
              static_cast<unsigned long long>(Res.Failed),
              Res.R.json(Res.MetricGroups).c_str(), Res.Outputs.c_str());
}

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Traced-run reporting shared by both workload kinds.
//===----------------------------------------------------------------------===//

/// Turns the span log and counters of a traced run into per-layer metrics.
void addLayerMetrics(Report &R, const SpanLog &Log, const Counters &K,
                     double UntracedS, double TracedS, bool Identical) {
  std::map<std::string, double> Self = selfSecondsByName(Log.spans());
  std::map<std::string, double> Layer;
  double Unattributed = 0, RootS = 0, ReleaseS = 0;
  for (const auto &[Name, S] : Self)
    Layer[Name.substr(0, Name.find('.'))] += S;
  Unattributed = Layer["bench"];
  for (const Span &S : Log.spans()) {
    if (S.Parent < 0)
      RootS += secondsBetween(S.StartNs, S.EndNs);
    if (S.Name == "service.release_build" && S.Request != "setup")
      ReleaseS += secondsBetween(S.StartNs, S.EndNs);
  }

  std::printf("self time by span (s):\n");
  for (const auto &[Name, S] : Self)
    std::printf("  %-24s %10.4f\n", Name.c_str(), S);
  std::printf("self time by layer (s):\n");
  for (const auto &[Name, S] : Layer)
    std::printf("  %-24s %10.4f\n", Name.c_str(), S);

  const std::string G = "trace";
  R.add(G, "bench.replica_identical", Identical, "bool");
  R.add(G, "bench.tracing_overhead_pct",
        UntracedS > 0 ? 100.0 * (TracedS - UntracedS) / UntracedS : 0, "%");
  R.add(G, "bench.unattributed_s", Unattributed, "s");
  R.add(G, "bench.attributed_pct",
        RootS > 0 ? 100.0 * (1 - Unattributed / RootS) : 0, "%");
  if (!Identical)
    return; // Per-layer numbers of a diverged replay mean nothing.

  auto At = [&](const char *Name) {
    auto It = Self.find(Name);
    return It == Self.end() ? 0.0 : It->second;
  };
  auto Count = [&](const char *Name) {
    auto It = K.find(Name);
    return It == K.end() ? 0.0 : It->second;
  };
  const std::string L = "layer";
  R.add(L, "workload.s", Layer["workload"], "s");
  R.add(L, "ir.clone_s", At("ir.clone"), "s");
  R.add(L, "ir.verify_s", At("ir.verify"), "s");
  R.add(L, "probe.insert_s", At("probe.insert"), "s");
  R.add(L, "loader.apply_s", At("loader.apply"), "s");
  R.add(L, "loader.annotated", Count("loader.annotated"), "count");
  R.add(L, "loader.inlined", Count("loader.inlined"), "count");
  R.add(L, "loader.stale_matched", Count("loader.stale_matched"), "count");
  double Matched = Count("loader.stale_matched");
  double Dropped = Count("loader.stale_dropped");
  R.add(L, "loader.match_ratio",
        Matched + Dropped > 0 ? Matched / (Matched + Dropped) : 0, "ratio");
  R.add(L, "inference.s", Layer["inference"], "s");
  R.add(L, "inference.funcs", Count("inference.funcs"), "count");
  R.add(L, "inference.blocks", Count("inference.blocks"), "count");
  R.add(L, "inference.capped_funcs", Count("inference.capped_funcs"), "count");
  R.add(L, "opt.inliner_s", At("opt.inliner"), "s");
  R.add(L, "opt.inlined", Count("opt.inlined"), "count");
  double Mid = 0;
  for (const char *P : {"opt.midlevel", "opt.constantfold", "opt.simplifycfg",
                        "opt.jumpthreading", "opt.ifconvert", "opt.unroll",
                        "opt.codemotion", "opt.tailmerge", "opt.dce"})
    Mid += At(P);
  R.add(L, "opt.midlevel_s", Mid, "s");
  R.add(L, "opt.codemotion_s", At("opt.codemotion"), "s");
  R.add(L, "opt.tailmerge_s", At("opt.tailmerge"), "s");
  R.add(L, "opt.simplifycfg_s", At("opt.simplifycfg"), "s");
  R.add(L, "opt.jumpthreading_s", At("opt.jumpthreading"), "s");
  R.add(L, "opt.unroll_s", At("opt.unroll"), "s");
  R.add(L, "opt.other_mid_s",
        At("opt.midlevel") + At("opt.constantfold") + At("opt.ifconvert") +
            At("opt.dce"),
        "s");
  R.add(L, "opt.midlevel_changes", Count("opt.midlevel_changes"), "count");
  R.add(L, "opt.midlevel_capped_funcs", Count("opt.midlevel_capped_funcs"),
        "count");
  R.add(L, "opt.split_s", At("opt.split"), "s");
  R.add(L, "opt.layout_s", At("opt.layout") + At("opt.late"), "s");
  R.add(L, "opt.layout_capped_funcs", Count("opt.layout_capped_funcs"),
        "count");
  R.add(L, "codegen.s", Layer["codegen"], "s");
  R.add(L, "codegen.text_bytes", Count("codegen.text_bytes"), "bytes");
  double SimS = Layer["sim"];
  R.add(L, "sim.s", SimS, "s");
  R.add(L, "sim.instructions", Count("sim.instructions"), "count");
  R.add(L, "sim.mips", SimS > 0 ? Count("sim.instructions") / SimS / 1e6 : 0,
        "MIPS");
  double Samples = Count("profgen.samples");
  R.add(L, "profgen.s", Layer["profgen"], "s");
  R.add(L, "profgen.samples", Samples, "count");
  R.add(L, "profgen.unsynced_ratio",
        Samples > 0 ? Count("profgen.unsynced_samples") / Samples : 0,
        "ratio");
  R.add(L, "profile.merge_s", At("profile.merge"), "s");
  R.add(L, "store.ingest_s", At("store.ingest"), "s");
  R.add(L, "store.load_s", At("store.load"), "s");
  R.add(L, "store.bytes", Count("store.bytes"), "bytes");
  R.add(L, "service.release_build_s", ReleaseS, "s");
  R.add(L, "service.queue_high_water", Count("service.queue_high_water"),
        "count");
  R.add(L, "service.max_epoch_lag", Count("service.max_epoch_lag"), "count");
  R.add(L, "service.epochs_dropped", Count("service.epochs_dropped"), "count");
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Compile workloads.
//===----------------------------------------------------------------------===//

struct Experiment {
  uint64_t Seed = 0;
  double Seconds = 0;
  double PeakRssMB = 0;
  std::vector<VariantSummary> Outcomes; ///< In CompileWorkload order.
};

/// PGODriver::improvementPct on summaries.
double improvementPct(const VariantSummary &V, const VariantSummary &Base) {
  if (!Base.EvalCyclesMean)
    return 0;
  return 100.0 * (Base.EvalCyclesMean - V.EvalCyclesMean) /
         Base.EvalCyclesMean;
}

/// One seed's experiment through PGODriver; PGODriver's construction
/// (program generation) is timed as set-up, SetupRepeats times.
Experiment runExperiment(const CompileWorkload &W, uint64_t ExpSeed,
                         std::vector<double> &SetupS) {
  Experiment E;
  E.Seed = ExpSeed;
  ExperimentConfig C = experimentConfig(W, ExpSeed);
  resetPeakRss();
  std::unique_ptr<PGODriver> Driver;
  for (unsigned I = 0; I != SetupRepeats; ++I) {
    uint64_t T0 = nowNs();
    Driver = std::make_unique<PGODriver>(C);
    SetupS.push_back(secondsBetween(T0, nowNs()));
  }
  uint64_t T0 = nowNs();
  for (PGOVariant V : W.Variants) {
    // baseline() caches the plain outcome that the other variants'
    // overhead computation needs.
    E.Outcomes.push_back(V == PGOVariant::None ? summarize(Driver->baseline())
                                               : summarize(Driver->run(V)));
  }
  E.Seconds = secondsBetween(T0, nowNs());
  E.PeakRssMB = peakRssMB();
  return E;
}

std::string experimentOutputs(const CompileWorkload &W,
                              const std::vector<Experiment> &Exps) {
  std::string Out = "{\"exit\":{";
  for (size_t I = 0; I != Exps.size(); ++I) {
    if (I)
      Out += ",";
    Out += "\"" + std::to_string(Exps[I].Seed) + "\":{";
    for (size_t V = 0; V != W.Variants.size(); ++V)
      Out += std::string(V ? "," : "") + "\"" + variantName(W.Variants[V]) +
             "\":" + std::to_string(Exps[I].Outcomes[V].ExitValue);
    Out += "}";
  }
  return Out + "}}";
}

int runCompile(const CompileWorkload &W, const Args &A) {
  Result Res;
  std::vector<double> SetupS;
  std::vector<Experiment> Exps;
  uint64_t Start = nowNs();

  if (A.Trace) {
    // One experiment untraced, then its traced replay.
    Exps.push_back(runExperiment(W, experimentSeed(A.Seed, 0), SetupS));
    const Experiment &E = Exps.back();
    ExperimentConfig C = experimentConfig(W, E.Seed);
    std::unique_ptr<Module> Source = generateProgram(C.Workload);
    SpanLog Log;
    Counters K;
    bool Identical = true;
    std::vector<VariantSummary> Replayed;
    uint64_t T0 = nowNs();
    {
      Log.setRequest(std::string(W.Name) + "/" + std::to_string(E.Seed));
      SpanLog::Scope Root(Log, "bench.experiment");
      for (PGOVariant V : W.Variants) {
        Log.setRequest(std::string(W.Name) + "/" + std::to_string(E.Seed) +
                       "/" + variantName(V));
        SpanLog::Scope VS(Log, "bench.variant");
        Replayed.push_back(replayVariant(C, *Source, V, Log, K));
      }
    }
    double TracedS = secondsBetween(T0, nowNs());
    // The untraced experiment again, so warm-up falls on neither side of
    // the overhead comparison; it must also repeat its outputs exactly.
    Experiment Again = runExperiment(W, E.Seed, SetupS);
    for (size_t V = 0; V != W.Variants.size(); ++V) {
      bool Same = Replayed[V] == E.Outcomes[V];
      if (!Same)
        std::fprintf(stderr, "replay diverged: %s\n",
                     variantName(W.Variants[V]));
      Identical &= Same;
      Res.Attempted += 2;
      Res.Failed += Replayed[V].Failed;
      Res.Failed += !(Again.Outcomes[V] == E.Outcomes[V]);
    }
    addLayerMetrics(Res.R, Log, K, std::min(E.Seconds, Again.Seconds), TracedS,
                    Identical);

    const VariantSummary &Plain = E.Outcomes.front();
    const VariantSummary &Full = E.Outcomes.back();
    Res.R.add("quality", "pgo.csspgo_speedup_pct", improvementPct(Full, Plain),
              "%");
    Res.R.add("quality", "pgo.csspgo_vs_autofdo_pct",
              W.Variants.size() > 2 ? improvementPct(Full, E.Outcomes[1]) : 0,
              "%");
    Res.R.add("quality", "pgo.csspgo_code_kb", Full.CodeSizeBytes / 1024.0,
              "KB");
    Res.R.add("quality", "service.recovered_sample_pct", 0, "%");
    Res.R.add("quality", "service.host_epochs_per_s", 0, "1/s");
    Res.MetricGroups = {"trace", "layer", "quality"};
    if (!A.TraceOut.empty() &&
        !writeFile(A.TraceOut, chromeTraceJSON(Log.spans())))
      std::fprintf(stderr, "cannot write %s\n", A.TraceOut.c_str());
  } else {
    for (unsigned K = 0;; ++K) {
      if (K >= MinExperiments &&
          secondsBetween(Start, nowNs()) >= A.Seconds)
        break;
      Exps.push_back(runExperiment(W, experimentSeed(A.Seed, K), SetupS));
    }
  }

  // Every variant must compute what the plain build computes.
  for (const Experiment &E : Exps) {
    for (size_t V = 0; V != E.Outcomes.size(); ++V) {
      ++Res.Attempted;
      if (E.Outcomes[V].ExitValue != E.Outcomes.front().ExitValue) {
        ++Res.Failed;
        std::fprintf(stderr, "seed %llu: %s exit value differs from plain\n",
                     static_cast<unsigned long long>(E.Seed),
                     variantName(W.Variants[V]));
      }
    }
  }

  std::vector<double> ExpS, PeakMB;
  for (const Experiment &E : Exps) {
    ExpS.push_back(E.Seconds);
    PeakMB.push_back(E.PeakRssMB);
    std::printf("experiment seed %llu: %.3f s, peak %.1f MB\n",
                static_cast<unsigned long long>(E.Seed), E.Seconds,
                E.PeakRssMB);
  }
  Res.R.add("wall-clock", "setup_s", median(SetupS), "s");
  Res.R.add("wall-clock", "experiment_s", median(ExpS), "s");
  Res.R.add("wall-clock", "peak_rss_mb", median(PeakMB), "MB");
  Res.R.add("info", "experiments", static_cast<double>(Exps.size()),
            "count");

  // Simulated metrics over the first MinExperiments seeds only.
  double Speedup = 0, VsAuto = 0, CodeKB = 0;
  unsigned N = std::min<unsigned>(MinExperiments, Exps.size());
  for (unsigned I = 0; I != N; ++I) {
    const auto &O = Exps[I].Outcomes;
    Speedup += improvementPct(O.back(), O.front()) / N;
    if (O.size() > 2)
      VsAuto += improvementPct(O.back(), O[1]) / N;
    CodeKB += O.back().CodeSizeBytes / 1024.0 / N;
  }
  const std::string Sim = "simulated, reported only";
  Res.R.add(Sim, "csspgo_speedup_pct", Speedup, "%");
  if (W.Variants.size() > 2)
    Res.R.add(Sim, "csspgo_vs_autofdo_pct", VsAuto, "%");
  Res.R.add(Sim, "csspgo_code_kb", CodeKB, "KB");
  if (!A.Trace)
    Res.MetricGroups = {"wall-clock"};
  Res.Outputs = experimentOutputs(W, Exps);
  printResult(Res);
  return 0;
}

//===----------------------------------------------------------------------===//
// Fleet workload.
//===----------------------------------------------------------------------===//

/// The per-service store hashes run.py checks against reference.json,
/// keyed seed@epochs.
std::string fleetOutputs(uint64_t Seed, const ProfileService &Svc) {
  std::string Out = "{\"store_hash\":{\"" + std::to_string(Seed) + "@" +
                    std::to_string(Svc.epochsRun()) + "\":[";
  for (unsigned S = 0; S != Svc.fleet().config().Services; ++S)
    Out += std::string(S ? "," : "") + "\"" + hex(hashBytes(Svc.store(S))) +
           "\"";
  return Out + "]}}";
}

/// The stale matcher's recovered-sample rate across services.
double recoveredSamplePct(const FleetSnapshot &Snap) {
  double Recovered = 0, StoreSamples = 0;
  for (const ServiceSnapshot &S : Snap.Services) {
    Recovered += S.CountsRecovered;
    StoreSamples += S.StoreSamples;
  }
  return StoreSamples > 0 ? 100.0 * Recovered / StoreSamples : 0;
}

int runFleet(const Args &A) {
  Result Res;
  ServiceConfig SC = fleetConfig(A.Seed);
  std::vector<double> SetupS;
  std::unique_ptr<ProfileService> Svc;
  for (unsigned I = 0; I != SetupRepeats; ++I) {
    Svc.reset();
    uint64_t T0 = nowNs();
    Svc = std::make_unique<ProfileService>(SC);
    SetupS.push_back(secondsBetween(T0, nowNs()));
  }
  const unsigned Services = SC.Fleet.Services;

  auto Totals = [&](FleetSnapshot &Snap, uint64_t &Dropped) {
    Snap = Svc->snapshot();
    Dropped = 0;
    for (const ServiceSnapshot &S : Snap.Services)
      Dropped += S.EpochsDropped;
  };

  if (A.Trace) {
    // FleetQualityEpochs untraced, their traced replay, and the untraced
    // epochs once more on a fresh service, so warm-up falls on neither
    // side of the overhead comparison.
    uint64_t T0 = nowNs();
    Status St = Svc->run(FleetQualityEpochs);
    double UntracedS = secondsBetween(T0, nowNs());
    SpanLog Log;
    Counters K;
    std::vector<std::string> Stores =
        replayFleet(SC, FleetQualityEpochs, SC.Shards, Log, K);
    double TracedS = 0;
    for (const Span &S : Log.spans())
      if (S.Name == "bench.pass")
        TracedS = secondsBetween(S.StartNs, S.EndNs);
    {
      ProfileService Again(SC);
      T0 = nowNs();
      Status St2 = Again.run(FleetQualityEpochs);
      UntracedS = std::min(UntracedS, secondsBetween(T0, nowNs()));
      for (unsigned S = 0; S != Services; ++S)
        Res.Failed += Again.store(S) != Svc->store(S);
      Res.Failed += !St2.ok();
    }
    bool Identical = St.ok();
    double StoreBytes = 0;
    for (unsigned S = 0; S != Services; ++S) {
      Identical &= Stores[S] == Svc->store(S);
      StoreBytes += Stores[S].size();
    }
    if (!Identical)
      std::fprintf(stderr, "fleet replay diverged from the service\n");
    FleetSnapshot Snap;
    uint64_t Dropped = 0;
    Totals(Snap, Dropped);
    K["store.bytes"] = StoreBytes;
    K["service.queue_high_water"] = static_cast<double>(Snap.QueueHighWater);
    K["service.max_epoch_lag"] = Snap.MaxEpochLag;
    addLayerMetrics(Res.R, Log, K, UntracedS, TracedS, Identical);
    Res.R.add("quality", "pgo.csspgo_speedup_pct", 0, "%");
    Res.R.add("quality", "pgo.csspgo_vs_autofdo_pct", 0, "%");
    Res.R.add("quality", "pgo.csspgo_code_kb", 0, "KB");
    Res.R.add("quality", "service.recovered_sample_pct",
              recoveredSamplePct(Snap), "%");
    Res.R.add("quality", "service.host_epochs_per_s",
              UntracedS > 0 ? SC.Fleet.Hosts * FleetQualityEpochs / UntracedS
                            : 0,
              "1/s");
    Res.Attempted = FleetQualityEpochs * Services;
    Res.Failed += Dropped + !St.ok();
    Res.MetricGroups = {"trace", "layer", "quality"};
    Res.Outputs = fleetOutputs(A.Seed, *Svc);
    if (!A.TraceOut.empty() &&
        !writeFile(A.TraceOut, chromeTraceJSON(Log.spans())))
      std::fprintf(stderr, "cannot write %s\n", A.TraceOut.c_str());
    printResult(Res);
    return 0;
  }

  std::vector<double> PassS, PeakMB;
  uint64_t Start = nowNs();
  uint64_t Fatal = 0;
  double RecoveredPct = 0, StoreKB = 0;
  while (Svc->epochsRun() < FleetQualityEpochs ||
         secondsBetween(Start, nowNs()) < A.Seconds) {
    resetPeakRss();
    uint64_t T0 = nowNs();
    if (Status St = Svc->run(FleetPassEpochs); !St) {
      ++Fatal;
      std::fprintf(stderr, "service: %s\n", St.message().c_str());
    }
    PassS.push_back(secondsBetween(T0, nowNs()));
    PeakMB.push_back(peakRssMB());
    if (Svc->epochsRun() == FleetQualityEpochs) {
      FleetSnapshot Snap = Svc->snapshot();
      RecoveredPct = recoveredSamplePct(Snap);
      for (const ServiceSnapshot &S : Snap.Services)
        StoreKB += S.StoreSizeBytes / 1024.0;
      Res.Outputs = fleetOutputs(A.Seed, *Svc);
    }
  }
  FleetSnapshot Snap;
  uint64_t Dropped = 0;
  Totals(Snap, Dropped);
  double TotalS = 0;
  for (double S : PassS)
    TotalS += S;

  Res.Attempted = static_cast<uint64_t>(Svc->epochsRun()) * Services;
  Res.Failed = Dropped + Fatal;
  Res.R.add("wall-clock", "setup_s", median(SetupS), "s");
  Res.R.add("wall-clock", "experiment_s", median(PassS), "s");
  Res.R.add("wall-clock", "peak_rss_mb", median(PeakMB), "MB");
  Res.R.add("wall-clock, reported only", "host_epochs_per_s",
            SC.Fleet.Hosts * static_cast<double>(Svc->epochsRun()) / TotalS,
            "1/s");
  Res.R.add("simulated, reported only", "recovered_sample_pct", RecoveredPct,
            "%");
  Res.R.add("simulated, reported only", "store_kb", StoreKB, "KB");
  Res.MetricGroups = {"wall-clock"};
  printResult(Res);
  return 0;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Val = Argv[I + 1];
    if (Flag == "--workload")
      A.Workload = Val;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(Val.c_str(), nullptr);
    else if (Flag == "--trace")
      A.Trace = Val != "0";
    else if (Flag == "--trace-out")
      A.TraceOut = Val;
    else
      return false;
  }
  return Argc % 2 == 1 && !A.Workload.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr, "usage: pgo_bench --workload W --seed N --seconds S "
                         "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  if (A.Workload == "fleet_ingest")
    return runFleet(A);
  for (const CompileWorkload &W : compileWorkloads())
    if (A.Workload == W.Name)
      return runCompile(W, A);
  std::fprintf(stderr, "unknown workload '%s'\n", A.Workload.c_str());
  return 2;
}
