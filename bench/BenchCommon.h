//===- bench/BenchCommon.h - Shared bench harness helpers --------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-figure benchmark harnesses: workload scaling
/// via the CSSPGO_SCALE environment variable, mean/confidence statistics
/// for the error bars of Fig. 8, paper-style table printing, the runMany
/// fan-out harness that parallelizes independent (binary, seed, config)
/// executions over support/ThreadPool, and the shared one-line JSON
/// summary the BENCH_*.json trajectories parse.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_BENCH_BENCHCOMMON_H
#define CSSPGO_BENCH_BENCHCOMMON_H

#include "pgo/PGODriver.h"
#include "support/SourceText.h"
#include "support/ThreadPool.h"
#include "workload/Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace csspgo::bench {

/// Request-count multiplier from $CSSPGO_SCALE (default 1.0).
inline double scaleFromEnv() {
  const char *Env = std::getenv("CSSPGO_SCALE");
  if (!Env)
    return 1.0;
  double S = std::atof(Env);
  return S > 0 ? S : 1.0;
}

/// Default experiment config for \p Workload at the environment scale.
/// Profile verification stays at the ExperimentConfig default (Full
/// level, strict): every bench doubles as an invariant sweep over its
/// workload matrix, and a verifier violation aborts the run with a
/// report instead of silently skewing a figure. CSSPGO_NO_VERIFY=1
/// disables it for timing pipelines without the verification pass.
inline ExperimentConfig makeConfig(const std::string &Workload) {
  ExperimentConfig Config;
  Config.Workload = workloadPreset(Workload, scaleFromEnv());
  if (const char *Env = std::getenv("CSSPGO_NO_VERIFY"))
    if (Env[0] && Env[0] != '0') {
      Config.VerifyProfiles = false;
      Config.VerifyStrict = false;
    }
  return Config;
}

struct MeanCI {
  double Mean = 0;
  double HalfWidth95 = 0; ///< ~P95 half-width (1.96 * stderr).
};

inline MeanCI meanCI(const std::vector<uint64_t> &Values) {
  MeanCI R;
  if (Values.empty())
    return R;
  long double Sum = 0;
  for (uint64_t V : Values)
    Sum += V;
  R.Mean = static_cast<double>(Sum / Values.size());
  if (Values.size() < 2)
    return R;
  long double Var = 0;
  for (uint64_t V : Values)
    Var += (V - R.Mean) * (V - R.Mean);
  Var /= (Values.size() - 1);
  R.HalfWidth95 =
      1.96 * std::sqrt(static_cast<double>(Var) / Values.size());
  return R;
}

/// Percentage improvement of \p V over \p Base (positive = V faster).
inline double improvement(double V, double Base) {
  return Base > 0 ? 100.0 * (Base - V) / Base : 0.0;
}

inline void printHeader(const char *Id, const char *Title) {
  std::printf("==============================================================\n"
              "%s: %s\n"
              "==============================================================\n",
              Id, Title);
}

/// Worker count for the bench fan-out: `-j N` / `-jN` on the command line,
/// else 1 (serial). Every fanned-out task is a deterministic, independent
/// pipeline, so any job count prints the same numbers; this is purely a
/// wall-clock knob.
inline unsigned benchJobs(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "-j" && I + 1 < argc)
      return std::max(1, std::atoi(argv[I + 1]));
    if (A.rfind("-j", 0) == 0 && A.size() > 2)
      return std::max(1, std::atoi(A.c_str() + 2));
  }
  return 1;
}

/// Cells to run of a bench matrix of \p Full cells: the first
/// $CSSPGO_CELLS when it is set to N > 0, else all of them. A run of fewer
/// than \p Full cells is a smoke run: benches skip the gates and tables
/// that only hold over the whole matrix.
inline size_t cellLimit(size_t Full) {
  if (const char *Env = std::getenv("CSSPGO_CELLS")) {
    int N = std::atoi(Env);
    if (N > 0)
      return std::min(static_cast<size_t>(N), Full);
  }
  return Full;
}

/// Runs Fn(0) .. Fn(Count-1) through forEachIndex (serial when Jobs <= 1,
/// else on a ThreadPool) and returns the results in index order, so tables
/// print rows in the same order as the serial loop they replace. Tasks
/// must be independent (each typically owns its PGODriver).
template <typename ResultT>
std::vector<ResultT> runMany(size_t Count, unsigned Jobs,
                             const std::function<ResultT(size_t)> &Fn) {
  std::vector<ResultT> Out(Count);
  forEachIndex(Count, Jobs, [&](size_t I) { Out[I] = Fn(I); });
  return Out;
}

/// Emits the shared one-line machine-readable summary:
///   {"bench":"<name>","metrics":{"k":v,...}}
/// micro_executor and micro_parallel_profgen both use this shape so the
/// BENCH_*.json trajectory tooling parses them uniformly.
inline void
printBenchJson(const std::string &Bench,
               const std::vector<std::pair<std::string, double>> &Metrics) {
  std::string Line = "{\"bench\":\"" + Bench + "\",\"metrics\":{";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.6g", Metrics[I].second);
    if (I)
      Line += ',';
    Line += '"';
    Line += Metrics[I].first;
    Line += "\":";
    Line += Buf;
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
}

} // namespace csspgo::bench

#endif // CSSPGO_BENCH_BENCHCOMMON_H
