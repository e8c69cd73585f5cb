//===- bench/micro_executor.cpp - executor fast-path benchmark ------------===//
//
// Throughput benchmark of the Machine inner loop: the predecoded fast
// path (contiguous register-file stack, dense BTB/value-profile slots,
// allocation-free sampling) against the test oracle's reference
// interpreter (tests/oracle/), on a profiling-shaped run (probed HHVM
// binary, sampling enabled). Both paths produce bit-identical
// RunResults — verified here on the first repetition and exhaustively by
// the ExecutorEquivalence property suite.
//
// Reports simulated MIPS (retired simulated instructions per wall-clock
// second) and samples/second for each path, plus the fast/reference
// speedup. Scale the workload with CSSPGO_SCALE; repetitions with
// CSSPGO_MICRO_REPS (default 3). Emits the same one-line JSON summary
// shape as micro_parallel_profgen. Only bit-identity is gated: a
// wall-clock ratio gate only makes sense on a quiet dedicated host.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "codegen/Linker.h"
#include "probe/ProbeInserter.h"
#include "oracle/Oracle.h"
#include "sim/Executor.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>

using namespace csspgo;
using namespace csspgo::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

std::string fmt(double Value, int Digits) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Digits, Value);
  return Buf;
}

struct Throughput {
  /// Best (minimum) wall time over the repetitions — the standard
  /// noise-rejecting estimator on shared hosts.
  double BestSeconds = 1e30;
  double TotalSeconds = 0;
  uint64_t InstructionsPerRep = 0;
  uint64_t SamplesPerRep = 0;
  double mips() const { return InstructionsPerRep / BestSeconds / 1e6; }
  double samplesPerSec() const { return SamplesPerRep / BestSeconds; }
};

} // namespace

int main() {
  printHeader("Micro", "executor fast path vs reference interpreter");

  unsigned Reps = 3;
  if (const char *Env = std::getenv("CSSPGO_MICRO_REPS"))
    Reps = std::max(1, std::atoi(Env));

  // A profiling-shaped run: probed binary, sampling on. This is the
  // executor's hot configuration in the PGO pipeline.
  WorkloadConfig WC = workloadPreset("HHVM", scaleFromEnv());
  auto M = generateProgram(WC);
  insertProbes(*M, AnchorKind::PseudoProbe);
  auto Bin = compileToBinary(*M);
  ExecConfig EC;
  EC.Sampler.Enabled = true; // Default (production) sampling period.
  std::vector<int64_t> Input = generateInput(WC, 7);

  auto runOnce = [&](bool Reference, Throughput &T, RunResult *FirstOut) {
    std::vector<int64_t> Mem = Input; // execute() mutates memory.
    auto Start = std::chrono::steady_clock::now();
    RunResult Result = Reference ? executeReference(*Bin, "main", Mem, EC)
                                 : execute(*Bin, "main", Mem, EC);
    double Sec = secondsSince(Start);
    if (FirstOut) { // Warmup rep: untimed, supplies the identity check.
      *FirstOut = std::move(Result);
      return;
    }
    T.BestSeconds = std::min(T.BestSeconds, Sec);
    T.TotalSeconds += Sec;
    T.InstructionsPerRep = Result.Instructions;
    T.SamplesPerRep = Result.Samples.size();
  };

  // One untimed warmup per path (touches all pages, warms the
  // allocator), then interleaved timed reps so transient system load
  // hits both paths alike; best-rep time is the reported estimate.
  RunResult RefResult, FastResult;
  Throughput Ref, Fast;
  runOnce(/*Reference=*/true, Ref, &RefResult);
  runOnce(/*Reference=*/false, Fast, &FastResult);
  for (unsigned R = 0; R != Reps; ++R) {
    runOnce(/*Reference=*/true, Ref, nullptr);
    runOnce(/*Reference=*/false, Fast, nullptr);
  }
  std::string Diff = diffRuns(RefResult, FastResult);
  bool Identical = Diff.empty();
  double Speedup = Ref.mips() > 0 ? Fast.mips() / Ref.mips() : 0;

  TextTable Table({"path", "best s", "sim MIPS", "samples/s", "speedup",
                   "identical"});
  Table.addRow({"reference", fmt(Ref.BestSeconds, 3), fmt(Ref.mips(), 2),
                fmt(Ref.samplesPerSec(), 0), "1.00x", "ref"});
  Table.addRow({"fast", fmt(Fast.BestSeconds, 3), fmt(Fast.mips(), 2),
                fmt(Fast.samplesPerSec(), 0), fmt(Speedup, 2) + "x",
                Identical ? "yes" : "NO"});
  std::printf("%s\n", Table.render().c_str());
  std::printf("%u reps, %" PRIu64 " simulated instructions per rep, "
              "target >=2x\n\n",
              Reps, FastResult.Instructions);

  printBenchJson("micro_executor",
                 {{"ref_mips", Ref.mips()},
                  {"fast_mips", Fast.mips()},
                  {"speedup", Speedup},
                  {"fast_samples_per_sec", Fast.samplesPerSec()},
                  {"identical", Identical ? 1 : 0}});

  if (!Identical) {
    std::fprintf(stderr,
                 "FAIL: fast path diverged from the reference interpreter: "
                 "%s\n",
                 Diff.c_str());
    return 1;
  }
  return 0;
}
