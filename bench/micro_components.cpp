//===- bench/micro_components.cpp - component micro-benchmarks ----*- C++ -*-===//
//
// Google-benchmark microbenchmarks of the toolkit's hot components: the
// machine simulator, the LBR/stack unwinder (Algorithm 1), AutoFDO and
// CSSPGO profile generation, MCF inference, and Ext-TSP layout. These
// bound the cost of each pipeline stage (the sampling-PGO pitch is that
// profile generation is cheap enough to run continuously).
//
//===----------------------------------------------------------------------===//

#include <benchmark/benchmark.h>

#include "codegen/Linker.h"
#include "inference/ProfileInference.h"
#include "opt/PassManager.h"
#include "pgo/BuildPipeline.h"
#include "probe/ProbeInserter.h"
#include "profgen/AutoFDOGenerator.h"
#include "profgen/ProfileGenerator.h"
#include "sim/Executor.h"
#include "workload/Workloads.h"

using namespace csspgo;

namespace {

WorkloadConfig smallConfig() {
  WorkloadConfig C = workloadPreset("AdRanker", 0.25);
  return C;
}

struct Fixture {
  std::unique_ptr<Module> M;
  std::unique_ptr<Binary> Bin;
  ProbeTable Probes;
  std::vector<PerfSample> Samples;
  std::vector<int64_t> Memory;

  Fixture() {
    WorkloadConfig C = smallConfig();
    M = generateProgram(C);
    insertProbes(*M, AnchorKind::PseudoProbe);
    Probes = ProbeTable::fromModule(*M);
    Bin = compileToBinary(*M);
    Memory = generateInput(C, 7);
    ExecConfig EC;
    EC.Sampler.Enabled = true;
    EC.Sampler.PeriodCycles = 2003;
    std::vector<int64_t> Mem = Memory;
    Samples = execute(*Bin, "main", Mem, EC).Samples;
  }
};

Fixture &fixture() {
  static Fixture F;
  return F;
}

void BM_Executor(benchmark::State &State) {
  Fixture &F = fixture();
  uint64_t Insts = 0;
  for (auto _ : State) {
    std::vector<int64_t> Mem = F.Memory;
    RunResult R = execute(*F.Bin, "main", Mem, {});
    benchmark::DoNotOptimize(R.Cycles);
    Insts += R.Instructions;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Insts));
}
BENCHMARK(BM_Executor)->Unit(benchmark::kMillisecond);

void BM_ExecutorWithSampling(benchmark::State &State) {
  Fixture &F = fixture();
  ExecConfig EC;
  EC.Sampler.Enabled = true;
  EC.Sampler.PeriodCycles = 4001;
  for (auto _ : State) {
    std::vector<int64_t> Mem = F.Memory;
    RunResult R = execute(*F.Bin, "main", Mem, EC);
    benchmark::DoNotOptimize(R.Samples.size());
  }
}
BENCHMARK(BM_ExecutorWithSampling)->Unit(benchmark::kMillisecond);

void BM_AutoFDOProfileGen(benchmark::State &State) {
  Fixture &F = fixture();
  for (auto _ : State) {
    FlatProfile P = generateAutoFDOProfile(*F.Bin, F.Samples);
    benchmark::DoNotOptimize(P.totalSamples());
  }
  State.SetItemsProcessed(
      static_cast<int64_t>(State.iterations() * F.Samples.size()));
}
BENCHMARK(BM_AutoFDOProfileGen)->Unit(benchmark::kMillisecond);

void BM_CSProfileGen(benchmark::State &State) {
  Fixture &F = fixture();
  ProfGenOptions Opts;
  Opts.Kind = ProfGenKind::CS;
  Opts.Parallelism = 1;
  ProfileGenerator Gen(*F.Bin, &F.Probes, Opts);
  for (auto _ : State) {
    ContextProfile P = Gen.generate(F.Samples).CS;
    benchmark::DoNotOptimize(P.totalSamples());
  }
  State.SetItemsProcessed(
      static_cast<int64_t>(State.iterations() * F.Samples.size()));
}
BENCHMARK(BM_CSProfileGen)->Unit(benchmark::kMillisecond);

void BM_MCFInference(benchmark::State &State) {
  Fixture &F = fixture();
  for (auto _ : State) {
    State.PauseTiming();
    auto M2 = F.M->clone();
    // Raw pseudo-counts to smooth.
    uint64_t Seed = 1;
    for (auto &Fn : M2->Functions)
      for (auto &BB : Fn->Blocks)
        BB->setCount((Seed = Seed * 6364136223846793005ULL + 1) % 1000);
    State.ResumeTiming();
    inferModuleProfile(*M2);
    benchmark::DoNotOptimize(M2->Functions.size());
  }
}
BENCHMARK(BM_MCFInference)->Unit(benchmark::kMillisecond);

void BM_ExtTSPLayout(benchmark::State &State) {
  Fixture &F = fixture();
  OptOptions Opts;
  for (auto _ : State) {
    State.PauseTiming();
    auto M2 = F.M->clone();
    uint64_t Seed = 99;
    for (auto &Fn : M2->Functions)
      for (auto &BB : Fn->Blocks) {
        BB->setCount((Seed = Seed * 2862933555777941757ULL + 3) % 5000);
        BB->SuccWeights.clear();
      }
    State.ResumeTiming();
    for (auto &Fn : M2->Functions)
      runExtTSPLayout(*Fn, Opts);
    benchmark::DoNotOptimize(M2->Functions.size());
  }
}
BENCHMARK(BM_ExtTSPLayout)->Unit(benchmark::kMillisecond);

void BM_FullPGOPipeline(benchmark::State &State) {
  Fixture &F = fixture();
  for (auto _ : State) {
    BuildConfig BC;
    BC.Variant = PGOVariant::CSSPGOFull;
    BuildResult R = buildWithPGO(*F.M, BC, nullptr);
    benchmark::DoNotOptimize(R.Bin->textSize());
  }
}
BENCHMARK(BM_FullPGOPipeline)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
