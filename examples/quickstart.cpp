//===- examples/quickstart.cpp - CSSPGO quickstart ---------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Quickstart: runs every PGO variant end-to-end on one workload and prints
// the headline comparison — profiling overhead, optimized performance, and
// code size. This is the 60-second tour of the whole system:
//
//   workload IR -> (anchors) -> profiling binary -> simulated run with
//   LBR+stack sampling -> profile generation (incl. context trie and
//   pre-inliner for full CSSPGO) -> optimized rebuild -> measured cycles.
//
//===----------------------------------------------------------------------===//

#include "pgo/PGODriver.h"
#include "support/SourceText.h"
#include "workload/Workloads.h"

#include <cstdio>

using namespace csspgo;

int main(int argc, char **argv) {
  std::string Name = argc > 1 ? argv[1] : "AdRanker";
  double Scale = argc > 2 ? std::atof(argv[2]) : 1.0;

  ExperimentConfig Config;
  Config.Workload = workloadPreset(Name, Scale);
  PGODriver Driver(Config);

  std::printf("workload: %s (%u requests)\n", Name.c_str(),
              Config.Workload.Requests);

  const VariantOutcome &Base = Driver.baseline();
  std::printf("plain build: %llu eval cycles, %s text\n\n",
              static_cast<unsigned long long>(Base.EvalCyclesMean),
              formatBytes(Base.CodeSizeBytes).c_str());

  TextTable Table({"variant", "profiling overhead", "speedup vs plain",
                   "code size", "exit value"});
  PGOVariant Variants[] = {PGOVariant::Instr, PGOVariant::AutoFDO,
                           PGOVariant::CSSPGOProbeOnly,
                           PGOVariant::CSSPGOFull};
  for (PGOVariant V : Variants) {
    VariantOutcome Out = Driver.run(V);
    Table.addRow({variantName(V),
                  formatSignedPercent(PGODriver::overheadPct(Out, Base)),
                  formatSignedPercent(PGODriver::improvementPct(Out, Base)),
                  formatBytes(Out.CodeSizeBytes),
                  std::to_string(Out.ExitValue)});
    if (Out.ExitValue != Base.ExitValue)
      std::printf("WARNING: %s changed program semantics!\n",
                  variantName(V));
  }
  std::printf("%s\n", Table.render().c_str());
  std::printf("All variants must print the same exit value: PGO must\n"
              "never change program semantics.\n");
  return 0;
}
