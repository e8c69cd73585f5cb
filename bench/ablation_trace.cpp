//===- bench/ablation_trace.cpp - collection-mode ablation --------*- C++ -*-===//
//
// Overhead-vs-quality across the three profile collection modes behind
// the same CSSPGO pipeline: instrumentation counters, PMU sampling and
// the core-instruction trace (TNT/TIP packets with delta-compressed
// timestamps, à la hardware branch trace). Each mode's modeled runtime
// perturbation (counter increments, sample interrupts, trace-byte
// writes) is charged to its training run, so the overhead column is the
// real price of the profile it buys.
//
// The harness also pins the two trace-mode acceptance properties:
//  - the trace-derived context profile is bit-identical to the sampling
//    path's (frequencies carry over exactly; the trace only *adds*
//    measured per-block timing), and
//  - on the training input, trace-guided compilation (timing-gated
//    unroll / if-convert) never loses to frequency-only CSSPGO.
// Exits nonzero when either property fails.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "profile/ProfileIO.h"

using namespace csspgo;
using namespace csspgo::bench;

namespace {

struct ModeResult {
  std::vector<std::string> Row;
  std::string CSText;   ///< Serialized context profile ("" for instr).
  double OverheadPct = 0;
  double EvalMean = 0;
  double PlainMean = 0;
};

} // namespace

int main(int argc, char **argv) {
  unsigned Jobs = benchJobs(argc, argv);
  printHeader("Ablation",
              "profile collection modes: counters vs sampling vs trace");

  struct Mode {
    const char *Name;
    PGOVariant Variant;
  };
  const Mode Modes[] = {
      {"instrumentation", PGOVariant::Instr},
      {"PMU sampling", PGOVariant::CSSPGOFull},
      {"instruction trace", PGOVariant::Trace},
  };

  TextTable Table({"collection mode", "profiling overhead", "profile",
                   "vs plain"});
  auto Results = runMany<ModeResult>(3, Jobs, [&](size_t Idx) {
    const Mode &M = Modes[Idx];
    ExperimentConfig Config = makeConfig("AdRanker");
    // Evaluate on the training distribution: the timing gates are
    // calibrated from the training run, so this is the input the
    // "trace-guided never loses" property is stated over.
    Config.EvalShift = 0.0;
    // A nonzero interrupt cost makes the sampling column honest too;
    // counter and trace-byte costs keep their CostModel defaults.
    Config.Costs.SampleInterruptCost = 200;

    PGODriver Driver(Config);
    const VariantOutcome &Plain = Driver.baseline();
    VariantOutcome Out = Driver.run(M.Variant);

    ModeResult R;
    R.OverheadPct = PGODriver::overheadPct(Out, Plain);
    R.EvalMean = Out.EvalCyclesMean;
    R.PlainMean = Plain.EvalCyclesMean;
    if (Out.Profile.IsCS)
      R.CSText = serializeContextProfile(Out.Profile.CS);

    std::string What;
    if (M.Variant == PGOVariant::Instr) {
      What = std::to_string(Out.Profile.Flat.Functions.size()) + " funcs";
    } else {
      What = std::to_string(Out.Profile.CS.numProfiles()) + " contexts";
      if (M.Variant == PGOVariant::Trace) {
        char Buf[64];
        std::snprintf(Buf, sizeof(Buf), " + timing (%llu KiB trace)",
                      static_cast<unsigned long long>(Out.TraceBytes /
                                                      1024));
        What += Buf;
      }
    }
    R.Row = {M.Name, formatSignedPercent(R.OverheadPct),
             What,
             formatSignedPercent(
                 improvement(Out.EvalCyclesMean, Plain.EvalCyclesMean))};
    return R;
  });
  for (const auto &R : Results)
    Table.addRow(R.Row);
  std::printf("%s\n", Table.render().c_str());

  const ModeResult &Sampling = Results[1];
  const ModeResult &Trace = Results[2];
  bool Identical =
      !Sampling.CSText.empty() && Sampling.CSText == Trace.CSText;
  std::printf("frequency profiles:  %s\n",
              Identical ? "trace bit-identical to sampling"
                        : "DIVERGED between trace and sampling");
  bool NeverLoses = Trace.EvalMean <= Sampling.EvalMean;
  std::printf("trace-guided vs frequency-only: %s (%.0f vs %.0f cycles)\n",
              NeverLoses ? "no loss" : "REGRESSION", Trace.EvalMean,
              Sampling.EvalMean);
  std::printf("\npaper: pseudo-instrumentation keeps profiling cheap while\n"
              "context-sensitivity recovers instrumentation-grade quality;\n"
              "the trace mode buys measured per-block timing on top for a\n"
              "bounded, modeled write cost.\n");

  printBenchJson(
      "ablation_trace",
      {{"instr_overhead_pct", Results[0].OverheadPct},
       {"sampling_overhead_pct", Sampling.OverheadPct},
       {"trace_overhead_pct", Trace.OverheadPct},
       {"trace_identical", Identical ? 1 : 0},
       {"trace_no_loss", NeverLoses ? 1 : 0},
       {"sampling_eval_cycles", Sampling.EvalMean},
       {"trace_eval_cycles", Trace.EvalMean}});
  return Identical && NeverLoses ? 0 : 1;
}
