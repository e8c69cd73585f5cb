//===- perfbench/Replay.h - Traced replays of PGO experiments ---*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's traced run. The untraced run calls PGODriver::run and
/// ProfileService::run; the traced run replays the same work step by step
/// through each module's public entry points, with a span around every call
/// and counters read off the module before and after it. The replay mirrors
/// the private steps of those two functions too
/// (PGODriver::makeBuildConfig, the loader's hot threshold feeding the
/// inliner, inference only with a profile, the service's release builds
/// and fold), so its outputs must equal the untraced run's bit for bit;
/// the benchmark checks that before it reports any per-layer number.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PERFBENCH_REPLAY_H
#define CSSPGO_PERFBENCH_REPLAY_H

#include "Spans.h"

#include "pgo/PGODriver.h"
#include "service/ProfileService.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Per-layer counters of the traced run, keyed by metric name.
using Counters = std::map<std::string, double>;

/// The outputs of one variant that the replay must reproduce.
struct VariantSummary {
  csspgo::PGOVariant Variant = csspgo::PGOVariant::None;
  uint64_t CodeSizeBytes = 0;
  int64_t ExitValue = 0;
  std::vector<uint64_t> EvalCycles;
  double EvalCyclesMean = 0;
  /// The replay hit a step PGODriver aborts on (verifier violation,
  /// transport failure).
  bool Failed = false;

  bool operator==(const VariantSummary &O) const {
    return Variant == O.Variant && CodeSizeBytes == O.CodeSizeBytes &&
           ExitValue == O.ExitValue && EvalCycles == O.EvalCycles &&
           EvalCyclesMean == O.EvalCyclesMean && Failed == O.Failed;
  }
};

VariantSummary summarize(const csspgo::VariantOutcome &O);

/// Replays PGODriver(C, Source).run(V) for V in {None, AutoFDO,
/// CSSPGOFull} with ProfileIterations == 1.
VariantSummary replayVariant(const csspgo::ExperimentConfig &C,
                             const csspgo::Module &Source,
                             csspgo::PGOVariant V, SpanLog &Log, Counters &K);

/// Replays ProfileService(SC) followed by run(Epochs) — construction under
/// a "bench.setup" root, then one "bench.epoch" root per epoch — with host
/// tasks spread over \p Workers threads while the previous epoch folds.
/// Returns the per-service store bytes.
std::vector<std::string> replayFleet(const csspgo::ServiceConfig &SC,
                                     unsigned Epochs, unsigned Workers,
                                     SpanLog &Log, Counters &K);

} // namespace perfbench

#endif // CSSPGO_PERFBENCH_REPLAY_H
