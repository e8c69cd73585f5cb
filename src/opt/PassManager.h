//===- opt/PassManager.h - Optimization pipeline ----------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimization pipeline and its configuration. Every transformation is
/// responsible for *profile maintenance* (paper Fig. 1): updating block
/// counts and edge weights to reflect its CFG changes. The ProbeBarrier
/// knob reproduces the paper's flexibility claim: pseudo-probes can be made
/// a stronger or weaker optimization barrier to trade run-time overhead
/// against profile accuracy (§III-A).
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_OPT_PASSMANAGER_H
#define CSSPGO_OPT_PASSMANAGER_H

#include "ir/Module.h"
#include "opt/BlockTiming.h"
#include "opt/ExtTSPCore.h"

#include <cstdint>
#include <string>
#include <vector>

namespace csspgo {

/// How strongly pseudo-probes block optimizations. The paper's production
/// tuning is Weak: near-zero overhead, probes do not block if-conversion or
/// code motion (only code merge, which has no sound profile-preserving
/// form). Strong blocks those too, buying accuracy with run-time cost.
enum class ProbeBarrier : uint8_t { Weak, Strong };

struct OptOptions {
  ProbeBarrier Barrier = ProbeBarrier::Weak;

  bool EnableSimplifyCFG = true;
  bool EnableTailMerge = true;
  bool EnableIfConvert = true;
  bool EnableJumpThreading = true;
  bool EnableLoopUnroll = true;
  bool EnableCodeMotion = true;
  bool EnableDCE = true;
  bool EnableConstantFold = true;
  bool EnableLayout = true;
  bool EnableFunctionSplit = true;

  /// Loop unroll factor for small hot loops.
  unsigned UnrollFactor = 3;
  /// Max body instructions for an unrollable loop.
  unsigned UnrollMaxBodySize = 24;
  /// Max instructions per arm for if-conversion.
  unsigned IfConvertMaxArmSize = 3;
  /// Max block size for tail duplication (jump threading).
  unsigned TailDupMaxSize = 8;

  /// Measured per-block timing from a core-instruction trace (null =
  /// frequency-only compilation, the classic PGO mode). When present,
  /// if-conversion and loop unrolling gate on measured latency instead of
  /// frequencies alone; blocks without a timing entry keep the
  /// frequency-only behavior, so timing can only veto marginal transforms,
  /// never enable new ones. The pointer is borrowed for the duration of
  /// the pipeline run.
  const TimingProfile *Timing = nullptr;
  /// Timing gate for if-conversion: with measured timing for the branch
  /// block and both arms, conversion is rejected when executing the
  /// skipped arm's measured latency (plus a select) on every pass costs
  /// more than the measured mispredict cycles plus the eliminated
  /// control flow. Requires all three measurements — missing arm timing
  /// means the profiling binary converted the diamond itself, so the
  /// branch block's stats describe the converted form and cannot
  /// second-guess it.
  ///
  /// Cycles one branch eliminated by if-conversion is assumed to cost per
  /// execution (instruction base plus the average taken redirect; mirrors
  /// CostModel::TakenBranchCost).
  unsigned IfConvertAssumedBranchCycles = 3;
  /// Cycles one mispredict is assumed to burn (mirrors
  /// CostModel::MispredictPenalty).
  unsigned IfConvertAssumedMispredictCycles = 14;
  /// Timing gate for loop unrolling: minimum fraction (permille) of one
  /// iteration's measured cycles that the removed back-edge jump
  /// represents. Long-latency bodies gain almost nothing from unrolling
  /// and still pay its code-size/i-cache cost.
  unsigned UnrollMinGainPermille = 25;
  /// Cycles the eliminated back-edge jump is assumed to cost (the opt
  /// layer carries no machine cost model; mirrors
  /// CostModel::TakenBranchCost).
  unsigned UnrollAssumedBranchCycles = 2;

  /// Assign DWARF-style discriminators to instructions cloned by loop
  /// unrolling, so debug-info correlation can tell the copies apart
  /// (§III-A: discriminators mitigate *some* code duplication, but
  /// annotating every duplicating transformation is impractical — tail
  /// duplication and friends stay unannotated here, as in practice).
  bool AssignUnrollDiscriminators = true;
};

/// Per-pass change statistics, for tests and debugging.
struct PassStats {
  std::vector<std::pair<std::string, unsigned>> Changes;
  void record(const std::string &Pass, unsigned N) {
    if (N)
      Changes.emplace_back(Pass, N);
  }
  unsigned total() const {
    unsigned T = 0;
    for (const auto &[P, N] : Changes)
      T += N;
    return T;
  }
};

/// \name Individual passes. Each returns the number of changes applied.
/// @{
unsigned runSimplifyCFG(Function &F, const OptOptions &Opts);
unsigned runTailMerge(Function &F, const OptOptions &Opts);
unsigned runIfConvert(Function &F, const OptOptions &Opts);
unsigned runJumpThreading(Function &F, const OptOptions &Opts);
unsigned runLoopUnroll(Function &F, const OptOptions &Opts);
unsigned runCodeMotion(Function &F, const OptOptions &Opts);
unsigned runDCE(Function &F, const OptOptions &Opts);
unsigned runConstantFold(Function &F, const OptOptions &Opts);
unsigned runExtTSPLayout(Function &F, const OptOptions &Opts);
unsigned runFunctionSplit(Function &F, const OptOptions &Opts);
/// @}

/// The layout problem runExtTSPLayout solves for \p F: each block's
/// lowered byte size and every CFG edge weighted by its profile count,
/// with block 0 as the entry.
exttsp::Instance extTSPInstanceOf(const Function &F);

/// Runs the mid-level scalar/CFG pipeline (no inlining, no layout) on every
/// function, iterating to a fixpoint (bounded).
PassStats runMidLevelPipeline(Module &M, const OptOptions &Opts);

/// Runs the late pipeline: block layout and function splitting.
PassStats runLatePipeline(Module &M, const OptOptions &Opts);

} // namespace csspgo

#endif // CSSPGO_OPT_PASSMANAGER_H
