//===- sim/Executor.h - Machine code executor -------------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a linked Binary with the cycle cost model, producing both the
/// performance measurement (cycles) and, when sampling is enabled, the
/// stream of synchronized LBR + stack samples that profile generation
/// consumes. Also hosts the instrumentation counter runtime.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_SIM_EXECUTOR_H
#define CSSPGO_SIM_EXECUTOR_H

#include "codegen/MachineModule.h"
#include "sim/CostModel.h"
#include "sim/Sampler.h"
#include "trace/TraceFormat.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace csspgo {

struct ExecConfig {
  CostModel Costs;
  SamplerConfig Sampler;
  /// Core-instruction-trace collection (per-branch packets with
  /// delta-compressed timestamps; see trace/TraceFormat.h). Orthogonal to
  /// the sampler — a trace run normally disables sampling. Packet writes
  /// are charged at Costs.TraceByteCost cycles per byte.
  TraceConfig Trace;
  /// Hard cap on retired instructions (safety against runaway programs).
  uint64_t MaxInstructions = 4ull << 30;
  /// Hard cap on call depth.
  uint32_t MaxCallDepth = 512;
  /// Collect a per-instruction execution histogram (diagnostics; sized
  /// like Binary::Code in the result).
  bool CollectInstCounts = false;
  /// Collect indirect-call value profiles (part of the instrumentation
  /// runtime: per call site, per target slot execution counts).
  bool CollectValueProfile = false;
};

/// Field population by configuration:
/// - Completed/Error/ExitValue, Cycles, Instructions and the
///   MachineCounters are always populated. A malformed binary (a branch
///   target or callee index out of range) sets Error before running.
/// - Samples is populated only when ExecConfig::Sampler.Enabled; its
///   capacity is pre-reserved from MaxInstructions / PeriodCycles (capped)
///   so growth is amortized away from the hot loop.
/// - InstCounts is populated only with ExecConfig::CollectInstCounts
///   (sized like Binary::Code, else empty).
/// - ValueProfile is populated only with ExecConfig::CollectValueProfile.
/// - Counters is always sized NumCounters + 1, but only an instrumented
///   binary (one with InstrProfIncr anchors) produces non-zero entries.
struct RunResult : MachineCounters {
  bool Completed = false;
  std::string Error;
  int64_t ExitValue = 0;

  uint64_t Cycles = 0;
  uint64_t Instructions = 0;

  /// PMU samples (only with Sampler.Enabled).
  std::vector<PerfSample> Samples;
  /// Per-instruction execution counts (only with CollectInstCounts).
  std::vector<uint64_t> InstCounts;
  /// Indirect-call value profile (only with CollectValueProfile):
  /// (origin guid, call-site id) -> target slot -> count.
  std::map<std::pair<uint64_t, uint32_t>, std::map<int64_t, uint64_t>>
      ValueProfile;
  /// Instrumentation counters (index 0 unused; counter ids are 1-based
  /// within functions, re-based by CounterBase).
  std::vector<uint64_t> Counters;
  /// Recorded trace (only with Trace.Enabled). Cycles already includes
  /// Trace.WriteCycles — the modeled perturbation of writing the trace.
  TraceData Trace;
};

/// Runs \p Bin starting at function \p Entry with the given global memory
/// image. \p Memory is modified in place.
RunResult execute(const Binary &Bin, const std::string &Entry,
                  std::vector<int64_t> &Memory, const ExecConfig &Config);

} // namespace csspgo

#endif // CSSPGO_SIM_EXECUTOR_H
