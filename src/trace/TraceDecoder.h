//===- trace/TraceDecoder.h - Trace control-flow replay ---------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decodes a core-instruction trace (trace/TraceFormat.h) by re-walking
/// Binary::Code driven only by the packet stream — fallthrough, direct
/// branches, direct calls and returns are reconstructed statically from the
/// binary; conditional outcomes come from TNT packets and indirect-call
/// targets from TIP packets. Because trace perturbation only moves the
/// clock (never control flow or data), the replay reconstructs the
/// *unperturbed* cycle stream exactly, then:
///
///  - replays a *virtual PMU* over it (same SamplerConfig, cost model and
///    Rng seed a sampling run would use, including skid draws and the
///    modeled interrupt cost) to synthesize the exact PerfSample stream
///    that run would have produced — which is what makes trace-derived
///    profiles bit-identical to the LBR sampling path. The cost model and
///    PMU are the live interpreter's own (sim/MachineCore.h), not a copy;
///  - attributes cycles and mispredicts to pseudo-probed blocks, producing
///    the TimingProfile the timing-aware transform gates consume;
///  - cross-validates every TSC packet against the replayed cost model
///    plus the modeled write cost (recorded cycles are the traced run's
///    perturbed clock: base cycles + bytes written so far times
///    CostModel::TraceByteCost).
///
/// The decoder is a validator as much as a reader: truncated traces decode
/// to their clean prefix, while corrupt ones (bad tags, out-of-range TIP
/// targets, packets crossing a timestamp boundary, trailing bytes) and
/// malformed binaries (branch targets or callees out of range) are
/// rejected with a Status — never a crash. The fuzz harness leans on this.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_TRACE_TRACEDECODER_H
#define CSSPGO_TRACE_TRACEDECODER_H

#include "codegen/MachineModule.h"
#include "opt/BlockTiming.h"
#include "sim/CostModel.h"
#include "sim/Sampler.h"
#include "support/Status.h"
#include "trace/TraceFormat.h"

#include <cstdint>
#include <string>
#include <vector>

namespace csspgo {

/// How to replay a trace. Costs and Format must match the traced run (the
/// TSC cross-check fails otherwise); Sampler describes the virtual PMU —
/// set it to the configuration of the sampling run whose sample stream the
/// replay should reproduce.
struct TraceReplayOptions {
  /// Virtual sampler replayed over the reconstructed cycle stream.
  /// Disabled leaves TraceReplayResult::Samples empty (timing-only decode).
  SamplerConfig Sampler;
  /// Cost model of the traced run (TraceByteCost validates TSC packets,
  /// SampleInterruptCost perturbs the virtual sampler's clock).
  CostModel Costs;
  /// Trace format knobs; TimestampEvery and CompressTimestamps must match
  /// the recording configuration.
  TraceConfig Format;
  /// Mirrors of the traced run's ExecConfig limits; the replay stops where
  /// the traced run stopped.
  uint64_t MaxInstructions = 4ull << 30;
  uint32_t MaxCallDepth = 512;
  /// Build the per-block TimingProfile (needs Binary::Probes).
  bool CollectTiming = true;
};

/// The replayed run. The MachineCounters must match the traced run's
/// exactly (Cycles minus the sampler- and trace-induced perturbation).
struct TraceReplayResult : MachineCounters {
  /// The program ran to completion in the trace (reached its outermost
  /// return). False when the trace is truncated or the traced run hit an
  /// execution limit.
  bool Completed = false;
  /// Replay consumed a truncated trace's clean prefix.
  bool Truncated = false;

  /// The virtual PMU's samples (only with Sampler.Enabled) —
  /// bit-identical to the equivalent sampling run's RunResult::Samples.
  std::vector<PerfSample> Samples;
  /// Measured per-block timing (only with CollectTiming).
  TimingProfile Timing;

  /// Virtual sampled-run cycles: unperturbed cycles plus the modeled
  /// sample-interrupt cost (matches the sampling run's RunResult::Cycles).
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;

  /// TSC packets seen / failing the write-cost cross-check (0 expected
  /// whenever Costs/Format match the recording).
  uint64_t Timestamps = 0;
  uint64_t TimestampMismatches = 0;
};

/// Replays \p Trace of a run of \p Bin that started at \p Entry. Returns
/// an error Status for corrupt traces; truncated traces succeed with
/// Truncated set and the counters covering the decodable prefix.
Expected<TraceReplayResult> replayTrace(const Binary &Bin,
                                        const std::string &Entry,
                                        const TraceData &Trace,
                                        const TraceReplayOptions &Opts);

} // namespace csspgo

#endif // CSSPGO_TRACE_TRACEDECODER_H
