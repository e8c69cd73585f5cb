//===- sim/Sampler.h - PMU sampling model -----------------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PMU model: a cycle counter that "underflows" every sampling period
/// and snapshots (a) the 16-entry LBR ring of the most recent taken
/// branches and (b) the call stack — the synchronized LBR + stack sampling
/// of §III-B ("perf record -g --call-graph fp -e
/// br_inst_retired.near_taken:upp").
///
/// Two fidelity knobs reproduce the paper's practical challenges:
/// - \c Precise=false injects sampling skid: the stack snapshot lags the
///   LBR snapshot by a few retired instructions, so the stack can be off
///   by one frame relative to the last LBR branch (fixed by PEBS in the
///   paper);
/// - tail-call elimination in the executor removes caller frames from the
///   sampled stack (mitigated by the missing-frame inferrer).
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_SIM_SAMPLER_H
#define CSSPGO_SIM_SAMPLER_H

#include "support/Random.h"

#include <cstdint>
#include <vector>

namespace csspgo {

/// One LBR record: a taken branch from Src to Dst (byte addresses).
struct LBREntry {
  uint64_t Src = 0;
  uint64_t Dst = 0;

  bool operator==(const LBREntry &) const = default;
};

/// One PMU sample: the LBR snapshot (oldest first) plus the synchronized
/// stack snapshot. The stack is leaf-first: Stack[0] is the sampled PC,
/// Stack[1..] are return addresses of the frames below.
struct PerfSample {
  std::vector<LBREntry> LBR;
  std::vector<uint64_t> Stack;

  bool operator==(const PerfSample &) const = default;
};

/// Configuration of the PMU model.
struct SamplerConfig {
  bool Enabled = false;
  uint64_t PeriodCycles = 4001; ///< Prime periods avoid loop lockstep.
  /// LBR depth; rounded up to a power of two (real LBRs are 8/16/32
  /// deep), which lets the ring replace modulo arithmetic with masks.
  uint32_t LBRDepth = 16;
  /// PEBS-precise sampling: LBR and stack snapshot at the same instant.
  bool Precise = true;
  /// Max skid in retired instructions when Precise is false.
  uint32_t MaxSkidInstructions = 24;
  uint64_t Seed = 1;
};

/// The LBR ring buffer. The depth is rounded up to a power of two so the
/// wraparound arithmetic in the executor's hot loop is a mask, not a
/// division.
class LBRRing {
public:
  explicit LBRRing(uint32_t Depth)
      : Depth(roundUpToPowerOfTwo(Depth)), Mask(this->Depth - 1) {
    Ring.reserve(this->Depth);
  }

  void record(uint64_t Src, uint64_t Dst) {
    if (Ring.size() < Depth) {
      // Filling phase: Head stays 0, entries are already oldest-first.
      Ring.push_back({Src, Dst});
      return;
    }
    Ring[Head] = {Src, Dst};
    Head = (Head + 1) & Mask;
  }

  /// Returns entries oldest-first.
  std::vector<LBREntry> snapshot() const {
    std::vector<LBREntry> Out;
    snapshotInto(Out);
    return Out;
  }

  /// Writes the snapshot (oldest-first) into \p Out, reusing its storage.
  void snapshotInto(std::vector<LBREntry> &Out) const {
    Out.clear();
    if (Ring.size() < Depth) {
      Out.insert(Out.end(), Ring.begin(), Ring.end());
      return;
    }
    Out.reserve(Depth);
    for (size_t I = 0; I != Depth; ++I)
      Out.push_back(Ring[(Head + I) & Mask]);
  }

  void clear() {
    Ring.clear();
    Head = 0;
  }

  /// Effective (power-of-two) depth.
  uint32_t depth() const { return Depth; }

  static uint32_t roundUpToPowerOfTwo(uint32_t V) {
    uint32_t P = 1;
    while (P < V && P < (1u << 31))
      P <<= 1;
    return P;
  }

private:
  uint32_t Depth;
  size_t Mask;
  std::vector<LBREntry> Ring;
  size_t Head = 0;
};

} // namespace csspgo

#endif // CSSPGO_SIM_SAMPLER_H
