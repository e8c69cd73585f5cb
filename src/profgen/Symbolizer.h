//===- profgen/Symbolizer.h - Binary symbolization ---------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbolization services over a linked Binary, shared by the profile
/// generators:
/// - debug-info view: address -> (function, line, discriminator) frame
///   stacks, as DWARF would give AutoFDO;
/// - pseudo-probe view: address -> attached probe records and call-site
///   probe ids, as the .pseudo_probe section gives CSSPGO;
/// - branch classification (call / return / tail-call jump / local), which
///   Algorithm 1 needs to unwind LBR entries.
///
/// The probe view is interned: function names get dense ids, and arrays
/// indexed by instruction hold its origin function, call probe, inline
/// frames and block probes.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PROFGEN_SYMBOLIZER_H
#define CSSPGO_PROFGEN_SYMBOLIZER_H

#include "codegen/MachineModule.h"
#include "sim/Sampler.h"

#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace csspgo {

enum class BranchKind : uint8_t {
  NotABranch,
  Conditional,
  Unconditional,
  Call,
  TailCallJump, ///< A frame-replacing jump to another function's entry.
  Return,
};

/// An interned context frame: a Symbolizer name id and the call-site probe
/// id of the call toward the next frame (0 for a leaf).
struct InternedFrame {
  uint32_t Func = 0;
  uint32_t Site = 0;
};

class Symbolizer {
public:
  explicit Symbolizer(const Binary &Bin);

  const Binary &binary() const { return Bin; }

  /// Function name for a GUID ("" if unknown).
  const std::string &nameOfGuid(uint64_t Guid) const {
    return Names[nameIdOfGuid(Guid)];
  }

  /// Interned names. Ids follow name order, so comparing two ids compares
  /// their names; "" (an unknown GUID) is id 0.
  const std::string &name(uint32_t Id) const { return Names[Id]; }
  uint32_t funcNameId(uint32_t FuncIdx) const { return FuncNames[FuncIdx]; }

  /// Classifies the instruction at \p Idx.
  BranchKind classify(size_t Idx) const;

  /// The function a taken branch \p Src -> \p Dst calls: ~0u unless it is
  /// a call or tail-call jump landing on a function's entry.
  uint32_t calleeOf(size_t Src, size_t Dst) const;

  /// The instruction at \p Idx: its call-site probe id (0 if none), the
  /// name id of the function owning its line numbering, and its inline
  /// frames, outermost first. Its leaf frame is (originAt, callProbeAt).
  uint32_t callProbeAt(size_t Idx) const { return Insts[Idx].CallProbe; }
  uint32_t originAt(size_t Idx) const { return Insts[Idx].Origin; }
  std::span<const InternedFrame> inlineFramesAt(size_t Idx) const {
    return frames(Insts[Idx].Inline);
  }

  struct Span {
    uint32_t Begin = 0, Size = 0;
  };
  /// A block probe, its function's name id, and its inline frames.
  struct BlockProbe {
    uint32_t ProbeId = 0;
    uint32_t Origin = 0;
    Span Inline;
  };
  std::span<const BlockProbe> blockProbesAt(size_t Idx) const {
    return {Probes.data() + Insts[Idx].ProbesBegin,
            Probes.data() + Insts[Idx + 1].ProbesBegin};
  }
  std::span<const InternedFrame> frames(Span S) const {
    return {FramePool.data() + S.Begin, S.Size};
  }

private:
  struct InstInfo {
    uint32_t Origin = 0;
    uint32_t CallProbe = 0;
    Span Inline;
    uint32_t ProbesBegin = 0; ///< Into Probes; ends at the next entry's.
  };

  uint32_t nameIdOfGuid(uint64_t Guid) const;
  /// The inline frames of Funcs[\p FuncIdx].InlineTable[\p InlineId];
  /// empty for id 0 and for ids past the function's table.
  Span inlineSpan(uint32_t FuncIdx, uint32_t InlineId) const;

  const Binary &Bin;
  std::vector<std::string> Names;
  std::unordered_map<uint64_t, uint32_t> GuidIds;
  std::vector<uint32_t> FuncNames;
  /// Every function's inline tables, flattened: table I of function F
  /// is InlineSpans[InlineBase[F] + I], a span of FramePool.
  std::vector<InternedFrame> FramePool;
  std::vector<Span> InlineSpans;
  std::vector<uint32_t> InlineBase;
  std::vector<InstInfo> Insts; ///< One per instruction, plus a sentinel.
  std::vector<BlockProbe> Probes;
};

/// LBR counts of Samples[Begin, End), without unwinding: how often each
/// instruction ran in a linear range (a branch target to the next branch
/// source, in one function) and how often each call was taken.
/// Ranges with an end outside the text, running backwards or crossing a
/// function boundary are skipped and counted broken.
struct LBRCounts {
  std::vector<uint64_t> Insts; ///< One per instruction.
  /// Calls (Symbolizer::calleeOf): (call instruction, callee) -> count.
  std::map<std::pair<size_t, uint32_t>, uint64_t> Calls;
  uint64_t Ranges = 0, BrokenRanges = 0;
};
LBRCounts countLBR(const Symbolizer &Sym,
                   const std::vector<PerfSample> &Samples, size_t Begin,
                   size_t End);

} // namespace csspgo

#endif // CSSPGO_PROFGEN_SYMBOLIZER_H
