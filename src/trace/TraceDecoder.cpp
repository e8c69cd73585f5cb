//===- trace/TraceDecoder.cpp - Trace control-flow replay ------------------===//
//
// The replay drives the same machine model as the live interpreter
// (sim/MachineCore.h) in the same per-instruction order (fetch, sampler,
// handler), so cost charging, the LBR ring, stack capture and the skid
// draws cannot drift apart. Only control flow differs: conditional
// outcomes and indirect targets come from the packet stream instead of
// register values. What stays here is packet decoding, the TSC
// cross-checks and timing attribution.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceDecoder.h"

#include "sim/MachineCore.h"

#include <unordered_map>
#include <utility>

namespace csspgo {

namespace {

/// Sequential packet consumer. Reads are bounds-checked and tag-checked;
/// every framing violation is a Status error carrying the byte offset.
/// Bytes are tallied as packets are consumed, which reproduces the
/// encoder's charge order (the encoder flushes everything pending before a
/// TSC, so at any timestamp boundary the consumed bytes equal the bytes
/// the traced run had been charged for).
class PacketReader {
public:
  PacketReader(const TraceData &Trace, const TraceConfig &Format)
      : Trace(Trace), Format(Format) {}

  uint64_t consumedBytes() const { return Consumed; }
  bool pendingBits() const { return BitsUsed < BitsCount; }
  bool atEnd() const { return Pos == Trace.Bytes.size(); }

  /// Next conditional-branch outcome: 0/1, or -1 when a truncated trace
  /// ran out (the clean stop; never returned for intact traces).
  Status takeBit(int &Bit) {
    if (BitsUsed == BitsCount) {
      if (atEnd()) {
        if (Trace.Truncated) {
          Bit = -1;
          return Status();
        }
        return corrupt("trace ends before a conditional-branch outcome");
      }
      uint8_t Tag = Trace.Bytes[Pos];
      if (Tag < TraceTagTNTBase || Tag > TraceTagTNTBase + 7)
        return corrupt("expected a TNT packet");
      if (Pos + 2 > Trace.Bytes.size())
        return corrupt("TNT packet cut mid-payload");
      BitsCount = static_cast<uint32_t>(Tag - TraceTagTNTBase) + 1;
      Payload = Trace.Bytes[Pos + 1];
      BitsUsed = 0;
      Pos += 2;
      Consumed += 2;
    }
    Bit = (Payload >> BitsUsed) & 1;
    ++BitsUsed;
    return Status();
  }

  /// Next indirect-call target; -1 on a truncated trace's clean stop.
  Status takeTip(int64_t &Callee, size_t NumFuncs) {
    if (pendingBits())
      return corrupt("TNT bits pending at an indirect call");
    if (atEnd()) {
      if (Trace.Truncated) {
        Callee = -1;
        return Status();
      }
      return corrupt("trace ends before an indirect-call target");
    }
    if (Trace.Bytes[Pos] != TraceTagTIP)
      return corrupt("expected a TIP packet");
    size_t Start = Pos++;
    uint64_t V = 0;
    if (!traceReadULEB128(Trace.Bytes, Pos, V))
      return corrupt("corrupt TIP payload");
    if (V >= NumFuncs)
      return corrupt("TIP callee index out of range");
    Consumed += Pos - Start;
    Callee = static_cast<int64_t>(V);
    return Status();
  }

  /// Consumes the TSC packet due at a timestamp boundary. \p Got is false
  /// only on a truncated trace's clean stop; \p ConsumedBefore reports the
  /// bytes consumed *before* this packet (the traced run's write charge at
  /// the moment the delta was recorded).
  Status takeTsc(bool &Got, uint64_t &Delta, uint64_t &ConsumedBefore) {
    Got = false;
    if (pendingBits())
      return corrupt("TNT packet crosses a timestamp boundary");
    if (atEnd()) {
      if (Trace.Truncated)
        return Status();
      return corrupt("trace ends at a timestamp boundary");
    }
    if (Trace.Bytes[Pos] != TraceTagTSC)
      return corrupt("expected a TSC packet");
    ConsumedBefore = Consumed;
    size_t Start = Pos++;
    if (Format.CompressTimestamps) {
      if (!traceReadULEB128(Trace.Bytes, Pos, Delta))
        return corrupt("corrupt TSC payload");
    } else {
      if (Pos + 8 > Trace.Bytes.size())
        return corrupt("TSC packet cut mid-payload");
      Delta = 0;
      for (int B = 0; B != 8; ++B)
        Delta |= static_cast<uint64_t>(Trace.Bytes[Pos + B]) << (8 * B);
      Pos += 8;
    }
    Consumed += Pos - Start;
    Got = true;
    return Status();
  }

  /// Validates the stream tail once the replayed program stops: an intact
  /// trace must end with exactly one END packet, a truncated one must be
  /// fully consumed, and no branch outcomes may be left over.
  Status expectEnd() {
    if (pendingBits())
      return corrupt("unconsumed branch outcomes at program end");
    if (Trace.Truncated) {
      if (!atEnd())
        return corrupt("truncated trace continues past program end");
      return Status();
    }
    if (atEnd())
      return corrupt("missing END packet");
    if (Trace.Bytes[Pos] != TraceTagEnd)
      return corrupt("expected the END packet");
    ++Pos;
    ++Consumed;
    if (!atEnd())
      return corrupt("trailing bytes after the END packet");
    return Status();
  }

private:
  Status corrupt(const char *What) const {
    return Status::error("corrupt trace at byte " + std::to_string(Pos) +
                         ": " + What);
  }

  const TraceData &Trace;
  const TraceConfig &Format;
  size_t Pos = 0;
  uint64_t Consumed = 0;
  uint8_t Payload = 0;
  uint32_t BitsUsed = 0;
  uint32_t BitsCount = 0;
};

/// Replayed call frame: just enough to rebuild sampled stacks (registers
/// are gone — the trace carries no data) plus the block the frame is
/// currently attributing time to.
struct ReplayFrame {
  uint32_t FuncIdx = 0;
  /// Resume point in the caller; SIZE_MAX for the outermost frame.
  size_t RetIdx = SIZE_MAX;
  uint64_t RetAddr = 0;
  /// Timing attribution: the (guid, probe id) of the last block probe
  /// crossed in this frame.
  bool HasKey = false;
  std::pair<uint64_t, uint32_t> Key{0, 0};
};

class Replayer {
public:
  Replayer(const Binary &Bin, const TraceData &Trace,
           const TraceReplayOptions &Opts)
      : Bin(Bin), Opts(Opts), Reader(Trace, Opts.Format),
        Core(Bin, Opts.Costs, Opts.Sampler, Opts.MaxInstructions) {}

  Expected<TraceReplayResult> run(const std::string &Entry);

private:
  /// Called at the two packet hook positions after every branch event;
  /// consumes and cross-checks the TSC packet when one is due.
  /// \p CleanStop is set on a truncated trace's end.
  Status branchEventBoundary(bool &CleanStop) {
    CleanStop = false;
    ++BranchEvents;
    if (!Opts.Format.TimestampEvery ||
        BranchEvents % Opts.Format.TimestampEvery != 0)
      return Status();
    bool Got = false;
    uint64_t Delta = 0, ConsumedBefore = 0;
    if (Status S = Reader.takeTsc(Got, Delta, ConsumedBefore); !S.ok())
      return S;
    if (!Got) {
      CleanStop = true;
      return Status();
    }
    ++Result.Timestamps;
    // The recorded value is the traced run's perturbed clock before the
    // TSC packet's own bytes: unperturbed cycles + bytes-written so far
    // times the per-byte write cost. The encoder then advances its
    // reference point past its own bytes.
    uint64_t PerByte = Opts.Costs.TraceByteCost;
    uint64_t AtEmission = Base + ConsumedBefore * PerByte;
    if (AtEmission - LastTimestamp != Delta)
      ++Result.TimestampMismatches;
    LastTimestamp = Base + Reader.consumedBytes() * PerByte;
    return Status();
  }

  const Binary &Bin;
  const TraceReplayOptions &Opts;
  PacketReader Reader;
  MachineCore Core;

  std::vector<MachineCore::Inst> Code;
  std::vector<ReplayFrame> Frames;
  std::unordered_map<size_t, std::vector<std::pair<uint64_t, uint32_t>>>
      BlockProbeAt;
  TraceReplayResult Result;

  /// The traced run's unperturbed clock, which the TSC cross-check builds
  /// on. The virtual sampler gates on Base + InterruptCharges: the
  /// sampled run's clock, perturbed by its own interrupt cost.
  uint64_t Base = 0;
  uint64_t InterruptCharges = 0;
  uint64_t BranchEvents = 0;
  uint64_t LastTimestamp = 0;
};

Expected<TraceReplayResult> Replayer::run(const std::string &Entry) {
  uint32_t EntryIdx = Bin.funcIndexByName(Entry);
  if (EntryIdx == ~0u)
    return Status::error("trace replay: entry function '" + Entry +
                         "' not found");
  if (Status S = Core.predecode(Code); !S.ok())
    return Status::error("trace replay: " + S.message());
  if (Opts.CollectTiming)
    for (const ProbeRecord &P : Bin.Probes)
      if (!P.IsCallProbe)
        BlockProbeAt[P.InstIdx].push_back({P.Guid, P.ProbeId});

  Frames.push_back(ReplayFrame{EntryIdx, SIZE_MAX, 0, false, {0, 0}});
  size_t PC = Bin.Funcs[EntryIdx].EntryIdx;
  MachineCore::ICStreak Streak;

  enum class Stop { None, Completed, Truncated, Limit };
  Stop Why = Stop::None;

  while (Why == Stop::None) {
    if (Result.Instructions >= Opts.MaxInstructions) {
      // The traced run stopped here too ("instruction limit exceeded");
      // the stream-tail check below verifies that.
      Why = Stop::Limit;
      break;
    }
    if (PC >= Code.size())
      return Status::error("trace replay: PC out of range (malformed binary)");
    const MachineCore::Inst &I = Code[PC];

    ++Result.Instructions;
    uint64_t BaseBefore = Base;
    bool CondMispredict = false;
    Core.fetch(I, Base, Streak);
    uint64_t Virt = Base + InterruptCharges;
    Core.maybeSample(PC, Virt, Frames);
    InterruptCharges = Virt - Base;

    // Timing attribution: crossing a block probe re-keys the frame; the
    // instruction's cycles go to whatever block the frame is then in.
    bool HasAttr = false;
    std::pair<uint64_t, uint32_t> Attr{0, 0};
    if (Opts.CollectTiming) {
      auto It = BlockProbeAt.find(PC);
      if (It != BlockProbeAt.end()) {
        ReplayFrame &F = Frames.back();
        for (const auto &Key : It->second) {
          ++Result.Timing.Blocks[Key].Executed;
          F.Key = Key;
          F.HasKey = true;
        }
      }
      if (Frames.back().HasKey) {
        HasAttr = true;
        Attr = Frames.back().Key;
      }
    }

    size_t NextPC = PC + 1;
    switch (I.Op) {
    case Opcode::Br:
      NextPC = I.Target;
      Core.jump(I, Base);
      break;

    case Opcode::CondBr: {
      int Bit = 0;
      if (Status S = Reader.takeBit(Bit); !S.ok())
        return S;
      if (Bit < 0) {
        Why = Stop::Truncated;
        break;
      }
      bool Taken = Bit != 0;
      CondMispredict = Core.condBranch(I, Taken, Base);
      if (Taken)
        NextPC = I.Target;
      bool CleanStop = false;
      if (Status S = branchEventBoundary(CleanStop); !S.ok())
        return S;
      if (CleanStop)
        Why = Stop::Truncated;
      break;
    }

    case Opcode::CallIndirect:
    case Opcode::Call: {
      uint32_t CalleeIdx = I.CalleeIdx;
      if (I.Op == Opcode::CallIndirect) {
        int64_t Tip = 0;
        if (Status S = Reader.takeTip(Tip, Bin.Funcs.size()); !S.ok())
          return S;
        if (Tip < 0) {
          Why = Stop::Truncated;
          break;
        }
        CalleeIdx = static_cast<uint32_t>(Tip);
        if (!Core.validCallee(CalleeIdx))
          return Status::error("trace replay: TIP names function " +
                               std::to_string(CalleeIdx) +
                               ", which has no code");
        Core.indirectCall(I, CalleeIdx, Base);
        // (Value profiles are not reconstructible — the trace records the
        // resolved callee, not the dispatch slot — and the sampling path
        // the replay reproduces never collects them.)
        bool CleanStop = false;
        if (Status S = branchEventBoundary(CleanStop); !S.ok())
          return S;
        if (CleanStop) {
          Why = Stop::Truncated;
          break;
        }
      }
      ++Core.Counters.Calls;
      NextPC = Bin.Funcs[CalleeIdx].EntryIdx;
      if (I.IsTailCall) {
        ReplayFrame &F = Frames.back();
        F.FuncIdx = CalleeIdx;
        F.HasKey = false; // New function body; re-keyed at its first probe.
        Core.takenBranch(I.Addr, Code[NextPC].Addr, Base);
        break;
      }
      if (Frames.size() >= Opts.MaxCallDepth) {
        Why = Stop::Limit; // "call depth limit exceeded" in the traced run.
        break;
      }
      Frames.push_back(ReplayFrame{CalleeIdx, I.RetIdx, I.RetAddr, false,
                                   {0, 0}});
      Core.takenBranch(I.Addr, Code[NextPC].Addr, Base);
      break;
    }

    case Opcode::Ret: {
      ReplayFrame F = Frames.back();
      Frames.pop_back();
      if (Frames.empty() || F.RetIdx == SIZE_MAX) {
        Why = Stop::Completed;
        break;
      }
      NextPC = F.RetIdx;
      Core.takenBranch(I.Addr, F.RetAddr, Base);
      break;
    }

    default:
      // Straight-line instructions carry no trace payload; only their
      // (already charged) cost matters to the replay.
      break;
    }

    if (HasAttr) {
      BlockTimingStats &St = Result.Timing.Blocks[Attr];
      St.Cycles += Base - BaseBefore;
      if (CondMispredict)
        ++St.Mispredicts;
    }
    PC = NextPC;
  }

  if (Why == Stop::Truncated) {
    Result.Truncated = true;
  } else {
    if (Status S = Reader.expectEnd(); !S.ok())
      return S;
    Result.Completed = Why == Stop::Completed;
  }
  Result.Cycles = Base + InterruptCharges;
  Core.finishInto(Result);
  return std::move(Result);
}

} // namespace

Expected<TraceReplayResult> replayTrace(const Binary &Bin,
                                        const std::string &Entry,
                                        const TraceData &Trace,
                                        const TraceReplayOptions &Opts) {
  return Replayer(Bin, Trace, Opts).run(Entry);
}

} // namespace csspgo
