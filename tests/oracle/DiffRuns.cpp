//===- tests/oracle/DiffRuns.cpp - Field-by-field run comparison ----------===//

#include "oracle/Oracle.h"

#include <sstream>

namespace csspgo {

std::string diffRuns(const RunResult &A, const RunResult &B) {
  std::ostringstream OS;
#define CSSPGO_DIFF_SCALAR(Field)                                              \
  if (A.Field != B.Field) {                                                    \
    OS << #Field " " << A.Field << " vs " << B.Field;                          \
    return OS.str();                                                           \
  }
#define CSSPGO_DIFF_CONTAINER(Field)                                           \
  if (A.Field != B.Field)                                                      \
    return #Field " differ";

  CSSPGO_DIFF_SCALAR(Completed)
  CSSPGO_DIFF_SCALAR(Error)
  CSSPGO_DIFF_SCALAR(ExitValue)
  CSSPGO_DIFF_SCALAR(Cycles)
  CSSPGO_DIFF_SCALAR(Instructions)
  CSSPGO_DIFF_SCALAR(TakenBranches)
  CSSPGO_DIFF_SCALAR(CondBranches)
  CSSPGO_DIFF_SCALAR(CondTaken)
  CSSPGO_DIFF_SCALAR(UncondJumps)
  CSSPGO_DIFF_SCALAR(Mispredicts)
  CSSPGO_DIFF_SCALAR(ICacheMisses)
  CSSPGO_DIFF_SCALAR(Calls)
  CSSPGO_DIFF_SCALAR(IndirectCalls)
  CSSPGO_DIFF_SCALAR(IndirectMispredicts)
  CSSPGO_DIFF_SCALAR(Samples.size())
  for (size_t I = 0; I != A.Samples.size(); ++I)
    if (A.Samples[I] != B.Samples[I])
      return "sample " + std::to_string(I) + " differs";
  CSSPGO_DIFF_CONTAINER(InstCounts)
  CSSPGO_DIFF_CONTAINER(ValueProfile)
  CSSPGO_DIFF_CONTAINER(Counters)
  CSSPGO_DIFF_CONTAINER(Trace.Bytes)
  CSSPGO_DIFF_SCALAR(Trace.Truncated)
  CSSPGO_DIFF_SCALAR(Trace.Packets)
  CSSPGO_DIFF_SCALAR(Trace.BranchEvents)
  CSSPGO_DIFF_SCALAR(Trace.WriteCycles)
#undef CSSPGO_DIFF_SCALAR
#undef CSSPGO_DIFF_CONTAINER
  return std::string();
}

RunResult replayedRun(const RunResult &Live, const TraceReplayResult &Replay) {
  RunResult R = Live;
  static_cast<MachineCounters &>(R) = Replay;
  R.Cycles = Replay.Cycles;
  R.Instructions = Replay.Instructions;
  R.Samples = Replay.Samples;
  return R;
}

} // namespace csspgo
