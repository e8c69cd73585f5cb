//===- profile/ProfileSummary.cpp - Hotness thresholds -----------------------===//

#include "profile/ProfileSummary.h"

#include <algorithm>

namespace csspgo {

uint64_t summaryThreshold(std::vector<uint64_t> Counts, double Cutoff) {
  if (Counts.empty())
    return 1;
  std::sort(Counts.rbegin(), Counts.rend());
  long double Total = 0;
  for (uint64_t C : Counts)
    Total += C;
  if (Total <= 0)
    return 1;
  long double Acc = 0;
  for (uint64_t C : Counts) {
    Acc += C;
    if (Acc >= Total * Cutoff)
      return std::max<uint64_t>(C, 1);
  }
  return 1;
}

namespace {

void collectCallCounts(const ProfileArena &A, uint32_t Rec,
                       std::vector<uint64_t> &Out) {
  const FuncRecord &R = A.Records[Rec];
  for (uint32_t I = R.CallsBegin; I != R.CallsEnd; ++I)
    Out.push_back(A.Calls[I].Count);
  for (uint32_t I = R.InlineesBegin; I != R.InlineesEnd; ++I)
    collectCallCounts(A, A.Inlinees[I].Rec, Out);
}

} // namespace

std::vector<uint64_t> hotCountDistribution(const ContextProfileView &V) {
  const ProfileArena &A = V.Arena;
  std::vector<uint64_t> Counts;
  if (V.IsCS) {
    for (const ContextRecord &C : V.Contexts)
      Counts.push_back(A.Records[C.Rec].TotalSamples);
    return Counts;
  }
  for (const ContextRecord &C : V.Contexts)
    collectCallCounts(A, C.Rec, Counts);
  if (Counts.empty())
    for (const ContextRecord &C : V.Contexts) {
      const FuncRecord &R = A.Records[C.Rec];
      for (uint32_t I = R.BodyBegin; I != R.BodyEnd; ++I)
        Counts.push_back(A.Body[I].Count);
    }
  return Counts;
}

uint64_t hotThreshold(const ContextProfileView &V, double Cutoff) {
  return summaryThreshold(hotCountDistribution(V), Cutoff);
}

} // namespace csspgo
