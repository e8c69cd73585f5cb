//===- profile/FunctionProfile.cpp - Sample profile data ------------------===//

#include "profile/FunctionProfile.h"

namespace csspgo {

void FunctionProfile::addBody(ProfileKey K, uint64_t N) {
  uint64_t &Slot = Body[K];
  Slot = saturatingAdd(Slot, N);
  TotalSamples = saturatingAdd(TotalSamples, N);
}

void FunctionProfile::maxBody(ProfileKey K, uint64_t N) {
  uint64_t &Slot = Body[K];
  if (N > Slot) {
    TotalSamples = saturatingAdd(TotalSamples, N - Slot);
    Slot = N;
  }
}

void FunctionProfile::addCall(ProfileKey K, const std::string &Callee,
                              uint64_t N) {
  uint64_t &Slot = Calls[K][Callee];
  Slot = saturatingAdd(Slot, N);
}

uint64_t FunctionProfile::bodyAt(ProfileKey K) const {
  auto It = Body.find(K);
  return It == Body.end() ? 0 : It->second;
}

const FunctionProfile *
FunctionProfile::inlineeAt(ProfileKey K, const std::string &Callee) const {
  auto It = Inlinees.find(K);
  if (It == Inlinees.end())
    return nullptr;
  auto It2 = It->second.find(Callee);
  return It2 == It->second.end() ? nullptr : &It2->second;
}

FunctionProfile *FunctionProfile::inlineeAt(ProfileKey K,
                                            const std::string &Callee) {
  return const_cast<FunctionProfile *>(
      static_cast<const FunctionProfile *>(this)->inlineeAt(K, Callee));
}

FunctionProfile &
FunctionProfile::getOrCreateInlinee(ProfileKey K, const std::string &Callee) {
  FunctionProfile &P = Inlinees[K][Callee];
  if (P.Name.empty())
    P.Name = Callee;
  return P;
}

uint64_t FunctionProfile::merge(const FunctionProfile &Other) {
  uint64_t Saturated = 0;
  auto SatInto = [&Saturated](uint64_t &Slot, uint64_t V) {
    if (saturatingAccum(Slot, V))
      ++Saturated;
  };
  for (const auto &[K, N] : Other.Body) {
    SatInto(Body[K], N);
    SatInto(TotalSamples, N);
  }
  SatInto(HeadSamples, Other.HeadSamples);
  for (const auto &[K, Targets] : Other.Calls)
    for (const auto &[Callee, N] : Targets)
      SatInto(Calls[K][Callee], N);
  for (const auto &[K, Map] : Other.Inlinees)
    for (const auto &[Callee, P] : Map) {
      FunctionProfile &Sub = getOrCreateInlinee(K, Callee);
      // Carry probe metadata down: an inlinee present only in Other must
      // keep its GUID/checksum, or stale-profile detection breaks on the
      // merged profile.
      if (P.Guid)
        Sub.Guid = P.Guid;
      if (P.Checksum)
        Sub.Checksum = P.Checksum;
      Saturated += Sub.merge(P);
    }
  return Saturated;
}

uint64_t FunctionProfile::totalBodySamples() const {
  uint64_t Total = 0;
  for (const auto &[K, N] : Body)
    Total = saturatingAdd(Total, N);
  for (const auto &[K, Map] : Inlinees)
    for (const auto &[Callee, P] : Map)
      Total = saturatingAdd(Total, P.totalBodySamples());
  return Total;
}

FunctionProfile &FlatProfile::getOrCreate(const std::string &Name) {
  FunctionProfile &P = Functions[Name];
  if (P.Name.empty())
    P.Name = Name;
  return P;
}

const FunctionProfile *FlatProfile::find(const std::string &Name) const {
  auto It = Functions.find(Name);
  return It == Functions.end() ? nullptr : &It->second;
}

uint64_t FlatProfile::totalSamples() const {
  uint64_t Total = 0;
  for (const auto &[Name, P] : Functions)
    Total = saturatingAdd(Total, P.TotalSamples);
  return Total;
}

} // namespace csspgo
