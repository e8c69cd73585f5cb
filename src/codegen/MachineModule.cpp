//===- codegen/MachineModule.cpp - Lowered machine code -------------------===//

#include "codegen/MachineModule.h"

#include <algorithm>
#include <cassert>

namespace csspgo {

uint32_t Binary::funcIndexOf(size_t Idx) const {
  return Idx < FuncOfIdx.size() ? FuncOfIdx[Idx] : ~0u;
}

void Binary::buildAddrIndex() {
  SortedAddrs.resize(Code.size());
  for (size_t I = 0; I != Code.size(); ++I)
    SortedAddrs[I] = Code[I].Addr;
  assert(std::is_sorted(SortedAddrs.begin(), SortedAddrs.end()) &&
         "layout order must be address order");
  // Filled from the last function to the first, so where ranges overlap
  // (only in a malformed binary) the lowest function index wins, as a
  // front-to-back scan would find it.
  FuncOfIdx.assign(Code.size(), ~0u);
  for (uint32_t F = static_cast<uint32_t>(Funcs.size()); F-- > 0;) {
    const MachineFunction &MF = Funcs[F];
    for (auto [B, E] : {std::pair(MF.HotBegin, MF.HotEnd),
                        std::pair(MF.ColdBegin, MF.ColdEnd)})
      for (size_t I = B; I < std::min(E, Code.size()); ++I)
        FuncOfIdx[I] = F;
  }
}

size_t Binary::indexOfAddr(uint64_t Addr) const {
  auto It = std::lower_bound(SortedAddrs.begin(), SortedAddrs.end(), Addr);
  if (It == SortedAddrs.end() || *It != Addr)
    return SIZE_MAX;
  return static_cast<size_t>(It - SortedAddrs.begin());
}

uint64_t Binary::textSize() const {
  uint64_t Total = 0;
  for (const MInst &I : Code)
    Total += I.Size;
  return Total;
}

uint32_t Binary::funcIndexByName(const std::string &Name) const {
  for (uint32_t F = 0; F != Funcs.size(); ++F)
    if (Funcs[F].Name == Name)
      return F;
  return ~0u;
}

std::vector<Binary::SymFrame> Binary::symbolize(size_t Idx) const {
  std::vector<SymFrame> Frames;
  assert(Idx < Code.size());
  const MInst &I = Code[Idx];
  uint32_t FIdx = funcIndexOf(Idx);
  if (FIdx != ~0u && I.InlineId &&
      I.InlineId < Funcs[FIdx].InlineTable.size()) {
    for (const InlineFrame &F : Funcs[FIdx].InlineTable[I.InlineId]) {
      SymFrame S;
      S.Guid = F.FuncGuid;
      S.Loc = F.CallLoc;
      S.CallProbeId = F.CallProbeId;
      Frames.push_back(S);
    }
  }
  SymFrame Leaf;
  Leaf.Guid = I.OriginGuid;
  Leaf.Loc = I.DL;
  Frames.push_back(Leaf);
  return Frames;
}

} // namespace csspgo
