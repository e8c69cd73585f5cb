//===- profgen/BinarySizeExtractor.cpp - Algorithm 3 ------------------------===//

#include "profgen/BinarySizeExtractor.h"

#include <set>

namespace csspgo {

void FuncSizeTable::add(const SampleContext &Ctx, uint64_t Bytes) {
  uint64_t &Slot = Sizes[Ctx];
  bool New = Slot == 0;
  Slot += Bytes;
  auto &[Sum, N] = Totals[Ctx.back().Func];
  Sum += Bytes;
  if (New)
    ++N;
}

uint64_t FuncSizeTable::sizeForContext(const SampleContext &Ctx) const {
  auto It = Sizes.find(Ctx);
  if (It != Sizes.end())
    return It->second;
  return averageSizeFor(Ctx.back().Func);
}

uint64_t FuncSizeTable::averageSizeFor(const std::string &Func) const {
  auto It = Totals.find(Func);
  if (It == Totals.end() || It->second.second == 0)
    return 0;
  return It->second.first / It->second.second;
}

FuncSizeTable extractFuncSizes(const Binary &Bin) {
  // Algorithm 3: for every instruction, attribute its size to its full
  // inline frame chain, and also initialize all prefixes so that callers
  // whose code was entirely absorbed/optimized away still get an entry
  // (size 0) — that is how the pre-inliner learns a function "will
  // eventually be fully optimized away".
  Symbolizer Sym(Bin);
  FuncSizeTable Table;
  std::map<SampleContext, uint64_t> Acc;
  std::set<SampleContext> Seen;

  for (size_t Idx = 0; Idx != Bin.Code.size(); ++Idx) {
    SampleContext Ctx;
    for (InternedFrame F : Sym.inlineFramesAt(Idx))
      Ctx.push_back({Sym.name(F.Func), F.Site});
    Ctx.push_back({Sym.name(Sym.originAt(Idx)), 0});
    Acc[Ctx] += Bin.Code[Idx].Size;
    // Register all prefixes (PopLeafFrames loop of Algorithm 3).
    SampleContext Prefix = Ctx;
    while (Prefix.size() > 1) {
      Prefix.pop_back();
      Prefix.back().Site = 0;
      Seen.insert(Prefix);
    }
  }

  for (const auto &[Ctx, Bytes] : Acc)
    Table.add(Ctx, Bytes);
  for (const auto &Ctx : Seen)
    if (!Acc.count(Ctx))
      Table.add(Ctx, 0); // Caller copy fully optimized away.
  return Table;
}

} // namespace csspgo
