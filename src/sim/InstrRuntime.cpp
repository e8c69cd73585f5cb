//===- sim/InstrRuntime.cpp - Instrumentation runtime ----------------------===//

#include "sim/InstrRuntime.h"

namespace csspgo {

CounterDump dumpCounters(const Binary &Bin, const RunResult &Result) {
  CounterDump Dump;
  for (const auto &[Guid, BaseNum] : Bin.CounterOwners) {
    auto [Base, Num] = BaseNum;
    if (!Num)
      continue;
    auto NameIt = Bin.DebugNames.find(Guid);
    if (NameIt == Bin.DebugNames.end())
      continue;
    std::vector<uint64_t> Counters(Num + 1, 0);
    for (uint32_t C = 1; C <= Num; ++C) {
      uint32_t Global = Base + C;
      if (Global < Result.Counters.size())
        Counters[C] = Result.Counters[Global];
    }
    Dump.Functions[NameIt->second] = std::move(Counters);
  }
  return Dump;
}

} // namespace csspgo
