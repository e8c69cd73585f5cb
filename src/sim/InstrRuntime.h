//===- sim/InstrRuntime.h - Instrumentation runtime -------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profile-dump side of traditional instrumentation: turns the raw
/// global counter array produced by an instrumented run into per-function
/// counter vectors (the equivalent of writing a .profraw file at exit).
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_SIM_INSTRRUNTIME_H
#define CSSPGO_SIM_INSTRRUNTIME_H

#include "codegen/MachineModule.h"
#include "sim/Executor.h"

#include <map>
#include <string>
#include <vector>

namespace csspgo {

/// Raw instrumentation dump: function name -> counter values indexed by the
/// function-local counter id (index 0 unused; ids are 1-based).
struct CounterDump {
  std::map<std::string, std::vector<uint64_t>> Functions;
};

/// Extracts the per-function counters of \p Result (an instrumented run on
/// \p Bin).
CounterDump dumpCounters(const Binary &Bin, const RunResult &Result);

} // namespace csspgo

#endif // CSSPGO_SIM_INSTRRUNTIME_H
