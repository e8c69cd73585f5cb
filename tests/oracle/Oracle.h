//===- tests/oracle/Oracle.h - Executor test oracle -------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The test-only oracle for the simulator (library csspgo_oracle): the
/// straightforward reference interpreter, independent of the production
/// machine model in sim/MachineCore.h, plus the one run comparison every
/// differential check (unit tests, the fuzz harness, bench/micro_executor)
/// reports through.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_TESTS_ORACLE_ORACLE_H
#define CSSPGO_TESTS_ORACLE_ORACLE_H

#include "sim/Executor.h"
#include "trace/TraceDecoder.h"

#include <string>
#include <vector>

namespace csspgo {

/// Runs \p Bin like execute(), on the reference interpreter. Must produce
/// a RunResult bit-identical to execute()'s for every well-formed binary
/// and configuration.
RunResult executeReference(const Binary &Bin, const std::string &Entry,
                           std::vector<int64_t> &Memory,
                           const ExecConfig &Config);

/// Compares every RunResult field. Returns an empty string when \p A and
/// \p B match, else a message naming the first field that differs (values
/// printed A first).
std::string diffRuns(const RunResult &A, const RunResult &B);

/// \p Live as \p Replay reconstructs it: the replay's clock, counters and
/// samples over everything a trace cannot carry (exit value, memory-side
/// outputs). diffRuns(Live, replayedRun(Live, Replay)) holds a replay to
/// the sampled run it must reproduce.
RunResult replayedRun(const RunResult &Live, const TraceReplayResult &Replay);

} // namespace csspgo

#endif // CSSPGO_TESTS_ORACLE_ORACLE_H
