//===- tests/oracle/Oracle.h - Executor test oracle -------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The test-only oracle (library csspgo_oracle), the independent second
/// implementation every differential check (unit tests, the fuzz
/// harness, the micro benches) diffs production code against:
///
///  * for the simulator, the straightforward reference interpreter,
///    independent of the production machine model in sim/MachineCore.h,
///    plus the one run comparison the checks report through;
///  * for the profile data plane, the sequential map-container merges and
///    decay scaler that specify mergeFlatViews / mergeContextViews /
///    scaleFlatView / scaleContextView (profile/ProfileArena.h), written
///    without the arena.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_TESTS_ORACLE_ORACLE_H
#define CSSPGO_TESTS_ORACLE_ORACLE_H

#include "profile/ContextTrie.h"
#include "profile/FunctionProfile.h"
#include "profile/ProfileMerge.h"
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

/// Accumulates \p Src into \p Dst (counts are summed) — the mergeInto
/// step of the mergeFlatViews contract. An empty \p Dst adopts \p Src's
/// kind; otherwise a kind mismatch (line-based vs probe-based) is fatal.
MergeStats mergeFlatProfiles(FlatProfile &Dst, const FlatProfile &Src);

/// Accumulates \p Src into \p Dst context by context — the step of the
/// mergeContextViews contract. Same kind rules as mergeFlatProfiles.
MergeStats mergeContextProfiles(ContextProfile &Dst,
                                const ContextProfile &Src);

/// Scales every count in \p Profile by Num/Den under the scaleFlatView
/// contract (round half up, telescoping head/call-edge accumulators,
/// \p ExactCounts head clamp).
void scaleFlatProfile(FlatProfile &Profile, uint64_t Num, uint64_t Den,
                      bool ExactCounts = false);
void scaleContextProfile(ContextProfile &Profile, uint64_t Num, uint64_t Den);

} // namespace csspgo

#endif // CSSPGO_TESTS_ORACLE_ORACLE_H
