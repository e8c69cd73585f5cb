//===- postlink/ProfileMap.h - Profile mapping at binary addresses -*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Profile mapping side of the post-link optimizer (BOLT stage 2): project
/// execution profiles onto a reconstructed binary CFG, at binary
/// addresses.
///
/// Two sources feed the map, mirroring BOLT's perf2bolt aggregation:
///
///  - Raw LBR samples. Each taken-branch record resolves both endpoints
///    through the binary's address index; the fraction that resolves is
///    the mapped-sample rate, the transform gate's confidence signal.
///    Same-function taken edges become CFG edge counts, and — since the
///    simulator's LBR logs *every* control transfer (jumps, calls,
///    returns) — the address range between one record's destination and
///    the next record's source is a straight-line fallthrough run, which
///    AutoFDO-style range inference converts into block and fallthrough
///    edge counts.
///
///  - The loader's function profiles (probe-keyed). For functions the LBR
///    left dark, top-level probe records translate body counts onto the
///    blocks anchoring each probe. A profile whose CFG checksum disagrees
///    with the (optionally supplied) IR is stale — exactly the BOLT-side
///    staleness problem — and is routed through the src/matcher anchors;
///    only a recovery clearing the matcher's confidence threshold is
///    applied, otherwise the profile is dropped as the loader would.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_POSTLINK_PROFILEMAP_H
#define CSSPGO_POSTLINK_PROFILEMAP_H

#include "ir/Module.h"
#include "matcher/StaleMatcher.h"
#include "postlink/BinaryCFG.h"
#include "profile/FunctionProfile.h"
#include "sim/Sampler.h"

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace csspgo {
namespace postlink {

struct ProfileMapStats {
  uint64_t LBREndpoints = 0; ///< Branch-record endpoints seen.
  uint64_t LBRResolved = 0;  ///< Endpoints resolving to an instruction.
  /// LBRResolved / LBREndpoints; with no LBR data, 1.0 if probe counts
  /// mapped (the profile speaks for the whole binary) else 0.0.
  double MappedSampleRate = 0;
  unsigned FuncsWithCounts = 0;  ///< Functions with any mapped counts.
  unsigned FuncsFromProbes = 0;  ///< ... of which probe-count fallback.
  unsigned StaleProfiles = 0;    ///< Checksum-mismatched function profiles.
  unsigned StaleRecovered = 0;   ///< ... recovered through the matcher.
  unsigned StaleDropped = 0;     ///< ... dropped (low confidence/no IR).
};

/// The execution profile of one binary, expressed on its reconstructed
/// CFG.
struct BinaryProfile {
  /// Execution count per BinaryCFG block (parallel to CFG.Blocks).
  std::vector<uint64_t> BlockCounts;
  /// Taken/fallthrough counts between same-function blocks.
  std::map<std::pair<unsigned, unsigned>, uint64_t> EdgeCounts;
  /// Per function: whether any of its blocks received a count.
  std::vector<bool> FuncHasCounts;
  ProfileMapStats Stats;

  uint64_t blockCount(unsigned B) const { return BlockCounts[B]; }
  uint64_t edgeCount(unsigned Src, unsigned Dst) const {
    auto It = EdgeCounts.find({Src, Dst});
    return It == EdgeCounts.end() ? 0 : It->second;
  }
};

/// Maps \p Samples (and, for LBR-dark functions, \p FnProf) onto \p CFG.
/// \p IR, when given, enables staleness detection for the probe-count
/// fallback: a function profile whose checksum mismatches the IR routes
/// through the anchor matcher and is dropped only if the match fails.
BinaryProfile mapProfileToBinary(const BinaryCFG &CFG,
                                 const std::vector<PerfSample> &Samples,
                                 const FlatProfile *FnProf = nullptr,
                                 const Module *IR = nullptr);

} // namespace postlink
} // namespace csspgo

#endif // CSSPGO_POSTLINK_PROFILEMAP_H
