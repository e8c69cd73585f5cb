//===- profgen/MissingFrameInferrer.h - Tail-call frame recovery -*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Missing-frame inference (§III-B "Reliable stack sampling"). Tail-call
/// elimination removes caller frames from sampled stacks. The inferrer
/// builds a *dynamic* call graph of only tail-call edges observed in LBR
/// samples and, given a (caller, callee) pair whose frames do not connect,
/// searches for a unique tail-call path between them; a unique path fills
/// in the missing frames, multiple paths make the inference fail. The
/// paper reports more than two-thirds of missing tail-call frames being
/// recoverable in practice.
///
/// Functions are Symbolizer name ids. Ids follow name order, so the search
/// visits edges, and picks its path, exactly as it would over names.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PROFGEN_MISSINGFRAMEINFERRER_H
#define CSSPGO_PROFGEN_MISSINGFRAMEINFERRER_H

#include "profgen/Symbolizer.h"

#include <map>
#include <set>
#include <vector>

namespace csspgo {

class MissingFrameInferrer {
public:
  /// Records a tail-call edge observed in an LBR sample: a tail-call jump
  /// in \p FromFunc (with call-site probe \p SiteProbe) landing in
  /// \p ToFunc.
  void addTailCallEdge(uint32_t FromFunc, uint32_t SiteProbe,
                       uint32_t ToFunc);

  /// Unions \p Other's edge graph into this one. Edges are a set, so the
  /// union is order-independent — the sharded pipeline collects edges per
  /// shard in parallel and reduces here, yielding the same graph as a
  /// serial scan of the full sample set.
  void addEdgesFrom(const MissingFrameInferrer &Other);

  enum class Outcome : uint8_t { Recovered, Ambiguous, NoPath };
  struct Result {
    Outcome O = Outcome::NoPath;
    std::vector<InternedFrame> Path;
  };

  /// Tries to connect \p From to \p To through tail calls. On Recovered,
  /// Path holds the intermediate functions (including \p From itself with
  /// its outgoing site, excluding \p To). Fails when no path or more than
  /// one path exists. Results are memoized per (From, To), so a copy of
  /// the inferrer must not be shared between threads.
  const Result &infer(uint32_t From, uint32_t To);

  struct Stats {
    uint64_t Attempts = 0;
    uint64_t Recovered = 0;
    uint64_t AmbiguousPaths = 0;
    uint64_t NoPath = 0;

    void record(Outcome O);
    Stats &operator+=(const Stats &O);
    bool operator==(const Stats &) const = default;
  };

private:
  /// Counts the distinct paths From->To (up to Limit) and records one.
  unsigned countPaths(uint32_t From, uint32_t To, std::set<uint32_t> &Visiting,
                      std::vector<InternedFrame> &Path, unsigned Limit) const;

  /// From -> set of (site, to).
  std::map<uint32_t, std::set<std::pair<uint32_t, uint32_t>>> Edges;
  std::map<std::pair<uint32_t, uint32_t>, Result> Memo;
};

} // namespace csspgo

#endif // CSSPGO_PROFGEN_MISSINGFRAMEINFERRER_H
