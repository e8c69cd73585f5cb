//===- profgen/MissingFrameInferrer.cpp - Tail-call frame recovery ----------===//

#include "profgen/MissingFrameInferrer.h"

namespace csspgo {

void MissingFrameInferrer::addTailCallEdge(uint32_t FromFunc,
                                           uint32_t SiteProbe,
                                           uint32_t ToFunc) {
  Edges[FromFunc].insert({SiteProbe, ToFunc});
}

void MissingFrameInferrer::addEdgesFrom(const MissingFrameInferrer &Other) {
  for (const auto &[From, Targets] : Other.Edges)
    Edges[From].insert(Targets.begin(), Targets.end());
}

unsigned MissingFrameInferrer::countPaths(uint32_t From, uint32_t To,
                                          std::set<uint32_t> &Visiting,
                                          std::vector<InternedFrame> &Path,
                                          unsigned Limit) const {
  if (From == To)
    return 1;
  if (!Visiting.insert(From).second)
    return 0; // Cycle.
  auto It = Edges.find(From);
  unsigned Found = 0;
  if (It != Edges.end()) {
    for (const auto &[Site, Next] : It->second) {
      // Every call leaves Visiting as it found it, so the search below
      // sees exactly the functions on the current path.
      std::vector<InternedFrame> Sub;
      unsigned N = countPaths(Next, To, Visiting, Sub, Limit - Found);
      if (N > 0 && Found == 0) {
        // Record the first found path.
        Path.push_back({From, Site});
        Path.insert(Path.end(), Sub.begin(), Sub.end());
      }
      Found += N;
      if (Found >= Limit)
        break;
    }
  }
  Visiting.erase(From);
  return Found;
}

const MissingFrameInferrer::Result &MissingFrameInferrer::infer(uint32_t From,
                                                              uint32_t To) {
  auto [It, New] = Memo.try_emplace({From, To});
  Result &R = It->second;
  if (New) {
    std::set<uint32_t> Visiting;
    unsigned N = countPaths(From, To, Visiting, R.Path, 2);
    R.O = N == 0 ? Outcome::NoPath
                 : N > 1 ? Outcome::Ambiguous : Outcome::Recovered;
  }
  return R;
}

void MissingFrameInferrer::Stats::record(Outcome O) {
  ++Attempts;
  ++(O == Outcome::Recovered   ? Recovered
     : O == Outcome::Ambiguous ? AmbiguousPaths
                               : NoPath);
}

MissingFrameInferrer::Stats &
MissingFrameInferrer::Stats::operator+=(const Stats &O) {
  Attempts += O.Attempts;
  Recovered += O.Recovered;
  AmbiguousPaths += O.AmbiguousPaths;
  NoPath += O.NoPath;
  return *this;
}

} // namespace csspgo
