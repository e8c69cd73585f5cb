//===- preinline/ProfiledCallGraph.h - Profiled call graph -------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Call graph built purely from profile data (no IR): nodes are function
/// names, edge weights are call-target sample counts summed over all
/// contexts. Provides the top-down traversal order the pre-inliner needs
/// (Algorithm 2 line 1: GetTopDownOrder(ProfiledCallGraph)).
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PREINLINE_PROFILEDCALLGRAPH_H
#define CSSPGO_PREINLINE_PROFILEDCALLGRAPH_H

#include "profile/ContextTrie.h"

#include <map>
#include <string>
#include <vector>

namespace csspgo {

class ProfiledCallGraph {
public:
  /// Builds the graph from all call-target records in \p Profile.
  static ProfiledCallGraph fromProfile(const ContextProfile &Profile);

  /// Functions in top-down order: callers before callees, cycles broken by
  /// edge weight (heaviest tree kept).
  std::vector<std::string> topDownOrder() const;

  const std::map<std::string, std::map<std::string, uint64_t>> &
  edges() const {
    return Edges;
  }

private:
  std::map<std::string, std::map<std::string, uint64_t>> Edges;
  std::map<std::string, uint64_t> InWeight;
  std::vector<std::string> Nodes;
};

} // namespace csspgo

#endif // CSSPGO_PREINLINE_PROFILEDCALLGRAPH_H
