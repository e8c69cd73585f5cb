//===- profile/ContextTrie.h - Context-sensitive profiles -------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The context trie stores one FunctionProfile per *calling context*
/// ("main:12 @ foo:3 @ bar" = bar called from foo's call site 3, foo called
/// from main's call site 12). This is the profile shape produced by the
/// context-sensitive profiler (§III-B) and consumed by the pre-inliner and
/// the CSSPGO profile loader.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PROFILE_CONTEXTTRIE_H
#define CSSPGO_PROFILE_CONTEXTTRIE_H

#include "profile/FunctionProfile.h"

#include <functional>
#include <vector>

namespace csspgo {

/// One frame of a sample context. All frames except the last carry the
/// call-site key (probe id) of the call in that function which leads to the
/// next frame; the last frame is the leaf function itself (Site unused).
struct ContextFrame {
  std::string Func;
  uint32_t Site = 0;

  bool operator==(const ContextFrame &O) const {
    return Func == O.Func && Site == O.Site;
  }
  bool operator<(const ContextFrame &O) const {
    return Func != O.Func ? Func < O.Func : Site < O.Site;
  }
};

/// A full calling context, outermost caller first, leaf last.
using SampleContext = std::vector<ContextFrame>;

/// Renders "[main:12 @ foo:3 @ bar]".
std::string contextToString(const SampleContext &Ctx);

/// Parses the output of contextToString. Returns false on malformed input.
bool contextFromString(const std::string &S, SampleContext &Out);

class ContextTrieNode {
public:
  std::string FuncName;        ///< Function at this node ("" for the root).
  FunctionProfile Profile;     ///< Samples for this exact context.
  bool HasProfile = false;
  /// Pre-inliner decision persisted into the profile: the compiler should
  /// inline this context's leaf into its parent (paper Algorithm 2).
  bool ShouldBeInlined = false;

  /// Children keyed by (call-site key in this function, callee name).
  std::map<std::pair<uint32_t, std::string>, ContextTrieNode> Children;

  ContextTrieNode *getChild(uint32_t Site, const std::string &Callee);
  const ContextTrieNode *getChild(uint32_t Site,
                                  const std::string &Callee) const;
  ContextTrieNode &getOrCreateChild(uint32_t Site, const std::string &Callee);

  /// Sum of TotalSamples in this subtree (saturating at UINT64_MAX, as
  /// FlatProfile::totalSamples does).
  uint64_t subtreeSamples() const;
};

/// Context-sensitive profile database.
class ContextProfile {
public:
  ProfileKind Kind = ProfileKind::ProbeBased;

  ContextTrieNode Root;

  /// Returns the node for \p Ctx, creating intermediate nodes as needed.
  ContextTrieNode &getOrCreateNode(const SampleContext &Ctx);

  /// Returns the node for \p Ctx or nullptr.
  const ContextTrieNode *findNode(const SampleContext &Ctx) const;
  ContextTrieNode *findNode(const SampleContext &Ctx);

  /// Returns the top-level node of \p Func (context = [Func]) or nullptr.
  const ContextTrieNode *findBase(const std::string &Func) const;
  ContextTrieNode *findBase(const std::string &Func);

  /// Visits every node that has a profile, passing its full context.
  void
  forEachNode(const std::function<void(const SampleContext &,
                                       const ContextTrieNode &)> &Fn) const;
  void forEachNodeMutable(
      const std::function<void(const SampleContext &, ContextTrieNode &)> &Fn);

  /// Number of nodes holding a profile.
  size_t numProfiles() const;

  /// Total samples across all contexts (saturating).
  uint64_t totalSamples() const;
};

} // namespace csspgo

#endif // CSSPGO_PROFILE_CONTEXTTRIE_H
