//===- profile/Trimmer.cpp - Cold-context trimming ------------------------===//

#include "profile/Trimmer.h"

namespace csspgo {

TrimStats trimColdContexts(ContextProfile &Profile, uint64_t ColdThreshold) {
  TrimStats Stats;
  Stats.ContextsBefore = Profile.numProfiles();

  // Collect cold contexts first; mutating the trie while visiting would
  // invalidate iteration.
  std::vector<SampleContext> Cold;
  Profile.forEachNode([&](const SampleContext &Ctx, const ContextTrieNode &N) {
    if (Ctx.size() > 1 && N.Profile.TotalSamples < ColdThreshold)
      Cold.push_back(Ctx);
  });

  for (const SampleContext &Ctx : Cold) {
    ContextTrieNode *N = Profile.findNode(Ctx);
    if (!N || !N->HasProfile)
      continue;
    // Merge into the leaf function's base context.
    ContextTrieNode &Base = Profile.Root.getOrCreateChild(0, Ctx.back().Func);
    if (!Base.HasProfile) {
      Base.HasProfile = true;
      Base.Profile.Name = N->Profile.Name;
      Base.Profile.Guid = N->Profile.Guid;
      Base.Profile.Checksum = N->Profile.Checksum;
    }
    Base.Profile.merge(N->Profile);
    N->Profile = FunctionProfile();
    N->Profile.Name = N->FuncName;
    N->HasProfile = false;
    ++Stats.ContextsMerged;
  }

  // Prune empty leaf nodes (no profile, no children) repeatedly.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::function<void(ContextTrieNode &)> Prune =
        [&](ContextTrieNode &Node) {
          for (auto It = Node.Children.begin(); It != Node.Children.end();) {
            Prune(It->second);
            if (!It->second.HasProfile && It->second.Children.empty()) {
              It = Node.Children.erase(It);
              Changed = true;
            } else {
              ++It;
            }
          }
        };
    Prune(Profile.Root);
  }

  Stats.ContextsAfter = Profile.numProfiles();
  return Stats;
}

} // namespace csspgo
