//===- preinline/PreInliner.cpp - Context-sensitive pre-inliner -------------===//

#include "preinline/PreInliner.h"

#include "preinline/ProfiledCallGraph.h"
#include "profile/ProfileSummary.h"

#include <algorithm>
#include <queue>

namespace csspgo {

namespace {

/// Recursively merges \p N (and its subtree) into \p Dst: profiles merge,
/// children re-parent under the same (site, callee) keys. This implements
/// MoveContextProfileToBaseProfile including context promotion.
void promoteSubtree(ContextTrieNode &Dst, ContextTrieNode &N,
                    unsigned &Merged) {
  if (N.HasProfile) {
    if (!Dst.HasProfile) {
      Dst.HasProfile = true;
      Dst.Profile.Name = N.Profile.Name;
      Dst.Profile.Guid = N.Profile.Guid;
      Dst.Profile.Checksum = N.Profile.Checksum;
    }
    Dst.Profile.merge(N.Profile);
    ++Merged;
  }
  Dst.ShouldBeInlined |= N.ShouldBeInlined;
  for (auto &[Key, Child] : N.Children) {
    ContextTrieNode &DstChild = Dst.getOrCreateChild(Key.first, Key.second);
    promoteSubtree(DstChild, Child, Merged);
  }
}

struct Candidate {
  ContextTrieNode *Node = nullptr;
  SampleContext Ctx; ///< Full context of the candidate copy.
  uint64_t Samples = 0;
  uint64_t SizeBytes = 0;

  bool operator<(const Candidate &O) const {
    // Max-heap by samples; smaller size wins ties.
    if (Samples != O.Samples)
      return Samples < O.Samples;
    return SizeBytes > O.SizeBytes;
  }
};

} // namespace

PreInlinerStats runPreInliner(ContextProfile &Profile,
                              const FuncSizeTable &Sizes,
                              const PreInlinerOptions &Opts) {
  PreInlinerStats Stats;
  uint64_t HotThreshold = Opts.HotThreshold;
  if (!HotThreshold)
    HotThreshold = hotThreshold(contextViewOf(Profile), Opts.HotCutoff);
  Stats.HotThresholdUsed = HotThreshold;

  ProfiledCallGraph CG = ProfiledCallGraph::fromProfile(Profile);

  for (const std::string &Func : CG.topDownOrder()) {
    // Collect the current trie nodes whose leaf is Func, with their full
    // contexts and parents.
    struct NodeRef {
      SampleContext Ctx;
      ContextTrieNode *Node;
      ContextTrieNode *Parent;
      std::pair<uint32_t, std::string> KeyInParent;
    };
    std::vector<NodeRef> Deep;
    // Manual walk with parent tracking.
    std::function<void(ContextTrieNode &, SampleContext &)> Walk =
        [&](ContextTrieNode &N, SampleContext &Ctx) {
          for (auto &[Key, Child] : N.Children) {
            if (!Ctx.empty())
              Ctx.back().Site = Key.first;
            Ctx.push_back({Child.FuncName, 0});
            if (Child.FuncName == Func && Ctx.size() > 1)
              Deep.push_back({Ctx, &Child, &N, Key});
            Walk(Child, Ctx);
            Ctx.pop_back();
            if (!Ctx.empty())
              Ctx.back().Site = 0;
          }
        };
    SampleContext Ctx;
    Walk(Profile.Root, Ctx);

    // Move unmarked contexts (and their subtrees) into the base profile.
    ContextTrieNode &Base = Profile.Root.getOrCreateChild(0, Func);
    // Erase children-first to keep parents valid: process deepest first.
    std::stable_sort(Deep.begin(), Deep.end(),
                     [](const NodeRef &A, const NodeRef &B) {
                       return A.Ctx.size() > B.Ctx.size();
                     });
    for (NodeRef &R : Deep) {
      if (R.Node->ShouldBeInlined)
        continue;
      promoteSubtree(Base, *R.Node, Stats.ContextsMergedToBase);
      R.Parent->Children.erase(R.KeyInParent);
    }

    // Candidate selection (Algorithm 2 lines 8-20) per live representation
    // of Func: the base context plus every still-inlined context. Re-walk
    // after promotion — marked nodes may have been re-parented into the
    // base subtree.
    Deep.clear();
    Walk(Profile.Root, Ctx);
    std::vector<std::pair<ContextTrieNode *, SampleContext>> Reps;
    Reps.emplace_back(&Base, SampleContext{{Func, 0}});
    for (NodeRef &R : Deep)
      if (R.Node->ShouldBeInlined)
        Reps.emplace_back(R.Node, R.Ctx);

    for (auto &[Rep, RepCtx] : Reps) {
      uint64_t FuncSize = Sizes.sizeForContext(RepCtx);
      std::priority_queue<Candidate> Queue;
      auto EnqueueChildren = [&](ContextTrieNode *N,
                                 const SampleContext &NCtx) {
        for (auto &[Key, Child] : N->Children) {
          if (!Child.HasProfile || Child.ShouldBeInlined)
            continue;
          Candidate C;
          C.Node = &Child;
          C.Ctx = NCtx;
          C.Ctx.back().Site = Key.first;
          C.Ctx.push_back({Child.FuncName, 0});
          C.Samples = Child.Profile.TotalSamples;
          C.SizeBytes = Sizes.sizeForContext(C.Ctx);
          Queue.push(std::move(C));
        }
      };
      EnqueueChildren(Rep, RepCtx);

      while (!Queue.empty() && FuncSize < Opts.SizeLimitBytes) {
        Candidate C = Queue.top();
        Queue.pop();
        if (C.Samples < HotThreshold)
          break; // Candidates only get colder.
        if (C.SizeBytes > Opts.MaxCandidateSizeBytes)
          continue;
        C.Node->ShouldBeInlined = true;
        ++Stats.ContextsMarkedInlined;
        FuncSize += C.SizeBytes;
        EnqueueChildren(C.Node, C.Ctx);
      }
    }
  }
  return Stats;
}

} // namespace csspgo
