//===- loader/ProfileLoader.cpp - Sample profile loader ---------------------===//

#include "loader/ProfileLoader.h"

#include "loader/Correlators.h"
#include "matcher/StaleMatcher.h"
#include "profile/ProfileSummary.h"
#include "opt/InlineCost.h"
#include "opt/Inliner.h"
#include "store/ProfileStore.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>

namespace csspgo {

namespace {

/// Call-graph top-down order (callers before callees), entry first.
std::vector<Function *> topDownOrder(Module &M) {
  // Reverse post order over the call graph from the entry, then any
  // remaining functions.
  std::vector<Function *> PostOrder;
  std::set<Function *> Visited;
  std::function<void(Function *)> Visit = [&](Function *F) {
    if (!Visited.insert(F).second)
      return;
    for (auto &BB : F->Blocks)
      for (const Instruction &I : BB->Insts)
        if (I.isCall())
          if (Function *Callee = M.getFunction(I.Callee))
            Visit(Callee);
    PostOrder.push_back(F);
  };
  if (Function *Entry = M.getFunction(M.EntryFunction))
    Visit(Entry);
  for (auto &F : M.Functions)
    Visit(F.get());
  std::vector<Function *> Order(PostOrder.rbegin(), PostOrder.rend());
  return Order;
}

std::vector<BasicBlock *> allBlocks(Function &F) {
  std::vector<BasicBlock *> Out;
  for (auto &BB : F.Blocks)
    Out.push_back(BB.get());
  return Out;
}

/// Sample-accurate cold fill: every un-annotated function becomes known
/// cold (all blocks count 0). Mirrors production -fprofile-sample-accurate.
void markUnprofiledFunctionsCold(Module &M) {
  for (auto &F : M.Functions) {
    bool Annotated = false;
    for (auto &BB : F->Blocks)
      Annotated |= BB->HasCount;
    if (Annotated || F->IsEntryPoint)
      continue;
    for (auto &BB : F->Blocks)
      BB->setCount(0);
    F->HasEntryCount = true;
    F->EntryCount = 0;
  }
}

std::vector<BasicBlock *> mappedBlocks(const InlinedBody &Body) {
  return Body.ClonedOrder;
}

void recordVerifyReport(LoaderStats &Stats, const VerifyReport &R) {
  Stats.VerifyViolations = R.Violations;
  if (!R.Details.empty())
    Stats.VerifyFirst =
        R.Details.front().Where + ": " + R.Details.front().Message;
}

/// Instr counter profiles are exact (head is a body counter, so HEAD <=
/// TOTAL must hold); sampled profiles instead obey head/call edge
/// conservation. Probe-table agreement is deliberately not checked here:
/// the input may be stale on purpose.
VerifierOptions loaderVerifyOptions(const LoaderOptions &Opts, bool IsInstr) {
  VerifierOptions VO;
  VO.Level = Opts.Verify;
  VO.ExactCounts = IsInstr;
  VO.CheckHeadEdges = !IsInstr && Opts.VerifyCrossEdges;
  return VO;
}

/// The single entry point for stale-profile handling. Every
/// checksum-mismatch site in the loader routes through resolve(), which
/// returns the profile to apply: the input itself when it is not stale, a
/// matcher-recovered profile when recovery succeeds and clears the
/// confidence bar, or nullptr when the profile must be dropped.
///
/// Line-based profiles are never dropped (AutoFDO historically applies
/// them as-is): staleness is detected via drifted call anchors, and a
/// rejected match falls back to the unmodified profile.
class StaleResolver {
public:
  StaleResolver(Module &M, ProfileKind Kind, const LoaderOptions &Opts,
                LoaderStats &Stats, bool PreMatched = false)
      : M(M), Kind(Kind), Opts(Opts), Stats(Stats), PreMatched(PreMatched) {
    Cfg.MinConfidence = Opts.StaleMatchMinConfidence;
  }

  static bool probeChecksumMismatch(const FunctionProfile &P,
                                    const Function &F) {
    return P.Checksum && F.HasProbes && P.Checksum != F.ProbeCFGChecksum;
  }

  const FunctionProfile *resolve(const FunctionProfile &P, const Function &F) {
    const bool Probe = Kind == ProfileKind::ProbeBased;
    const bool Stale =
        Probe ? probeChecksumMismatch(P, F)
              : (Opts.RecoverStaleProfiles && lineProfileLooksStale(P, F));
    if (!Stale)
      return &P;
    // PreMatched: a whole-profile pre-pass already ran the matcher (CS
    // loading); anything still stale here was below confidence.
    if (!Opts.RecoverStaleProfiles || PreMatched) {
      ++Stats.StaleDropped;
      return Probe ? nullptr : &P;
    }
    MatchResult R = matchStaleProfile(P, F, M, Kind, Cfg);
    // One attempt record and one StaleMatched tick per distinct function:
    // the same stale callee routinely resolves both top-level and at
    // several inline sites (and, store-backed, once more after lazy
    // materialization), which used to double-count it in the stats the
    // dashboard aggregates. Each *site* still runs its own remap.
    bool FirstAttempt = AttemptedFns.insert(F.getName()).second;
    if (FirstAttempt)
      Stats.StaleMatches.push_back({F.getName(), R.Stats});
    if (!R.Stats.Accepted) {
      ++Stats.StaleDropped;
      return Probe ? nullptr : &P;
    }
    if (MatchedFns.insert(F.getName()).second) {
      ++Stats.StaleMatched;
      Stats.StaleAnchorsMatched += R.Stats.AnchorsMatched;
      Stats.StaleCountsRecovered += R.Stats.SamplesRecovered;
    }
    Storage.push_back(
        std::make_unique<FunctionProfile>(std::move(R.Recovered)));
    return Storage.back().get();
  }

  const MatcherConfig &matcherConfig() const { return Cfg; }

private:
  Module &M;
  ProfileKind Kind;
  const LoaderOptions &Opts;
  LoaderStats &Stats;
  bool PreMatched;
  MatcherConfig Cfg;
  /// Functions already attempted/recovered, for per-function stats dedup.
  std::set<std::string> AttemptedFns, MatchedFns;
  /// Recovered profiles must outlive the load (annotation, ICP and the
  /// inline drivers hold pointers into them).
  std::vector<std::unique_ptr<FunctionProfile>> Storage;
};

void annotate(const std::vector<BasicBlock *> &Blocks,
              const FunctionProfile &P, uint64_t OriginGuid, bool Anchored) {
  if (Anchored)
    annotateBlocksByAnchors(Blocks, P, OriginGuid);
  else
    annotateBlocksByLines(Blocks, P, OriginGuid);
}

/// Indirect-call promotion: rewrites an indirect call whose profile shows
/// a dominant target into a guarded direct call:
///
///   r = callindirect [slot](args)      t = (slot == S_dom)
///                                =>    if (t) r = call Dom(args)
///                                      else   r = callindirect [slot](args)
///
/// The direct call keeps the site's probe id, so context-trie lookups and
/// subsequent inlining work on it unchanged. This is the value-profile
/// optimization the paper lists as instrumentation PGO's edge; sampled
/// variants get targets from LBR call branches instead.
unsigned promoteIndirectCallsIn(Module &M, Function &F,
                                const FunctionProfile &P, ProfileKind Kind,
                                uint64_t HotThreshold,
                                const LoaderOptions &Opts) {
  unsigned Promoted = 0;
  // Each site is promoted at most once: the guarded fallback keeps the
  // site id (so the *next* profiling iteration still sees the residual
  // targets), and must not be promoted again in this build.
  std::set<std::pair<uint32_t, uint32_t>> DoneSites;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    for (auto &BBPtr : F.Blocks) {
      BasicBlock *BB = BBPtr.get();
      for (size_t I = 0; I != BB->Insts.size(); ++I) {
        Instruction Inst = BB->Insts[I];
        if (!Inst.isIndirectCall())
          continue;
        ProfileKey Key = callSiteKey(Inst, Kind);
        if (!DoneSites.insert({Key.Index, Key.Disc}).second)
          continue;
        auto It = P.Calls.find(Key);
        if (It == P.Calls.end())
          continue;
        uint64_t Total = 0, DomCount = 0;
        std::string Dom;
        for (const auto &[Callee, N] : It->second) {
          Total += N;
          if (N > DomCount) {
            DomCount = N;
            Dom = Callee;
          }
        }
        if (!Total || Total < std::max<uint64_t>(HotThreshold / 4, 2))
          continue;
        if (static_cast<double>(DomCount) < Opts.ICPDominance * Total)
          continue;
        uint32_t Slot = M.functionTableSlot(Dom);
        Function *Target = M.getFunction(Dom);
        if (Slot == ~0u || !Target)
          continue;

        // Split: BB keeps [0, I); continuation gets (I, end).
        BasicBlock *Cont = F.createBlock("icp.cont");
        Cont->Insts.assign(BB->Insts.begin() + static_cast<ptrdiff_t>(I) + 1,
                           BB->Insts.end());
        Cont->HasCount = BB->HasCount;
        Cont->Count = BB->Count;
        Cont->SuccWeights = std::move(BB->SuccWeights);
        BB->Insts.erase(BB->Insts.begin() + static_cast<ptrdiff_t>(I),
                        BB->Insts.end());
        BB->SuccWeights.clear();

        BasicBlock *Direct = F.createBlock("icp.direct");
        BasicBlock *Fallback = F.createBlock("icp.fallback");

        // Guard in BB.
        RegId Guard = F.allocReg();
        Instruction Cmp;
        Cmp.Op = Opcode::CmpEQ;
        Cmp.Dst = Guard;
        Cmp.A = Inst.A;
        Cmp.B = Operand::imm(Slot);
        Cmp.DL = Inst.DL;
        Cmp.OriginGuid = Inst.OriginGuid;
        Cmp.InlineStack = Inst.InlineStack;
        BB->Insts.push_back(std::move(Cmp));
        Instruction Br;
        Br.Op = Opcode::CondBr;
        Br.A = Operand::reg(Guard);
        Br.Succ0 = Direct;
        Br.Succ1 = Fallback;
        Br.DL = Inst.DL;
        Br.OriginGuid = Inst.OriginGuid;
        Br.InlineStack = Inst.InlineStack;
        BB->Insts.push_back(std::move(Br));

        // Direct arm: keeps the site's probe id for context lookups.
        Instruction DirectCall = Inst;
        DirectCall.Op = Opcode::Call;
        DirectCall.Callee = Dom;
        DirectCall.A = Operand();
        Direct->Insts.push_back(std::move(DirectCall));
        Instruction BrD;
        BrD.Op = Opcode::Br;
        BrD.Succ0 = Cont;
        BrD.DL = Inst.DL;
        BrD.OriginGuid = Inst.OriginGuid;
        BrD.InlineStack = Inst.InlineStack;
        Direct->Insts.push_back(BrD);

        // Fallback arm: the original indirect call (site id retained so
        // remaining targets still profile there next iteration).
        Fallback->Insts.push_back(Inst);
        Fallback->Insts.push_back(BrD);

        // Profile maintenance.
        if (BB->HasCount) {
          double DomShare = static_cast<double>(DomCount) / Total;
          Direct->setCount(static_cast<uint64_t>(BB->Count * DomShare));
          Fallback->setCount(BB->Count - Direct->Count);
          BB->SuccWeights = {Direct->Count, Fallback->Count};
          Direct->SuccWeights = {Direct->Count};
          Fallback->SuccWeights = {Fallback->Count};
        }
        ++Promoted;
        Progress = true;
        break;
      }
      if (Progress)
        break;
    }
  }
  return Promoted;
}

/// Shared recursive replay of inlining for flat profiles: after annotating
/// \p Blocks of \p F from \p P, inline call sites that have a nested
/// inlinee profile, then annotate the cloned bodies from that inlinee
/// profile and recurse. Sites without one stay calls: scaling the callee's
/// aggregate profile by the call-site share is the Fig. 3a hazard.
struct FlatInlineDriver {
  Module &M;
  ProfileKind Kind;
  bool Anchored;
  const LoaderOptions &Opts;
  LoaderStats &Stats;
  StaleResolver &Resolver;

  void processCallsIn(Function &F, std::vector<BasicBlock *> Blocks,
                      const FunctionProfile &P, int Depth) {
    if (!Opts.ReplayInlining)
      return;
    if (Depth > MaxInlineReplayDepth) {
      for (const auto &[K, Map] : P.Inlinees)
        for (const auto &[Callee, Sub] : Map)
          if (Sub.totalBodySamples()) {
            ++Stats.ReplayDepthCapped;
            return;
          }
      return;
    }
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (BasicBlock *BB : Blocks) {
        for (size_t I = 0; I != BB->Insts.size(); ++I) {
          Instruction &Inst = BB->Insts[I];
          if (!Inst.isCall())
            continue;
          Function *Callee = M.getFunction(Inst.Callee);
          if (!Callee || Callee == &F || Callee->NoInline ||
              Callee->IsEntryPoint)
            continue;
          const FunctionProfile *InlineeProf =
              P.inlineeAt(callSiteKey(Inst, Kind), Inst.Callee);
          if (!InlineeProf || InlineeProf->totalBodySamples() == 0)
            continue;
          if (estimateFunctionSize(*Callee) > Opts.MaxInlineSize)
            continue;
          // Stale inlinee profiles (checksum-guarded for probes, anchor
          // checked for lines) route through the matcher; unrecoverable
          // ones leave the site a call.
          InlineeProf = Resolver.resolve(*InlineeProf, *Callee);
          if (!InlineeProf)
            continue;
          InlinedBody Body = inlineCallSite(F, BB, I, *Callee);
          if (!Body.Success)
            continue;
          ++Stats.InlinedCallsites;
          std::vector<BasicBlock *> Cloned = mappedBlocks(Body);
          annotate(Cloned, *InlineeProf, Callee->getGuid(), Anchored);
          processCallsIn(F, Cloned, *InlineeProf, Depth + 1);
          Progress = true;
          break;
        }
        if (Progress)
          break;
      }
    }
  }
};

} // namespace

LoaderStats loadFlatProfile(Module &M, const FlatProfile &Profile,
                            bool IsInstr, const LoaderOptions &Opts) {
  LoaderStats Stats;
  recordVerifyReport(
      Stats, verifyFlatProfile(Profile, loaderVerifyOptions(Opts, IsInstr)));
  bool Anchored = Profile.Kind == ProfileKind::ProbeBased;
  uint64_t HotThreshold =
      Opts.HotCallsiteThreshold
          ? Opts.HotCallsiteThreshold
          : hotThreshold(flatViewOf(Profile), Opts.HotCutoff);
  Stats.HotThresholdUsed = HotThreshold;

  StaleResolver Resolver(M, Profile.Kind, Opts, Stats);
  FlatInlineDriver Driver{M, Profile.Kind, Anchored, Opts, Stats, Resolver};

  for (Function *F : topDownOrder(M)) {
    // Declaration-only functions (no body yet) have nothing to annotate.
    if (F->Blocks.empty())
      continue;
    const FunctionProfile *P = Profile.find(F->getName());
    if (!P)
      continue;
    // Stale-profile detection + recovery (Instr counter profiles are
    // exact by construction and skip it).
    if (!IsInstr)
      P = Resolver.resolve(*P, *F);
    if (!P)
      continue;
    annotate(allBlocks(*F), *P, F->getGuid(), Anchored);
    F->HasEntryCount = true;
    F->EntryCount = std::max(P->HeadSamples, F->getEntry()->Count);
    ++Stats.FunctionsAnnotated;
    if (Opts.PromoteIndirectCalls)
      Stats.PromotedIndirectCalls += promoteIndirectCallsIn(
          M, *F, *P, Profile.Kind, HotThreshold, Opts);
    // Instrumentation profiles carry no inline hierarchy to replay.
    if (!IsInstr)
      Driver.processCallsIn(*F, allBlocks(*F), *P, 0);
  }
  markUnprofiledFunctionsCold(M);
  return Stats;
}

namespace {

/// CS loading: descends the context trie in lock step with inlining. A
/// function's profile may live in many context nodes (one per caller
/// chain); any of them that were not consumed by inlining into callers
/// act as a merged "virtual node", so context-sensitive inlining inside F
/// works whether or not F itself was inlined anywhere.
struct CSInlineDriver {
  Module &M;
  const ContextProfile &Profile;
  const LoaderOptions &Opts;
  uint64_t HotThreshold;
  LoaderStats &Stats;
  StaleResolver &Resolver;
  std::set<const ContextTrieNode *> Consumed;

  /// Children with the given (site, callee) across all \p Nodes.
  static std::vector<const ContextTrieNode *>
  childrenAt(const std::vector<const ContextTrieNode *> &Nodes,
             uint32_t Site, const std::string &Callee) {
    std::vector<const ContextTrieNode *> Out;
    for (const ContextTrieNode *N : Nodes)
      if (const ContextTrieNode *C = N->getChild(Site, Callee))
        if (C->HasProfile || !C->Children.empty())
          Out.push_back(C);
    return Out;
  }

  /// Recursively processes calls within \p Blocks of \p F, where
  /// \p Nodes are the trie nodes whose (merged) profile annotated them.
  void processCallsIn(Function &F, std::vector<BasicBlock *> Blocks,
                      const std::vector<const ContextTrieNode *> &Nodes,
                      int Depth) {
    if (Depth > MaxInlineReplayDepth) {
      for (const ContextTrieNode *N : Nodes)
        for (const auto &[Key, C] : N->Children)
          if (!Consumed.count(&C) && C.subtreeSamples()) {
            ++Stats.ReplayDepthCapped;
            return;
          }
      return;
    }
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (BasicBlock *BB : Blocks) {
        for (size_t I = 0; I != BB->Insts.size(); ++I) {
          Instruction &Inst = BB->Insts[I];
          if (!Inst.isCall() || Inst.ProbeId == 0)
            continue;
          Function *Callee = M.getFunction(Inst.Callee);
          if (!Callee || Callee == &F || Callee->NoInline ||
              Callee->IsEntryPoint)
            continue;
          auto Children = childrenAt(Nodes, Inst.ProbeId, Inst.Callee);
          if (Children.empty())
            continue;
          // Merge the context slices across the caller contexts of F.
          FunctionProfile Slice;
          Slice.Name = Inst.Callee;
          bool Marked = false;
          uint64_t Checksum = 0;
          bool AnyUnconsumed = false;
          for (const ContextTrieNode *C : Children) {
            if (Consumed.count(C))
              continue;
            AnyUnconsumed = true;
            Slice.merge(C->Profile);
            Marked |= C->ShouldBeInlined;
            if (C->Profile.Checksum)
              Checksum = C->Profile.Checksum;
          }
          if (!AnyUnconsumed)
            continue;
          bool Hot = Opts.InlineHotContexts &&
                     Slice.TotalSamples >= HotThreshold;
          if (!(Opts.ReplayInlining && Marked) && !Hot)
            continue;
          if (estimateFunctionSize(*Callee) > Opts.MaxInlineSize)
            continue;
          Slice.Checksum = Checksum;
          const FunctionProfile *Applied = Resolver.resolve(Slice, *Callee);
          if (!Applied)
            continue;
          InlinedBody Body = inlineCallSite(F, BB, I, *Callee);
          if (!Body.Success)
            continue;
          ++Stats.InlinedCallsites;
          for (const ContextTrieNode *C : Children)
            Consumed.insert(C);
          std::vector<BasicBlock *> Cloned = mappedBlocks(Body);
          // Context-accurate annotation (Fig. 3b): the cloned body gets
          // the *slice* of the callee profile for this calling context.
          annotateBlocksByAnchors(Cloned, *Applied, Callee->getGuid());
          processCallsIn(F, Cloned, Children, Depth + 1);
          Progress = true;
          break;
        }
        if (Progress)
          break;
      }
    }
  }
};

} // namespace

LoaderStats loadContextProfile(Module &M, const ContextProfile &Profile,
                               const LoaderOptions &Opts) {
  LoaderStats Stats;
  recordVerifyReport(
      Stats, verifyContextProfile(Profile, loaderVerifyOptions(Opts, false)));
  // The resolver is PreMatched: stale contexts are recovered by a
  // whole-trie matcher pre-pass below (one alignment per function across
  // all its contexts); whatever is still stale when the in-loop sites
  // see it was below confidence and is dropped as before.
  StaleResolver Resolver(M, ProfileKind::ProbeBased, Opts, Stats,
                         /*PreMatched=*/true);
  std::unique_ptr<ContextProfile> Corrected;
  if (Opts.RecoverStaleProfiles) {
    ContextMatchSummary Summary;
    Corrected =
        matchContextProfile(Profile, M, Resolver.matcherConfig(), Summary);
    if (Corrected) {
      Stats.StaleMatched += Summary.FunctionsMatched;
      Stats.StaleAnchorsMatched += Summary.AnchorsMatched;
      Stats.StaleCountsRecovered += Summary.CountsRecovered;
      for (const auto &[Name, S] : Summary.PerFunction)
        Stats.StaleMatches.push_back({Name, S});
    }
  }
  const ContextProfile &Prof = Corrected ? *Corrected : Profile;

  uint64_t HotThreshold =
      Opts.HotCallsiteThreshold
          ? Opts.HotCallsiteThreshold
          : hotThreshold(contextViewOf(Prof), Opts.HotCutoff);
  Stats.HotThresholdUsed = HotThreshold;

  CSInlineDriver Driver{M, Prof, Opts, HotThreshold, Stats, Resolver, {}};

  // Collect all context nodes per leaf function up front.
  std::map<std::string, std::vector<const ContextTrieNode *>> ByLeaf;
  Prof.forEachNode(
      [&ByLeaf](const SampleContext &Ctx, const ContextTrieNode &N) {
        ByLeaf[Ctx.back().Func].push_back(&N);
      });

  for (Function *F : topDownOrder(M)) {
    // Declaration-only functions (no body yet) have nothing to annotate.
    if (F->Blocks.empty())
      continue;
    auto It = ByLeaf.find(F->getName());
    if (It == ByLeaf.end())
      continue;
    // Effective base profile: every context of F that was not consumed by
    // inlining into a caller (callers were processed first — top-down
    // order), merged together.
    FunctionProfile Base;
    Base.Name = F->getName();
    uint64_t Checksum = 0;
    std::vector<const ContextTrieNode *> LiveNodes;
    for (const ContextTrieNode *N : It->second) {
      if (Driver.Consumed.count(N))
        continue;
      LiveNodes.push_back(N);
      Base.merge(N->Profile);
      if (N->Profile.Checksum)
        Checksum = N->Profile.Checksum;
    }
    if (Base.empty())
      continue;
    Base.Checksum = Checksum;
    const FunctionProfile *Applied = Resolver.resolve(Base, *F);
    if (!Applied)
      continue;
    annotateBlocksByAnchors(allBlocks(*F), *Applied, F->getGuid());
    F->HasEntryCount = true;
    F->EntryCount = std::max(Applied->HeadSamples, F->getEntry()->Count);
    ++Stats.FunctionsAnnotated;
    if (Opts.PromoteIndirectCalls)
      Stats.PromotedIndirectCalls += promoteIndirectCallsIn(
          M, *F, *Applied, ProfileKind::ProbeBased, HotThreshold, Opts);

    // Top-down context-sensitive inlining across all live contexts of F.
    Driver.processCallsIn(*F, allBlocks(*F), LiveNodes, 0);
  }
  markUnprofiledFunctionsCold(M);
  return Stats;
}

namespace {

/// Options for loading a module-scoped subset: the derived hot threshold
/// must come from the store's whole-profile summary (a subset distribution
/// would skew it), and cross-function edge conservation cannot be checked
/// against a subset.
LoaderOptions storeScopedOptions(const LoaderOptions &Opts, bool Lazy,
                                 const ProfileStore &Store) {
  LoaderOptions O = Opts;
  if (!O.HotCallsiteThreshold)
    O.HotCallsiteThreshold = Store.hotThreshold(O.HotCutoff);
  if (Lazy)
    O.VerifyCrossEdges = false;
  return O;
}

} // namespace

Expected<LoaderStats> loadProfileFromStore(Module &M, ProfileStore &Store,
                                           const LoaderOptions &Opts,
                                           bool Lazy) {
  Store.resolveNames(M);
  unsigned Mat = 0, Skipped = 0;
  LoaderStats Stats;
  // Materialization runs on the arena plane: the view loader cursors the
  // selected payload tiles into one arena (the per-function seeking that
  // makes module-scoped loading O(module), not O(store)), and the arena
  // is bridged to the map containers only once, at the end, for the
  // annotation pass (ArenaTest holds the bridge down).
  const char *LazyWhat =
      Store.isCS() ? "lazy context load" : "lazy function load";
  StoreViewLoader L(Store);
  for (size_t I = 0; I != Store.numFunctions(); ++I) {
    if (Lazy && !M.getFunction(std::string(Store.functionName(I)))) {
      ++Skipped;
      continue;
    }
    if (Status S = L.load(I); !S.ok())
      return S.withContext(Lazy ? LazyWhat : "eager store load");
    ++Mat;
  }
  LoaderOptions Scoped = storeScopedOptions(Opts, Lazy, Store);
  // The view is verified here, once; the map built from it is not.
  bool IsInstr = !Store.isCS() && Store.isInstr();
  VerifyReport Verified =
      verifyProfileView(L.view(), loaderVerifyOptions(Scoped, IsInstr));
  Scoped.Verify = VerifyLevel::Off;
  Stats = Store.isCS()
              ? loadContextProfile(M, contextProfileOf(L.view()), Scoped)
              : loadFlatProfile(M, flatProfileOf(L.view()), IsInstr, Scoped);
  recordVerifyReport(Stats, Verified);
  Stats.StoreFunctionsMaterialized = Mat;
  Stats.StoreFunctionsSkipped = Skipped;
  return Stats;
}

} // namespace csspgo
