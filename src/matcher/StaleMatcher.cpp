//===- matcher/StaleMatcher.cpp - Stale-profile matching ------------------===//

#include "matcher/StaleMatcher.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

namespace csspgo {

namespace {

/// One call-site anchor: a profile key (probe id or line offset) plus the
/// callee names observed there. The stale side may record several targets
/// (indirect calls, merged contexts); the fresh side may merge several
/// calls sharing a line. The empty string stands for an indirect call
/// with no recorded target.
struct CallAnchor {
  uint32_t Key = 0;
  std::set<std::string> Callees;
};

/// Anchor view of the fresh IR: call anchors in key order, plus (probe
/// mode only) the universe of valid block/call probe ids, used to reject
/// delta-shifted keys that would land on a key of the wrong kind.
struct FreshView {
  std::vector<CallAnchor> Calls;
  std::set<uint32_t> BlockIds;
  std::set<uint32_t> CallIds;
};

FreshView extractFreshAnchors(const Function &F, ProfileKind Kind) {
  FreshView V;
  std::map<uint32_t, CallAnchor> Calls;
  for (const auto &BB : F.Blocks)
    for (const Instruction &I : BB->Insts) {
      if (I.OriginGuid != F.getGuid())
        continue;
      if (Kind == ProfileKind::ProbeBased) {
        if (I.isProbe()) {
          V.BlockIds.insert(I.ProbeId);
        } else if (I.isCall() && I.ProbeId) {
          V.CallIds.insert(I.ProbeId);
          CallAnchor &A = Calls[I.ProbeId];
          A.Key = I.ProbeId;
          A.Callees.insert(I.isIndirectCall() ? std::string() : I.Callee);
        }
      } else if (I.isCall()) {
        CallAnchor &A = Calls[I.DL.Line];
        A.Key = I.DL.Line;
        A.Callees.insert(I.isIndirectCall() ? std::string() : I.Callee);
      }
    }
  V.Calls.reserve(Calls.size());
  for (auto &[Key, A] : Calls)
    V.Calls.push_back(std::move(A));
  return V;
}

/// Stale call anchors come from the profile's call-target and inlinee
/// records; the body map alone cannot tell a call key from a block key.
std::vector<CallAnchor> extractStaleCallAnchors(const FunctionProfile &P) {
  std::map<uint32_t, CallAnchor> Calls;
  for (const auto &[K, Targets] : P.Calls) {
    CallAnchor &A = Calls[K.Index];
    A.Key = K.Index;
    for (const auto &[Callee, N] : Targets)
      A.Callees.insert(Callee);
  }
  for (const auto &[K, Map] : P.Inlinees) {
    CallAnchor &A = Calls[K.Index];
    A.Key = K.Index;
    for (const auto &[Callee, Sub] : Map)
      A.Callees.insert(Callee);
  }
  std::vector<CallAnchor> Out;
  Out.reserve(Calls.size());
  for (auto &[Key, A] : Calls)
    Out.push_back(std::move(A));
  return Out;
}

bool anchorsEqual(const CallAnchor &A, const CallAnchor &B) {
  // An indirect site ("" callee) accepts any target set: LBR profiles
  // record the concrete targets observed at a site where the IR records
  // no callee at all, so name intersection would never see them agree.
  if (A.Callees.count(std::string()) || B.Callees.count(std::string()))
    return true;
  const std::set<std::string> &Small =
      A.Callees.size() <= B.Callees.size() ? A.Callees : B.Callees;
  const std::set<std::string> &Big =
      A.Callees.size() <= B.Callees.size() ? B.Callees : A.Callees;
  for (const std::string &C : Small)
    if (Big.count(C))
      return true;
  return false;
}

/// Aligns the two call-anchor sequences with an LCS DP; returns matched
/// (stale, fresh) key pairs, ascending on both sides. The table is
/// (N+1) * (M+1) with M the fresh function's call count, which comes from
/// trusted IR, so it grows only linearly with a hostile profile.
std::vector<std::pair<uint32_t, uint32_t>>
alignCallAnchors(const std::vector<CallAnchor> &Stale,
                 const std::vector<CallAnchor> &Fresh) {
  std::vector<std::pair<uint32_t, uint32_t>> Out;
  const size_t N = Stale.size(), M = Fresh.size();
  if (!N || !M)
    return Out;
  // LCS(I, J) = LCS length of Stale[I..] and Fresh[J..], row-major.
  std::vector<uint32_t> DP((N + 1) * (M + 1), 0);
  auto LCS = [&](size_t I, size_t J) -> uint32_t & {
    return DP[I * (M + 1) + J];
  };
  for (size_t I = N; I-- > 0;)
    for (size_t J = M; J-- > 0;)
      LCS(I, J) = anchorsEqual(Stale[I], Fresh[J])
                      ? LCS(I + 1, J + 1) + 1
                      : std::max(LCS(I + 1, J), LCS(I, J + 1));
  size_t I = 0, J = 0;
  while (I < N && J < M) {
    if (anchorsEqual(Stale[I], Fresh[J]) &&
        LCS(I, J) == LCS(I + 1, J + 1) + 1) {
      Out.push_back({Stale[I].Key, Fresh[J].Key});
      ++I;
      ++J;
    } else if (LCS(I + 1, J) >= LCS(I, J + 1)) {
      ++I;
    } else {
      ++J;
    }
  }
  return Out;
}

/// A computed stale→fresh key remapping: matched anchor pairs plus the
/// delta rule for the keys between them.
struct AlignedRemap {
  ProfileKind Kind = ProfileKind::ProbeBased;
  FreshView Fresh;
  std::set<uint32_t> StaleCallKeys;
  /// Matched (stale, fresh) pairs, ascending in both components. Probe
  /// mode seeds (1, 1): the entry block probe is id 1 on both sides.
  std::vector<std::pair<uint32_t, uint32_t>> Pairs;
  unsigned AnchorsTotal = 0;
  unsigned AnchorsMatched = 0;

  /// Maps \p StaleKey; returns false when the key has no trustworthy
  /// fresh counterpart (its count is dropped). Matched anchors map
  /// exactly; other keys shift by the delta of the nearest preceding
  /// matched anchor, rejected when the shifted key would cross the next
  /// matched anchor or (probe mode) land on a key of the wrong kind.
  bool map(uint32_t StaleKey, bool IsCallKey, uint32_t &Out) const {
    auto It = std::upper_bound(
        Pairs.begin(), Pairs.end(),
        std::make_pair(StaleKey, std::numeric_limits<uint32_t>::max()));
    int64_t Target;
    if (It != Pairs.begin()) {
      const auto &Prev = *(It - 1);
      if (Prev.first == StaleKey) {
        Out = Prev.second;
        return true;
      }
      Target = int64_t(StaleKey) + int64_t(Prev.second) - int64_t(Prev.first);
    } else {
      Target = StaleKey; // Head region: no anchor yet, delta 0.
    }
    if (Target <= 0)
      return false;
    if (It != Pairs.end() && Target >= int64_t(It->second))
      return false;
    uint32_t T = static_cast<uint32_t>(Target);
    if (Kind == ProfileKind::ProbeBased &&
        (IsCallKey ? !Fresh.CallIds.count(T) : !Fresh.BlockIds.count(T)))
      return false;
    Out = T;
    return true;
  }
};

AlignedRemap computeRemap(const FunctionProfile &AnchorSource,
                          const Function &F, ProfileKind Kind) {
  AlignedRemap R;
  R.Kind = Kind;
  R.Fresh = extractFreshAnchors(F, Kind);
  std::vector<CallAnchor> Stale = extractStaleCallAnchors(AnchorSource);
  for (const CallAnchor &A : Stale)
    R.StaleCallKeys.insert(A.Key);
  R.Pairs = alignCallAnchors(Stale, R.Fresh.Calls);
  R.AnchorsTotal = static_cast<unsigned>(Stale.size());
  R.AnchorsMatched = static_cast<unsigned>(R.Pairs.size());
  if (Kind == ProfileKind::ProbeBased && R.Fresh.BlockIds.count(1) &&
      (R.Pairs.empty() || (R.Pairs.front().first > 1 && R.Pairs.front().second > 1)))
    R.Pairs.insert(R.Pairs.begin(), {1u, 1u});
  return R;
}

/// Rewrites \p P through \p R into \p Out, recursing into inlinee
/// profiles against their callee's fresh IR, accumulating \p S (which
/// must already carry R's anchor counts when the caller wants them). The
/// recursion is as deep as P's inlinee nesting, which the profile readers
/// bound at MaxInlineeNesting.
void rewriteThroughRemap(const FunctionProfile &P, const AlignedRemap &R,
                         const Function &F, const Module &M, ProfileKind Kind,
                         const MatcherConfig &Cfg, FunctionProfile &Out,
                         MatchStats &S) {
  Out.Name = P.Name.empty() ? F.getName() : P.Name;
  Out.Guid = P.Guid ? P.Guid : F.getGuid();
  Out.Checksum = Kind == ProfileKind::ProbeBased ? F.ProbeCFGChecksum
                                                 : P.Checksum;
  Out.HeadSamples += P.HeadSamples;

  for (const auto &[K, N] : P.Body) {
    S.SamplesTotal += N;
    uint32_t NewIdx = 0;
    if (R.map(K.Index, R.StaleCallKeys.count(K.Index) != 0, NewIdx)) {
      Out.addBody({NewIdx, K.Disc}, N);
      S.SamplesRecovered += N;
    }
  }

  for (const auto &[K, Targets] : P.Calls) {
    uint32_t NewIdx = 0;
    if (!R.map(K.Index, /*IsCallKey=*/true, NewIdx))
      continue;
    for (const auto &[Callee, N] : Targets)
      Out.addCall({NewIdx, K.Disc}, Callee, N);
  }

  for (const auto &[K, Map] : P.Inlinees) {
    uint32_t NewIdx = 0;
    bool SiteOk = R.map(K.Index, /*IsCallKey=*/true, NewIdx);
    for (const auto &[Callee, Sub] : Map) {
      const uint64_t SubTotal = Sub.totalBodySamples();
      const Function *CalleeF = M.getFunction(Callee);
      if (!SiteOk || !CalleeF) {
        S.SamplesTotal += SubTotal; // Lost with the vanished call site.
        continue;
      }
      bool SubStale =
          Kind == ProfileKind::ProbeBased
              ? (Sub.Checksum && CalleeF->HasProbes &&
                 Sub.Checksum != CalleeF->ProbeCFGChecksum)
              : lineProfileLooksStale(Sub, *CalleeF);
      if (!SubStale) {
        FunctionProfile &Dst = Out.getOrCreateInlinee({NewIdx, K.Disc}, Callee);
        if (Sub.Guid)
          Dst.Guid = Sub.Guid;
        if (Sub.Checksum)
          Dst.Checksum = Sub.Checksum;
        Dst.merge(Sub);
        S.SamplesTotal += SubTotal;
        S.SamplesRecovered += SubTotal;
        continue;
      }
      MatchResult Rec = matchStaleProfile(Sub, *CalleeF, M, Kind, Cfg);
      S.AnchorsTotal += Rec.Stats.AnchorsTotal;
      S.AnchorsMatched += Rec.Stats.AnchorsMatched;
      S.SamplesTotal += Rec.Stats.SamplesTotal;
      if (!Rec.Stats.Accepted)
        continue; // Dropped inlinee: the loader falls back to the
                  // callee's flat profile or cold-fills the body.
      S.SamplesRecovered += Rec.Stats.SamplesRecovered;
      FunctionProfile &Dst = Out.getOrCreateInlinee({NewIdx, K.Disc}, Callee);
      Dst.Guid = Rec.Recovered.Guid;
      Dst.Checksum = Rec.Recovered.Checksum;
      Dst.merge(Rec.Recovered);
    }
  }
}

void finalizeStats(MatchStats &S, const MatcherConfig &Cfg) {
  S.Confidence =
      S.SamplesTotal
          ? static_cast<double>(S.SamplesRecovered) / S.SamplesTotal
          : (S.AnchorsTotal
                 ? static_cast<double>(S.AnchorsMatched) / S.AnchorsTotal
                 : 1.0);
  S.Accepted = S.Confidence >= Cfg.MinConfidence;
}

size_t countProfiledNodes(const ContextTrieNode &N) {
  size_t Count = N.HasProfile ? 1 : 0;
  for (const auto &[Key, Child] : N.Children)
    Count += countProfiledNodes(Child);
  return Count;
}

void mergeTrieNodeInto(ContextTrieNode &&Src, ContextTrieNode &Dst) {
  if (Dst.FuncName.empty())
    Dst.FuncName = Src.FuncName;
  Dst.ShouldBeInlined |= Src.ShouldBeInlined;
  if (Src.HasProfile) {
    if (!Dst.HasProfile) {
      Dst.Profile = std::move(Src.Profile);
      Dst.HasProfile = true;
    } else {
      if (Src.Profile.Guid)
        Dst.Profile.Guid = Src.Profile.Guid;
      if (Src.Profile.Checksum)
        Dst.Profile.Checksum = Src.Profile.Checksum;
      Dst.Profile.merge(Src.Profile);
    }
  }
  for (auto &[Key, Child] : Src.Children) {
    auto It = Dst.Children.find(Key);
    if (It == Dst.Children.end())
      Dst.Children.emplace(Key, std::move(Child));
    else
      mergeTrieNodeInto(std::move(Child), It->second);
  }
}

/// Per-function matching state shared by every context of that function.
struct FnMatchState {
  const Function *F = nullptr;
  FunctionProfile Merged;
  AlignedRemap Remap;
  MatchStats Stats;
  bool Accepted = false;
};

void copyTrieNode(const ContextTrieNode &Src, ContextTrieNode &Dst,
                  const Module &M, const MatcherConfig &Cfg,
                  const std::map<std::string, FnMatchState> &Fns,
                  ContextMatchSummary &Summary) {
  Dst.FuncName = Src.FuncName;
  Dst.HasProfile = Src.HasProfile;
  Dst.ShouldBeInlined = Src.ShouldBeInlined;

  auto FnIt = Fns.find(Src.FuncName);
  const FnMatchState *St = FnIt == Fns.end() ? nullptr : &FnIt->second;
  const bool NodeStale = St && Src.HasProfile && Src.Profile.Checksum &&
                         Src.Profile.Checksum != St->F->ProbeCFGChecksum;
  if (NodeStale && St->Accepted) {
    MatchStats Ignored; // Per-function stats were taken from the merged view.
    rewriteThroughRemap(Src.Profile, St->Remap, *St->F, M,
                        ProfileKind::ProbeBased, Cfg, Dst.Profile, Ignored);
    ++Summary.ContextsRemapped;
  } else {
    Dst.Profile = Src.Profile;
  }

  // Child edges are keyed by call sites in *this* function's probe space;
  // re-key them through its remap. Profile-less intermediate nodes of a
  // stale function live in the old space too.
  const bool RemapSites =
      St && St->Accepted && (NodeStale || !Src.HasProfile);
  for (const auto &[Key, Child] : Src.Children) {
    uint32_t Site = Key.first;
    if (RemapSites && Site != 0) {
      uint32_t NewSite = 0;
      if (!St->Remap.map(Site, /*IsCallKey=*/true, NewSite)) {
        Summary.ContextsDropped +=
            static_cast<unsigned>(countProfiledNodes(Child));
        continue; // The call site no longer exists.
      }
      Site = NewSite;
    }
    ContextTrieNode Tmp;
    copyTrieNode(Child, Tmp, M, Cfg, Fns, Summary);
    auto It = Dst.Children.find({Site, Key.second});
    if (It == Dst.Children.end())
      Dst.Children.emplace(std::make_pair(Site, Key.second), std::move(Tmp));
    else
      mergeTrieNodeInto(std::move(Tmp), It->second);
  }
}

} // namespace

MatchResult matchStaleProfile(const FunctionProfile &P, const Function &F,
                              const Module &M, ProfileKind Kind,
                              const MatcherConfig &Cfg) {
  MatchResult R;
  AlignedRemap Remap = computeRemap(P, F, Kind);
  R.Stats.AnchorsTotal = Remap.AnchorsTotal;
  R.Stats.AnchorsMatched = Remap.AnchorsMatched;
  rewriteThroughRemap(P, Remap, F, M, Kind, Cfg, R.Recovered, R.Stats);
  finalizeStats(R.Stats, Cfg);
  return R;
}

bool lineProfileLooksStale(const FunctionProfile &P, const Function &F) {
  std::vector<CallAnchor> Stale = extractStaleCallAnchors(P);
  if (Stale.empty())
    return false;
  FreshView Fresh = extractFreshAnchors(F, ProfileKind::LineBased);
  for (const CallAnchor &A : Stale) {
    auto It = std::lower_bound(
        Fresh.Calls.begin(), Fresh.Calls.end(), A.Key,
        [](const CallAnchor &FA, uint32_t Key) { return FA.Key < Key; });
    if (It == Fresh.Calls.end() || It->Key != A.Key || !anchorsEqual(A, *It))
      return true;
  }
  return false;
}

std::unique_ptr<ContextProfile>
matchContextProfile(const ContextProfile &CS, const Module &M,
                    const MatcherConfig &Cfg, ContextMatchSummary &Summary) {
  // Pass 1: merge the anchor view of every stale context per function.
  std::map<std::string, FnMatchState> Fns;
  CS.forEachNode([&](const SampleContext &, const ContextTrieNode &N) {
    const Function *F = M.getFunction(N.FuncName);
    if (!F || !F->HasProbes || !N.Profile.Checksum ||
        N.Profile.Checksum == F->ProbeCFGChecksum)
      return;
    FnMatchState &St = Fns[N.FuncName];
    St.F = F;
    St.Merged.merge(N.Profile);
  });
  if (Fns.empty())
    return nullptr;

  // Pass 2: one alignment per function, confidence from the merged view.
  for (auto &[Name, St] : Fns) {
    St.Remap = computeRemap(St.Merged, *St.F, ProfileKind::ProbeBased);
    St.Stats.AnchorsTotal = St.Remap.AnchorsTotal;
    St.Stats.AnchorsMatched = St.Remap.AnchorsMatched;
    FunctionProfile Trial;
    rewriteThroughRemap(St.Merged, St.Remap, *St.F, M,
                        ProfileKind::ProbeBased, Cfg, Trial, St.Stats);
    finalizeStats(St.Stats, Cfg);
    St.Accepted = St.Stats.Accepted;
    Summary.PerFunction.push_back({Name, St.Stats});
    if (St.Accepted) {
      ++Summary.FunctionsMatched;
      Summary.AnchorsMatched += St.Stats.AnchorsMatched;
      Summary.CountsRecovered += St.Stats.SamplesRecovered;
    } else {
      ++Summary.FunctionsBelowConfidence;
    }
  }

  // Pass 3: corrected copy of the trie.
  auto Out = std::make_unique<ContextProfile>();
  Out->Kind = CS.Kind;
  copyTrieNode(CS.Root, Out->Root, M, Cfg, Fns, Summary);
  return Out;
}

} // namespace csspgo
