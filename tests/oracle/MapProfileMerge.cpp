//===- tests/oracle/MapProfileMerge.cpp - Map-container merge and decay ---===//
//
// The straightforward map-container implementations of the profile merge
// and decay-scaler contracts in profile/ProfileArena.h. Kept independent
// of the arena (this file does not include ProfileArena.h), so the view
// merges and scaler have a second implementation to be diffed against.
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace csspgo {

namespace {

const char *kindName(ProfileKind K) {
  return K == ProfileKind::LineBased ? "line-based" : "probe-based";
}

[[noreturn]] void fatalKindMismatch(const char *What, ProfileKind Dst,
                                    ProfileKind Src) {
  std::fprintf(stderr,
               "csspgo: cannot merge %s profiles of different kinds "
               "(dst is %s, src is %s); counts keyed by different anchor "
               "spaces must never be summed\n",
               What, kindName(Dst), kindName(Src));
  std::abort();
}

/// Decay scaler. Per-slot values round half up independently except for
/// the edge-conserved quantities (heads and call targets of sampled
/// profiles), which round through per-function-name cumulative
/// accumulators so both sides of every head/call edge telescope to the
/// same scaled sum (see the scaleContextView contract). Profiles must be
/// scaled in a deterministic traversal for reproducible slot values; the
/// std::map orders used here match the serializers'.
class ProfileScaler {
public:
  ProfileScaler(uint64_t Num, uint64_t Den, bool ExactCounts)
      : Num(Num), Den(Den), Exact(ExactCounts) {}

  void scaleProfile(FunctionProfile &P) {
    uint64_t NewTotal = 0;
    for (auto &[K, N] : P.Body) {
      N = scaleValue(N);
      NewTotal = saturatingAdd(NewTotal, N);
    }
    P.TotalSamples = NewTotal;
    P.HeadSamples = Exact ? std::min(scaleValue(P.HeadSamples), NewTotal)
                          : scaleCumulative(Heads[P.Name], P.HeadSamples);
    for (auto &[K, Targets] : P.Calls)
      for (auto &[Callee, N] : Targets)
        N = Exact ? scaleValue(N) : scaleCumulative(CallTargets[Callee], N);
    for (auto &[K, Map] : P.Inlinees)
      for (auto &[Callee, Sub] : Map)
        scaleProfile(Sub);
  }

private:
  struct Acc {
    unsigned __int128 Pre = 0;  ///< Unscaled prefix sum.
    unsigned __int128 Post = 0; ///< round(Pre * Num / Den) so far.
  };

  uint64_t round128(unsigned __int128 V) const {
    unsigned __int128 R = (V * Num + Den / 2) / Den;
    return R > UINT64_MAX ? UINT64_MAX : static_cast<uint64_t>(R);
  }
  uint64_t scaleValue(uint64_t V) const { return round128(V); }
  uint64_t scaleCumulative(Acc &A, uint64_t V) {
    A.Pre += V;
    unsigned __int128 NewPost = (A.Pre * Num + Den / 2) / Den;
    unsigned __int128 Slot = NewPost - A.Post;
    A.Post = NewPost;
    return Slot > UINT64_MAX ? UINT64_MAX : static_cast<uint64_t>(Slot);
  }

  uint64_t Num, Den;
  bool Exact;
  std::map<std::string, Acc> Heads;
  std::map<std::string, Acc> CallTargets;
};

} // namespace

MergeStats mergeFlatProfiles(FlatProfile &Dst, const FlatProfile &Src) {
  if (Dst.Functions.empty())
    Dst.Kind = Src.Kind;
  else if (Dst.Kind != Src.Kind)
    fatalKindMismatch("flat", Dst.Kind, Src.Kind);
  MergeStats Stats;
  for (const auto &[Name, P] : Src.Functions) {
    if (Dst.Functions.count(Name))
      ++Stats.ContextsMerged;
    else
      ++Stats.ContextsAdded;
    Stats.CountsSummed +=
        saturatingAdd(P.totalBodySamples(), P.HeadSamples);
    FunctionProfile &D = Dst.getOrCreate(Name);
    if (P.Guid)
      D.Guid = P.Guid;
    if (P.Checksum)
      D.Checksum = P.Checksum;
    Stats.SaturatedCounts += D.merge(P);
  }
  return Stats;
}

MergeStats mergeContextProfiles(ContextProfile &Dst,
                                const ContextProfile &Src) {
  bool DstEmpty = Dst.Root.Children.empty() && !Dst.Root.HasProfile;
  if (DstEmpty)
    Dst.Kind = Src.Kind;
  else if (Dst.Kind != Src.Kind)
    fatalKindMismatch("context", Dst.Kind, Src.Kind);
  MergeStats Stats;
  Src.forEachNode([&Dst, &Stats](const SampleContext &Ctx,
                                 const ContextTrieNode &N) {
    ContextTrieNode &D = Dst.getOrCreateNode(Ctx);
    if (D.HasProfile)
      ++Stats.ContextsMerged;
    else
      ++Stats.ContextsAdded;
    Stats.CountsSummed +=
        saturatingAdd(N.Profile.totalBodySamples(), N.Profile.HeadSamples);
    D.HasProfile = true;
    if (N.Profile.Guid)
      D.Profile.Guid = N.Profile.Guid;
    if (N.Profile.Checksum)
      D.Profile.Checksum = N.Profile.Checksum;
    D.ShouldBeInlined |= N.ShouldBeInlined;
    Stats.SaturatedCounts += D.Profile.merge(N.Profile);
  });
  return Stats;
}

void scaleFlatProfile(FlatProfile &Profile, uint64_t Num, uint64_t Den,
                      bool ExactCounts) {
  if (!Den || Num == Den)
    return;
  ProfileScaler S(Num, Den, ExactCounts);
  for (auto &[Name, P] : Profile.Functions)
    S.scaleProfile(P);
}

void scaleContextProfile(ContextProfile &Profile, uint64_t Num, uint64_t Den) {
  if (!Den || Num == Den)
    return;
  ProfileScaler S(Num, Den, /*ExactCounts=*/false);
  Profile.forEachNodeMutable(
      [&S](const SampleContext &, ContextTrieNode &N) {
        S.scaleProfile(N.Profile);
      });
}

FlatProfile flattenContextProfile(const ContextProfile &P) {
  FlatProfile Flat;
  Flat.Kind = P.Kind;
  P.forEachNode([&Flat](const SampleContext &Ctx, const ContextTrieNode &N) {
    FunctionProfile &FP = Flat.getOrCreate(Ctx.back().Func);
    FP.Guid = N.Profile.Guid;
    FP.Checksum = N.Profile.Checksum;
    FP.merge(N.Profile);
  });
  return Flat;
}

} // namespace csspgo
