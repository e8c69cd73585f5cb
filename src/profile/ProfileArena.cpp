//===- profile/ProfileArena.cpp - Arena profile views ---------------------===//

#include "profile/ProfileArena.h"

#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace csspgo {

//===----------------------------------------------------------------------===//
// Arena primitives
//===----------------------------------------------------------------------===//

uint32_t ProfileArena::appendProfile(const FunctionProfile &P) {
  FuncRecord R;
  R.Name = Names.intern(P.Name);
  R.Guid = P.Guid;
  R.Checksum = P.Checksum;
  R.TotalSamples = P.TotalSamples;
  R.HeadSamples = P.HeadSamples;

  R.BodyBegin = static_cast<uint32_t>(Body.size());
  for (const auto &[K, N] : P.Body)
    Body.push_back({K, N});
  R.BodyEnd = static_cast<uint32_t>(Body.size());

  R.CallsBegin = static_cast<uint32_t>(Calls.size());
  for (const auto &[K, Targets] : P.Calls)
    for (const auto &[Callee, N] : Targets)
      Calls.push_back({K, Names.intern(Callee), N});
  R.CallsEnd = static_cast<uint32_t>(Calls.size());

  // Children append their own slices while we recurse, so collect this
  // record's inlinee slots first and emit them contiguously afterwards.
  std::vector<InlineSlot> Tmp;
  for (const auto &[K, Map] : P.Inlinees)
    for (const auto &[Callee, Sub] : Map)
      Tmp.push_back({K, Names.intern(Callee), appendProfile(Sub)});
  R.InlineesBegin = static_cast<uint32_t>(Inlinees.size());
  Inlinees.insert(Inlinees.end(), Tmp.begin(), Tmp.end());
  R.InlineesEnd = static_cast<uint32_t>(Inlinees.size());

  Records.push_back(R);
  return static_cast<uint32_t>(Records.size() - 1);
}

FunctionProfile ProfileArena::materialize(uint32_t Rec) const {
  const FuncRecord &R = Records[Rec];
  FunctionProfile P;
  P.Name = Names.name(R.Name);
  P.Guid = R.Guid;
  P.Checksum = R.Checksum;
  P.TotalSamples = R.TotalSamples;
  P.HeadSamples = R.HeadSamples;
  for (uint32_t I = R.BodyBegin; I != R.BodyEnd; ++I)
    P.Body.emplace_hint(P.Body.end(), Body[I].Key, Body[I].Count);
  for (uint32_t I = R.CallsBegin; I != R.CallsEnd;) {
    auto &Targets = P.Calls.try_emplace(P.Calls.end(), Calls[I].Key)->second;
    for (uint32_t End = keyRunEnd(Calls, I, R.CallsEnd); I != End; ++I)
      Targets.emplace_hint(Targets.end(), Names.name(Calls[I].Callee),
                           Calls[I].Count);
  }
  for (uint32_t I = R.InlineesBegin; I != R.InlineesEnd;) {
    auto &Callees =
        P.Inlinees.try_emplace(P.Inlinees.end(), Inlinees[I].Key)->second;
    for (uint32_t End = keyRunEnd(Inlinees, I, R.InlineesEnd); I != End; ++I)
      Callees.emplace_hint(Callees.end(), Names.name(Inlinees[I].Callee),
                           materialize(Inlinees[I].Rec));
  }
  return P;
}

uint64_t ProfileArena::totalBodySamples(uint32_t Rec) const {
  const FuncRecord &R = Records[Rec];
  uint64_t Total = 0;
  for (uint32_t I = R.BodyBegin; I != R.BodyEnd; ++I)
    Total = saturatingAdd(Total, Body[I].Count);
  for (uint32_t I = R.InlineesBegin; I != R.InlineesEnd; ++I)
    Total = saturatingAdd(Total, totalBodySamples(Inlinees[I].Rec));
  return Total;
}

//===----------------------------------------------------------------------===//
// Bridges to/from the map containers
//===----------------------------------------------------------------------===//

ContextProfileView flatViewOf(const FlatProfile &P) {
  ContextProfileView V;
  V.Kind = P.Kind;
  V.IsCS = false;
  for (const auto &[Name, FP] : P.Functions) {
    ContextRecord C;
    C.Rec = V.Arena.appendProfile(FP);
    C.FramesBegin = static_cast<uint32_t>(V.Arena.Frames.size());
    V.Arena.Frames.push_back({V.Arena.Records[C.Rec].Name, 0});
    C.FramesEnd = C.FramesBegin + 1;
    V.Contexts.push_back(C);
  }
  return V;
}

FlatProfile flatProfileOf(const ContextProfileView &V) {
  assert(!V.IsCS && "a context-sensitive view converts via contextProfileOf");
  FlatProfile P;
  P.Kind = V.Kind;
  for (const ContextRecord &C : V.Contexts) {
    FunctionProfile FP = V.Arena.materialize(C.Rec);
    std::string Name = FP.Name;
    P.Functions.emplace_hint(P.Functions.end(), std::move(Name),
                             std::move(FP));
  }
  return P;
}

ContextProfileView contextViewOf(const ContextProfile &P) {
  ContextProfileView V;
  V.Kind = P.Kind;
  P.forEachNode([&V](const SampleContext &Ctx, const ContextTrieNode &N) {
    ContextRecord C;
    C.FramesBegin = static_cast<uint32_t>(V.Arena.Frames.size());
    for (const ContextFrame &F : Ctx)
      V.Arena.Frames.push_back({V.Arena.Names.intern(F.Func), F.Site});
    C.FramesEnd = static_cast<uint32_t>(V.Arena.Frames.size());
    C.Rec = V.Arena.appendProfile(N.Profile);
    C.ShouldBeInlined = N.ShouldBeInlined;
    V.Contexts.push_back(C);
  });
  return V;
}

ContextProfile contextProfileOf(const ContextProfileView &V) {
  ContextProfile P;
  P.Kind = V.Kind;
  // Contexts arrive in trie-DFS order, so consecutive contexts share long
  // node prefixes; reuse them via a path stack instead of re-walking the
  // trie from the root each time. Node identity at depth d depends on the
  // frame functions up to d and the sites *before* d (the leaf site is
  // not part of the path key).
  std::vector<ContextTrieNode *> Stack;
  std::vector<FrameSlot> Prev;
  for (const ContextRecord &C : V.Contexts) {
    uint32_t Len = C.FramesEnd - C.FramesBegin;
    const FrameSlot *Frames = V.Arena.Frames.data() + C.FramesBegin;
    size_t Common = 0;
    while (Common < Prev.size() && Common < Len &&
           Prev[Common].Func == Frames[Common].Func &&
           (Common == 0 || Prev[Common - 1].Site == Frames[Common - 1].Site))
      ++Common;
    // A deeper previous path with an equal site chain can over-extend the
    // match by one frame when the leaf sites differ; the loop condition
    // above already guards that via the Site check of the preceding frame,
    // so Stack[0..Common) are exactly the reusable nodes.
    Stack.resize(Common);
    ContextTrieNode *N = Common ? Stack.back() : nullptr;
    for (size_t I = Common; I != Len; ++I) {
      const std::string &Func = V.Arena.Names.name(Frames[I].Func);
      uint32_t Site = I == 0 ? 0 : Frames[I - 1].Site;
      N = I == 0 ? &P.Root.getOrCreateChild(0, Func)
                 : &N->getOrCreateChild(Site, Func);
      Stack.push_back(N);
    }
    Prev.assign(Frames, Frames + Len);
    N->HasProfile = true;
    N->ShouldBeInlined = C.ShouldBeInlined;
    N->Profile = V.Arena.materialize(C.Rec);
  }
  return P;
}

//===----------------------------------------------------------------------===//
// K-way merge over sorted slices
//===----------------------------------------------------------------------===//

namespace {

const char *kindName(ProfileKind K) {
  return K == ProfileKind::LineBased ? "line-based" : "probe-based";
}

[[noreturn]] void fatalViewShapeMismatch() {
  std::fprintf(stderr, "csspgo: cannot merge flat and context-sensitive "
                       "profiles; a flat entry is not a calling context\n");
  std::abort();
}

[[noreturn]] void fatalViewKindMismatch(const char *What, ProfileKind Dst,
                                        ProfileKind Src) {
  std::fprintf(stderr,
               "csspgo: cannot merge %s profiles of different kinds "
               "(dst is %s, src is %s); counts keyed by different anchor "
               "spaces must never be summed\n",
               What, kindName(Dst), kindName(Src));
  std::abort();
}

/// Saturating accumulate that counts clamp events, sharing the clamp
/// implementation with FunctionProfile (saturatingAccum).
void satInto(uint64_t &Slot, uint64_t V, uint64_t &Saturated) {
  if (saturatingAccum(Slot, V))
    ++Saturated;
}

/// One input record for a merge: the part's arena, its name remap into
/// the output interner, and the record itself.
struct RecSource {
  const ProfileArena *A = nullptr;
  const std::vector<NameId> *Remap = nullptr;
  uint32_t Rec = 0;

  const FuncRecord &rec() const { return A->Records[Rec]; }
  NameId remap(NameId Id) const { return (*Remap)[Id]; }
};

/// Deep-copies record \p Rec of \p A into \p Out, remapping name ids.
/// Canonical slice order is preserved because the remap is built
/// order-preserving over name strings.
uint32_t copyRecord(ProfileArena &Out, const ProfileArena &A, uint32_t Rec,
                    const std::vector<NameId> &Remap) {
  const FuncRecord &R = A.Records[Rec];
  FuncRecord N;
  N.Name = Remap[R.Name];
  N.Guid = R.Guid;
  N.Checksum = R.Checksum;
  N.TotalSamples = R.TotalSamples;
  N.HeadSamples = R.HeadSamples;
  N.BodyBegin = static_cast<uint32_t>(Out.Body.size());
  for (uint32_t I = R.BodyBegin; I != R.BodyEnd; ++I)
    Out.Body.push_back(A.Body[I]);
  N.BodyEnd = static_cast<uint32_t>(Out.Body.size());
  N.CallsBegin = static_cast<uint32_t>(Out.Calls.size());
  for (uint32_t I = R.CallsBegin; I != R.CallsEnd; ++I)
    Out.Calls.push_back(
        {A.Calls[I].Key, Remap[A.Calls[I].Callee], A.Calls[I].Count});
  N.CallsEnd = static_cast<uint32_t>(Out.Calls.size());
  std::vector<InlineSlot> Tmp;
  for (uint32_t I = R.InlineesBegin; I != R.InlineesEnd; ++I)
    Tmp.push_back({A.Inlinees[I].Key, Remap[A.Inlinees[I].Callee],
                   copyRecord(Out, A, A.Inlinees[I].Rec, Remap)});
  N.InlineesBegin = static_cast<uint32_t>(Out.Inlinees.size());
  Out.Inlinees.insert(Out.Inlinees.end(), Tmp.begin(), Tmp.end());
  N.InlineesEnd = static_cast<uint32_t>(Out.Inlinees.size());
  Out.Records.push_back(N);
  return static_cast<uint32_t>(Out.Records.size() - 1);
}

/// Merges \p Base (the pre-existing Dst record, or null) and \p Srcs
/// (merge sources in part order) into one output record, reproducing the
/// sequential FunctionProfile::merge fold exactly: per-slot values fold
/// with saturating adds in part order starting from the base value,
/// TotalSamples folds part-major over each source's body entries, and
/// Guid/Checksum take the last nonzero source (falling back to the base,
/// falling back to \p SeedGuid / 0 — the values a freshly created map
/// node would carry). \p Saturated accumulates clamp events exactly as
/// the map fold counts them.
uint32_t mergeRecords(ProfileArena &Out, NameId Name, uint64_t SeedGuid,
                      const RecSource *Base, const std::vector<RecSource> &Srcs,
                      uint64_t &Saturated) {
  assert(!Srcs.empty() && "pure copies go through copyRecord");
  FuncRecord N;
  N.Name = Name;
  N.Guid = Base ? Base->rec().Guid : SeedGuid;
  N.Checksum = Base ? Base->rec().Checksum : 0;
  N.TotalSamples = Base ? Base->rec().TotalSamples : 0;
  N.HeadSamples = Base ? Base->rec().HeadSamples : 0;
  for (const RecSource &S : Srcs) {
    const FuncRecord &R = S.rec();
    if (R.Guid)
      N.Guid = R.Guid;
    if (R.Checksum)
      N.Checksum = R.Checksum;
    // The map fold adds each source body entry into TotalSamples right
    // after its slot; the slot and total chains are independent, so the
    // part-major total fold here sees the identical addition sequence.
    for (uint32_t I = R.BodyBegin; I != R.BodyEnd; ++I)
      satInto(N.TotalSamples, S.A->Body[I].Count, Saturated);
    satInto(N.HeadSamples, R.HeadSamples, Saturated);
  }

  size_t K = Srcs.size() + (Base ? 1 : 0);
  // Cursor 0 is the base when present; sources follow in part order.
  auto sourceAt = [&](size_t I) -> const RecSource & {
    return Base ? (I == 0 ? *Base : Srcs[I - 1]) : Srcs[I];
  };
  auto isBase = [&](size_t I) { return Base && I == 0; };

  // Body: k-way by ProfileKey; within a key, fold base value then source
  // values in part order.
  {
    std::vector<uint32_t> Cur(K), End(K);
    for (size_t I = 0; I != K; ++I) {
      Cur[I] = sourceAt(I).rec().BodyBegin;
      End[I] = sourceAt(I).rec().BodyEnd;
    }
    N.BodyBegin = static_cast<uint32_t>(Out.Body.size());
    while (true) {
      bool Any = false;
      ProfileKey Min;
      for (size_t I = 0; I != K; ++I) {
        if (Cur[I] == End[I])
          continue;
        ProfileKey Key = sourceAt(I).A->Body[Cur[I]].Key;
        if (!Any || Key < Min) {
          Min = Key;
          Any = true;
        }
      }
      if (!Any)
        break;
      uint64_t Val = 0;
      for (size_t I = 0; I != K; ++I) {
        if (Cur[I] == End[I])
          continue;
        const BodySlot &S = sourceAt(I).A->Body[Cur[I]];
        if (!(S.Key == Min))
          continue;
        if (isBase(I))
          Val = S.Count;
        else
          satInto(Val, S.Count, Saturated);
        ++Cur[I];
      }
      Out.Body.push_back({Min, Val});
    }
    N.BodyEnd = static_cast<uint32_t>(Out.Body.size());
  }

  // Calls: k-way by (key, callee name) — callee names compare as output
  // interner ids, which are assigned in name order.
  {
    std::vector<uint32_t> Cur(K), End(K);
    for (size_t I = 0; I != K; ++I) {
      Cur[I] = sourceAt(I).rec().CallsBegin;
      End[I] = sourceAt(I).rec().CallsEnd;
    }
    auto keyOf = [&](size_t I) {
      const CallSlot &S = sourceAt(I).A->Calls[Cur[I]];
      return std::make_pair(S.Key, sourceAt(I).remap(S.Callee));
    };
    N.CallsBegin = static_cast<uint32_t>(Out.Calls.size());
    while (true) {
      bool Any = false;
      std::pair<ProfileKey, NameId> Min;
      for (size_t I = 0; I != K; ++I) {
        if (Cur[I] == End[I])
          continue;
        auto Key = keyOf(I);
        if (!Any || Key.first < Min.first ||
            (Key.first == Min.first && Key.second < Min.second)) {
          Min = Key;
          Any = true;
        }
      }
      if (!Any)
        break;
      uint64_t Val = 0;
      for (size_t I = 0; I != K; ++I) {
        if (Cur[I] == End[I] || !(keyOf(I) == Min))
          continue;
        uint64_t Count = sourceAt(I).A->Calls[Cur[I]].Count;
        if (isBase(I))
          Val = Count;
        else
          satInto(Val, Count, Saturated);
        ++Cur[I];
      }
      Out.Calls.push_back({Min.first, Min.second, Val});
    }
    N.CallsEnd = static_cast<uint32_t>(Out.Calls.size());
  }

  // Inlinees: k-way by (key, callee name), recursing per merged slot. A
  // slot present only in the base copies through verbatim; otherwise the
  // child records merge with the base's child (if any) as their base.
  {
    std::vector<uint32_t> Cur(K), End(K);
    for (size_t I = 0; I != K; ++I) {
      Cur[I] = sourceAt(I).rec().InlineesBegin;
      End[I] = sourceAt(I).rec().InlineesEnd;
    }
    auto keyOf = [&](size_t I) {
      const InlineSlot &S = sourceAt(I).A->Inlinees[Cur[I]];
      return std::make_pair(S.Key, sourceAt(I).remap(S.Callee));
    };
    std::vector<InlineSlot> Tmp;
    while (true) {
      bool Any = false;
      std::pair<ProfileKey, NameId> Min;
      for (size_t I = 0; I != K; ++I) {
        if (Cur[I] == End[I])
          continue;
        auto Key = keyOf(I);
        if (!Any || Key.first < Min.first ||
            (Key.first == Min.first && Key.second < Min.second)) {
          Min = Key;
          Any = true;
        }
      }
      if (!Any)
        break;
      RecSource ChildBase;
      bool HasChildBase = false;
      std::vector<RecSource> ChildSrcs;
      for (size_t I = 0; I != K; ++I) {
        if (Cur[I] == End[I] || !(keyOf(I) == Min))
          continue;
        const RecSource &S = sourceAt(I);
        RecSource Child{S.A, S.Remap, S.A->Inlinees[Cur[I]].Rec};
        if (isBase(I)) {
          ChildBase = Child;
          HasChildBase = true;
        } else {
          ChildSrcs.push_back(Child);
        }
        ++Cur[I];
      }
      uint32_t ChildRec;
      if (ChildSrcs.empty()) {
        ChildRec =
            copyRecord(Out, *ChildBase.A, ChildBase.Rec, *ChildBase.Remap);
      } else {
        // getOrCreateInlinee seeds a fresh inlinee with Name = callee and
        // no GUID; an existing base child keeps its own name.
        NameId ChildName = HasChildBase
                               ? ChildBase.remap(ChildBase.rec().Name)
                               : Min.second;
        ChildRec = mergeRecords(Out, ChildName, /*SeedGuid=*/0,
                                HasChildBase ? &ChildBase : nullptr, ChildSrcs,
                                Saturated);
      }
      Tmp.push_back({Min.first, Min.second, ChildRec});
    }
    N.InlineesBegin = static_cast<uint32_t>(Out.Inlinees.size());
    Out.Inlinees.insert(Out.Inlinees.end(), Tmp.begin(), Tmp.end());
    N.InlineesEnd = static_cast<uint32_t>(Out.Inlinees.size());
  }

  Out.Records.push_back(N);
  return static_cast<uint32_t>(Out.Records.size() - 1);
}

/// Builds an order-preserving name remap for each part into \p Out's
/// interner: output ids are assigned over the sorted union of all part
/// names, so id comparisons order exactly as name comparisons.
std::vector<std::vector<NameId>>
buildRemaps(NameInterner &Out,
            const std::vector<const ContextProfileView *> &Parts) {
  // Fleet fast path: shards of the same binary carry identical name
  // tables (the same trie shape interns in the same first-reference
  // order), so one sorted remap serves every part. The equality scan
  // short-circuits on the first mismatch, so disjoint parts only pay a
  // size compare or one string compare.
  bool Identical = true;
  for (size_t P = 1; Identical && P != Parts.size(); ++P) {
    const NameInterner &A = Parts[0]->Arena.Names;
    const NameInterner &B = Parts[P]->Arena.Names;
    if (A.size() != B.size()) {
      Identical = false;
      break;
    }
    for (size_t I = 0; I != A.size(); ++I)
      if (A.name(static_cast<NameId>(I)) != B.name(static_cast<NameId>(I))) {
        Identical = false;
        break;
      }
  }

  std::vector<std::string_view> All;
  size_t Total = 0;
  for (const ContextProfileView *P : Parts)
    Total += P->Arena.Names.size();
  All.reserve(Identical && !Parts.empty() ? Parts[0]->Arena.Names.size()
                                          : Total);
  size_t Scan = Identical && !Parts.empty() ? 1 : Parts.size();
  for (size_t P = 0; P != Scan; ++P)
    for (size_t I = 0; I != Parts[P]->Arena.Names.size(); ++I)
      All.push_back(Parts[P]->Arena.Names.name(static_cast<NameId>(I)));
  std::sort(All.begin(), All.end());
  All.erase(std::unique(All.begin(), All.end()), All.end());
  for (std::string_view S : All)
    Out.intern(S);
  std::vector<std::vector<NameId>> Remaps;
  if (Identical && !Parts.empty()) {
    std::vector<NameId> Map(Parts[0]->Arena.Names.size());
    for (size_t I = 0; I != Map.size(); ++I)
      Map[I] = Out.intern(Parts[0]->Arena.Names.name(static_cast<NameId>(I)));
    Remaps.assign(Parts.size(), Map);
    return Remaps;
  }
  for (const ContextProfileView *P : Parts) {
    std::vector<NameId> Map(P->Arena.Names.size());
    for (size_t I = 0; I != Map.size(); ++I)
      Map[I] = Out.intern(P->Arena.Names.name(static_cast<NameId>(I)));
    Remaps.push_back(std::move(Map));
  }
  return Remaps;
}

/// Per-source merge-event statistics: the sequential fold counts one
/// event per (part, entry) pair for every merge *source* (the base entry
/// existed already and contributes none).
void countMergeEvents(MergeStats &Stats, bool HadBase,
                      const std::vector<RecSource> &Srcs) {
  for (size_t I = 0; I != Srcs.size(); ++I) {
    if (HadBase || I)
      ++Stats.ContextsMerged;
    else
      ++Stats.ContextsAdded;
    const RecSource &S = Srcs[I];
    Stats.CountsSummed +=
        saturatingAdd(S.A->totalBodySamples(S.Rec), S.rec().HeadSamples);
  }
}

/// Compares two contexts by their trie path-key sequences — (site to
/// this frame, function) pairs, prefix-first — which is exactly the
/// order ContextProfile::forEachNode visits profile nodes in.
int compareContexts(const ProfileArena &AA, const std::vector<NameId> &RA,
                    const ContextRecord &A, const ProfileArena &AB,
                    const std::vector<NameId> &RB, const ContextRecord &B) {
  uint32_t LenA = A.FramesEnd - A.FramesBegin;
  uint32_t LenB = B.FramesEnd - B.FramesBegin;
  uint32_t Len = std::min(LenA, LenB);
  for (uint32_t I = 0; I != Len; ++I) {
    const FrameSlot &FA = AA.Frames[A.FramesBegin + I];
    const FrameSlot &FB = AB.Frames[B.FramesBegin + I];
    uint32_t SiteA = I == 0 ? 0 : AA.Frames[A.FramesBegin + I - 1].Site;
    uint32_t SiteB = I == 0 ? 0 : AB.Frames[B.FramesBegin + I - 1].Site;
    if (SiteA != SiteB)
      return SiteA < SiteB ? -1 : 1;
    NameId NA = RA[FA.Func], NB = RB[FB.Func];
    if (NA != NB)
      return NA < NB ? -1 : 1;
  }
  if (LenA != LenB)
    return LenA < LenB ? -1 : 1;
  return 0;
}

} // namespace

ContextProfileView
mergeContextViews(const std::vector<const ContextProfileView *> &Parts,
                  MergeStats &Stats, bool IntoEmptyDst) {
  ContextProfileView Out;
  if (Parts.empty())
    return Out;
  Out.Kind = Parts[0]->Kind;
  Out.IsCS = Parts[0]->IsCS;
  for (const ContextProfileView *P : Parts) {
    if (P->IsCS != Out.IsCS)
      fatalViewShapeMismatch();
    if (P->Kind != Out.Kind)
      fatalViewKindMismatch(Out.IsCS ? "context" : "flat", Out.Kind, P->Kind);
  }
  auto Remaps = buildRemaps(Out.Arena.Names, Parts);

  size_t K = Parts.size();
  std::vector<size_t> Cur(K);
  auto ctxAt = [&](size_t P) -> const ContextRecord & {
    return Parts[P]->Contexts[Cur[P]];
  };
  // Single scan per output context: track the minimum cursor AND the
  // parts tied with it as the scan goes (a new minimum resets the tie
  // list), instead of one sweep to find the minimum and a second to
  // collect contributors — compareContexts walks the whole frame slice,
  // so halving the sweeps matters on wide merges.
  std::vector<size_t> Ties;
  Ties.reserve(K);
  while (true) {
    size_t MinPart = K;
    Ties.clear();
    for (size_t P = 0; P != K; ++P) {
      if (Cur[P] == Parts[P]->Contexts.size())
        continue;
      int C = MinPart == K
                  ? -1
                  : compareContexts(Parts[P]->Arena, Remaps[P], ctxAt(P),
                                    Parts[MinPart]->Arena, Remaps[MinPart],
                                    ctxAt(MinPart));
      if (C < 0) {
        MinPart = P;
        Ties.clear();
        Ties.push_back(P);
      } else if (C == 0) {
        Ties.push_back(P);
      }
    }
    if (MinPart == K)
      break;
    const ContextRecord &MinCtx = ctxAt(MinPart);
    const ProfileArena &MinArena = Parts[MinPart]->Arena;
    const std::vector<NameId> &MinRemap = Remaps[MinPart];

    // Emit the merged frame slice (identical across contributors).
    ContextRecord OutCtx;
    OutCtx.FramesBegin = static_cast<uint32_t>(Out.Arena.Frames.size());
    for (uint32_t I = MinCtx.FramesBegin; I != MinCtx.FramesEnd; ++I)
      Out.Arena.Frames.push_back(
          {MinRemap[MinArena.Frames[I].Func], MinArena.Frames[I].Site});
    OutCtx.FramesEnd = static_cast<uint32_t>(Out.Arena.Frames.size());
    NameId LeafName =
        Out.Arena.Frames[OutCtx.FramesEnd - 1].Func;

    RecSource Base;
    bool HasBase = false;
    std::vector<RecSource> Srcs;
    bool SBI = false;
    for (size_t P : Ties) {
      const ContextRecord &C = ctxAt(P);
      RecSource S{&Parts[P]->Arena, &Remaps[P], C.Rec};
      if (P == 0 && !IntoEmptyDst) {
        Base = S;
        HasBase = true;
        SBI = C.ShouldBeInlined;
      } else {
        Srcs.push_back(S);
        SBI |= C.ShouldBeInlined;
      }
      ++Cur[P];
      assert((Cur[P] == Parts[P]->Contexts.size() ||
              compareContexts(Parts[P]->Arena, Remaps[P], ctxAt(P), MinArena,
                              MinRemap, MinCtx) > 0) &&
             "view contexts must be in trie-DFS order");
    }
    countMergeEvents(Stats, HasBase, Srcs);
    OutCtx.ShouldBeInlined = SBI;
    uint32_t Rec;
    if (Srcs.empty()) {
      Rec = copyRecord(Out.Arena, *Base.A, Base.Rec, *Base.Remap);
    } else {
      // An entry absent from the running Dst is created the way the map
      // containers create it: Name = leaf, and Guid =
      // computeFunctionGuid(leaf) for a trie node (getOrCreateChild) but 0
      // for a flat function (FlatProfile::getOrCreate). An existing entry
      // keeps its own.
      NameId Name = HasBase ? Base.remap(Base.rec().Name) : LeafName;
      uint64_t Seed = HasBase || !Out.IsCS
                          ? 0
                          : computeFunctionGuid(Out.Arena.Names.name(LeafName));
      Rec = mergeRecords(Out.Arena, Name, Seed, HasBase ? &Base : nullptr,
                         Srcs, Stats.SaturatedCounts);
    }
    OutCtx.Rec = Rec;
    Out.Contexts.push_back(OutCtx);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// View decay scaler
//===----------------------------------------------------------------------===//

namespace {

/// The decay scaler (contract in ProfileArena.h): body in key order,
/// head, call targets in (key, callee) order, then inlinees depth-first,
/// with 128-bit round-half-up arithmetic and per-function-name head and
/// per-callee call-target telescoping accumulators. Accumulators key by
/// NameId, which is bijective with names within one arena.
class ViewScaler {
public:
  ViewScaler(ProfileArena &A, uint64_t Num, uint64_t Den, bool ExactCounts)
      : A(A), Num(Num), Den(Den), Exact(ExactCounts) {}

  void scaleRecord(uint32_t Rec) {
    FuncRecord &R = A.Records[Rec];
    uint64_t NewTotal = 0;
    for (uint32_t I = R.BodyBegin; I != R.BodyEnd; ++I) {
      A.Body[I].Count = scaleValue(A.Body[I].Count);
      NewTotal = saturatingAdd(NewTotal, A.Body[I].Count);
    }
    R.TotalSamples = NewTotal;
    R.HeadSamples = Exact
                        ? std::min(scaleValue(R.HeadSamples), NewTotal)
                        : scaleCumulative(Heads[R.Name], R.HeadSamples);
    for (uint32_t I = R.CallsBegin; I != R.CallsEnd; ++I)
      A.Calls[I].Count =
          Exact ? scaleValue(A.Calls[I].Count)
                : scaleCumulative(CallTargets[A.Calls[I].Callee],
                                  A.Calls[I].Count);
    for (uint32_t I = R.InlineesBegin; I != R.InlineesEnd; ++I)
      scaleRecord(A.Inlinees[I].Rec);
  }

private:
  struct Acc {
    unsigned __int128 Pre = 0;
    unsigned __int128 Post = 0;
  };

  uint64_t scaleValue(uint64_t V) const {
    unsigned __int128 R = (static_cast<unsigned __int128>(V) * Num + Den / 2) / Den;
    return R > UINT64_MAX ? UINT64_MAX : static_cast<uint64_t>(R);
  }
  uint64_t scaleCumulative(Acc &Ac, uint64_t V) {
    Ac.Pre += V;
    unsigned __int128 NewPost = (Ac.Pre * Num + Den / 2) / Den;
    unsigned __int128 Slot = NewPost - Ac.Post;
    Ac.Post = NewPost;
    return Slot > UINT64_MAX ? UINT64_MAX : static_cast<uint64_t>(Slot);
  }

  ProfileArena &A;
  uint64_t Num, Den;
  bool Exact;
  std::unordered_map<NameId, Acc> Heads;
  std::unordered_map<NameId, Acc> CallTargets;
};

} // namespace

void scaleContextView(ContextProfileView &V, uint64_t Num, uint64_t Den,
                      bool ExactCounts) {
  if (!Den || Num == Den)
    return;
  ViewScaler S(V.Arena, Num, Den, ExactCounts);
  for (const ContextRecord &C : V.Contexts)
    S.scaleRecord(C.Rec);
}

} // namespace csspgo
