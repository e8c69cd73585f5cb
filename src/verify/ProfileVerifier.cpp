//===- verify/ProfileVerifier.cpp - Profile invariant checking ------------===//

#include "verify/ProfileVerifier.h"

#include "probe/ProbeTable.h"

#include <algorithm>
#include <sstream>

namespace csspgo {

const char *violationKindName(ViolationKind K) {
  switch (K) {
  case ViolationKind::TotalMismatch:
    return "total-mismatch";
  case ViolationKind::HeadExceedsTotal:
    return "head-exceeds-total";
  case ViolationKind::HeadEdgeMismatch:
    return "head-edge-mismatch";
  case ViolationKind::DiscOnProbeKey:
    return "disc-on-probe-key";
  case ViolationKind::ProbeOutOfDomain:
    return "probe-out-of-domain";
  case ViolationKind::GuidMismatch:
    return "guid-mismatch";
  case ViolationKind::ChecksumMismatch:
    return "checksum-mismatch";
  case ViolationKind::NameMismatch:
    return "name-mismatch";
  case ViolationKind::TrieEdgeMismatch:
    return "trie-edge-mismatch";
  }
  return "unknown";
}

std::string VerifyReport::str() const {
  std::ostringstream OS;
  std::string Scope =
      ContextsChecked ? std::to_string(ContextsChecked) + " contexts"
                      : std::to_string(FunctionsChecked) + " functions";
  if (ok()) {
    OS << "clean (" << Scope << ")";
    return OS.str();
  }
  OS << Violations << " violation(s) across " << Scope;
  if (!Details.empty())
    OS << "; first: [" << violationKindName(Details.front().Kind) << "] "
       << Details.front().Where << ": " << Details.front().Message;
  return OS.str();
}

namespace {

std::string keyStr(ProfileKey K) {
  std::string S = std::to_string(K.Index);
  if (K.Disc)
    S += "." + std::to_string(K.Disc);
  return S;
}

void violate(VerifyReport &R, const VerifierOptions &Opts, ViolationKind K,
             const std::string &Where, std::string Msg) {
  ++R.Violations;
  if (R.Details.size() < Opts.MaxRecorded)
    R.Details.push_back({K, Where, std::move(Msg)});
}

/// Checks an edge site key against the *parent* function's probe domain.
void checkSiteInDomain(VerifyReport &R, const VerifierOptions &Opts,
                       uint32_t Site, const std::string &ParentFunc,
                       const std::string &Where) {
  if (!Opts.Probes)
    return;
  const ProbeDescriptor *Desc = Opts.Probes->findByName(ParentFunc);
  if (Desc && (Site < 1 || Site > Desc->NumProbes))
    violate(R, Opts, ViolationKind::ProbeOutOfDomain, Where,
            "edge site " + std::to_string(Site) + " outside [1, " +
                std::to_string(Desc->NumProbes) + "] of '" + ParentFunc +
                "'");
}

/// One verification run over a view: the report under construction and
/// the cross-database head/call-target sums, indexed by name id.
class ViewChecker {
public:
  ViewChecker(const ContextProfileView &V, const VerifierOptions &Opts,
              VerifyReport &R)
      : A(V.Arena), Opts(Opts), R(R), Full(Opts.Level == VerifyLevel::Full),
        Edges(Full && Opts.CheckHeadEdges && !Opts.ExactCounts),
        ProbeKeyed(V.Kind == ProfileKind::ProbeBased),
        Heads(Edges ? A.Names.size() : 0), Targets(Heads.size()),
        HasHead(Heads.size()) {
    if (V.IsCS)
      walkContexts(V);
    else
      for (const ContextRecord &C : V.Contexts) {
        ++R.FunctionsChecked;
        NameId Leaf = A.Frames[C.FramesEnd - 1].Func;
        checkRecord(C.Rec, A.Names.name(Leaf), Leaf);
      }
    if (Edges)
      finishEdges();
  }

private:
  /// Contexts arrive in trie-DFS order, so the trie nodes new at a context
  /// are those past its common prefix with the previous one: each edge's
  /// site is checked once, at the first context through it, in the order
  /// a walk of the trie meets it. A context's own node always counts as
  /// new.
  void walkContexts(const ContextProfileView &V) {
    SampleContext Ctx;
    const FrameSlot *Prev = nullptr;
    uint32_t PrevLen = 0;
    for (const ContextRecord &C : V.Contexts) {
      const FrameSlot *Frames = A.Frames.data() + C.FramesBegin;
      uint32_t Len = C.FramesEnd - C.FramesBegin;
      uint32_t Common = 0;
      while (Common + 1 < Len && Common < PrevLen &&
             Prev[Common].Func == Frames[Common].Func &&
             (Common == 0 || Prev[Common - 1].Site == Frames[Common - 1].Site))
        ++Common;
      Ctx.resize(Common);
      if (Common)
        Ctx.back().Site = Frames[Common - 1].Site;
      for (uint32_t D = Common; D != Len; ++D) {
        Ctx.push_back({A.Names.name(Frames[D].Func), Frames[D].Site});
        std::string Where = contextToString(Ctx);
        if (Full && D)
          checkSiteInDomain(R, Opts, Frames[D - 1].Site,
                            A.Names.name(Frames[D - 1].Func), Where);
        if (D + 1 == Len) {
          ++R.ContextsChecked;
          checkRecord(C.Rec, Where, Frames[D].Func);
        }
      }
      Prev = Frames;
      PrevLen = Len;
    }
  }

  /// Calls \p Fn(key, what) for every body key and once per call site and
  /// inline site of \p P.
  template <typename FnT> void forEachKey(const FuncRecord &P, FnT Fn) {
    for (uint32_t I = P.BodyBegin; I != P.BodyEnd; ++I)
      Fn(A.Body[I].Key, "body");
    for (uint32_t I = P.CallsBegin; I != P.CallsEnd;
         I = keyRunEnd(A.Calls, I, P.CallsEnd))
      Fn(A.Calls[I].Key, "call site");
    for (uint32_t I = P.InlineesBegin; I != P.InlineesEnd;
         I = keyRunEnd(A.Inlinees, I, P.InlineesEnd))
      Fn(A.Inlinees[I].Key, "inlinee site");
  }

  /// Checks record \p Rec (recursing into nested inlinees). \p Expect is
  /// the name its container files it under: the context's leaf frame, or
  /// the inlinee slot's callee.
  void checkRecord(uint32_t Rec, const std::string &Where, NameId Expect) {
    const FuncRecord &P = A.Records[Rec];
    const std::string &Name = A.Names.name(P.Name);
    const std::string &ExpectName = A.Names.name(Expect);
    if (Name.empty() || (!ExpectName.empty() && P.Name != Expect))
      violate(R, Opts, ViolationKind::NameMismatch, Where,
              "profile name '" + Name + "' vs container key '" + ExpectName +
                  "'");

    // Count conservation: TotalSamples is maintained exclusively through
    // addBody/maxBody, so it must equal the saturating body sum.
    uint64_t BodySum = 0;
    for (uint32_t I = P.BodyBegin; I != P.BodyEnd; ++I)
      BodySum = saturatingAdd(BodySum, A.Body[I].Count);
    if (BodySum != P.TotalSamples)
      violate(R, Opts, ViolationKind::TotalMismatch, Where,
              "TotalSamples " + std::to_string(P.TotalSamples) +
                  " != body sum " + std::to_string(BodySum));

    if (Opts.ExactCounts && P.HeadSamples > P.TotalSamples)
      violate(R, Opts, ViolationKind::HeadExceedsTotal, Where,
              "head " + std::to_string(P.HeadSamples) + " > total " +
                  std::to_string(P.TotalSamples));

    if (Edges) {
      Heads[P.Name] = saturatingAdd(Heads[P.Name], P.HeadSamples);
      HasHead[P.Name] = 1;
      for (uint32_t I = P.CallsBegin; I != P.CallsEnd; ++I)
        Targets[A.Calls[I].Callee] =
            saturatingAdd(Targets[A.Calls[I].Callee], A.Calls[I].Count);
    }

    if (Full && ProbeKeyed) {
      forEachKey(P, [&](ProfileKey K, const char *What) {
        if (K.Disc)
          violate(R, Opts, ViolationKind::DiscOnProbeKey, Where,
                  std::string(What) + " key " + keyStr(K) +
                      " carries a discriminator on a probe-based profile");
      });
      if (Opts.Probes)
        checkDescriptor(P, Name, Where);
    }

    for (uint32_t I = P.InlineesBegin; I != P.InlineesEnd; ++I) {
      const InlineSlot &S = A.Inlinees[I];
      checkRecord(S.Rec,
                  Where + " > " + A.Names.name(S.Callee) + "@" +
                      keyStr(S.Key),
                  S.Callee);
    }
  }

  /// Guid, checksum and probe-domain agreement with the descriptor of
  /// the producing build.
  void checkDescriptor(const FuncRecord &P, const std::string &Name,
                       const std::string &Where) {
    const ProbeDescriptor *Desc = Opts.Probes->findByName(Name);
    if (!Desc) {
      violate(R, Opts, ViolationKind::NameMismatch, Where,
              "no probe descriptor for '" + Name + "'");
      return;
    }
    if (P.Guid && P.Guid != Desc->Guid)
      violate(R, Opts, ViolationKind::GuidMismatch, Where,
              "guid " + std::to_string(P.Guid) + " != descriptor " +
                  std::to_string(Desc->Guid));
    if (P.Checksum && P.Checksum != Desc->CFGChecksum)
      violate(R, Opts, ViolationKind::ChecksumMismatch, Where,
              "checksum " + std::to_string(P.Checksum) + " != descriptor " +
                  std::to_string(Desc->CFGChecksum));
    forEachKey(P, [&](ProfileKey K, const char *What) {
      if (K.Index < 1 || K.Index > Desc->NumProbes)
        violate(R, Opts, ViolationKind::ProbeOutOfDomain, Where,
                std::string(What) + " key " + keyStr(K) + " outside [1, " +
                    std::to_string(Desc->NumProbes) + "]");
    });
  }

  /// Sampled-profile head/call-edge conservation: per function, the head
  /// samples across the database equal the call-target counts into it
  /// (every generator records both off the same LBR call branch, and
  /// merging/trimming/pre-inlining only move or sum counts). Reported in
  /// function-name order: mismatched heads first, then targets into
  /// functions with no head record.
  void finishEdges() {
    std::vector<NameId> Seen;
    for (NameId Id = 0; Id != Heads.size(); ++Id)
      if (HasHead[Id] || Targets[Id])
        Seen.push_back(Id);
    std::sort(Seen.begin(), Seen.end(), [this](NameId X, NameId Y) {
      return A.Names.name(X) < A.Names.name(Y);
    });
    for (NameId Id : Seen) {
      uint64_t H = Heads[Id], T = Targets[Id];
      if (!HasHead[Id] || H == UINT64_MAX || T == UINT64_MAX)
        continue; // Saturated sums are incomparable.
      if (H != T)
        violate(R, Opts, ViolationKind::HeadEdgeMismatch, A.Names.name(Id),
                "head samples " + std::to_string(H) +
                    " != call-target counts " + std::to_string(T));
    }
    for (NameId Id : Seen)
      if (!HasHead[Id])
        violate(R, Opts, ViolationKind::HeadEdgeMismatch, A.Names.name(Id),
                "call-target counts " + std::to_string(Targets[Id]) +
                    " into a function with no head record");
  }

  const ProfileArena &A;
  const VerifierOptions &Opts;
  VerifyReport &R;
  const bool Full, Edges, ProbeKeyed;
  /// Per-name saturating sums of head samples / call-target counts, and
  /// whether any record of the name was seen.
  std::vector<uint64_t> Heads, Targets;
  std::vector<char> HasHead;
};

/// Whether \p N or a node below it holds a profile: the nodes
/// contextViewOf keeps.
bool holdsProfile(const ContextTrieNode &N) {
  if (N.HasProfile)
    return true;
  for (const auto &[Key, Child] : N.Children)
    if (holdsProfile(Child))
      return true;
  return false;
}

/// The trie shape a view cannot carry: root edge sites, edge keys that
/// disagree with their node, the sites of edges into subtrees that hold
/// no profile (contextViewOf drops them) and counts on a node without
/// HasProfile. Visits nodes in trie-DFS order.
void checkTrieShape(const ContextTrieNode &N, bool IsRoot, SampleContext &Ctx,
                    const VerifierOptions &Opts, VerifyReport &R) {
  for (const auto &[Key, Child] : N.Children) {
    auto [Site, Callee] = Key;
    if (!Ctx.empty())
      Ctx.back().Site = Site;
    Ctx.push_back({Child.FuncName, 0});
    if (IsRoot && Site != 0)
      violate(R, Opts, ViolationKind::TrieEdgeMismatch, contextToString(Ctx),
              "root edge carries nonzero site " + std::to_string(Site));
    if (Child.FuncName != Callee)
      violate(R, Opts, ViolationKind::NameMismatch, contextToString(Ctx),
              "edge callee '" + Callee + "' vs node '" + Child.FuncName +
                  "'");
    if (!IsRoot && !holdsProfile(Child))
      checkSiteInDomain(R, Opts, Site, N.FuncName, contextToString(Ctx));
    if (!Child.HasProfile &&
        (Child.Profile.TotalSamples || Child.Profile.HeadSamples ||
         !Child.Profile.Body.empty()))
      violate(R, Opts, ViolationKind::TrieEdgeMismatch, contextToString(Ctx),
              "node without HasProfile holds counts");
    checkTrieShape(Child, false, Ctx, Opts, R);
    Ctx.pop_back();
    if (!Ctx.empty())
      Ctx.back().Site = 0;
  }
}

} // namespace

VerifyReport verifyProfileView(const ContextProfileView &V,
                               const VerifierOptions &Opts) {
  VerifyReport R;
  if (Opts.Level != VerifyLevel::Off)
    ViewChecker(V, Opts, R);
  return R;
}

VerifyReport verifyFlatProfile(const FlatProfile &Profile,
                               const VerifierOptions &Opts) {
  VerifyReport R;
  if (Opts.Level == VerifyLevel::Off)
    return R;
  // A view names each function by its profile, so the key a function is
  // filed under is checked here; an empty profile name is the view's.
  for (const auto &[Name, P] : Profile.Functions)
    if (!P.Name.empty() && !Name.empty() && P.Name != Name)
      violate(R, Opts, ViolationKind::NameMismatch, Name,
              "profile name '" + P.Name + "' vs container key '" + Name +
                  "'");
  ViewChecker(flatViewOf(Profile), Opts, R);
  return R;
}

VerifyReport verifyContextProfile(const ContextProfile &Profile,
                                  const VerifierOptions &Opts) {
  VerifyReport R;
  if (Opts.Level == VerifyLevel::Off)
    return R;
  if (Opts.Level == VerifyLevel::Full) {
    SampleContext Ctx;
    checkTrieShape(Profile.Root, true, Ctx, Opts, R);
  }
  ViewChecker(contextViewOf(Profile), Opts, R);
  return R;
}

} // namespace csspgo
