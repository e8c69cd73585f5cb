//===- tests/oracle/ReferenceVerifier.cpp - Map-container profile verifier ===//
//
// The profile verifier as it ran on the map containers: one Checker walks
// every FunctionProfile (nested inlinees included) and the context trie
// node by node, summing heads and call targets in std::maps keyed by
// name. Kept independent of the arena (this file does not include
// ProfileArena.h), so the view checker behind verifyProfileView and the
// map entry points of verify/ProfileVerifier.h has a second
// implementation whose reports it must equal field for field.
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracle.h"

#include "probe/ProbeTable.h"

#include <functional>
#include <map>

namespace csspgo {

namespace {

std::string keyStr(ProfileKey K) {
  std::string S = std::to_string(K.Index);
  if (K.Disc)
    S += "." + std::to_string(K.Disc);
  return S;
}

/// One verification run: options, the report under construction, and the
/// cross-database head/call-target accumulators.
class Checker {
public:
  Checker(const VerifierOptions &Opts, bool ProbeKeyed)
      : Opts(Opts), ProbeKeyed(ProbeKeyed) {}

  VerifyReport take() {
    finishEdges();
    return std::move(R);
  }

  void violate(ViolationKind K, const std::string &Where, std::string Msg) {
    ++R.Violations;
    if (R.Details.size() < Opts.MaxRecorded)
      R.Details.push_back({K, Where, std::move(Msg)});
  }

  /// Checks one FunctionProfile (recursing into nested inlinees).
  /// \p ExpectName is the name the container keys it under.
  void checkProfile(const FunctionProfile &P, const std::string &Where,
                    const std::string &ExpectName) {
    if (P.Name.empty() || (!ExpectName.empty() && P.Name != ExpectName))
      violate(ViolationKind::NameMismatch, Where,
              "profile name '" + P.Name + "' vs container key '" +
                  ExpectName + "'");

    // Count conservation: TotalSamples is maintained exclusively through
    // addBody/maxBody, so it must equal the saturating body sum.
    uint64_t BodySum = 0;
    for (const auto &[K, N] : P.Body)
      BodySum = saturatingAdd(BodySum, N);
    if (BodySum != P.TotalSamples)
      violate(ViolationKind::TotalMismatch, Where,
              "TotalSamples " + std::to_string(P.TotalSamples) +
                  " != body sum " + std::to_string(BodySum));

    if (Opts.ExactCounts && P.HeadSamples > P.TotalSamples)
      violate(ViolationKind::HeadExceedsTotal, Where,
              "head " + std::to_string(P.HeadSamples) + " > total " +
                  std::to_string(P.TotalSamples));

    bool Full = Opts.Level == VerifyLevel::Full;
    if (Full && Opts.CheckHeadEdges && !Opts.ExactCounts) {
      auto &H = Heads[P.Name];
      H = saturatingAdd(H, P.HeadSamples);
      for (const auto &[K, Targets] : P.Calls)
        for (const auto &[Callee, N] : Targets) {
          auto &T = TargetSums[Callee];
          T = saturatingAdd(T, N);
        }
    }

    const ProbeDescriptor *Desc = nullptr;
    if (Full && ProbeKeyed) {
      for (const auto &[K, N] : P.Body)
        checkProbeKey(K, Where, "body");
      for (const auto &[K, Targets] : P.Calls)
        checkProbeKey(K, Where, "call site");
      for (const auto &[K, Map] : P.Inlinees)
        checkProbeKey(K, Where, "inlinee site");
      if (Opts.Probes) {
        Desc = Opts.Probes->findByName(P.Name);
        if (!Desc) {
          violate(ViolationKind::NameMismatch, Where,
                  "no probe descriptor for '" + P.Name + "'");
        } else {
          if (P.Guid && P.Guid != Desc->Guid)
            violate(ViolationKind::GuidMismatch, Where,
                    "guid " + std::to_string(P.Guid) + " != descriptor " +
                        std::to_string(Desc->Guid));
          if (P.Checksum && P.Checksum != Desc->CFGChecksum)
            violate(ViolationKind::ChecksumMismatch, Where,
                    "checksum " + std::to_string(P.Checksum) +
                        " != descriptor " +
                        std::to_string(Desc->CFGChecksum));
          checkDomain(P, Where, *Desc);
        }
      }
    }

    for (const auto &[K, Map] : P.Inlinees)
      for (const auto &[Callee, Inlinee] : Map)
        checkProfile(Inlinee, Where + " > " + Callee + "@" + keyStr(K),
                     Callee);
  }

  /// Checks an edge site key against the *parent* function's probe domain
  /// (used for context-trie child edges).
  void checkSiteInDomain(uint32_t Site, const std::string &ParentFunc,
                         const std::string &Where) {
    if (!Opts.Probes)
      return;
    const ProbeDescriptor *Desc = Opts.Probes->findByName(ParentFunc);
    if (Desc && (Site < 1 || Site > Desc->NumProbes))
      violate(ViolationKind::ProbeOutOfDomain, Where,
              "edge site " + std::to_string(Site) + " outside [1, " +
                  std::to_string(Desc->NumProbes) + "] of '" + ParentFunc +
                  "'");
  }

  VerifyReport R;

private:
  void checkProbeKey(ProfileKey K, const std::string &Where,
                     const char *What) {
    if (K.Disc)
      violate(ViolationKind::DiscOnProbeKey, Where,
              std::string(What) + " key " + keyStr(K) +
                  " carries a discriminator on a probe-based profile");
  }

  void checkDomain(const FunctionProfile &P, const std::string &Where,
                   const ProbeDescriptor &Desc) {
    auto InDomain = [&](ProfileKey K, const char *What) {
      if (K.Index < 1 || K.Index > Desc.NumProbes)
        violate(ViolationKind::ProbeOutOfDomain, Where,
                std::string(What) + " key " + keyStr(K) + " outside [1, " +
                    std::to_string(Desc.NumProbes) + "]");
    };
    for (const auto &[K, N] : P.Body)
      InDomain(K, "body");
    for (const auto &[K, Targets] : P.Calls)
      InDomain(K, "call site");
    for (const auto &[K, Map] : P.Inlinees)
      InDomain(K, "inlinee site");
  }

  /// Sampled-profile head/call-edge conservation: per function, the head
  /// samples across the database equal the call-target counts into it
  /// (every generator records both off the same LBR call branch, and
  /// merging/trimming/pre-inlining only move or sum counts).
  void finishEdges() {
    if (Opts.Level != VerifyLevel::Full || !Opts.CheckHeadEdges ||
        Opts.ExactCounts)
      return;
    for (const auto &[Name, H] : Heads) {
      auto It = TargetSums.find(Name);
      uint64_t T = It == TargetSums.end() ? 0 : It->second;
      if (H == UINT64_MAX || T == UINT64_MAX)
        continue; // Saturated sums are incomparable.
      if (H != T)
        violate(ViolationKind::HeadEdgeMismatch, Name,
                "head samples " + std::to_string(H) +
                    " != call-target counts " + std::to_string(T));
    }
    for (const auto &[Name, T] : TargetSums)
      if (!Heads.count(Name) && T != 0)
        violate(ViolationKind::HeadEdgeMismatch, Name,
                "call-target counts " + std::to_string(T) +
                    " into a function with no head record");
  }

  const VerifierOptions &Opts;
  bool ProbeKeyed;
  /// Per-function saturating sums of head samples / call-target counts.
  std::map<std::string, uint64_t> Heads, TargetSums;
};

} // namespace

VerifyReport referenceVerifyFlatProfile(const FlatProfile &Profile,
                                        const VerifierOptions &Opts) {
  Checker C(Opts, Profile.Kind == ProfileKind::ProbeBased);
  if (Opts.Level == VerifyLevel::Off)
    return C.take();
  for (const auto &[Name, P] : Profile.Functions) {
    ++C.R.FunctionsChecked;
    C.checkProfile(P, Name, Name);
  }
  return C.take();
}

VerifyReport referenceVerifyContextProfile(const ContextProfile &Profile,
                                           const VerifierOptions &Opts) {
  Checker C(Opts, Profile.Kind == ProfileKind::ProbeBased);
  if (Opts.Level == VerifyLevel::Off)
    return C.take();
  bool Full = Opts.Level == VerifyLevel::Full;

  // Manual walk with the rendered context and the parent at hand, so both
  // the per-node profile and the trie structure get checked.
  std::function<void(const ContextTrieNode &, bool, SampleContext &)> Walk =
      [&](const ContextTrieNode &N, bool IsRoot, SampleContext &Ctx) {
        for (const auto &[Key, Child] : N.Children) {
          auto [Site, Callee] = Key;
          if (!Ctx.empty())
            Ctx.back().Site = Site;
          Ctx.push_back({Child.FuncName, 0});
          std::string Where = contextToString(Ctx);

          if (Full) {
            if (IsRoot && Site != 0)
              C.violate(ViolationKind::TrieEdgeMismatch, Where,
                        "root edge carries nonzero site " +
                            std::to_string(Site));
            if (Child.FuncName != Callee)
              C.violate(ViolationKind::NameMismatch, Where,
                        "edge callee '" + Callee + "' vs node '" +
                            Child.FuncName + "'");
            if (!IsRoot)
              C.checkSiteInDomain(Site, N.FuncName, Where);
            if (!Child.HasProfile &&
                (Child.Profile.TotalSamples || Child.Profile.HeadSamples ||
                 !Child.Profile.Body.empty()))
              C.violate(ViolationKind::TrieEdgeMismatch, Where,
                        "node without HasProfile holds counts");
          }
          if (Child.HasProfile) {
            ++C.R.ContextsChecked;
            C.checkProfile(Child.Profile, Where, Child.FuncName);
          }

          Walk(Child, false, Ctx);
          Ctx.pop_back();
          if (!Ctx.empty())
            Ctx.back().Site = 0;
        }
      };
  SampleContext Ctx;
  Walk(Profile.Root, true, Ctx);
  return C.take();
}

std::string diffVerifyReports(const VerifyReport &A, const VerifyReport &B) {
  auto Num = [](const char *Field, uint64_t X, uint64_t Y) {
    return std::string(Field) + " " + std::to_string(X) + " vs " +
           std::to_string(Y);
  };
  if (A.FunctionsChecked != B.FunctionsChecked)
    return Num("FunctionsChecked", A.FunctionsChecked, B.FunctionsChecked);
  if (A.ContextsChecked != B.ContextsChecked)
    return Num("ContextsChecked", A.ContextsChecked, B.ContextsChecked);
  if (A.Violations != B.Violations)
    return Num("Violations", A.Violations, B.Violations);
  if (A.Details.size() != B.Details.size())
    return Num("Details.size()", A.Details.size(), B.Details.size());
  for (size_t I = 0; I != A.Details.size(); ++I) {
    const Violation &X = A.Details[I], &Y = B.Details[I];
    if (X.Kind != Y.Kind || X.Where != Y.Where || X.Message != Y.Message)
      return "Details[" + std::to_string(I) + "] [" +
             violationKindName(X.Kind) + "] " + X.Where + ": " + X.Message +
             " vs [" + violationKindName(Y.Kind) + "] " + Y.Where + ": " +
             Y.Message;
  }
  return std::string();
}

} // namespace csspgo
