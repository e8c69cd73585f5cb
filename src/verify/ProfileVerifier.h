//===- verify/ProfileVerifier.h - Profile invariant checking ----*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Invariant verification over sample-profile databases. A silently
/// corrupt count is indistinguishable from a profile-quality regression,
/// so every profile entering the pipeline (out of profgen, into the
/// loader) can be checked against the invariants the generators maintain:
///
///  * **Count conservation** — a FunctionProfile's TotalSamples equals the
///    (saturating) sum of its body counts, recursively through nested
///    inlinee profiles. Both the generators (addBody/maxBody) and the
///    parser maintain this; a drifted total means a count was edited
///    behind the container's back.
///
///  * **Head/call-edge conservation** (sampled profiles) — every head
///    sample the generators record is paired with a call-target record at
///    the calling site (same LBR call branch), so per function the sum of
///    head samples across the whole database equals the sum of
///    call-target counts into it. The equality survives merging,
///    cold-context trimming and the pre-inliner, all of which move or sum
///    counts but never drop one side of an edge. Instrumentation profiles
///    record heads from the entry counter and call targets only at
///    indirect-call value sites, so the edge equality does not apply to
///    them — they get the stronger exact-count check instead:
///
///  * **HEAD <= TOTAL** (exact profiles) — an instrumentation head count
///    is the entry-block counter, which is one of the body counters, so
///    it can never exceed their sum. Sampled profiles do *not* satisfy
///    this invariant: the newest LBR entry's call branch bumps the
///    callee's head while the range to the sampled PC is never
///    attributed, so a cold function observed only there legitimately
///    serializes as "name:0:1".
///
///  * **Probe-domain / metadata agreement** (probe-based profiles, given
///    the ProbeTable of the producing build) — every body, call-site and
///    inlinee key is a probe id within [1, NumProbes] of its function;
///    discriminators are 0 (probe keys have none); GUIDs and CFG
///    checksums match the descriptors.
///
///  * **Context-trie structure** (CS profiles) — child edges are
///    consistent (edge callee == child FuncName == child profile name),
///    root edges carry site 0, and non-root edge sites lie in the parent
///    function's probe domain.
///
/// One checker runs all of this on a ContextProfileView
/// (verifyProfileView), so the store's epoch fold and its loader verify
/// views without building a map. The map entry points convert once and
/// call it, after checking only what a view cannot carry: a flat map key
/// against its profile's name, and a trie's root-edge sites, edge keys
/// against node names, counts on nodes without HasProfile and the sites
/// of edges into subtrees holding no profile (reported first).
///
/// The checks are diagnostics, not gates: verification returns a report
/// with violation counts and capped details; callers (ProfileLoader,
/// ProfileGenerator, PGODriver) decide whether to surface, warn or abort.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_VERIFY_PROFILEVERIFIER_H
#define CSSPGO_VERIFY_PROFILEVERIFIER_H

#include "profile/ContextTrie.h"
#include "profile/FunctionProfile.h"
#include "profile/ProfileArena.h"

#include <string>
#include <vector>

namespace csspgo {

class ProbeTable;

/// How much verification to run. Summary covers the per-function count
/// conservation and exact-count head checks in one cheap linear pass;
/// Full adds the cross-database edge conservation, probe-domain /
/// metadata agreement and trie-structure checks.
enum class VerifyLevel : uint8_t { Off, Summary, Full };

enum class ViolationKind : uint8_t {
  /// TotalSamples != saturating sum of body counts.
  TotalMismatch,
  /// HeadSamples > TotalSamples under exact-count (Instr) semantics.
  HeadExceedsTotal,
  /// Sum of head samples of a function != sum of call-target counts
  /// into it across the database (sampled profiles only).
  HeadEdgeMismatch,
  /// Probe-based profile key carries a nonzero discriminator.
  DiscOnProbeKey,
  /// Probe-based key outside [1, NumProbes] of its function.
  ProbeOutOfDomain,
  /// Profile GUID disagrees with the probe descriptor.
  GuidMismatch,
  /// Profile CFG checksum disagrees with the probe descriptor.
  ChecksumMismatch,
  /// Profile/trie naming inconsistency (map key vs Profile.Name, edge
  /// callee vs child FuncName, empty function name).
  NameMismatch,
  /// Context-trie structural breakage (root edge with nonzero site).
  TrieEdgeMismatch,
};

const char *violationKindName(ViolationKind K);

struct Violation {
  ViolationKind Kind;
  /// Function name or rendered context the violation anchors to.
  std::string Where;
  std::string Message;
};

struct VerifierOptions {
  VerifyLevel Level = VerifyLevel::Full;
  /// Exact-count semantics (instrumentation profiles): enforce
  /// HEAD <= TOTAL and skip the sampled-profile edge conservation.
  bool ExactCounts = false;
  /// Check per-function head vs call-target conservation (sampled
  /// profiles; ignored when ExactCounts).
  bool CheckHeadEdges = true;
  /// Probe descriptors of the producing build; enables the probe-domain
  /// and GUID/checksum agreement checks for probe-based profiles. Leave
  /// null when verifying a profile away from its build (e.g. a stale
  /// profile before matching), where out-of-domain keys are legitimate.
  const ProbeTable *Probes = nullptr;
  /// Detail cap; violations beyond it are counted but not recorded.
  size_t MaxRecorded = 16;
};

struct VerifyReport {
  uint64_t FunctionsChecked = 0;
  uint64_t ContextsChecked = 0;
  /// Total violations found (Details is capped, this is not).
  uint64_t Violations = 0;
  std::vector<Violation> Details;

  bool ok() const { return Violations == 0; }
  /// One-line human-readable summary ("clean" or count + first detail).
  std::string str() const;
};

/// Verifies a view, flat or context-sensitive as its IsCS says. A flat
/// view's violations anchor to function names, a CS view's to rendered
/// contexts ("[main:12 @ foo]"); nested inlinees append " > callee@key".
VerifyReport verifyProfileView(const ContextProfileView &V,
                               const VerifierOptions &Opts = {});

/// Verifies a flat (AutoFDO / probe-only / instrumentation) profile.
VerifyReport verifyFlatProfile(const FlatProfile &Profile,
                               const VerifierOptions &Opts = {});

/// Verifies a context-sensitive profile, including trie structure.
VerifyReport verifyContextProfile(const ContextProfile &Profile,
                                  const VerifierOptions &Opts = {});

} // namespace csspgo

#endif // CSSPGO_VERIFY_PROFILEVERIFIER_H
