//===- profile/FunctionProfile.h - Sample profile data ----------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sample-profile containers. A FunctionProfile holds body samples keyed by
/// ProfileKey — a (index, discriminator) pair where the index is a
/// function-relative *line offset* for AutoFDO profiles or a *probe id* for
/// CSSPGO profiles — plus call-target counts and (for AutoFDO) nested
/// inlinee profiles mirroring the inlining of the profiled binary.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PROFILE_FUNCTIONPROFILE_H
#define CSSPGO_PROFILE_FUNCTIONPROFILE_H

#include <cstdint>
#include <map>
#include <string>

namespace csspgo {

/// Saturating uint64 addition: profile counts are magnitudes, so an
/// overflowing sum clamps at UINT64_MAX instead of wrapping a huge count
/// into a tiny one. All count accumulation in the profile containers goes
/// through this, which keeps TotalSamples == saturating-sum(Body) a true
/// invariant even at the extremes (the ProfileVerifier checks exactly
/// that equation).
inline uint64_t saturatingAdd(uint64_t A, uint64_t B) {
  uint64_t R;
  return __builtin_add_overflow(A, B, &R) ? UINT64_MAX : R;
}

/// In-place saturating accumulate: Slot += V, clamping at UINT64_MAX.
/// Returns true when the addition clamped. This is the one clamp
/// implementation shared by every merge path — FunctionProfile::merge and
/// the flat arena k-way merge both count their SaturatedCounts through it,
/// so the two paths cannot drift on the clamping rule.
inline bool saturatingAccum(uint64_t &Slot, uint64_t V) {
  uint64_t R;
  if (__builtin_add_overflow(Slot, V, &R)) {
    Slot = UINT64_MAX;
    return true;
  }
  Slot = R;
  return false;
}

/// Key of one profile record within a function.
struct ProfileKey {
  uint32_t Index = 0; ///< Line offset (AutoFDO) or probe id (CSSPGO).
  uint32_t Disc = 0;  ///< Discriminator (AutoFDO only; 0 otherwise).

  ProfileKey() = default;
  ProfileKey(uint32_t Index, uint32_t Disc = 0) : Index(Index), Disc(Disc) {}

  bool operator<(const ProfileKey &O) const {
    return Index != O.Index ? Index < O.Index : Disc < O.Disc;
  }
  bool operator==(const ProfileKey &O) const {
    return Index == O.Index && Disc == O.Disc;
  }
};

/// Deepest inlinee nesting a profile reader accepts: a top-level profile
/// is at depth 0 and each nested inlinee one deeper. The text and store
/// readers reject anything deeper with a parse error, which bounds every
/// recursion over a loaded profile (the stale matcher's among them).
/// Generated profiles nest only as deep as the inliner did, far below.
constexpr unsigned MaxInlineeNesting = 64;

/// Whether profile records are keyed by debug-info line offsets or by
/// pseudo-probe ids. This is the axis the paper's "profile correlation"
/// comparison (Fig. 2) runs along.
enum class ProfileKind : uint8_t { LineBased, ProbeBased };

/// Sample profile of one function (or of one calling context of a function
/// when stored in a ContextTrie).
class FunctionProfile {
public:
  std::string Name;
  uint64_t Guid = 0;
  /// CFG checksum persisted by probe-based profiles; the loader rejects the
  /// profile when it mismatches the IR checksum (stale profile detection).
  uint64_t Checksum = 0;
  uint64_t TotalSamples = 0;
  /// Samples attributed to the function entry (≈ invocation count).
  uint64_t HeadSamples = 0;

  /// Body samples: key -> count.
  std::map<ProfileKey, uint64_t> Body;

  /// Call targets: call-site key -> callee name -> count.
  std::map<ProfileKey, std::map<std::string, uint64_t>> Calls;

  /// Nested profiles of callees inlined in the *profiled* binary
  /// (AutoFDO-style partial context sensitivity): call-site key -> callee
  /// name -> profile.
  std::map<ProfileKey, std::map<std::string, FunctionProfile>> Inlinees;

  /// Adds \p N samples at \p K, with "sum" (default) or "max" semantics.
  void addBody(ProfileKey K, uint64_t N);
  /// Sets Body[K] = max(Body[K], N): the debug-info heuristic the paper
  /// describes for one-to-many line mappings.
  void maxBody(ProfileKey K, uint64_t N);

  void addCall(ProfileKey K, const std::string &Callee, uint64_t N);

  /// Returns the body count at \p K, or 0.
  uint64_t bodyAt(ProfileKey K) const;

  /// Returns the inlinee profile at (\p K, \p Callee), or nullptr.
  const FunctionProfile *inlineeAt(ProfileKey K,
                                   const std::string &Callee) const;
  FunctionProfile *inlineeAt(ProfileKey K, const std::string &Callee);

  /// Gets or creates a nested inlinee profile.
  FunctionProfile &getOrCreateInlinee(ProfileKey K, const std::string &Callee);

  /// Accumulates \p Other into this profile. Used when merging un-inlined
  /// context profiles into a base profile. Counts saturate at UINT64_MAX
  /// instead of wrapping; returns the number of additions (body slots,
  /// heads, call targets, recursively through inlinees) that saturated,
  /// so merge pipelines can report clamping (MergeStats::SaturatedCounts)
  /// instead of silently corrupting counts.
  uint64_t merge(const FunctionProfile &Other);

  /// Sum of all body samples including nested inlinees.
  uint64_t totalBodySamples() const;

  bool empty() const {
    return Body.empty() && Calls.empty() && Inlinees.empty();
  }
};

/// A flat (context-insensitive) profile database: AutoFDO profiles and
/// instrumentation profiles.
struct FlatProfile {
  ProfileKind Kind = ProfileKind::LineBased;
  std::map<std::string, FunctionProfile> Functions;

  FunctionProfile &getOrCreate(const std::string &Name);
  const FunctionProfile *find(const std::string &Name) const;
  uint64_t totalSamples() const;
};

} // namespace csspgo

#endif // CSSPGO_PROFILE_FUNCTIONPROFILE_H
