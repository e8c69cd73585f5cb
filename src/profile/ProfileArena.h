//===- profile/ProfileArena.h - Arena profile views -------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Arena-backed struct-of-arrays representation of sample profiles — the
/// profile data plane. The map-based containers (FunctionProfile /
/// FlatProfile / ContextProfile) are the canonical *semantic* model and
/// what the compiler passes consume, but their pointer-chasing layout
/// would dominate the data plane: every body slot a red-black tree node,
/// every callee name a heap string, every merge a rebuild of those trees.
/// So the store decodes, and sharded profgen, the fleet service and epoch
/// ingestion merge and scale, only on views; maps are built from a view
/// once, at the consumer, through flatProfileOf / contextProfileOf.
///
/// There is one view type, ContextProfileView. As in LLVM's
/// SampleProfileMap, where every FunctionSamples is keyed by a
/// SampleContext, a context-insensitive profile is the special case in
/// which every context is one base frame: flatViewOf emits one context
/// {name, site 0} per function, so one merge, one scaler and one store
/// loader serve both shapes. The arena keeps the information as four
/// append-only pools of POD slots plus an interned name table:
///
///   Body      [ (key, count) ... ]          sorted by ProfileKey
///   Calls     [ (key, callee, count) ... ]  sorted by (key, callee name)
///   Inlinees  [ (key, callee, record) ... ] sorted by (key, callee name)
///   Frames    [ (func, site) ... ]          context frames, outermost first
///
/// A FuncRecord is five scalars plus half-open ranges into the pools; a
/// profile database is a list of context handles over one shared arena.
/// All slices are kept in the canonical order the std::map containers
/// iterate in, which every producer provides (map iteration, trie DFS,
/// the binary store's record encoding, profgen's one sort of its pool
/// counts), so merging K profiles is a k-way merge of sorted slices and
/// conversion back to the map containers is a monotone build.
///
/// The conversions are exact: view -> map -> view and map -> view -> map
/// are identities. The merge and the scaler are specified below in map
/// terms; the test oracle (tests/oracle) implements those specifications
/// independently on the map containers, and ArenaTest and the
/// differential fuzzer hold the views to it bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PROFILE_PROFILEARENA_H
#define CSSPGO_PROFILE_PROFILEARENA_H

#include "profile/ContextTrie.h"
#include "profile/FunctionProfile.h"
#include "profile/ProfileMerge.h"

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace csspgo {

/// Index into a NameInterner's table.
using NameId = uint32_t;

/// Deduplicating append-only name table. Ids are dense and assigned in
/// first-intern order; `name(id)` is stable for the interner's lifetime
/// (std::deque storage never relocates elements, so the lookup keys can
/// be views into the stored strings).
class NameInterner {
public:
  NameId intern(std::string_view S) {
    auto It = Ids.find(S);
    if (It != Ids.end())
      return It->second;
    Storage.emplace_back(S);
    NameId Id = static_cast<NameId>(Storage.size() - 1);
    Ids.emplace(Storage.back(), Id);
    return Id;
  }

  const std::string &name(NameId Id) const { return Storage[Id]; }
  size_t size() const { return Storage.size(); }

private:
  std::deque<std::string> Storage;
  std::unordered_map<std::string_view, NameId> Ids;
};

/// One body sample slot: (key, count).
struct BodySlot {
  ProfileKey Key;
  uint64_t Count = 0;
};

/// One call-target slot: (call-site key, interned callee, count).
struct CallSlot {
  ProfileKey Key;
  NameId Callee = 0;
  uint64_t Count = 0;
};

/// One inlinee slot: (call-site key, interned callee, child record index).
struct InlineSlot {
  ProfileKey Key;
  NameId Callee = 0;
  uint32_t Rec = 0;
};

/// One context frame: function plus the call site leading to the next
/// frame (0 on the leaf frame, mirroring ContextFrame).
struct FrameSlot {
  NameId Func = 0;
  uint32_t Site = 0;
};

/// Flat equivalent of one FunctionProfile: scalars plus half-open slice
/// ranges into the owning arena's pools. Child inlinee records live in
/// the same arena, referenced by index from the Inlinees slice.
struct FuncRecord {
  NameId Name = 0;
  uint64_t Guid = 0;
  uint64_t Checksum = 0;
  uint64_t TotalSamples = 0;
  uint64_t HeadSamples = 0;
  uint32_t BodyBegin = 0, BodyEnd = 0;
  uint32_t CallsBegin = 0, CallsEnd = 0;
  uint32_t InlineesBegin = 0, InlineesEnd = 0;
};

/// End of the run of slots from \p I (below \p End) that share slot I's
/// key: one call site's targets, or one inline site's callees.
template <typename Slot>
uint32_t keyRunEnd(const std::vector<Slot> &Slots, uint32_t I, uint32_t End) {
  ProfileKey K = Slots[I].Key;
  while (++I != End && Slots[I].Key == K)
    ;
  return I;
}

/// Bump-pointer storage for one profile database: slot pools plus the
/// record table and name interner. Append-only; slices are identified by
/// (begin, end) index pairs so growing the pools never invalidates them.
class ProfileArena {
public:
  NameInterner Names;
  std::vector<BodySlot> Body;
  std::vector<CallSlot> Calls;
  std::vector<InlineSlot> Inlinees;
  std::vector<FrameSlot> Frames;
  std::vector<FuncRecord> Records;

  /// Appends \p P (recursively, inlinees first-child-deep) and returns
  /// the new record's index. Slices are emitted in the canonical sorted
  /// order (std::map iteration order of the source profile).
  uint32_t appendProfile(const FunctionProfile &P);

  /// Rebuilds the map-based profile for record \p Rec. Exact inverse of
  /// appendProfile.
  FunctionProfile materialize(uint32_t Rec) const;

  /// Saturating body-sample total of record \p Rec including nested
  /// inlinees; mirrors FunctionProfile::totalBodySamples.
  uint64_t totalBodySamples(uint32_t Rec) const;
};

/// One calling context: a frame slice plus the record holding its
/// samples, in ContextProfile trie-DFS order within the view.
struct ContextRecord {
  uint32_t FramesBegin = 0, FramesEnd = 0;
  uint32_t Rec = 0;
  bool ShouldBeInlined = false;
};

/// A profile database as a view: contexts in trie-DFS order (prefix-first,
/// children by (site, callee) — exactly the order
/// ContextProfile::forEachNode visits) over one arena. A flat profile is
/// the special case where every context is one base frame {name, site 0}
/// naming the function's record, so its contexts are in function-name
/// order.
struct ContextProfileView {
  ProfileKind Kind = ProfileKind::ProbeBased;
  /// The shape the view holds: context-sensitive (a ContextProfile) or
  /// flat (a FlatProfile). It decides only the Guid a merge seeds a new
  /// entry with and the map container the view converts back to.
  bool IsCS = true;
  ProfileArena Arena;
  std::vector<ContextRecord> Contexts;
};

/// FlatProfile -> view of one-frame contexts, one per function. Slices
/// come out canonically sorted because the source maps iterate sorted.
ContextProfileView flatViewOf(const FlatProfile &P);

/// Flat view -> FlatProfile. Exact inverse of flatViewOf; on merged or
/// store-loaded views it produces exactly what the map-based pipeline
/// would have produced.
FlatProfile flatProfileOf(const ContextProfileView &V);

/// ContextProfile -> view (profile-bearing nodes only, trie-DFS order).
ContextProfileView contextViewOf(const ContextProfile &P);

/// CS view -> ContextProfile. Rebuilds the trie; intermediate no-profile
/// nodes are reseeded exactly as ContextTrieNode::getOrCreateChild does.
ContextProfile contextProfileOf(const ContextProfileView &V);

/// K-way merge of views over sorted slices: the parts fold in order into
/// one database, context by context, as if by
///
///   Dst = copy(*Parts[0]);
///   for (i = 1 .. K-1) Stats += mergeInto(Dst, *Parts[i]);
///
/// where mergeInto counts each source context as added or merged, sums
/// its counts into MergeStats::CountsSummed, carries nonzero Guid /
/// Checksum over (recursively through inlinees) and accumulates every
/// slot — body, head, call targets, nested inlinees — with saturation at
/// UINT64_MAX (counted in MergeStats::SaturatedCounts); ShouldBeInlined
/// OR-folds. With \p IntoEmptyDst the first part is a merge *source* too
/// (Dst starts empty, as in ingestEpoch's first epoch):
///
///   Dst = {}; for (i = 0 .. K-1) Stats += mergeInto(Dst, *Parts[i]);
///
/// An entry new to Dst is seeded with Name = leaf and, as the map
/// containers seed it, Guid = computeFunctionGuid(leaf) in a CS view
/// (ContextTrieNode::getOrCreateChild) and Guid = 0 in a flat one
/// (FlatProfile::getOrCreate).
///
/// All parts must share one kind and one shape: summing line-based with
/// probe-based counts, or flat with context-sensitive ones, is a fatal
/// usage error. Input contexts must be in canonical order — true of every
/// in-tree producer, and of every view the store loaders return (they
/// reject out-of-order input); debug builds assert it.
ContextProfileView
mergeContextViews(const std::vector<const ContextProfileView *> &Parts,
                  MergeStats &Stats, bool IntoEmptyDst = false);

/// Scales every count in \p V by Num/Den (round half up). This is the
/// decay step of multi-epoch ingestion (ingestEpoch), so it must keep a
/// scaled profile verifiable at VerifyLevel::Full:
///
///  * Count conservation is restored structurally: after scaling a
///    function's body slots, TotalSamples is recomputed as their
///    saturating sum.
///
///  * Head/call-edge conservation (sum of a function's head samples ==
///    sum of call-target counts into it, database-wide) cannot survive
///    independent per-slot rounding — two slots of 1 scaled by 1/2 round
///    to 2, one slot of 2 rounds to 1. Instead, all head slots of a
///    function name share one cumulative accumulator (and all call-target
///    slots into it share another): slot i becomes
///    round(S_i * Num/Den) - round(S_{i-1} * Num/Den) over the prefix sums
///    S. Each side telescopes to round(true_sum * Num/Den), so equal sums
///    stay equal under any Num/Den.
///
///  * Exact-count (Instr) profiles get \p ExactCounts = true: no edge
///    accumulators (the equality does not apply to them), and the head is
///    clamped to the recomputed total so HEAD <= TOTAL keeps holding.
///
/// Slots are visited in canonical order (contexts in view order; per
/// record: body, head, call targets, then inlinees depth first), which
/// fixes every slot's value. Num == Den is a no-op; Num = 0 zeroes every
/// count.
void scaleContextView(ContextProfileView &V, uint64_t Num, uint64_t Den,
                      bool ExactCounts = false);

} // namespace csspgo

#endif // CSSPGO_PROFILE_PROFILEARENA_H
