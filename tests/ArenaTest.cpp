//===- tests/ArenaTest.cpp - arena data-plane tests -------------*- C++ -*-===//
//
// Property suite for the arena-backed profile data plane (ProfileArena.h
// and the store's zero-copy read path). The arena representation is only
// allowed to exist because it is *exactly* the map representation with a
// different memory layout, so every test here is an equivalence, on flat
// views (one-frame contexts) and context-sensitive views alike:
//
//   * view round trips are identities (map -> view -> map, including
//     Guid/Checksum metadata the text format drops);
//   * the one k-way slice merge reproduces the test oracle's sequential
//     map merges bit for bit — values, MergeStats, and UINT64_MAX
//     saturation behavior — through both buildRemaps paths (identical
//     fleet-shard name tables and fully disjoint ones) and both
//     IntoEmptyDst modes;
//   * the one view decay scaler matches the oracle's map scalers slot for
//     slot;
//   * the borrowed-buffer store open rejects structurally corrupt
//     metadata even when the content hash has been recomputed to match
//     (the fixed-width section validation, not just the hash, holds the
//     line), the store view loader decodes a written store back to
//     exactly the profile that was written, and stores whose names or
//     contexts are out of canonical order fail with an error — never
//     reaching the view merge's order assertions.
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracle.h"
#include "profile/ProfileArena.h"
#include "profile/ProfileIO.h"
#include "store/ProfileStore.h"
#include "store/StoreFormat.h"
#include "support/Hashing.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

using namespace csspgo;

namespace {

//===----------------------------------------------------------------------===//
// Random profile generation. Merge/scale equivalence holds for *any*
// well-formed profile, not just verifier-conserving ones, so the
// generator aims for shape coverage (discriminators, multi-target call
// sites, nested inlinees, shared and unique names) rather than semantic
// plausibility.
//===----------------------------------------------------------------------===//

const std::vector<std::string> &namePool() {
  static const std::vector<std::string> Pool = {
      "main", "dispatch", "rank", "score", "fetch",
      "parse", "emit",     "fold", "walk",  "probe"};
  return Pool;
}

std::string pickName(Rng &R, const std::string &UniqueSuffix) {
  // Mostly shared names (merge collisions), sometimes part-unique ones
  // (exercises the remap union path).
  if (!UniqueSuffix.empty() && R.nextBelow(4) == 0)
    return namePool()[R.nextBelow(namePool().size())] + UniqueSuffix;
  return namePool()[R.nextBelow(namePool().size())];
}

ProfileKey randomKey(Rng &R) {
  return {static_cast<uint32_t>(1 + R.nextBelow(40)),
          static_cast<uint32_t>(R.nextBelow(3))};
}

void fillProfile(Rng &R, FunctionProfile &P, const std::string &Suffix,
                 unsigned Depth) {
  P.Guid = R.next();
  P.Checksum = R.next();
  P.TotalSamples = R.nextBelow(100000);
  P.HeadSamples = R.nextBelow(10000);
  for (size_t I = 0, N = 1 + R.nextBelow(6); I != N; ++I)
    P.addBody(randomKey(R), 1 + R.nextBelow(5000));
  for (size_t I = 0, N = R.nextBelow(4); I != N; ++I)
    P.addCall(randomKey(R), pickName(R, Suffix), 1 + R.nextBelow(2000));
  if (Depth != 0)
    for (size_t I = 0, N = R.nextBelow(3); I != N; ++I) {
      FunctionProfile &Inl =
          P.getOrCreateInlinee(randomKey(R), pickName(R, Suffix));
      fillProfile(R, Inl, Suffix, Depth - 1);
    }
}

/// Random flat profile. \p Suffix makes a fraction of the names unique to
/// this part ("" keeps every name in the shared pool).
FlatProfile randomFlat(uint64_t Seed, const std::string &Suffix = "") {
  Rng R(Seed);
  FlatProfile P;
  P.Kind = Seed % 2 ? ProfileKind::ProbeBased : ProfileKind::LineBased;
  for (size_t I = 0, N = 2 + R.nextBelow(5); I != N; ++I) {
    FunctionProfile &F = P.getOrCreate(pickName(R, Suffix));
    fillProfile(R, F, Suffix, 2);
  }
  return P;
}

/// Random context profile: a handful of depth-1..3 contexts over the
/// shared pool (plus part-unique names when \p Suffix is set).
ContextProfile randomContext(uint64_t Seed, const std::string &Suffix = "") {
  Rng R(Seed);
  ContextProfile P;
  P.Kind = Seed % 2 ? ProfileKind::ProbeBased : ProfileKind::LineBased;
  for (size_t I = 0, N = 2 + R.nextBelow(7); I != N; ++I) {
    SampleContext Ctx;
    for (size_t D = 0, Depth = 1 + R.nextBelow(3); D != Depth; ++D)
      Ctx.push_back({pickName(R, Suffix),
                     static_cast<uint32_t>(D + 1 == Depth ? 0
                                                          : 1 + R.nextBelow(8))});
    ContextTrieNode &Node = P.getOrCreateNode(Ctx);
    Node.Profile.Name = Ctx.back().Func;
    fillProfile(R, Node.Profile, Suffix, 2);
    Node.HasProfile = true;
    Node.ShouldBeInlined = R.nextBelow(4) == 0;
  }
  return P;
}

//===----------------------------------------------------------------------===//
// Deep equality. serializeFlatProfile/serializeContextProfile drop
// Guid/Checksum (the text format does), so the comparisons walk the
// structures field by field in addition to diffing the dumps.
//===----------------------------------------------------------------------===//

void expectEqualFunctions(const FunctionProfile &A, const FunctionProfile &B,
                          const std::string &Where) {
  EXPECT_EQ(A.Name, B.Name) << Where;
  EXPECT_EQ(A.Guid, B.Guid) << Where << "/" << A.Name;
  EXPECT_EQ(A.Checksum, B.Checksum) << Where << "/" << A.Name;
  EXPECT_EQ(A.TotalSamples, B.TotalSamples) << Where << "/" << A.Name;
  EXPECT_EQ(A.HeadSamples, B.HeadSamples) << Where << "/" << A.Name;
  EXPECT_EQ(A.Body, B.Body) << Where << "/" << A.Name;
  EXPECT_EQ(A.Calls, B.Calls) << Where << "/" << A.Name;
  ASSERT_EQ(A.Inlinees.size(), B.Inlinees.size()) << Where << "/" << A.Name;
  auto ItB = B.Inlinees.begin();
  for (const auto &[Key, MapA] : A.Inlinees) {
    ASSERT_EQ(Key, ItB->first) << Where << "/" << A.Name;
    ASSERT_EQ(MapA.size(), ItB->second.size()) << Where << "/" << A.Name;
    auto SubB = ItB->second.begin();
    for (const auto &[Callee, SubA] : MapA) {
      ASSERT_EQ(Callee, SubB->first) << Where << "/" << A.Name;
      expectEqualFunctions(SubA, SubB->second,
                           Where + "/" + A.Name + "@" + Callee);
      ++SubB;
    }
    ++ItB;
  }
}

void expectEqualFlat(const FlatProfile &A, const FlatProfile &B,
                     const std::string &Where) {
  EXPECT_EQ(A.Kind, B.Kind) << Where;
  EXPECT_EQ(serializeFlatProfile(A), serializeFlatProfile(B)) << Where;
  ASSERT_EQ(A.Functions.size(), B.Functions.size()) << Where;
  auto ItB = B.Functions.begin();
  for (const auto &[Name, FA] : A.Functions) {
    ASSERT_EQ(Name, ItB->first) << Where;
    expectEqualFunctions(FA, ItB->second, Where);
    ++ItB;
  }
}

void expectEqualContext(const ContextProfile &A, const ContextProfile &B,
                        const std::string &Where) {
  EXPECT_EQ(A.Kind, B.Kind) << Where;
  EXPECT_EQ(serializeContextProfile(A), serializeContextProfile(B)) << Where;
  struct Node {
    std::string Ctx;
    const ContextTrieNode *N;
  };
  std::vector<Node> NA, NB;
  A.forEachNode([&](const SampleContext &Ctx, const ContextTrieNode &N) {
    NA.push_back({contextToString(Ctx), &N});
  });
  B.forEachNode([&](const SampleContext &Ctx, const ContextTrieNode &N) {
    NB.push_back({contextToString(Ctx), &N});
  });
  ASSERT_EQ(NA.size(), NB.size()) << Where;
  for (size_t I = 0; I != NA.size(); ++I) {
    EXPECT_EQ(NA[I].Ctx, NB[I].Ctx) << Where;
    EXPECT_EQ(NA[I].N->ShouldBeInlined, NB[I].N->ShouldBeInlined)
        << Where << " " << NA[I].Ctx;
    expectEqualFunctions(NA[I].N->Profile, NB[I].N->Profile,
                         Where + " " + NA[I].Ctx);
  }
}

void expectEqualStats(const MergeStats &A, const MergeStats &B,
                      const std::string &Where) {
  EXPECT_EQ(A.ContextsAdded, B.ContextsAdded) << Where;
  EXPECT_EQ(A.ContextsMerged, B.ContextsMerged) << Where;
  EXPECT_EQ(A.CountsSummed, B.CountsSummed) << Where;
  EXPECT_EQ(A.SaturatedCounts, B.SaturatedCounts) << Where;
}

} // namespace

//===----------------------------------------------------------------------===//
// Round trips: map -> view -> map is the identity.
//===----------------------------------------------------------------------===//

TEST(Arena, FlatRoundTripIsIdentity) {
  for (uint64_t Seed = 0; Seed != 24; ++Seed) {
    FlatProfile P = randomFlat(Seed);
    FlatProfile Back = flatProfileOf(flatViewOf(P));
    expectEqualFlat(P, Back, "seed " + std::to_string(Seed));
  }
}

TEST(Arena, ContextRoundTripIsIdentity) {
  for (uint64_t Seed = 0; Seed != 24; ++Seed) {
    ContextProfile P = randomContext(Seed);
    ContextProfile Back = contextProfileOf(contextViewOf(P));
    expectEqualContext(P, Back, "seed " + std::to_string(Seed));
  }
}

TEST(Arena, EmptyProfilesRoundTrip) {
  FlatProfile F;
  F.Kind = ProfileKind::ProbeBased;
  expectEqualFlat(F, flatProfileOf(flatViewOf(F)), "empty flat");
  ContextProfile C;
  C.Kind = ProfileKind::LineBased;
  expectEqualContext(C, contextProfileOf(contextViewOf(C)), "empty cs");
}

//===----------------------------------------------------------------------===//
// Merge equivalence: the k-way slice merge is the sequential map merge.
// Each seed runs both IntoEmptyDst modes; odd seeds give every part a
// unique name suffix so the parts' interner tables disagree (the
// buildRemaps union fallback), even seeds share one pool (collision-heavy
// tables of differing first-reference order).
//===----------------------------------------------------------------------===//

TEST(Arena, FlatMergeMatchesMapMerge) {
  for (uint64_t Seed = 0; Seed != 12; ++Seed) {
    ProfileKind Kind = Seed % 2 ? ProfileKind::ProbeBased
                                : ProfileKind::LineBased;
    std::vector<FlatProfile> Parts;
    for (uint64_t P = 0; P != 4; ++P) {
      std::string Suffix = Seed % 2 ? ".p" + std::to_string(P) : "";
      Parts.push_back(randomFlat(Seed * 16 + P * 2, Suffix));
      Parts.back().Kind = Kind;
    }
    std::vector<ContextProfileView> Views;
    Views.reserve(Parts.size());
    for (const FlatProfile &P : Parts)
      Views.push_back(flatViewOf(P));
    std::vector<const ContextProfileView *> Ptrs;
    for (const ContextProfileView &V : Views)
      Ptrs.push_back(&V);

    for (bool IntoEmpty : {false, true}) {
      FlatProfile MapDst;
      MapDst.Kind = Kind;
      MergeStats MapStats;
      size_t First = 0;
      if (!IntoEmpty) {
        MapDst = Parts[0];
        First = 1;
      }
      for (size_t P = First; P != Parts.size(); ++P)
        MapStats += mergeFlatProfiles(MapDst, Parts[P]);

      MergeStats FlatStats;
      ContextProfileView Merged = mergeContextViews(Ptrs, FlatStats, IntoEmpty);
      std::string Where = "seed " + std::to_string(Seed) +
                          (IntoEmpty ? " empty-dst" : " seeded-dst");
      expectEqualFlat(MapDst, flatProfileOf(Merged), Where);
      expectEqualStats(MapStats, FlatStats, Where);
    }
  }
}

TEST(Arena, ContextMergeMatchesMapMerge) {
  for (uint64_t Seed = 0; Seed != 12; ++Seed) {
    ProfileKind Kind = Seed % 2 ? ProfileKind::ProbeBased
                                : ProfileKind::LineBased;
    std::vector<ContextProfile> Parts;
    for (uint64_t P = 0; P != 4; ++P) {
      std::string Suffix = Seed % 2 ? ".p" + std::to_string(P) : "";
      Parts.push_back(randomContext(Seed * 16 + P * 2 + 1, Suffix));
      Parts.back().Kind = Kind;
    }
    std::vector<ContextProfileView> Views;
    Views.reserve(Parts.size());
    for (const ContextProfile &P : Parts)
      Views.push_back(contextViewOf(P));
    std::vector<const ContextProfileView *> Ptrs;
    for (const ContextProfileView &V : Views)
      Ptrs.push_back(&V);

    for (bool IntoEmpty : {false, true}) {
      ContextProfile MapDst;
      MapDst.Kind = Kind;
      MergeStats MapStats;
      size_t First = 0;
      if (!IntoEmpty) {
        MapDst = Parts[0];
        First = 1;
      }
      for (size_t P = First; P != Parts.size(); ++P)
        MapStats += mergeContextProfiles(MapDst, Parts[P]);

      MergeStats FlatStats;
      ContextProfileView Merged = mergeContextViews(Ptrs, FlatStats, IntoEmpty);
      std::string Where = "seed " + std::to_string(Seed) +
                          (IntoEmpty ? " empty-dst" : " seeded-dst");
      expectEqualContext(MapDst, contextProfileOf(Merged), Where);
      expectEqualStats(MapStats, FlatStats, Where);
    }
  }
}

TEST(Arena, IdenticalNameTableFastPathMatchesMapMerge) {
  // K clones of one profile carry element-wise identical interner tables —
  // the fleet-shard case buildRemaps short-circuits. The result must still
  // be the sequential map fold exactly.
  ContextProfile Base = randomContext(99);
  std::vector<ContextProfile> Parts(5, Base);
  std::vector<ContextProfileView> Views;
  for (const ContextProfile &P : Parts)
    Views.push_back(contextViewOf(P));
  std::vector<const ContextProfileView *> Ptrs;
  for (const ContextProfileView &V : Views)
    Ptrs.push_back(&V);

  ContextProfile MapDst;
  MapDst.Kind = Base.Kind;
  MergeStats MapStats;
  for (const ContextProfile &P : Parts)
    MapStats += mergeContextProfiles(MapDst, P);

  MergeStats FlatStats;
  ContextProfileView Merged = mergeContextViews(Ptrs, FlatStats, true);
  expectEqualContext(MapDst, contextProfileOf(Merged), "clone merge");
  expectEqualStats(MapStats, FlatStats, "clone merge");
}

TEST(Arena, DisjointNameTablesMatchMapMerge) {
  // Fully disjoint parts: nothing collides, every context is an add, and
  // buildRemaps takes the sorted-union fallback end to end.
  std::vector<FlatProfile> Parts;
  for (uint64_t P = 0; P != 3; ++P)
    Parts.push_back(randomFlat(40 + P * 2, ".only" + std::to_string(P)));
  for (FlatProfile &P : Parts) {
    P.Kind = ProfileKind::ProbeBased;
    // Strip pool-shared top-level names so the parts are truly disjoint.
    for (auto It = P.Functions.begin(); It != P.Functions.end();)
      It = It->first.find(".only") == std::string::npos ? P.Functions.erase(It)
                                                        : std::next(It);
  }
  std::vector<ContextProfileView> Views;
  for (const FlatProfile &P : Parts)
    Views.push_back(flatViewOf(P));
  std::vector<const ContextProfileView *> Ptrs;
  for (const ContextProfileView &V : Views)
    Ptrs.push_back(&V);

  FlatProfile MapDst;
  MapDst.Kind = ProfileKind::ProbeBased;
  MergeStats MapStats;
  for (const FlatProfile &P : Parts)
    MapStats += mergeFlatProfiles(MapDst, P);

  MergeStats FlatStats;
  ContextProfileView Merged = mergeContextViews(Ptrs, FlatStats, true);
  expectEqualFlat(MapDst, flatProfileOf(Merged), "disjoint merge");
  expectEqualStats(MapStats, FlatStats, "disjoint merge");
}

//===----------------------------------------------------------------------===//
// Saturation: counts clamp at UINT64_MAX on both planes, through the one
// shared saturatingAccum implementation, with matching SaturatedCounts.
//===----------------------------------------------------------------------===//

TEST(Arena, CallTargetSaturationMatchesMapMerge) {
  constexpr uint64_t Max = std::numeric_limits<uint64_t>::max();
  FlatProfile A;
  A.Kind = ProfileKind::ProbeBased;
  FunctionProfile &FA = A.getOrCreate("hot");
  FA.TotalSamples = Max - 1;
  FA.HeadSamples = Max - 3;
  FA.addBody({1, 0}, Max - 5);
  FA.addCall({2, 0}, "callee", Max - 2);

  FlatProfile B;
  B.Kind = ProfileKind::ProbeBased;
  FunctionProfile &FB = B.getOrCreate("hot");
  FB.TotalSamples = 100;
  FB.HeadSamples = 100;
  FB.addBody({1, 0}, 100);
  FB.addCall({2, 0}, "callee", 100);

  FlatProfile MapDst = A;
  MergeStats MapStats = mergeFlatProfiles(MapDst, B);
  const FunctionProfile *Merged = MapDst.find("hot");
  ASSERT_NE(Merged, nullptr);
  EXPECT_EQ(Merged->TotalSamples, Max);
  EXPECT_EQ(Merged->HeadSamples, Max);
  EXPECT_EQ(Merged->bodyAt({1, 0}), Max);
  EXPECT_EQ(Merged->Calls.at({2, 0}).at("callee"), Max);
  EXPECT_GT(MapStats.SaturatedCounts, 0u);

  ContextProfileView VA = flatViewOf(A), VB = flatViewOf(B);
  MergeStats FlatStats;
  ContextProfileView MergedV = mergeContextViews({&VA, &VB}, FlatStats, false);
  expectEqualFlat(MapDst, flatProfileOf(MergedV), "saturating merge");
  expectEqualStats(MapStats, FlatStats, "saturating merge");
}

// The one place a view's shape changes what the merge computes: an entry
// new to the destination is seeded as the map container would seed it.
// A flat function (FlatProfile::getOrCreate) starts with Guid 0, so with
// Guid 0 in every source it stays 0; a CS context
// (ContextTrieNode::getOrCreateChild) starts with computeFunctionGuid of
// its leaf.
TEST(Arena, MergeSeedsNewEntryGuidByShape) {
  FlatProfile A, B;
  A.Kind = B.Kind = ProfileKind::ProbeBased;
  A.getOrCreate("f").addBody({1, 0}, 5);
  B.getOrCreate("f").addBody({1, 0}, 7);
  B.getOrCreate("g").addBody({2, 0}, 3);
  ContextProfileView VA = flatViewOf(A), VB = flatViewOf(B);
  ASSERT_FALSE(VA.IsCS);
  MergeStats FlatStats;
  ContextProfileView FlatMerged =
      mergeContextViews({&VA, &VB}, FlatStats, /*IntoEmptyDst=*/true);
  EXPECT_FALSE(FlatMerged.IsCS);
  FlatProfile Flat = flatProfileOf(FlatMerged);
  EXPECT_EQ(Flat.Functions.at("f").Guid, 0u);
  EXPECT_EQ(Flat.Functions.at("g").Guid, 0u);
  EXPECT_EQ(Flat.Functions.at("f").bodyAt({1, 0}), 12u);
  FlatProfile MapDst;
  MergeStats MapStats = mergeFlatProfiles(MapDst, A);
  MapStats += mergeFlatProfiles(MapDst, B);
  expectEqualFlat(MapDst, Flat, "flat guid seed");
  expectEqualStats(MapStats, FlatStats, "flat guid seed");

  ContextProfile CA, CB;
  CA.Kind = CB.Kind = ProfileKind::ProbeBased;
  for (ContextProfile *C : {&CA, &CB}) {
    ContextTrieNode &N = C->getOrCreateNode({{"main", 1}, {"f", 0}});
    N.HasProfile = true;
    N.Profile.Guid = 0;
    N.Profile.addBody({1, 0}, 4);
  }
  ContextProfileView CVA = contextViewOf(CA), CVB = contextViewOf(CB);
  ASSERT_TRUE(CVA.IsCS);
  MergeStats CSStats;
  ContextProfile CS = contextProfileOf(
      mergeContextViews({&CVA, &CVB}, CSStats, /*IntoEmptyDst=*/true));
  const ContextTrieNode *N = CS.findNode({{"main", 1}, {"f", 0}});
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(N->Profile.Guid, computeFunctionGuid("f"));
  ContextProfile CSMap;
  MergeStats CSMapStats = mergeContextProfiles(CSMap, CA);
  CSMapStats += mergeContextProfiles(CSMap, CB);
  expectEqualContext(CSMap, CS, "CS guid seed");
  expectEqualStats(CSMapStats, CSStats, "CS guid seed");
}

//===----------------------------------------------------------------------===//
// Scaling: the in-place view scaler is the map scaler slot for slot.
//===----------------------------------------------------------------------===//

TEST(Arena, ScaleFlatMatchesMapScale) {
  const std::pair<uint64_t, uint64_t> Ratios[] = {
      {1, 1}, {1, 2}, {333, 1000}, {999, 1000}, {0, 1}};
  for (uint64_t Seed = 0; Seed != 6; ++Seed)
    for (auto [Num, Den] : Ratios)
      for (bool Exact : {false, true}) {
        FlatProfile P = randomFlat(Seed + 70);
        FlatProfile MapScaled = P;
        scaleFlatProfile(MapScaled, Num, Den, Exact);
        ContextProfileView V = flatViewOf(P);
        scaleContextView(V, Num, Den, Exact);
        expectEqualFlat(MapScaled, flatProfileOf(V),
                        "seed " + std::to_string(Seed) + " " +
                            std::to_string(Num) + "/" + std::to_string(Den) +
                            (Exact ? " exact" : ""));
      }
}

TEST(Arena, ScaleContextMatchesMapScale) {
  const std::pair<uint64_t, uint64_t> Ratios[] = {
      {1, 1}, {1, 2}, {333, 1000}, {999, 1000}, {0, 1}};
  for (uint64_t Seed = 0; Seed != 6; ++Seed)
    for (auto [Num, Den] : Ratios) {
      ContextProfile P = randomContext(Seed + 80);
      ContextProfile MapScaled = P;
      scaleContextProfile(MapScaled, Num, Den);
      ContextProfileView V = contextViewOf(P);
      scaleContextView(V, Num, Den);
      expectEqualContext(MapScaled, contextProfileOf(V),
                         "seed " + std::to_string(Seed) + " " +
                             std::to_string(Num) + "/" + std::to_string(Den));
    }
}

//===----------------------------------------------------------------------===//
// The zero-copy store path: borrowed opens decode to the same profiles as
// owning opens, and structural corruption is rejected even when the
// content hash is made to match (the fixed-width section validation is a
// check of its own, not a rider on the hash).
//===----------------------------------------------------------------------===//

namespace {

/// Recomputes the content hash over bytes [16, end) and patches it into
/// header bytes [8, 16) — turns a structural corruption into one the hash
/// can no longer catch.
void rehash(std::string &Bytes) {
  ASSERT_GE(Bytes.size(), StoreHeaderSize);
  uint64_t H = hashStoreBytes(std::string_view(Bytes).substr(16));
  for (int I = 0; I != 8; ++I)
    Bytes[8 + I] = static_cast<char>(H >> (8 * I));
}

/// (offset, size) of section \p Name in \p Bytes, via a valid open.
std::pair<uint64_t, uint64_t> sectionSpan(const std::string &Bytes,
                                          const std::string &Name) {
  Expected<ProfileStore> S = ProfileStore::open(Bytes);
  EXPECT_TRUE(bool(S)) << S.status().message();
  if (S)
    for (const auto &[N, Off, Size] : S->sectionLayout())
      if (N == Name)
        return {Off, Size};
  ADD_FAILURE() << "section " << Name << " not found";
  return {0, 0};
}

void putU32(std::string &Bytes, size_t Pos, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Bytes[Pos + I] = static_cast<char>(V >> (8 * I));
}

} // namespace

TEST(ArenaStore, EveryRehashedTruncationIsRejected) {
  std::string Bytes = writeStore(flatViewOf(randomFlat(5)), {{1, 100, 1000}});
  // A plain truncation fails the hash; re-hashing the prefix removes that
  // shield, so what rejects these is the structural validation alone
  // (header size, section-table bounds, fixed-width section shapes).
  std::string Backing;
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    Backing = Bytes.substr(0, Len);
    if (Backing.size() >= StoreHeaderSize)
      rehash(Backing);
    Expected<ProfileStore> S = ProfileStore::openBorrowed(Backing);
    EXPECT_FALSE(bool(S)) << "rehashed prefix of " << Len << " bytes accepted";
    EXPECT_FALSE(S.status().message().empty());
  }
}

TEST(ArenaStore, CorruptStringTableOffsetsAreRejected) {
  std::string Bytes = writeStore(flatViewOf(randomFlat(6)), {{1, 100, 1000}});
  auto [Off, Size] = sectionSpan(Bytes, "string-table");
  ASSERT_GE(Size, 8u);
  // The last cumulative end offset must equal the blob size; pointing it
  // past the end must fail even with a fresh hash.
  uint32_t Count = loadStoreWord32(Bytes.data() + Off);
  ASSERT_GT(Count, 0u);
  std::string Bad = Bytes;
  putU32(Bad, Off + 4 + 4ull * (Count - 1), 0x7fffffff);
  rehash(Bad);
  Expected<ProfileStore> S = ProfileStore::openBorrowed(Bad);
  ASSERT_FALSE(bool(S));
  EXPECT_NE(S.status().message().find("string table"), std::string::npos)
      << S.status().message();

  // Non-monotone offsets (end before the previous end) are also malformed.
  if (Count > 1) {
    std::string Bad2 = Bytes;
    putU32(Bad2, Off + 4 + 4ull * (Count - 1), 0);
    uint32_t FirstEnd = loadStoreWord32(Bytes.data() + Off + 4);
    if (FirstEnd > 0) {
      rehash(Bad2);
      EXPECT_FALSE(bool(ProfileStore::openBorrowed(Bad2)));
    }
  }
}

TEST(ArenaStore, CorruptFuncIndexIsRejected) {
  std::string Bytes = writeStore(flatViewOf(randomFlat(7)), {{1, 100, 1000}});
  auto [Off, Size] = sectionSpan(Bytes, "func-index");
  ASSERT_GE(Size, 36u);
  ASSERT_EQ(Size % 36, 0u);
  // A name index beyond the string table is a malformed entry.
  std::string Bad = Bytes;
  putU32(Bad, Off, 0xffffffffu);
  rehash(Bad);
  Expected<ProfileStore> S = ProfileStore::openBorrowed(Bad);
  ASSERT_FALSE(bool(S));
  EXPECT_NE(S.status().message().find("index"), std::string::npos)
      << S.status().message();
}

TEST(ArenaStore, BorrowedViewsAliasTheCallerBuffer) {
  FlatProfile P = randomFlat(8);
  std::string Bytes = writeStore(flatViewOf(P), {{1, 100, 1000}});
  Expected<ProfileStore> S = ProfileStore::openBorrowed(Bytes);
  ASSERT_TRUE(bool(S)) << S.status().message();
  ASSERT_GT(S->numFunctions(), 0u);
  for (size_t I = 0; I != S->numFunctions(); ++I) {
    std::string_view Name = S->functionName(I);
    EXPECT_GE(Name.data(), Bytes.data());
    EXPECT_LE(Name.data() + Name.size(), Bytes.data() + Bytes.size());
  }
}

TEST(ArenaStore, FlatViewLoaderUnionEqualsEagerLoad) {
  FlatProfile P = randomFlat(9);
  std::string Bytes = writeStore(flatViewOf(P), {{1, 100, 1000}});
  Expected<ProfileStore> S = ProfileStore::openBorrowed(Bytes);
  ASSERT_TRUE(bool(S)) << S.status().message();

  StoreViewLoader Loader(*S);
  for (size_t I = 0; I != S->numFunctions(); ++I) {
    Status St = Loader.load(I);
    ASSERT_TRUE(St.ok()) << St.message();
  }
  expectEqualFlat(P, flatProfileOf(Loader.view()), "lazy union");

  Expected<ContextProfileView> EagerView = S->loadView();
  ASSERT_TRUE(bool(EagerView)) << EagerView.status().message();
  expectEqualFlat(P, flatProfileOf(*EagerView), "eager view");
}

TEST(ArenaStore, ContextViewLoaderUnionEqualsEagerLoad) {
  ContextProfile P = randomContext(10);
  std::string Bytes = writeStore(contextViewOf(P), {{1, 100, 1000}});
  Expected<ProfileStore> S = ProfileStore::openBorrowed(Bytes);
  ASSERT_TRUE(bool(S)) << S.status().message();

  StoreViewLoader Loader(*S);
  for (size_t I = 0; I != S->numFunctions(); ++I) {
    Status St = Loader.load(I);
    ASSERT_TRUE(St.ok()) << St.message();
  }
  // The per-leaf tile order differs from global DFS order, but the
  // rebuilt trie is keyed, so the materialized profiles must agree.
  expectEqualContext(P, contextProfileOf(Loader.view()), "lazy union");

  Expected<ContextProfileView> EagerView = S->loadView();
  ASSERT_TRUE(bool(EagerView)) << EagerView.status().message();
  expectEqualContext(P, contextProfileOf(*EagerView), "eager view");
}

//===----------------------------------------------------------------------===//
// Out-of-order hostile stores. A store whose hash was recomputed over a
// non-canonical payload opens or loads with an error Status, and an
// ingest over it fails cleanly with the bytes untouched — the view
// merges' order assertions are never reached.
//===----------------------------------------------------------------------===//

namespace {

/// Two same-length function names, so hostile edits keep every size.
FlatProfile twoFunctionFlat() {
  FlatProfile P;
  P.Kind = ProfileKind::ProbeBased;
  P.getOrCreate("aa").addBody({1, 0}, 10);
  P.getOrCreate("bb").addBody({1, 0}, 20);
  return P;
}

/// main@1 -> f and main@2 -> f: two contexts of equal encoded length
/// that share leaf f, so they form one two-context block.
ContextProfile twoCallersOfF() {
  ContextProfile P;
  P.Kind = ProfileKind::ProbeBased;
  for (uint32_t Site : {1u, 2u}) {
    ContextTrieNode &N = P.getOrCreateNode({{"main", Site}, {"f", 0}});
    N.HasProfile = true;
    N.Profile.addBody({1, 0}, 5);
  }
  return P;
}

/// Folds \p Fresh into \p Bad at half decay and expects a clean failure.
void expectIngestRejects(std::string Bad, const ContextProfileView &Fresh) {
  const std::string Before = Bad;
  IngestOptions IO;
  IO.DecayPermille = 500;
  IngestResult R = ingestEpoch(Bad, Fresh, IO);
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_EQ(Bad, Before);
}

/// Expects \p Bad to open but fail the eager load with \p Needle in the
/// message, and an ingest of \p Fresh over it to fail cleanly.
void expectLoadAndIngestReject(const std::string &Bad,
                               const std::string &Needle,
                               const ContextProfileView &Fresh) {
  Expected<ProfileStore> S = ProfileStore::openBorrowed(Bad);
  ASSERT_TRUE(bool(S)) << S.status().message();
  Expected<ContextProfileView> V = S->loadView();
  ASSERT_FALSE(bool(V));
  EXPECT_NE(V.status().message().find(Needle), std::string::npos)
      << V.status().message();
  expectIngestRejects(Bad, Fresh);
}

} // namespace

TEST(ArenaStore, RepeatedContextInALeafBlockIsRejected) {
  // Copying main@1 -> f over main@2 -> f repeats a context in f's block.
  ContextProfile P = twoCallersOfF();
  std::string Bytes = writeStore(contextViewOf(P), {{1, 10, 1000}});
  Expected<ProfileStore> S = ProfileStore::open(Bytes);
  ASSERT_TRUE(bool(S)) << S.status().message();
  int F = S->findFunction("f");
  ASSERT_GE(F, 0);
  auto [Off, Size] = S->functionTile(F);
  ASSERT_EQ(Bytes[Off], 2); // Context count.
  ASSERT_EQ((Size - 1) % 2, 0u);
  uint64_t Len = (Size - 1) / 2;
  std::string Bad = Bytes;
  ASSERT_NE(Bad.compare(Off + 1, Len, Bad, Off + 1 + Len, Len), 0);
  Bad.replace(Off + 1 + Len, Len, Bytes, Off + 1, Len);
  rehash(Bad);
  expectLoadAndIngestReject(Bad, "ascending", contextViewOf(P));
}

TEST(ArenaStore, DuplicateIndexNameIsRejected) {
  FlatProfile P = twoFunctionFlat();
  std::string Bytes = writeStore(flatViewOf(P), {{1, 30, 1000}});
  auto [Off, Size] = sectionSpan(Bytes, "func-index");
  ASSERT_EQ(Size, 72u);
  // Entry 1 names entry 0's function.
  std::string Bad = Bytes;
  putU32(Bad, Off + 36, loadStoreWord32(Bytes.data() + Off));
  rehash(Bad);

  Expected<ProfileStore> S = ProfileStore::openBorrowed(Bad);
  ASSERT_FALSE(bool(S));
  EXPECT_NE(S.status().message().find("index"), std::string::npos)
      << S.status().message();
  expectIngestRejects(Bad, flatViewOf(P));
}

TEST(ArenaStore, UnsortedStringTableIsRejected) {
  FlatProfile P = twoFunctionFlat();
  std::string Bytes = writeStore(flatViewOf(P), {{1, 30, 1000}});
  auto [Off, Size] = sectionSpan(Bytes, "string-table");
  ASSERT_EQ(loadStoreWord32(Bytes.data() + Off), 2u);
  // Blob "aabb" -> "bbaa": same offsets, descending names.
  size_t Blob = Off + 4 + 4 * 2;
  ASSERT_EQ(Bytes.substr(Blob, 4), "aabb");
  std::string Bad = Bytes;
  Bad.replace(Blob, 4, "bbaa");
  rehash(Bad);

  Expected<ProfileStore> S = ProfileStore::openBorrowed(Bad);
  ASSERT_FALSE(bool(S));
  EXPECT_NE(S.status().message().find("string table"), std::string::npos)
      << S.status().message();
  expectIngestRejects(Bad, flatViewOf(P));
}

//===----------------------------------------------------------------------===//
// One payload format. A flat store's block is one one-frame context with
// node flags 0; clearing the context-sensitive header flag of a CS store
// (and recomputing the hash) makes a flat store of whatever blocks the CS
// store held, so each shape violation is a well-formed block the flat
// reader must still refuse.
//===----------------------------------------------------------------------===//

namespace {

/// \p Bytes with the context-sensitive flag cleared and the hash redone.
std::string asFlatStore(std::string Bytes) {
  Bytes[6] = static_cast<char>(Bytes[6] & ~SF_ContextSensitive);
  rehash(Bytes);
  return Bytes;
}

/// Probe-based CS profile whose contexts are all one frame.
ContextProfile oneFrameContexts() {
  ContextProfile P;
  P.Kind = ProfileKind::ProbeBased;
  for (const char *F : {"aa", "bb"}) {
    ContextTrieNode &N = P.getOrCreateNode({{F, 0}});
    N.HasProfile = true;
    N.Profile.addBody({1, 0}, 10);
  }
  return P;
}

} // namespace

TEST(ArenaStore, OneFrameContextBlocksReadAsAFlatStore) {
  // The control for the tests below: blocks that keep the flat shape
  // read as the flat profile of the same functions.
  ContextProfile P = oneFrameContexts();
  std::string Bytes =
      asFlatStore(writeStore(contextViewOf(P), {{1, 20, 1000}}));
  Expected<ProfileStore> S = ProfileStore::openBorrowed(Bytes);
  ASSERT_TRUE(bool(S)) << S.status().message();
  EXPECT_FALSE(S->isCS());
  Expected<ContextProfileView> V = S->loadView();
  ASSERT_TRUE(bool(V)) << V.status().message();
  EXPECT_EQ(serializeFlatProfile(flatProfileOf(*V)),
            serializeFlatProfile(flattenContextProfile(P)));
}

TEST(ArenaStore, FlatBlockWithTwoContextsIsRejected) {
  ContextProfile P = twoCallersOfF();
  std::string Bad =
      asFlatStore(writeStore(contextViewOf(P), {{1, 10, 1000}}));
  expectLoadAndIngestReject(Bad, "one one-frame context",
                            flatViewOf(flattenContextProfile(P)));
}

TEST(ArenaStore, FlatBlockWithATwoFrameContextIsRejected) {
  ContextProfile P;
  P.Kind = ProfileKind::ProbeBased;
  ContextTrieNode &N = P.getOrCreateNode({{"main", 1}, {"f", 0}});
  N.HasProfile = true;
  N.Profile.addBody({1, 0}, 5);
  std::string Bad =
      asFlatStore(writeStore(contextViewOf(P), {{1, 5, 1000}}));
  expectLoadAndIngestReject(Bad, "one one-frame context",
                            flatViewOf(flattenContextProfile(P)));
}

TEST(ArenaStore, FlatBlockWithANodeFlagIsRejected) {
  ContextProfile P = oneFrameContexts();
  P.findNode({{"bb", 0}})->ShouldBeInlined = true;
  std::string Bad =
      asFlatStore(writeStore(contextViewOf(P), {{1, 20, 1000}}));
  expectLoadAndIngestReject(Bad, "one one-frame context",
                            flatViewOf(flattenContextProfile(P)));
}

TEST(ArenaStore, CSBlockTotalDisagreeingWithTheIndexIsRejected) {
  ContextProfile P = twoCallersOfF();
  std::string Bytes = writeStore(contextViewOf(P), {{1, 10, 1000}});
  auto [Off, Size] = sectionSpan(Bytes, "func-index");
  ASSERT_EQ(Size, 36u); // One leaf, f.
  // Entry layout: u32 name, u64 offset, u64 size, u64 total, u64 head.
  ASSERT_EQ(loadStoreWord(Bytes.data() + Off + 20), 10u);
  std::string Bad = Bytes;
  Bad[Off + 20] = 11;
  rehash(Bad);
  expectLoadAndIngestReject(Bad, "totals disagree", contextViewOf(P));
}

TEST(ArenaStore, FlatPayloadUnderTheRetiredSectionIdIsRejected) {
  // The flat payload's old section id (4) is retired: a store that holds
  // its blocks there has no cs-payload section and fails open().
  FlatProfile P = twoFunctionFlat();
  std::string Bytes = writeStore(flatViewOf(P), {{1, 30, 1000}});
  uint32_t NumSections = loadStoreWord32(Bytes.data() + 16);
  std::string Bad = Bytes;
  bool Moved = false;
  for (uint32_t I = 0; I != NumSections; ++I) {
    size_t Entry = StoreHeaderSize + I * StoreSectionEntrySize;
    if (loadStoreWord32(Bytes.data() + Entry) ==
        static_cast<uint32_t>(StoreSection::CSPayload)) {
      putU32(Bad, Entry, 4);
      Moved = true;
    }
  }
  ASSERT_TRUE(Moved);
  rehash(Bad);
  Expected<ProfileStore> S = ProfileStore::openBorrowed(Bad);
  ASSERT_FALSE(bool(S));
  EXPECT_EQ(S.status().message(), "missing required section: cs-payload");
  expectIngestRejects(Bad, flatViewOf(P));
}
