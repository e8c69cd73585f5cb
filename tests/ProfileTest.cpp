//===- tests/ProfileTest.cpp - profile container tests ----------*- C++ -*-===//

#include "oracle/Oracle.h"
#include "profile/ContextTrie.h"
#include "profile/FunctionProfile.h"
#include "profile/ProfileArena.h"
#include "profile/ProfileIO.h"
#include "profile/Trimmer.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace csspgo;

namespace {

/// The total call-target count at call site \p K of \p P.
uint64_t callAt(const FunctionProfile &P, ProfileKey K) {
  uint64_t Total = 0;
  if (auto It = P.Calls.find(K); It != P.Calls.end())
    for (const auto &[Callee, N] : It->second)
      Total += N;
  return Total;
}

FunctionProfile makeProfile(const std::string &Name, uint64_t Scale) {
  FunctionProfile P;
  P.Name = Name;
  P.Guid = computeFunctionGuid(Name);
  P.addBody({1, 0}, 10 * Scale);
  P.addBody({2, 0}, 7 * Scale);
  P.addCall({3, 0}, "callee_a", 5 * Scale);
  P.addCall({3, 0}, "callee_b", 2 * Scale);
  P.HeadSamples = Scale;
  return P;
}

} // namespace

TEST(FunctionProfile, AddAndQuery) {
  FunctionProfile P = makeProfile("f", 1);
  EXPECT_EQ(P.bodyAt({1, 0}), 10u);
  EXPECT_EQ(P.bodyAt({9, 0}), 0u);
  EXPECT_EQ(callAt(P, {3, 0}), 7u);
  EXPECT_EQ(P.TotalSamples, 17u);
}

TEST(FunctionProfile, MaxSemantics) {
  FunctionProfile P;
  P.maxBody({1, 0}, 5);
  P.maxBody({1, 0}, 3);
  EXPECT_EQ(P.bodyAt({1, 0}), 5u);
  P.maxBody({1, 0}, 9);
  EXPECT_EQ(P.bodyAt({1, 0}), 9u);
  EXPECT_EQ(P.TotalSamples, 9u);
}

TEST(FunctionProfile, DiscriminatorsSeparateRecords) {
  FunctionProfile P;
  P.addBody({4, 0}, 1);
  P.addBody({4, 2}, 2);
  EXPECT_EQ(P.bodyAt({4, 0}), 1u);
  EXPECT_EQ(P.bodyAt({4, 2}), 2u);
}

TEST(FunctionProfile, MergeSumsAndScales) {
  FunctionProfile A = makeProfile("f", 1);
  FunctionProfile B = makeProfile("f", 3);
  A.merge(B);
  EXPECT_EQ(A.bodyAt({1, 0}), 40u);
  EXPECT_EQ(A.HeadSamples, 4u);
}

TEST(FunctionProfile, NestedInlinees) {
  FunctionProfile P = makeProfile("f", 1);
  FunctionProfile &Inl = P.getOrCreateInlinee({3, 0}, "callee_a");
  Inl.addBody({1, 0}, 99);
  const FunctionProfile *Found = P.inlineeAt({3, 0}, "callee_a");
  ASSERT_NE(Found, nullptr);
  EXPECT_EQ(Found->bodyAt({1, 0}), 99u);
  EXPECT_EQ(P.inlineeAt({3, 0}, "other"), nullptr);
  EXPECT_EQ(P.totalBodySamples(), 17u + 99u);
}

TEST(ContextTrie, RoundTripString) {
  SampleContext Ctx = {{"main", 12}, {"foo", 3}, {"bar", 0}};
  std::string S = contextToString(Ctx);
  EXPECT_EQ(S, "[main:12 @ foo:3 @ bar]");
  SampleContext Back;
  ASSERT_TRUE(contextFromString(S, Back));
  EXPECT_EQ(Back, Ctx);
}

TEST(ContextTrie, RejectsMalformedStrings) {
  SampleContext Out;
  EXPECT_FALSE(contextFromString("", Out));
  EXPECT_FALSE(contextFromString("main", Out));
  EXPECT_FALSE(contextFromString("[]", Out));
  EXPECT_FALSE(contextFromString("[main @ foo]", Out)); // Missing site.
}

TEST(ContextTrie, CreateAndFind) {
  ContextProfile CP;
  SampleContext Ctx = {{"main", 12}, {"foo", 3}, {"bar", 0}};
  ContextTrieNode &N = CP.getOrCreateNode(Ctx);
  N.HasProfile = true;
  N.Profile.addBody({1, 0}, 5);

  EXPECT_EQ(CP.findNode(Ctx), &N);
  EXPECT_EQ(CP.findNode({{"main", 12}, {"baz", 0}}), nullptr);
  EXPECT_NE(CP.findNode({{"main", 0}}), nullptr); // Intermediate node.
  EXPECT_EQ(CP.numProfiles(), 1u);
  EXPECT_EQ(CP.totalSamples(), 5u);
}

TEST(ContextTrie, TotalSamplesSaturates) {
  // Two contexts whose totals sum past UINT64_MAX: the trie total clamps,
  // as FlatProfile::totalSamples and the store's totals do, instead of
  // wrapping to a small number.
  ContextProfile CP;
  for (uint32_t Site : {1u, 2u}) {
    ContextTrieNode &N = CP.getOrCreateNode({{"main", Site}, {"f", 0}});
    N.HasProfile = true;
    N.Profile.TotalSamples = UINT64_MAX / 2 + 10;
  }
  EXPECT_EQ(CP.totalSamples(), UINT64_MAX);
  const ContextTrieNode *Main = CP.findNode({{"main", 0}});
  ASSERT_NE(Main, nullptr);
  EXPECT_EQ(Main->subtreeSamples(), UINT64_MAX);
}

TEST(ContextTrie, ForEachNodeReportsFullContext) {
  ContextProfile CP;
  SampleContext C1 = {{"main", 1}, {"a", 0}};
  SampleContext C2 = {{"main", 2}, {"a", 0}};
  CP.getOrCreateNode(C1).HasProfile = true;
  CP.getOrCreateNode(C1).Profile.addBody({1, 0}, 1);
  CP.getOrCreateNode(C2).HasProfile = true;
  CP.getOrCreateNode(C2).Profile.addBody({1, 0}, 2);

  std::vector<std::string> Seen;
  CP.forEachNode([&](const SampleContext &Ctx, const ContextTrieNode &) {
    Seen.push_back(contextToString(Ctx));
  });
  ASSERT_EQ(Seen.size(), 2u);
  EXPECT_NE(std::find(Seen.begin(), Seen.end(), "[main:1 @ a]"), Seen.end());
  EXPECT_NE(std::find(Seen.begin(), Seen.end(), "[main:2 @ a]"), Seen.end());
}

TEST(ContextTrie, FlattenMergesContexts) {
  ContextProfile CP;
  SampleContext C1 = {{"main", 1}, {"a", 0}};
  SampleContext C2 = {{"main", 2}, {"a", 0}};
  ContextTrieNode &N1 = CP.getOrCreateNode(C1);
  N1.HasProfile = true;
  N1.Profile.addBody({1, 0}, 10);
  ContextTrieNode &N2 = CP.getOrCreateNode(C2);
  N2.HasProfile = true;
  N2.Profile.addBody({1, 0}, 20);

  FlatProfile Flat = flattenContextProfile(CP);
  const FunctionProfile *A = Flat.find("a");
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->bodyAt({1, 0}), 30u);
}

TEST(ProfileIO, FlatRoundTrip) {
  FlatProfile P;
  P.Kind = ProfileKind::ProbeBased;
  FunctionProfile &F = P.getOrCreate("foo");
  F.Checksum = 777;
  F.HeadSamples = 3;
  F.addBody({1, 0}, 100);
  F.addBody({2, 1}, 50);
  F.addCall({3, 0}, "bar", 40);
  FunctionProfile &Inl = F.getOrCreateInlinee({4, 0}, "baz");
  Inl.addBody({1, 0}, 25);
  Inl.HeadSamples = 5;

  std::string Text = serializeFlatProfile(P);
  FlatProfile Back;
  ASSERT_TRUE(parseFlatProfile(Text, Back)) << Text;
  EXPECT_EQ(Back.Kind, ProfileKind::ProbeBased);
  const FunctionProfile *BF = Back.find("foo");
  ASSERT_NE(BF, nullptr);
  EXPECT_EQ(BF->Checksum, 777u);
  EXPECT_EQ(BF->HeadSamples, 3u);
  EXPECT_EQ(BF->bodyAt({1, 0}), 100u);
  EXPECT_EQ(BF->bodyAt({2, 1}), 50u);
  EXPECT_EQ(callAt(*BF, {3, 0}), 40u);
  const FunctionProfile *BInl = BF->inlineeAt({4, 0}, "baz");
  ASSERT_NE(BInl, nullptr);
  EXPECT_EQ(BInl->bodyAt({1, 0}), 25u);
  EXPECT_EQ(BInl->HeadSamples, 5u);
}

TEST(ProfileIO, ContextRoundTrip) {
  ContextProfile CP;
  CP.Kind = ProfileKind::ProbeBased;
  SampleContext Ctx = {{"main", 12}, {"foo", 3}, {"bar", 0}};
  ContextTrieNode &N = CP.getOrCreateNode(Ctx);
  N.HasProfile = true;
  N.ShouldBeInlined = true;
  N.Profile.Checksum = 42;
  N.Profile.HeadSamples = 9;
  N.Profile.addBody({1, 0}, 11);
  N.Profile.addCall({2, 0}, "qux", 5);

  std::string Text = serializeContextProfile(CP);
  ContextProfile Back;
  ASSERT_TRUE(parseContextProfile(Text, Back)) << Text;
  const ContextTrieNode *BN = Back.findNode(Ctx);
  ASSERT_NE(BN, nullptr);
  EXPECT_TRUE(BN->HasProfile);
  EXPECT_TRUE(BN->ShouldBeInlined);
  EXPECT_EQ(BN->Profile.Checksum, 42u);
  EXPECT_EQ(BN->Profile.HeadSamples, 9u);
  EXPECT_EQ(BN->Profile.bodyAt({1, 0}), 11u);
  EXPECT_EQ(callAt(BN->Profile, {2, 0}), 5u);
}

TEST(ProfileIO, SizeGrowsWithContexts) {
  ContextProfile Small, Big;
  for (int I = 0; I != 2; ++I) {
    SampleContext Ctx = {{"main", static_cast<uint32_t>(I)}, {"f", 0}};
    ContextTrieNode &N = Small.getOrCreateNode(Ctx);
    N.HasProfile = true;
    N.Profile.addBody({1, 0}, 1);
  }
  for (int I = 0; I != 40; ++I) {
    SampleContext Ctx = {{"main", static_cast<uint32_t>(I)}, {"f", 0}};
    ContextTrieNode &N = Big.getOrCreateNode(Ctx);
    N.HasProfile = true;
    N.Profile.addBody({1, 0}, 1);
  }
  EXPECT_GT(profileSizeBytes(Big), 5 * profileSizeBytes(Small));
}

TEST(Merge, FlatProfilesSum) {
  FlatProfile A, B;
  A.Kind = B.Kind = ProfileKind::LineBased;
  A.getOrCreate("f").addBody({1, 0}, 10);
  B.getOrCreate("f").addBody({1, 0}, 5);
  B.getOrCreate("g").addBody({2, 0}, 7);
  mergeFlatProfiles(A, B);
  EXPECT_EQ(A.find("f")->bodyAt({1, 0}), 15u);
  EXPECT_EQ(A.find("g")->bodyAt({2, 0}), 7u);
}

TEST(Merge, ContextProfilesSum) {
  ContextProfile A, B;
  SampleContext Ctx = {{"main", 1}, {"f", 0}};
  ContextTrieNode &NA = A.getOrCreateNode(Ctx);
  NA.HasProfile = true;
  NA.Profile.addBody({1, 0}, 10);
  ContextTrieNode &NB = B.getOrCreateNode(Ctx);
  NB.HasProfile = true;
  NB.Profile.addBody({1, 0}, 32);
  mergeContextProfiles(A, B);
  EXPECT_EQ(A.findNode(Ctx)->Profile.bodyAt({1, 0}), 42u);
}

TEST(Trimmer, MergesColdContextsIntoBase) {
  ContextProfile CP;
  SampleContext Hot = {{"main", 1}, {"f", 0}};
  SampleContext Cold = {{"main", 2}, {"f", 0}};
  ContextTrieNode &NH = CP.getOrCreateNode(Hot);
  NH.HasProfile = true;
  NH.Profile.addBody({1, 0}, 1000);
  ContextTrieNode &NC = CP.getOrCreateNode(Cold);
  NC.HasProfile = true;
  NC.Profile.addBody({1, 0}, 3);

  TrimStats Stats = trimColdContexts(CP, 100);
  EXPECT_EQ(Stats.ContextsMerged, 1u);
  EXPECT_EQ(CP.findNode(Cold), nullptr);
  EXPECT_NE(CP.findNode(Hot), nullptr);
  const ContextTrieNode *Base = CP.findBase("f");
  ASSERT_NE(Base, nullptr);
  EXPECT_EQ(Base->Profile.bodyAt({1, 0}), 3u);
  // Total samples preserved.
  EXPECT_EQ(CP.totalSamples(), 1003u);
}

TEST(Trimmer, ReducesSerializedSize) {
  ContextProfile CP;
  for (uint32_t I = 0; I != 50; ++I) {
    SampleContext Ctx = {{"main", I}, {"f", 0}};
    ContextTrieNode &N = CP.getOrCreateNode(Ctx);
    N.HasProfile = true;
    N.Profile.addBody({1, 0}, I == 0 ? 10000 : 2);
  }
  size_t Before = profileSizeBytes(CP);
  trimColdContexts(CP, 100);
  size_t After = profileSizeBytes(CP);
  EXPECT_LT(After * 3, Before);
  // The hot context survives with full fidelity.
  EXPECT_NE(CP.findNode({{"main", 0u}, {"f", 0u}}), nullptr);
}

TEST(Merge, ReportsStats) {
  FlatProfile A, B;
  A.Kind = B.Kind = ProfileKind::LineBased;
  A.getOrCreate("f").addBody({1, 0}, 10);
  B.getOrCreate("f").addBody({1, 0}, 5);
  B.getOrCreate("g").addBody({2, 0}, 7);
  B.getOrCreate("g").HeadSamples = 3;
  MergeStats S = mergeFlatProfiles(A, B);
  EXPECT_EQ(S.ContextsMerged, 1u); // "f" existed in dst
  EXPECT_EQ(S.ContextsAdded, 1u);  // "g" was new
  EXPECT_EQ(S.CountsSummed, 15u);  // 5 + 7 body + 3 head from src

  ContextProfile CA, CB;
  SampleContext Ctx = {{"main", 1}, {"f", 0}};
  ContextTrieNode &NA = CA.getOrCreateNode(Ctx);
  NA.HasProfile = true;
  NA.Profile.addBody({1, 0}, 10);
  ContextTrieNode &NB = CB.getOrCreateNode(Ctx);
  NB.HasProfile = true;
  NB.Profile.addBody({1, 0}, 32);
  SampleContext Ctx2 = {{"main", 2}, {"g", 0}};
  ContextTrieNode &NB2 = CB.getOrCreateNode(Ctx2);
  NB2.HasProfile = true;
  NB2.Profile.addBody({1, 0}, 4);
  MergeStats CS = mergeContextProfiles(CA, CB);
  EXPECT_EQ(CS.ContextsMerged, 1u);
  EXPECT_EQ(CS.ContextsAdded, 1u);
  EXPECT_EQ(CS.CountsSummed, 36u);

  MergeStats Sum = S;
  Sum += CS;
  EXPECT_EQ(Sum.ContextsAdded, 2u);
  EXPECT_EQ(Sum.ContextsMerged, 2u);
  EXPECT_EQ(Sum.CountsSummed, 51u);
}

TEST(Merge, EmptyDstAdoptsSrcKind) {
  FlatProfile Dst, Src;
  Src.Kind = ProfileKind::ProbeBased;
  Src.getOrCreate("f").addBody({1, 0}, 1);
  mergeFlatProfiles(Dst, Src);
  EXPECT_EQ(Dst.Kind, ProfileKind::ProbeBased);

  ContextProfile CDst, CSrc;
  CSrc.Kind = ProfileKind::LineBased;
  ContextTrieNode &N = CSrc.getOrCreateNode({{"main", 1}, {"f", 0}});
  N.HasProfile = true;
  N.Profile.addBody({1, 0}, 1);
  mergeContextProfiles(CDst, CSrc);
  EXPECT_EQ(CDst.Kind, ProfileKind::LineBased);
}

TEST(MergeDeathTest, KindMismatchIsFatal) {
  FlatProfile A, B;
  A.Kind = ProfileKind::LineBased;
  A.getOrCreate("f").addBody({1, 0}, 1);
  B.Kind = ProfileKind::ProbeBased;
  B.getOrCreate("f").addBody({1, 0}, 1);
  EXPECT_DEATH(mergeFlatProfiles(A, B), "different kinds");

  // The view merge that ships holds the same line.
  ContextProfileView VA = flatViewOf(A), VB = flatViewOf(B);
  MergeStats Stats;
  EXPECT_DEATH(mergeContextViews({&VA, &VB}, Stats), "different kinds");
  ContextProfile CA, CB;
  CA.Kind = ProfileKind::LineBased;
  CB.Kind = ProfileKind::ProbeBased;
  for (ContextProfile *C : {&CA, &CB}) {
    ContextTrieNode &N = C->getOrCreateNode({{"main", 1}, {"f", 0}});
    N.HasProfile = true;
    N.Profile.addBody({1, 0}, 1);
  }
  ContextProfileView CVA = contextViewOf(CA), CVB = contextViewOf(CB);
  EXPECT_DEATH(mergeContextViews({&CVA, &CVB}, Stats), "different kinds");
}

TEST(MergeDeathTest, FlatWithContextIsFatal) {
  // One kind, two shapes: a flat function entry is not a calling context,
  // so the one view merge refuses to sum them, in either part order.
  FlatProfile Flat;
  Flat.Kind = ProfileKind::ProbeBased;
  Flat.getOrCreate("f").addBody({1, 0}, 1);
  ContextProfile CS;
  CS.Kind = ProfileKind::ProbeBased;
  ContextTrieNode &N = CS.getOrCreateNode({{"f", 0}});
  N.HasProfile = true;
  N.Profile.addBody({1, 0}, 1);
  ContextProfileView FV = flatViewOf(Flat), CV = contextViewOf(CS);
  MergeStats Stats;
  EXPECT_DEATH(mergeContextViews({&FV, &CV}, Stats),
               "flat and context-sensitive");
  EXPECT_DEATH(mergeContextViews({&CV, &FV}, Stats, /*IntoEmptyDst=*/true),
               "flat and context-sensitive");
}

TEST(Merge, PropagatesInlineeMetadata) {
  // An inlinee first seen from Src must arrive with its Guid/Checksum —
  // shard reduction depends on this for bit-identical serialization.
  FlatProfile Dst, Src;
  Dst.Kind = Src.Kind = ProfileKind::ProbeBased;
  Dst.getOrCreate("caller").addBody({1, 0}, 2);
  FunctionProfile &SC = Src.getOrCreate("caller");
  SC.addBody({1, 0}, 3);
  FunctionProfile &Inlinee = SC.getOrCreateInlinee({2, 0}, "leaf");
  Inlinee.Guid = 0xABCD;
  Inlinee.Checksum = 0x1234;
  Inlinee.addBody({1, 0}, 9);
  mergeFlatProfiles(Dst, Src);
  const FunctionProfile *D = Dst.find("caller");
  ASSERT_NE(D, nullptr);
  auto SiteIt = D->Inlinees.find({2, 0});
  ASSERT_TRUE(SiteIt != D->Inlinees.end());
  auto LeafIt = SiteIt->second.find("leaf");
  ASSERT_TRUE(LeafIt != SiteIt->second.end());
  EXPECT_EQ(LeafIt->second.Guid, 0xABCDu);
  EXPECT_EQ(LeafIt->second.Checksum, 0x1234u);
  EXPECT_EQ(LeafIt->second.bodyAt({1, 0}), 9u);
}

TEST(Merge, MatchedProfilePreservesMetadataAndFreshKeys) {
  // A stale-matcher recovery is stamped with the fresh GUID/checksum and
  // keyed entirely in the fresh probe-id space {1,2,3}; aggregating it
  // with a fresh-collected profile (the continuous-profiling workflow)
  // must keep that metadata and must not resurrect stale-only ids.
  FlatProfile Fresh;
  Fresh.Kind = ProfileKind::ProbeBased;
  FunctionProfile &F = Fresh.getOrCreate("f");
  F.Guid = 0x77;
  F.Checksum = 0xC0FFEE;
  F.addBody({1, 0}, 10);
  F.addBody({2, 0}, 20);
  F.addBody({3, 0}, 5);
  F.addCall({3, 0}, "g", 5);

  FlatProfile Recovered;
  Recovered.Kind = ProfileKind::ProbeBased;
  FunctionProfile &R = Recovered.getOrCreate("f");
  R.Guid = 0x77;
  R.Checksum = 0xC0FFEE; // Fresh checksum, stamped by the matcher.
  R.addBody({1, 0}, 4);  // Remapped: the stale ids {1,2,9} became {1,3}.
  R.addBody({3, 0}, 6);
  R.addCall({3, 0}, "g", 2);

  mergeFlatProfiles(Fresh, Recovered);
  const FunctionProfile *D = Fresh.find("f");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Guid, 0x77u);
  EXPECT_EQ(D->Checksum, 0xC0FFEEu);
  for (const auto &[K, N] : D->Body)
    EXPECT_TRUE(K.Index >= 1 && K.Index <= 3)
        << "stale id resurrected: " << K.Index;
  EXPECT_EQ(D->bodyAt({1, 0}), 14u);
  EXPECT_EQ(D->bodyAt({2, 0}), 20u);
  EXPECT_EQ(D->bodyAt({3, 0}), 11u);
  EXPECT_EQ(callAt(*D, {3, 0}), 7u);
}

//===----------------------------------------------------------------------===//
// Parser hardening: malformed text must be rejected, not silently
// misparsed. Each case is a minimized regression for a bug the fuzz
// harness / verifier surfaced in the original permissive parser.
//===----------------------------------------------------------------------===//

namespace {

bool parsesFlat(const std::string &Text) {
  FlatProfile P;
  return parseFlatProfile(Text, P);
}

bool parsesContext(const std::string &Text) {
  ContextProfile P;
  return parseContextProfile(Text, P);
}

} // namespace

TEST(ProfileIOHardening, RejectsBadKindLine) {
  EXPECT_FALSE(parsesFlat("!kind: bogus\n"));
  EXPECT_FALSE(parsesFlat("!kind:probe\n"));
  EXPECT_TRUE(parsesFlat("!kind: probe\n"));
  EXPECT_TRUE(parsesFlat("!kind: line\n"));
}

TEST(ProfileIOHardening, RejectsOverflowingCounts) {
  // 2^64 and beyond: the old strtoull path clamped to ULLONG_MAX and
  // accepted the line; an overflowing count field is corruption.
  EXPECT_FALSE(parsesFlat("!kind: probe\n"
                          "f:99999999999999999999999:0\n"));
  EXPECT_FALSE(parsesFlat("!kind: probe\n"
                          "f:99999999999999999999999:0\n"
                          " 1: 99999999999999999999999\n"));
}

TEST(ProfileIOHardening, RejectsGarbageNumbers) {
  // strtoul("abc") == 0 with no error; the strict parser requires an
  // all-digit token.
  EXPECT_FALSE(parsesFlat("!kind: probe\nf:5:0\n abc: 5\n"));
  EXPECT_FALSE(parsesFlat("!kind: probe\nf:5:0\n 1: 5x\n"));
  EXPECT_FALSE(parsesFlat("!kind: probe\nf:5:0\n 1: -5\n"));
}

TEST(ProfileIOHardening, RejectsDuplicateChecksum) {
  EXPECT_FALSE(parsesFlat("!kind: probe\n"
                          "f:5:0\n"
                          " !CFGChecksum: 1\n"
                          " !CFGChecksum: 2\n"
                          " 1: 5\n"));
}

TEST(ProfileIOHardening, RejectsHeaderTotalMismatch) {
  // The header TOTAL is redundant with the body sum; a disagreement means
  // the text was edited or truncated.
  EXPECT_FALSE(parsesFlat("!kind: probe\nf:6:0\n 1: 5\n"));
  EXPECT_TRUE(parsesFlat("!kind: probe\nf:5:0\n 1: 5\n"));
  EXPECT_FALSE(parsesContext("!kind: probe\n[f]:6:0\n 1: 5\n"));
  EXPECT_TRUE(parsesContext("!kind: probe\n[f]:5:0\n 1: 5\n"));
}

TEST(ProfileIOHardening, RejectsDuplicateRecords) {
  // Duplicate function header.
  EXPECT_FALSE(parsesFlat("!kind: probe\nf:5:0\n 1: 5\nf:0:0\n"));
  // Duplicate body key.
  EXPECT_FALSE(parsesFlat("!kind: probe\nf:10:0\n 1: 5\n 1: 5\n"));
  // Duplicate call-site line and duplicate callee within one line.
  EXPECT_FALSE(parsesFlat("!kind: probe\nf:0:0\n 2: @ g:3\n 2: @ h:4\n"));
  EXPECT_FALSE(parsesFlat("!kind: probe\nf:0:0\n 2: @ g:3 g:4\n"));
  // Duplicate context.
  EXPECT_FALSE(parsesContext("!kind: probe\n[f]:5:0\n 1: 5\n[f]:5:0\n 1: 5\n"));
}

TEST(ProfileIOHardening, RejectsTruncatedInlinee) {
  std::string Full = "!kind: probe\n"
                     "f:5:0\n"
                     " 1: 5\n"
                     " 2: > g:7:1 {\n"
                     "  1: 7\n"
                     " }\n";
  EXPECT_TRUE(parsesFlat(Full));
  // Missing closing brace (EOF inside the inlinee body).
  EXPECT_FALSE(parsesFlat("!kind: probe\nf:5:0\n 1: 5\n 2: > g:7:1 {\n  1: 7\n"));
  // Inlinee body truncated: declared total 7, body sums to 0.
  EXPECT_FALSE(parsesFlat("!kind: probe\nf:5:0\n 1: 5\n 2: > g:7:1 {\n }\n"));
  // Duplicate inlinee at the same (site, callee).
  EXPECT_FALSE(parsesFlat("!kind: probe\nf:5:0\n 1: 5\n"
                          " 2: > g:7:1 {\n  1: 7\n }\n"
                          " 2: > g:7:1 {\n  1: 7\n }\n"));
}

TEST(ProfileIOHardening, RejectsEmptyCallSiteLine) {
  // A call-site line needs at least one target: a site without targets
  // has no form in a view or a store, so text -> store -> text would drop
  // the line.
  EXPECT_FALSE(parsesFlat("!kind: line\nmain:10:1\n 1: 10\n 2: @\n"));
  EXPECT_FALSE(parsesFlat("!kind: line\nmain:10:1\n 1: 10\n 2: @ \n"));
  EXPECT_TRUE(parsesFlat("!kind: line\nmain:10:1\n 1: 10\n 2: @ g:1\n"));
  EXPECT_FALSE(parsesFlat("!kind: probe\nf:5:0\n 1: 5\n 2: > g:0:0 {\n"
                          "  3: @\n }\n"));
  EXPECT_FALSE(parsesContext("!kind: probe\n[f]:5:0\n 1: 5\n 2: @\n"));
  // The writer prints no line for a hand-built empty target map, so what
  // it writes parses back.
  FlatProfile P;
  P.Kind = ProfileKind::ProbeBased;
  FunctionProfile &F = P.getOrCreate("f");
  F.addBody({1, 0}, 5);
  F.Calls[{2, 0}];
  std::string T = serializeFlatProfile(P);
  EXPECT_EQ(T.find(" 2: @"), std::string::npos) << T;
  FlatProfile Back;
  ASSERT_TRUE(parseFlatProfile(T, Back)) << T;
  EXPECT_EQ(Back.find("f")->Calls.count({2, 0}), 0u);
}

//===----------------------------------------------------------------------===//
// Merge saturation: counts clamp at UINT64_MAX instead of wrapping, and
// the clamping is reported.
//===----------------------------------------------------------------------===//

TEST(Merge, SaturatesInsteadOfWrapping) {
  FlatProfile A, B;
  A.Kind = B.Kind = ProfileKind::ProbeBased;
  FunctionProfile &FA = A.getOrCreate("f");
  FA.addBody({1, 0}, UINT64_MAX - 10);
  FA.HeadSamples = UINT64_MAX - 10;
  FunctionProfile &FB = B.getOrCreate("f");
  FB.addBody({1, 0}, 100);
  FB.HeadSamples = 100;

  MergeStats Stats = mergeFlatProfiles(A, B);
  const FunctionProfile *D = A.find("f");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->bodyAt({1, 0}), UINT64_MAX); // Clamped, not wrapped to ~89.
  EXPECT_EQ(D->HeadSamples, UINT64_MAX);
  EXPECT_EQ(D->TotalSamples, UINT64_MAX);
  EXPECT_GT(Stats.SaturatedCounts, 0u);
}

TEST(Merge, AddBodySaturatesTotal) {
  FunctionProfile P;
  P.Name = "f";
  P.addBody({1, 0}, UINT64_MAX - 1);
  P.addBody({2, 0}, 5);
  EXPECT_EQ(P.TotalSamples, UINT64_MAX);
  P.addBody({1, 0}, 7);
  EXPECT_EQ(P.bodyAt({1, 0}), UINT64_MAX);
  EXPECT_EQ(P.TotalSamples, UINT64_MAX);
}
