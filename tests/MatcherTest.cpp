//===- tests/MatcherTest.cpp - stale-profile matcher tests ------*- C++ -*-===//
//
// Property tests for src/matcher: under CFG-preserving drift (a checksum
// mismatch with an unchanged CFG, or a pure line shift) the matcher must
// recover a profile equivalent to the no-drift load; under CFG-changing
// drift it must recover strictly more than the legacy drop behavior and
// never emit keys outside the fresh anchor space.
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracle.h"
#include "loader/ProfileLoader.h"
#include "matcher/StaleMatcher.h"
#include "pgo/PGODriver.h"
#include "probe/ProbeInserter.h"
#include "quality/BlockOverlap.h"
#include "support/Random.h"
#include "workload/Workloads.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

using namespace csspgo;
using namespace csspgo::testing;

namespace {

WorkloadConfig tinyWorkload() {
  WorkloadConfig C;
  C.Seed = 3;
  C.Requests = 60;
  C.NumServices = 3;
  C.NumMids = 8;
  C.NumUtils = 5;
  C.NumColdHandlers = 3;
  C.MidsPerService = 4;
  return C;
}

/// Synthetic probe-based profile derived from \p M itself: every probe id
/// gets a deterministic count, every call probe a call-target record.
/// Loading it back onto the same IR reproduces the counts exactly, which
/// makes bit-identity checkable.
FlatProfile probeProfileFrom(const Module &M) {
  FlatProfile Prof;
  Prof.Kind = ProfileKind::ProbeBased;
  for (const auto &F : M.Functions) {
    FunctionProfile *P = nullptr;
    for (const auto &BB : F->Blocks)
      for (const auto &I : BB->Insts) {
        if (!I.ProbeId || !(I.isProbe() || I.isCall()))
          continue;
        if (!P) {
          P = &Prof.getOrCreate(F->getName());
          P->Guid = F->getGuid();
          P->Checksum = F->ProbeCFGChecksum;
          P->HeadSamples = 3;
        }
        if (I.isProbe())
          P->addBody({I.ProbeId, 0}, 10 * I.ProbeId + 7);
        else {
          P->addBody({I.ProbeId, 0}, 5);
          P->addCall({I.ProbeId, 0}, I.Callee, 5); // "" = indirect.
        }
      }
  }
  return Prof;
}

/// Per-function (entry count, per-block HasCount/Count) snapshot, the
/// "applied counts" the bit-identity properties compare.
std::map<std::string, std::vector<uint64_t>> appliedCounts(const Module &M) {
  std::map<std::string, std::vector<uint64_t>> Out;
  for (const auto &F : M.Functions) {
    std::vector<uint64_t> &V = Out[F->getName()];
    V.push_back(F->HasEntryCount);
    V.push_back(F->EntryCount);
    for (const auto &BB : F->Blocks) {
      V.push_back(BB->HasCount);
      V.push_back(BB->Count);
    }
  }
  return Out;
}

uint64_t totalAppliedCount(const Module &M) {
  uint64_t Total = 0;
  for (const auto &F : M.Functions)
    for (const auto &BB : F->Blocks)
      Total += BB->Count;
  return Total;
}

/// Annotation-only loader options: no inlining and no indirect-call
/// promotion, so the CFG stays fixed and counts compare across loads.
LoaderOptions annotateOnly() {
  LoaderOptions Opts;
  Opts.MaxInlineSize = 0;
  Opts.ReplayInlining = false;
  Opts.PromoteIndirectCalls = false;
  return Opts;
}

std::set<uint32_t> anchorIdsOf(const Function &F) {
  std::set<uint32_t> Ids;
  for (const auto &BB : F.Blocks)
    for (const auto &I : BB->Insts)
      if (I.ProbeId && (I.isProbe() || I.isCall()))
        Ids.insert(I.ProbeId);
  return Ids;
}

void expectKeysWithin(const FunctionProfile &P, const std::set<uint32_t> &Ids,
                      const char *What) {
  for (const auto &[K, N] : P.Body)
    EXPECT_TRUE(Ids.count(K.Index)) << What << ": body key " << K.Index;
  for (const auto &[K, Targets] : P.Calls)
    EXPECT_TRUE(Ids.count(K.Index)) << What << ": call key " << K.Index;
}

} // namespace

// CFG-preserving drift (checksum mismatch, identical CFG): recovery must
// be bit-identical to the no-drift load — the identity remapping.
TEST(Matcher, ChecksumOnlyDriftRecoversBitIdentical) {
  auto MA = generateProgram(tinyWorkload());
  insertProbes(*MA, AnchorKind::PseudoProbe);
  FlatProfile Prof = probeProfileFrom(*MA);
  LoaderStats CleanStats = loadFlatProfile(*MA, Prof, false, annotateOnly());
  EXPECT_EQ(CleanStats.StaleMatched, 0u);
  EXPECT_EQ(CleanStats.StaleDropped, 0u);

  // Same program, but every profile claims a different CFG checksum — as
  // after a checksum-salt change or a rebuild with touched metadata.
  auto MB = generateProgram(tinyWorkload());
  insertProbes(*MB, AnchorKind::PseudoProbe);
  FlatProfile Stale = Prof;
  for (auto &[Name, P] : Stale.Functions)
    P.Checksum ^= 0x5A5A;
  LoaderStats Stats = loadFlatProfile(*MB, Stale, false, annotateOnly());
  EXPECT_EQ(Stats.StaleDropped, 0u);
  EXPECT_EQ(Stats.StaleMatched, Stale.Functions.size());
  EXPECT_EQ(appliedCounts(*MB), appliedCounts(*MA));
  for (const StaleMatchRecord &R : Stats.StaleMatches) {
    EXPECT_TRUE(R.Stats.Accepted) << R.Name;
    EXPECT_DOUBLE_EQ(R.Stats.Confidence, 1.0) << R.Name;
  }
}

// Same property for a context trie: checksum-corrupted contexts over an
// unchanged CFG must load to bit-identical counts.
TEST(Matcher, ContextChecksumOnlyDriftRecoversBitIdentical) {
  auto Build = [](ContextProfile &CS, Module &M) {
    Function *Main = M.getFunction("main");
    Function *Leaf = M.getFunction("leaf");
    uint32_t CallProbe = 0;
    for (auto &BB : Main->Blocks)
      for (auto &I : BB->Insts)
        if (I.isCall() && I.Callee == "leaf")
          CallProbe = I.ProbeId;
    ASSERT_NE(CallProbe, 0u);

    ContextTrieNode &MainNode = CS.getOrCreateNode({{"main", 0}});
    MainNode.HasProfile = true;
    MainNode.Profile.Name = "main";
    MainNode.Profile.Guid = Main->getGuid();
    MainNode.Profile.Checksum = Main->ProbeCFGChecksum;
    MainNode.Profile.HeadSamples = 1;
    for (auto &BB : Main->Blocks)
      for (auto &I : BB->Insts)
        if (I.isProbe())
          MainNode.Profile.addBody({I.ProbeId, 0}, 11 * I.ProbeId);
    MainNode.Profile.addCall({CallProbe, 0}, "leaf", 40);

    ContextTrieNode &LeafNode =
        CS.getOrCreateNode({{"main", CallProbe}, {"leaf", 0}});
    LeafNode.HasProfile = true;
    LeafNode.Profile.Name = "leaf";
    LeafNode.Profile.Guid = Leaf->getGuid();
    LeafNode.Profile.Checksum = Leaf->ProbeCFGChecksum;
    LeafNode.Profile.HeadSamples = 40;
    for (auto &BB : Leaf->Blocks)
      for (auto &I : BB->Insts)
        if (I.isProbe())
          LeafNode.Profile.addBody({I.ProbeId, 0}, 3 * I.ProbeId + 1);
  };

  LoaderOptions Opts = annotateOnly();
  Opts.InlineHotContexts = false;

  auto M1 = makeCallerModule(8);
  insertProbes(*M1, AnchorKind::PseudoProbe);
  ContextProfile Clean;
  Build(Clean, *M1);
  LoaderStats CleanStats = loadContextProfile(*M1, Clean, Opts);
  EXPECT_EQ(CleanStats.StaleMatched, 0u);

  auto M2 = makeCallerModule(8);
  insertProbes(*M2, AnchorKind::PseudoProbe);
  ContextProfile Stale;
  Build(Stale, *M2);
  Stale.forEachNodeMutable([](const SampleContext &, ContextTrieNode &N) {
    if (N.HasProfile)
      N.Profile.Checksum ^= 0x9E37;
  });
  LoaderStats Stats = loadContextProfile(*M2, Stale, Opts);
  EXPECT_EQ(Stats.StaleDropped, 0u);
  EXPECT_EQ(Stats.StaleMatched, 2u) << "main and leaf both recovered";
  EXPECT_EQ(appliedCounts(*M2), appliedCounts(*M1));
}

// CFG-changing drift: the matcher must recover strictly more annotated
// mass than the legacy drop path, with sane per-function stats.
TEST(Matcher, GuardInsertDriftRecoveryBeatsDropping) {
  auto MOld = generateProgram(tinyWorkload());
  insertProbes(*MOld, AnchorKind::PseudoProbe);
  FlatProfile Prof = probeProfileFrom(*MOld);

  auto MakeDrifted = [] {
    auto M = generateProgram(tinyWorkload());
    EXPECT_GT(applyCFGDrift(*M, CFGDriftKind::GuardInsert), 0u);
    insertProbes(*M, AnchorKind::PseudoProbe);
    return M;
  };

  auto MDrop = MakeDrifted();
  LoaderOptions Drop = annotateOnly();
  Drop.RecoverStaleProfiles = false;
  LoaderStats DropStats = loadFlatProfile(*MDrop, Prof, false, Drop);
  EXPECT_GT(DropStats.StaleDropped, 0u);
  EXPECT_EQ(DropStats.StaleMatched, 0u);

  auto MMatch = MakeDrifted();
  LoaderStats MatchStatsL = loadFlatProfile(*MMatch, Prof, false,
                                            annotateOnly());
  EXPECT_GT(MatchStatsL.StaleMatched, 0u);
  EXPECT_GT(MatchStatsL.StaleCountsRecovered, 0u);
  EXPECT_GT(totalAppliedCount(*MMatch), totalAppliedCount(*MDrop));

  for (const StaleMatchRecord &R : MatchStatsL.StaleMatches) {
    EXPECT_GE(R.Stats.Confidence, 0.0) << R.Name;
    EXPECT_LE(R.Stats.Confidence, 1.0) << R.Name;
    EXPECT_LE(R.Stats.AnchorsMatched, R.Stats.AnchorsTotal) << R.Name;
    EXPECT_LE(R.Stats.SamplesRecovered, R.Stats.SamplesTotal) << R.Name;
    // Accepted matches must have applied their recovered keys only onto
    // existing fresh anchors.
    if (R.Stats.Accepted) {
      Function *F = MMatch->getFunction(R.Name);
      ASSERT_NE(F, nullptr) << R.Name;
    }
  }
}

// Handcrafted probe remapping: a block split shifts every later probe id;
// the aligned call anchor pins the mapping and the recovered profile may
// only use ids that exist in the fresh function.
TEST(Matcher, BlockSplitRemapsOntoFreshIdsOnly) {
  auto MOld = makeCallerModule(8);
  insertProbes(*MOld, AnchorKind::PseudoProbe);
  FlatProfile OldProf = probeProfileFrom(*MOld);
  const FunctionProfile *StaleMain = OldProf.find("main");
  ASSERT_NE(StaleMain, nullptr);

  auto MNew = makeCallerModule(8);
  ASSERT_GT(applyCFGDrift(*MNew, CFGDriftKind::BlockSplit), 0u);
  insertProbes(*MNew, AnchorKind::PseudoProbe);
  Function *NewMain = MNew->getFunction("main");
  ASSERT_NE(StaleMain->Checksum, NewMain->ProbeCFGChecksum)
      << "block split must stale the checksum";

  MatchResult R = matchStaleProfile(*StaleMain, *NewMain, *MNew,
                                    ProfileKind::ProbeBased);
  EXPECT_TRUE(R.Stats.Accepted);
  EXPECT_GE(R.Stats.AnchorsMatched, 1u) << "the leaf call site anchors";
  std::set<uint32_t> FreshIds = anchorIdsOf(*NewMain);
  expectKeysWithin(R.Recovered, FreshIds, "recovered");
  EXPECT_EQ(R.Recovered.Checksum, NewMain->ProbeCFGChecksum);
  EXPECT_EQ(R.Recovered.Guid, NewMain->getGuid());

  // The call-site record survives the remap with its count intact.
  uint64_t LeafCalls = 0;
  for (const auto &[K, Targets] : R.Recovered.Calls) {
    auto It = Targets.find("leaf");
    if (It != Targets.end())
      LeafCalls += It->second;
  }
  EXPECT_EQ(LeafCalls, 5u);

  // Merging the recovered profile with a fresh-collected one (continuous
  // profiling aggregates both) must keep the fresh GUID/checksum and must
  // not resurrect any stale-only probe id.
  FlatProfile FreshProf = probeProfileFrom(*MNew);
  FlatProfile Merged = FreshProf;
  FlatProfile RecoveredDB;
  RecoveredDB.Kind = ProfileKind::ProbeBased;
  RecoveredDB.Functions["main"] = R.Recovered;
  mergeFlatProfiles(Merged, RecoveredDB);
  const FunctionProfile *MergedMain = Merged.find("main");
  ASSERT_NE(MergedMain, nullptr);
  EXPECT_EQ(MergedMain->Guid, NewMain->getGuid());
  EXPECT_EQ(MergedMain->Checksum, NewMain->ProbeCFGChecksum);
  expectKeysWithin(*MergedMain, FreshIds, "merged");
}

// Line-based profiles: a pure line shift must be detected via call
// anchors and recovered; the recovered annotation overlaps the no-drift
// annotation strictly better than the legacy mis-correlated load.
TEST(Matcher, LineDriftRecoveryImprovesOverlap) {
  ExperimentConfig Config;
  Config.Workload = workloadPreset("AdRanker", 0.05);
  PGODriver Driver(Config);
  VariantOutcome Out = Driver.run(PGOVariant::AutoFDO);
  ASSERT_TRUE(Out.Profile.Has);

  auto NoDrift = Driver.source().clone();
  LoaderStats CleanStats =
      loadFlatProfile(*NoDrift, Out.Profile.Flat, false, annotateOnly());
  EXPECT_EQ(CleanStats.StaleMatched, 0u) << "no false staleness";
  EXPECT_EQ(CleanStats.StaleDropped, 0u);

  auto Dropped = Driver.source().clone();
  applySourceDrift(*Dropped, 3);
  LoaderOptions Legacy = annotateOnly();
  Legacy.RecoverStaleProfiles = false;
  loadFlatProfile(*Dropped, Out.Profile.Flat, false, Legacy);

  auto Matched = Driver.source().clone();
  applySourceDrift(*Matched, 3);
  LoaderStats MatchStatsL =
      loadFlatProfile(*Matched, Out.Profile.Flat, false, annotateOnly());
  EXPECT_GT(MatchStatsL.StaleMatched, 0u);

  OverlapReport DropRep = computeBlockOverlap(*Dropped, *NoDrift);
  OverlapReport MatchRep = computeBlockOverlap(*Matched, *NoDrift);
  EXPECT_GT(MatchRep.ProgramOverlap, DropRep.ProgramOverlap)
      << "anchor matching must beat mis-correlated line application";
}

namespace {

/// Leaf functions a, b and c, plus an empty "main" for the caller to fill.
Function *mainOverLeaves(Module &M) {
  for (const char *Leaf : {"a", "b", "c"}) {
    Builder B(M.createFunction(Leaf, 0));
    B.setInsertBlock(M.getFunction(Leaf)->createBlock("entry"));
    B.emitRet(Operand::imm(1));
  }
  return M.createFunction("main", 0);
}

/// The matcher's anchor equality: an indirect site ("") matches anything,
/// otherwise the callee sets must intersect. Not transitive: {a, b}
/// matches {a} and {b}, which do not match each other.
bool anchorSetsMatch(const std::set<std::string> &A,
                     const std::set<std::string> &B) {
  if (A.count("") || B.count(""))
    return true;
  for (const std::string &C : A)
    if (B.count(C))
      return true;
  return false;
}

/// LCS length by exhaustion: the largest subset of \p Stale that embeds,
/// in order, into \p Fresh. Earliest-match embedding of a fixed subset is
/// optimal, so trying every subset is exact.
unsigned bruteForceLCS(const std::vector<std::set<std::string>> &Stale,
                       const std::vector<std::set<std::string>> &Fresh) {
  unsigned Best = 0;
  for (uint32_t Mask = 0; Mask != (1u << Stale.size()); ++Mask) {
    size_t J = 0;
    bool Embeds = true;
    for (size_t I = 0; I != Stale.size() && Embeds; ++I) {
      if (!((Mask >> I) & 1))
        continue;
      while (J != Fresh.size() && !anchorSetsMatch(Stale[I], Fresh[J]))
        ++J;
      Embeds = J != Fresh.size();
      ++J;
    }
    if (Embeds)
      Best = std::max(Best, unsigned(__builtin_popcount(Mask)));
  }
  return Best;
}

} // namespace

// The alignment is one LCS at every size. Above the old 2^22 anchor-
// product cutoff (which switched to unique-callee anchors) a repeated
// callee still aligns: unique-anchor matching would pair only a and c.
TEST(Matcher, LCSIsExactAboveOldCutoff) {
  constexpr unsigned FreshBs = 20;
  constexpr uint64_t M = FreshBs + 2;
  constexpr uint64_t N = 200000;
  static_assert(N * M > (uint64_t(1) << 22));

  Module Mod("lcs");
  Function *Main = mainOverLeaves(Mod);
  {
    Builder B(Main);
    B.setInsertBlock(Main->createBlock("entry"));
    B.emitCall("a", {});
    for (unsigned I = 0; I != FreshBs; ++I)
      B.emitCall("b", {});
    B.emitCall("c", {});
    B.emitRet(Operand::imm(0));
  }
  Mod.EntryFunction = "main";
  insertProbes(Mod, AnchorKind::PseudoProbe);

  // Stale call anchors a, b x (N - 2), c at keys 10, 11, ...
  FunctionProfile Stale;
  Stale.Name = "main";
  Stale.Guid = Main->getGuid();
  Stale.Checksum = Main->ProbeCFGChecksum ^ 1;
  for (uint32_t I = 0; I != N; ++I)
    Stale.addCall({10 + I, 0}, I == 0 ? "a" : I + 1 == N ? "c" : "b", 1);

  MatchResult R =
      matchStaleProfile(Stale, *Main, Mod, ProfileKind::ProbeBased);
  EXPECT_EQ(R.Stats.AnchorsTotal, N);
  EXPECT_EQ(R.Stats.AnchorsMatched, M);
  // Every fresh call site carries exactly its own callee's one count.
  unsigned Sites = 0;
  for (const auto &I : Main->getEntry()->Insts) {
    if (!I.isCall())
      continue;
    ++Sites;
    auto It = R.Recovered.Calls.find({I.ProbeId, 0});
    ASSERT_NE(It, R.Recovered.Calls.end()) << I.Callee;
    EXPECT_EQ(It->second, (std::map<std::string, uint64_t>{{I.Callee, 1}}));
  }
  EXPECT_EQ(Sites, M);
  EXPECT_EQ(R.Recovered.Calls.size(), M);
}

// Random small anchor sequences, wildcards and multi-callee sets on both
// sides: AnchorsMatched is exactly the LCS length. Line mode, so a fresh
// anchor with several callees is several calls on one line.
TEST(Matcher, AnchorsMatchedEqualsBruteForceLCS) {
  Rng R(0x1C5);
  // One or two callees of a, b, c; now and then the indirect wildcard.
  auto RandomSet = [&R] {
    std::set<std::string> S;
    for (uint64_t K = 1 + R.nextBelow(2); K-- > 0;)
      S.insert(R.nextBool(0.15) ? std::string()
                                : std::string(1, char('a' + R.nextBelow(3))));
    return S;
  };
  for (int Case = 0; Case != 400; ++Case) {
    std::vector<std::set<std::string>> Stale(R.nextBelow(8)),
        Fresh(R.nextBelow(8));
    for (auto &S : Stale)
      S = RandomSet();
    for (auto &S : Fresh)
      S = RandomSet();

    Module Mod("prop");
    Function *Main = mainOverLeaves(Mod);
    Builder B(Main);
    B.setInsertBlock(Main->createBlock("entry"));
    for (uint32_t Line = 0; Line != Fresh.size(); ++Line)
      for (const std::string &Callee : Fresh[Line]) {
        B.setLine(1 + Line);
        if (Callee.empty())
          B.emitCallIndirect(Operand::imm(0), {});
        else
          B.emitCall(Callee, {});
      }
    B.emitRet(Operand::imm(0));

    FunctionProfile P;
    P.Name = "main";
    for (uint32_t I = 0; I != Stale.size(); ++I)
      for (const std::string &Callee : Stale[I])
        P.addCall({1 + I, 0}, Callee, 1);

    MatchResult MR = matchStaleProfile(P, *Main, Mod, ProfileKind::LineBased);
    EXPECT_EQ(MR.Stats.AnchorsTotal, Stale.size()) << "case " << Case;
    EXPECT_EQ(MR.Stats.AnchorsMatched, bruteForceLCS(Stale, Fresh))
        << "case " << Case;
  }
}
