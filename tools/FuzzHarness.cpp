//===- tools/FuzzHarness.cpp - Differential profile-pipeline fuzzing ------===//

#include "FuzzHarness.h"

#include "oracle/Oracle.h"

#include "matcher/StaleMatcher.h"
#include "pgo/BuildPipeline.h"
#include "postlink/BinaryCFG.h"
#include "profgen/ProfileGenerator.h"
#include "profile/ProfileIO.h"
#include "profile/ProfileMerge.h"
#include "profile/ProfileSummary.h"
#include "profile/Trimmer.h"
#include "sim/Executor.h"
#include "store/ProfileStore.h"
#include "support/Random.h"
#include "trace/TraceDecoder.h"
#include "verify/ProfileVerifier.h"
#include "workload/Workloads.h"

#include <cinttypes>
#include <cstdio>
#include <set>
#include <string>

namespace csspgo {

namespace {

/// Golden-ratio stride: consecutive iteration seeds are decorrelated, and
/// iteration 0 of `fuzz 1 <seed>` replays exactly the reported seed.
constexpr uint64_t SeedStride = 0x9E3779B97F4A7C15ull;

WorkloadConfig randomWorkload(Rng &R) {
  WorkloadConfig W;
  W.Name = "fuzz";
  W.Seed = R.next();
  W.NumServices = 2 + static_cast<unsigned>(R.nextBelow(3));
  W.NumMids = 4 + static_cast<unsigned>(R.nextBelow(7));
  W.NumUtils = 3 + static_cast<unsigned>(R.nextBelow(4));
  W.NumColdHandlers = 2 + static_cast<unsigned>(R.nextBelow(3));
  W.Requests = 200 + static_cast<unsigned>(R.nextBelow(600));
  W.FeatureLoop = 2 + static_cast<unsigned>(R.nextBelow(5));
  W.UtilCallsPerMid = 1 + static_cast<unsigned>(R.nextBelow(3));
  W.MidsPerService = 3 + static_cast<unsigned>(R.nextBelow(6));
  W.TailCallProb = R.nextDouble() * 0.6;
  W.DupTailProb = R.nextDouble();
  W.UnbiasedBranchProb = R.nextDouble() * 0.5;
  W.ColdPathPerMille = static_cast<unsigned>(R.nextBelow(20));
  W.ServiceSkew = 0.8 + R.nextDouble() * 1.4;
  W.IndirectDispatchProb = R.nextDouble() * 0.8;
  W.RecordWords = 4 + static_cast<unsigned>(R.nextBelow(5));
  W.ArithDensity = 1 + static_cast<unsigned>(R.nextBelow(4));
  return W;
}

/// Probe-id anchors present in the fresh IR of \p F: probe and call-site
/// instructions. Matcher-recovered counts may land only on these.
std::set<uint32_t> anchorIdsOf(const Function &F) {
  std::set<uint32_t> Ids;
  for (const auto &BB : F.Blocks)
    for (const Instruction &I : BB->Insts)
      if (I.isProbe() || I.isCall())
        Ids.insert(I.ProbeId);
  return Ids;
}

bool keysWithinAnchors(const FunctionProfile &P,
                       const std::set<uint32_t> &Ids, std::string &Err) {
  for (const auto &[K, N] : P.Body)
    if (!Ids.count(K.Index)) {
      Err = "matcher placed body samples on probe id " +
            std::to_string(K.Index) + " absent from the fresh IR of " +
            P.Name;
      return false;
    }
  for (const auto &[K, T] : P.Calls)
    if (!Ids.count(K.Index)) {
      Err = "matcher placed call counts on probe id " +
            std::to_string(K.Index) + " absent from the fresh IR of " +
            P.Name;
      return false;
    }
  return true;
}

/// Cuts \p Text at a pseudo-random line boundary strictly inside it
/// (never the full text). Returns the truncated prefix.
std::string truncateAtLine(const std::string &Text, Rng &R) {
  if (Text.size() < 2)
    return std::string();
  size_t Cut = 1 + R.nextBelow(Text.size() - 1);
  size_t NL = Text.rfind('\n', Cut - 1);
  if (NL == std::string::npos)
    return std::string();
  return Text.substr(0, NL + 1);
}

bool fuzzOne(uint64_t Seed, std::string &Err) {
  Rng R(Seed);
  WorkloadConfig WC = randomWorkload(R);
  auto Source = generateProgram(WC);

  // Probed profiling build (the CSSPGOFull profiling binary covers every
  // sampled generator: it carries probes AND line debug info).
  BuildConfig BC;
  BC.Variant = PGOVariant::CSSPGOFull;
  BuildResult Build = buildWithPGO(*Source, BC, nullptr);

  // --- 1. Fast path vs the reference interpreter (test oracle) --------
  ExecConfig Exec;
  Exec.Sampler.Enabled = true;
  const uint64_t Periods[] = {401, 997, 1999, 4001};
  Exec.Sampler.PeriodCycles = Periods[R.nextBelow(4)];
  Exec.Sampler.Precise = R.nextBool(0.7);
  const uint32_t Depths[] = {8, 16, 32};
  Exec.Sampler.LBRDepth = Depths[R.nextBelow(3)];
  Exec.Sampler.Seed = R.next();

  std::vector<int64_t> MemFast = generateInput(WC, Seed);
  std::vector<int64_t> MemRef = MemFast;
  RunResult Fast = execute(*Build.Bin, "main", MemFast, Exec);
  RunResult Ref = executeReference(*Build.Bin, "main", MemRef, Exec);
  if (std::string D = diffRuns(Ref, Fast); !D.empty()) {
    Err = "executor divergence: " + D + " (reference vs fast)";
    return false;
  }
  if (MemRef != MemFast) {
    Err = "executor divergence: final memory images differ";
    return false;
  }

  // --- 2. Serial vs sharded generation + Full verification -------------
  ProfGenOptions GenOpts;
  GenOpts.Verify = VerifyLevel::Full;
  const unsigned ShardCounts[] = {2, 3, 4, 7};
  unsigned J = ShardCounts[R.nextBelow(4)];

  GenOpts.Kind = ProfGenKind::CS;
  ProfileGenerator CSGen(*Build.Bin, &Build.ProbeDescs, GenOpts);
  ProfGenResult CSRes = CSGen.generate(Fast.Samples);
  if (!CSRes.Verify.ok()) {
    Err = "CS profile failed verification: " + CSRes.Verify.str();
    return false;
  }
  std::string CSText = serializeContextProfile(CSRes.CS);
  {
    ProfGenOptions JOpts = GenOpts;
    JOpts.Parallelism = J;
    ProfileGenerator G(*Build.Bin, &Build.ProbeDescs, JOpts);
    if (serializeContextProfile(G.generate(Fast.Samples).CS) != CSText) {
      Err = "CS generation with -j " + std::to_string(J) +
            " diverges from serial";
      return false;
    }
  }

  GenOpts.Kind = ProfGenKind::ProbeOnly;
  ProfileGenerator POGen(*Build.Bin, &Build.ProbeDescs, GenOpts);
  ProfGenResult PORes = POGen.generate(Fast.Samples);
  if (!PORes.Verify.ok()) {
    Err = "probe-only profile failed verification: " + PORes.Verify.str();
    return false;
  }
  std::string POText = serializeFlatProfile(PORes.Flat);
  {
    ProfGenOptions JOpts = GenOpts;
    JOpts.Parallelism = J;
    ProfileGenerator G(*Build.Bin, &Build.ProbeDescs, JOpts);
    if (serializeFlatProfile(G.generate(Fast.Samples).Flat) != POText) {
      Err = "probe-only generation with -j " + std::to_string(J) +
            " diverges from serial";
      return false;
    }
  }

  GenOpts.Kind = ProfGenKind::AutoFDO;
  ProfileGenerator AFGen(*Build.Bin, nullptr, GenOpts);
  ProfGenResult AFRes = AFGen.generate(Fast.Samples);
  if (!AFRes.Verify.ok()) {
    Err = "AutoFDO profile failed verification: " + AFRes.Verify.str();
    return false;
  }
  std::string AFText = serializeFlatProfile(AFRes.Flat);

  // --- 3. serialize -> parse -> serialize fixpoint ----------------------
  {
    ContextProfile Back;
    if (!parseContextProfile(CSText, Back)) {
      Err = "serialized CS profile does not re-parse";
      return false;
    }
    if (serializeContextProfile(Back) != CSText) {
      Err = "CS serialize/parse/serialize is not a fixpoint";
      return false;
    }
  }
  for (const auto &[What, Text] :
       {std::pair<const char *, const std::string &>{"probe-only", POText},
        {"autofdo", AFText}}) {
    FlatProfile Back;
    if (!parseFlatProfile(Text, Back)) {
      Err = std::string("serialized ") + What + " profile does not re-parse";
      return false;
    }
    if (serializeFlatProfile(Back) != Text) {
      Err = std::string(What) + " serialize/parse/serialize is not a fixpoint";
      return false;
    }
  }

  // --- 4. Merge algebra -------------------------------------------------
  {
    FlatProfile Acc;
    MergeStats M1 = mergeFlatProfiles(Acc, PORes.Flat);
    if (M1.ContextsMerged != 0 || serializeFlatProfile(Acc) != POText) {
      Err = "flat merge into an empty database is not an identity";
      return false;
    }
    MergeStats M2 = mergeFlatProfiles(Acc, PORes.Flat);
    if (M2.ContextsAdded != 0) {
      Err = "flat re-merge created contexts instead of summing";
      return false;
    }
    uint64_t Before = PORes.Flat.totalSamples();
    uint64_t After = Acc.totalSamples();
    if (After != saturatingAdd(Before, Before)) {
      Err = "flat re-merge did not double total samples";
      return false;
    }
    VerifierOptions VO;
    VO.Probes = &Build.ProbeDescs;
    VerifyReport VR = verifyFlatProfile(Acc, VO);
    if (!VR.ok()) {
      Err = "doubled flat profile failed verification: " + VR.str();
      return false;
    }
  }
  {
    ContextProfile Acc;
    MergeStats M1 = mergeContextProfiles(Acc, CSRes.CS);
    if (M1.ContextsMerged != 0 || serializeContextProfile(Acc) != CSText) {
      Err = "context merge into an empty database is not an identity";
      return false;
    }
    MergeStats M2 = mergeContextProfiles(Acc, CSRes.CS);
    if (M2.ContextsAdded != 0) {
      Err = "context re-merge created contexts instead of summing";
      return false;
    }
  }

  // --- 5. Trim idempotence ---------------------------------------------
  {
    ContextProfile Trimmed;
    mergeContextProfiles(Trimmed, CSRes.CS); // Deep copy via identity merge.
    uint64_t Threshold =
        std::max<uint64_t>(Trimmed.totalSamples() / 5000, 2);
    trimColdContexts(Trimmed, Threshold);
    VerifierOptions VO;
    VO.Probes = &Build.ProbeDescs;
    VerifyReport VR = verifyContextProfile(Trimmed, VO);
    if (!VR.ok()) {
      Err = "trimmed CS profile failed verification: " + VR.str();
      return false;
    }
    std::string Once = serializeContextProfile(Trimmed);
    TrimStats Again = trimColdContexts(Trimmed, Threshold);
    if (Again.ContextsMerged != 0 ||
        serializeContextProfile(Trimmed) != Once) {
      Err = "cold-context trimming is not idempotent";
      return false;
    }
  }

  // --- 6. Truncated input: reject or stay self-consistent --------------
  {
    std::string Trunc = truncateAtLine(CSText, R);
    ContextProfile Partial;
    if (!Trunc.empty() && parseContextProfile(Trunc, Partial)) {
      // A prefix that still parses lost whole trailing records; counts
      // within each surviving record must still be conserved (edge
      // conservation legitimately breaks — callees got cut off).
      VerifierOptions VO;
      VO.CheckHeadEdges = false;
      VerifyReport VR = verifyContextProfile(Partial, VO);
      if (!VR.ok()) {
        Err = "truncated CS text parsed into an inconsistent profile: " +
              VR.str();
        return false;
      }
    }
    std::string TruncFlat = truncateAtLine(AFText, R);
    FlatProfile PartialFlat;
    if (!TruncFlat.empty() && parseFlatProfile(TruncFlat, PartialFlat)) {
      VerifierOptions VO;
      VO.CheckHeadEdges = false;
      VerifyReport VR = verifyFlatProfile(PartialFlat, VO);
      if (!VR.ok()) {
        Err = "truncated flat text parsed into an inconsistent profile: " +
              VR.str();
        return false;
      }
    }
  }

  // --- 7. Stale matching after CFG drift lands only on fresh anchors ---
  {
    auto Drifted = generateProgram(WC); // Deterministic regeneration.
    const CFGDriftKind Kinds[] = {CFGDriftKind::GuardInsert,
                                  CFGDriftKind::GuardDelete,
                                  CFGDriftKind::BlockSplit,
                                  CFGDriftKind::CalleeRename};
    applyCFGDrift(*Drifted, Kinds[R.nextBelow(4)],
                  static_cast<uint32_t>(R.next()));
    BuildResult FreshBuild = buildWithPGO(*Drifted, BC, nullptr);
    for (const auto &[Name, P] : PORes.Flat.Functions) {
      const Function *F = FreshBuild.IR->getFunction(Name);
      if (!F || !F->HasProbes || !P.Checksum ||
          P.Checksum == F->ProbeCFGChecksum)
        continue;
      MatchResult MR =
          matchStaleProfile(P, *F, *FreshBuild.IR, ProfileKind::ProbeBased);
      if (!MR.Stats.Accepted)
        continue;
      if (!keysWithinAnchors(MR.Recovered, anchorIdsOf(*F), Err))
        return false;
    }
  }

  // --- 8. Binary store round trip --------------------------------------
  // text -> binary -> text is the identity; lazy per-function reads union
  // to the eager load; the persisted summary reproduces hot thresholds;
  // and truncations / bit flips are rejected at open(), never a crash.
  std::string CSBytes = writeStore(CSRes.CS, {});
  {
    Expected<ProfileStore> CSStore = ProfileStore::open(CSBytes);
    if (!CSStore) {
      Err = "freshly written CS store does not open: " +
            CSStore.status().message();
      return false;
    }
    Expected<ContextProfile> CSBack = CSStore->loadContext();
    if (!CSBack || serializeContextProfile(*CSBack) != CSText) {
      Err = "CS store round trip is not lossless";
      return false;
    }
    if (CSStore->hotThreshold(0.9) != hotThreshold(CSRes.CS, 0.9)) {
      Err = "CS store summary threshold diverges from the profile's";
      return false;
    }

    for (const auto &[What, Flat] :
         {std::pair<const char *, const FlatProfile &>{"probe-only",
                                                       PORes.Flat},
          {"autofdo", AFRes.Flat}}) {
      std::string Bytes = writeStore(Flat, {});
      Expected<ProfileStore> S = ProfileStore::open(Bytes);
      if (!S) {
        Err = std::string("freshly written ") + What +
              " store does not open: " + S.status().message();
        return false;
      }
      Expected<FlatProfile> Eager = S->loadFlat();
      if (!Eager ||
          serializeFlatProfile(*Eager) != serializeFlatProfile(Flat)) {
        Err = std::string(What) + " store round trip is not lossless";
        return false;
      }
      FlatProfile Lazy;
      for (size_t I = 0; I != S->numFunctions(); ++I) {
        Status St = S->loadFunction(I, Lazy);
        if (!St.ok()) {
          Err = std::string(What) +
                " store lazy load failed: " + St.message();
          return false;
        }
      }
      if (serializeFlatProfile(Lazy) != serializeFlatProfile(*Eager)) {
        Err = std::string(What) +
              " store lazy loads do not union to the eager load";
        return false;
      }
      if (S->hotThreshold(0.9) != hotThreshold(Flat, 0.9)) {
        Err = std::string(What) +
              " store summary threshold diverges from the profile's";
        return false;
      }
    }

    // Corrupted containers must be rejected with a diagnostic.
    for (int I = 0; I != 4; ++I) {
      size_t Cut = R.nextBelow(CSBytes.size());
      Expected<ProfileStore> S = ProfileStore::open(CSBytes.substr(0, Cut));
      if (S) {
        Err = "store accepted a truncation to " + std::to_string(Cut) +
              " bytes";
        return false;
      }
      if (S.status().message().empty()) {
        Err = "store rejected a truncation without a diagnostic";
        return false;
      }
    }
    {
      std::string Bad = CSBytes;
      size_t Pos = R.nextBelow(Bad.size());
      Bad[Pos] = static_cast<char>(Bad[Pos] ^ (1u << R.nextBelow(8)));
      if (ProfileStore::open(Bad)) {
        Err = "store accepted a bit flip at byte " + std::to_string(Pos);
        return false;
      }
    }
  }

  // --- 9. Zero-copy reader vs map plane --------------------------------
  // The borrowed-buffer open plus the arena view loaders are a second,
  // independent decoder over the same validated bytes. They must produce
  // the same profiles as the map plane, their slice merge must match the
  // sequential map merge count-for-count and stat-for-stat, and borrowed
  // opens must reject corruption with the exact same diagnostics.
  {
    Expected<ProfileStore> BS = ProfileStore::openBorrowed(CSBytes);
    if (!BS) {
      Err = "borrowed CS open rejects bytes the owning open accepted: " +
            BS.status().message();
      return false;
    }
    Expected<ContextProfileView> CV = BS->loadContextView();
    if (!CV || serializeContextProfile(contextProfileOf(*CV)) != CSText) {
      Err = "zero-copy CS view diverges from the map-plane load";
      return false;
    }
    ContextViewLoader Unit(*BS);
    for (size_t I = 0; I != BS->numFunctions(); ++I) {
      Status St = Unit.load(I);
      if (!St.ok()) {
        Err = "zero-copy CS lazy load failed: " + St.message();
        return false;
      }
    }
    if (serializeContextProfile(contextProfileOf(Unit.view())) != CSText) {
      Err = "zero-copy CS lazy loads do not union to the eager load";
      return false;
    }

    std::string FlatBytes = writeStore(PORes.Flat, {});
    Expected<ProfileStore> FS = ProfileStore::openBorrowed(FlatBytes);
    if (!FS) {
      Err = "borrowed flat open rejects bytes the owning open accepted: " +
            FS.status().message();
      return false;
    }
    Expected<FlatProfileView> FV = FS->loadFlatView();
    if (!FV || serializeFlatProfile(flatProfileOf(*FV)) != POText) {
      Err = "zero-copy flat view diverges from the map-plane load";
      return false;
    }

    // Slice merge differential: the k-way view merge must be bit- and
    // stat-identical to the sequential map merge of the same parts.
    FlatProfile MapAcc;
    MergeStats MapStats = mergeFlatProfiles(MapAcc, PORes.Flat);
    MapStats += mergeFlatProfiles(MapAcc, PORes.Flat);
    FlatProfileView Part = flatViewOf(PORes.Flat);
    MergeStats ViewStats;
    FlatProfile ViewAcc = flatProfileOf(
        mergeFlatViews({&Part, &Part}, ViewStats, /*IntoEmptyDst=*/true));
    if (serializeFlatProfile(ViewAcc) != serializeFlatProfile(MapAcc)) {
      Err = "flat view merge diverges from the map merge";
      return false;
    }
    if (ViewStats.ContextsAdded != MapStats.ContextsAdded ||
        ViewStats.ContextsMerged != MapStats.ContextsMerged ||
        ViewStats.CountsSummed != MapStats.CountsSummed ||
        ViewStats.SaturatedCounts != MapStats.SaturatedCounts) {
      Err = "flat view merge stats diverge from the map merge stats";
      return false;
    }

    // Borrowed and owning opens agree on rejections, diagnostics included.
    std::string Prefix = CSBytes.substr(0, R.nextBelow(CSBytes.size()));
    Expected<ProfileStore> OwnedOpen = ProfileStore::open(Prefix);
    Expected<ProfileStore> BorrowedOpen = ProfileStore::openBorrowed(Prefix);
    if (OwnedOpen || BorrowedOpen) {
      Err = "a truncated store was accepted by one of the open paths";
      return false;
    }
    if (OwnedOpen.status().message() != BorrowedOpen.status().message()) {
      Err = "owning and borrowed opens reject a truncation with "
            "different diagnostics";
      return false;
    }
    std::string Bad = CSBytes;
    size_t Pos = R.nextBelow(Bad.size());
    Bad[Pos] = static_cast<char>(Bad[Pos] ^ (1u << R.nextBelow(8)));
    if (ProfileStore::openBorrowed(Bad)) {
      Err = "borrowed open accepted a bit flip at byte " +
            std::to_string(Pos);
      return false;
    }
  }

  // --- 10. Post-link round trip: identity or clean rejection -----------
  // The binary rewriter's whole-binary validation is the crash barrier the
  // post-link optimizer stands on: a linker-produced binary must
  // reconstruct and reassemble to field-for-field identity, and a
  // structurally mutated binary must either be rejected with a diagnostic
  // or — when the mutation happens to leave it well-formed — still round
  // trip losslessly. Nothing in between, and never a crash.
  {
    Expected<postlink::BinaryCFG> CFG =
        postlink::reconstructBinaryCFG(*Build.Bin);
    if (!CFG) {
      Err = "post-link reconstruction rejected a linker-produced binary: " +
            CFG.status().message();
      return false;
    }
    std::unique_ptr<Binary> Again =
        postlink::reassemble(*CFG, postlink::identityLayout(*CFG));
    std::string Why;
    if (!postlink::binariesIdentical(*Build.Bin, *Again, &Why)) {
      Err = "post-link identity round trip is lossy: " + Why;
      return false;
    }

    for (int M = 0; M != 6; ++M) {
      Binary Mut = *Build.Bin;
      size_t I = R.nextBelow(Mut.Code.size());
      switch (R.nextBelow(8)) {
      case 0: // Branch-target corruption / target planted on a non-branch.
        Mut.Code[I].Target =
            static_cast<int64_t>(R.nextBelow(Mut.Code.size() + 7)) - 3;
        break;
      case 1: // Encoded size disagreeing with the opcode.
        Mut.Code[I].Size = static_cast<uint8_t>(1 + R.nextBelow(9));
        break;
      case 2: // Address-table corruption.
        Mut.Code[I].Addr ^= uint64_t(1) << R.nextBelow(12);
        break;
      case 3: // Opcode corruption (any byte; scoped enums hold them all).
        Mut.Code[I].Op = static_cast<Opcode>(R.nextBelow(64));
        break;
      case 4: { // Section-bound / entry corruption.
        MachineFunction &MF = Mut.Funcs[R.nextBelow(Mut.Funcs.size())];
        if (R.nextBool(0.5))
          MF.HotEnd += 1 + R.nextBelow(3);
        else
          MF.EntryIdx += 1;
        break;
      }
      case 5: // Probe record detached from its function.
        if (!Mut.Probes.empty())
          Mut.Probes[R.nextBelow(Mut.Probes.size())].InstIdx =
              Mut.Code.size() + R.nextBelow(16);
        break;
      case 6: // Call redirected past the end of the function array.
        Mut.Code[I].CalleeIdx =
            static_cast<uint32_t>(Mut.Funcs.size() + R.nextBelow(4));
        break;
      case 7: // Indirect-dispatch table slot out of range.
        if (!Mut.FuncTable.empty())
          Mut.FuncTable[R.nextBelow(Mut.FuncTable.size())] =
              static_cast<uint32_t>(Mut.Funcs.size() + R.nextBelow(8));
        break;
      }

      Expected<postlink::BinaryCFG> MC = postlink::reconstructBinaryCFG(Mut);
      if (!MC) {
        if (MC.status().message().empty()) {
          Err = "post-link reconstruction rejected a mutated binary "
                "without a diagnostic";
          return false;
        }
        continue; // Clean rejection — the contract held.
      }
      std::unique_ptr<Binary> MutAgain =
          postlink::reassemble(*MC, postlink::identityLayout(*MC));
      std::string MutWhy;
      if (!postlink::binariesIdentical(Mut, *MutAgain, &MutWhy)) {
        Err = "post-link accepted a mutated binary that does not round "
              "trip: " + MutWhy;
        return false;
      }
    }
  }

  // --- 11. Trace decoder: replay differential + corruption barrier -----
  // A core-instruction trace of the same run, replayed under the sampling
  // run's configuration, must reproduce that run's sample stream bit for
  // bit (the trace-mode headline property, here under randomized
  // workloads, sampler configs and timestamp cadences). Mutated traces
  // must either be rejected with a diagnostic or decode cleanly; honestly
  // truncated ones must decode to their prefix. Never a crash.
  {
    ExecConfig TraceExec;
    TraceExec.Trace.Enabled = true;
    const uint32_t Cadences[] = {0, 7, 32, 131};
    TraceExec.Trace.TimestampEvery = Cadences[R.nextBelow(4)];
    TraceExec.Trace.CompressTimestamps = R.nextBool(0.8);
    std::vector<int64_t> MemTrace = generateInput(WC, Seed);
    RunResult Traced = execute(*Build.Bin, "main", MemTrace, TraceExec);
    if (MemTrace != MemFast) {
      Err = "trace divergence: traced run's final memory differs";
      return false;
    }
    TraceReplayOptions RO;
    RO.Sampler = Exec.Sampler;
    RO.Format = TraceExec.Trace;
    Expected<TraceReplayResult> Replay =
        replayTrace(*Build.Bin, "main", Traced.Trace, RO);
    if (!Replay) {
      Err = "trace replay rejected a freshly recorded trace: " +
            Replay.status().message();
      return false;
    }
    if (!Replay->Completed || Replay->TimestampMismatches) {
      Err = "trace replay of a clean trace did not complete cleanly";
      return false;
    }
    if (std::string D = diffRuns(Fast, replayedRun(Fast, *Replay));
        !D.empty()) {
      Err = "trace replay diverges from the sampling run: " + D +
            " (sampled vs replayed)";
      return false;
    }

    for (int M = 0; M != 8 && !Traced.Trace.Bytes.empty(); ++M) {
      TraceData Bad = Traced.Trace;
      switch (R.nextBelow(3)) {
      case 0: // Bit flip.
        Bad.Bytes[R.nextBelow(Bad.Bytes.size())] ^=
            static_cast<uint8_t>(1u << R.nextBelow(8));
        break;
      case 1: // Cut without the truncation flag.
        Bad.Bytes.resize(R.nextBelow(Bad.Bytes.size()));
        break;
      case 2: // Garbage byte inserted.
        Bad.Bytes.insert(Bad.Bytes.begin() +
                             R.nextBelow(Bad.Bytes.size() + 1),
                         static_cast<uint8_t>(R.next()));
        break;
      }
      Expected<TraceReplayResult> RB =
          replayTrace(*Build.Bin, "main", Bad, RO);
      if (!RB && RB.status().message().empty()) {
        Err = "trace decoder rejected a mutated trace without a "
              "diagnostic";
        return false;
      }
    }

    // Honest truncation: re-record under a tight buffer bound. The
    // recorder drops whole packets, so the bounded prefix must replay
    // cleanly (an arbitrary byte cut is corruption, covered above).
    if (Traced.Trace.Bytes.size() > 8) {
      ExecConfig Bounded = TraceExec;
      Bounded.Trace.MaxBytes =
          8 + R.nextBelow(Traced.Trace.Bytes.size() - 8);
      std::vector<int64_t> MemBounded = generateInput(WC, Seed);
      RunResult Short = execute(*Build.Bin, "main", MemBounded, Bounded);
      if (Short.Trace.Truncated) {
        Expected<TraceReplayResult> RC =
            replayTrace(*Build.Bin, "main", Short.Trace, RO);
        if (!RC) {
          Err = "trace decoder rejected an honestly truncated trace: " +
                RC.status().message();
          return false;
        }
      }
    }
  }

  return true;
}

} // namespace

int runProfileFuzz(const FuzzOptions &Opts) {
  for (unsigned I = 0; I != Opts.Iterations; ++I) {
    uint64_t Seed = Opts.BaseSeed + I * SeedStride;
    std::string Err;
    if (!fuzzOne(Seed, Err)) {
      std::fprintf(stderr,
                   "fuzz: iteration %u (seed 0x%" PRIx64 ") FAILED: %s\n"
                   "fuzz: reproduce with: csspgo_exp fuzz 1 0x%" PRIx64 "\n",
                   I, Seed, Err.c_str(), Seed);
      return 1;
    }
    if (Opts.Verbose && (I + 1) % 50 == 0)
      std::printf("fuzz: %u/%u iterations ok\n", I + 1, Opts.Iterations);
  }
  std::printf("fuzz: %u iterations, no divergence (base seed 0x%" PRIx64
              ")\n",
              Opts.Iterations, Opts.BaseSeed);
  return 0;
}

} // namespace csspgo
