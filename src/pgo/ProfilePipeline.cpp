//===- pgo/ProfilePipeline.cpp - Unified profile pipeline --------------------===//

#include "pgo/ProfilePipeline.h"

#include "preinline/PreInliner.h"
#include "profgen/BinarySizeExtractor.h"
#include "profile/ProfileIO.h"
#include "profile/Trimmer.h"
#include "store/ProfileStore.h"

#include <algorithm>

namespace csspgo {

Status ProfilePipeline::recordVerify(VerifyReport R, const std::string &What) {
  bool Ok = R.ok();
  std::string Text = Ok ? std::string() : R.str();
  accumulate(Stats.Verify, R);
  LastVerify = std::move(R);
  if (Ok || !Opts.Strict || Opts.Verify == VerifyLevel::Off)
    return {};
  return Status::error("profile verification failed (" + What + "):\n" + Text);
}

Expected<ProfileBundle>
ProfilePipeline::generate(const Binary &Bin, const ProbeTable *Probes,
                          const std::vector<PerfSample> &Samples) {
  ProfGenOptions GenOpts;
  GenOpts.Kind = Opts.Kind;
  GenOpts.InferMissingFrames = Opts.InferMissingFrames;
  GenOpts.Parallelism = Opts.Parallelism;
  GenOpts.Verify = Opts.Verify;

  ProfileGenerator Gen(Bin, Probes, GenOpts);
  ProfGenResult R = Gen.generate(Samples);
  Stats.ProfGen += R.Stats;
  Stats.Reduce += R.Reduce;
  Stats.ShardsUsed = std::max(Stats.ShardsUsed, R.ShardsUsed);

  ProfileBundle Bundle;
  Bundle.Has = true;
  Bundle.Transport = Opts.Transport;
  if (Status S = recordVerify(std::move(R.Verify),
                              std::string(profGenKindName(Opts.Kind)) +
                                  " profgen");
      !S)
    return S;

  if (R.IsCS) {
    Bundle.IsCS = true;
    Bundle.CS = std::move(R.CS);
    bool Transformed = false;
    if (Opts.TrimColdContexts) {
      uint64_t Threshold =
          Bundle.CS.totalSamples() /
          std::max<uint64_t>(1, Opts.TrimThresholdDivisor);
      trimColdContexts(Bundle.CS, std::max<uint64_t>(Threshold, 2));
      Transformed = true;
    }
    if (Opts.RunPreInliner) {
      FuncSizeTable Sizes = extractFuncSizes(Bin);
      runPreInliner(Bundle.CS, Sizes);
      Transformed = true;
    }
    if (Transformed && Opts.Verify != VerifyLevel::Off) {
      // Trimming merges cold contexts into base nodes and the pre-inliner
      // promotes subtrees; both move counts without creating or dropping
      // any, so the full invariant set (including head/call-edge
      // conservation) must still hold on the transformed trie.
      VerifierOptions VO;
      VO.Probes = Probes;
      if (Status S = recordVerify(verifyContextProfile(Bundle.CS, VO),
                                  "cs profgen after trim/preinline");
          !S)
        return S;
    }
  } else {
    Bundle.Flat = std::move(R.Flat);
  }
  Stats.TotalSamples += Bundle.IsCS ? Bundle.CS.totalSamples()
                                    : Bundle.Flat.totalSamples();
  return Bundle;
}

Expected<ProfileBundle> ProfilePipeline::generate(const Binary &Bin,
                                                  const CounterDump &Dump,
                                                  const RunResult *Run) {
  ProfGenOptions GenOpts;
  GenOpts.Kind = ProfGenKind::Instr;
  GenOpts.Verify = Opts.Verify;

  ProfileGenerator Gen(Bin, nullptr, GenOpts);
  ProfGenResult R = Gen.generate(Dump, Run);
  Stats.ProfGen += R.Stats;

  ProfileBundle Bundle;
  Bundle.Has = true;
  Bundle.IsInstr = true;
  Bundle.Transport = Opts.Transport;
  Bundle.Flat = std::move(R.Flat);
  if (Status S = recordVerify(std::move(R.Verify), "instr profgen"); !S)
    return S;
  Stats.TotalSamples += Bundle.Flat.totalSamples();
  return Bundle;
}

Expected<ProfileBundle> ProfilePipeline::generate(
    const Binary &Bin, const ProbeTable *Probes, const TraceData &Trace,
    const TraceReplayOptions &Replay, const std::string &Entry) {
  Expected<TraceReplayResult> Replayed = replayTrace(Bin, Entry, Trace, Replay);
  if (!Replayed)
    return Replayed.takeError().withContext("trace pipeline");
  TraceReplayResult R = Replayed.take();

  // The synthesized samples flow through the unchanged sample pipeline,
  // so trimming, the pre-inliner and verification all apply identically.
  Expected<ProfileBundle> Bundle = generate(Bin, Probes, R.Samples);
  R.Samples.clear();
  R.Samples.shrink_to_fit();
  if (Bundle && !R.Timing.empty())
    Bundle->Timing =
        std::make_shared<const TimingProfile>(std::move(R.Timing));
  R.Timing = TimingProfile();
  LastTraceReplay = std::move(R);
  return Bundle;
}

Expected<LoaderStats> ProfilePipeline::apply(Module &M,
                                             const ProfileBundle &Profile) {
  auto Record = [this](LoaderStats S) -> Expected<LoaderStats> {
    accumulate(Stats.Loader, S);
    return S;
  };
  switch (Profile.Transport) {
  case ProfileTransport::InMemory:
    break;
  case ProfileTransport::Text: {
    if (Profile.IsCS) {
      ContextProfile CS;
      if (!parseContextProfile(serializeContextProfile(Profile.CS), CS))
        return Status::error(
            "text transport: context profile failed to re-parse");
      return Record(loadContextProfile(M, CS, Opts.Loader));
    }
    FlatProfile Flat;
    if (!parseFlatProfile(serializeFlatProfile(Profile.Flat), Flat))
      return Status::error("text transport: flat profile failed to re-parse");
    return Record(loadFlatProfile(M, Flat, Profile.IsInstr, Opts.Loader));
  }
  case ProfileTransport::BinaryEager:
  case ProfileTransport::BinaryLazy: {
    bool Lazy = Profile.Transport == ProfileTransport::BinaryLazy;
    std::vector<EpochInfo> Epochs{
        {0, Profile.IsCS ? Profile.CS.totalSamples()
                         : Profile.Flat.totalSamples(),
         1000}};
    std::string Bytes = writeStore(Profile.IsCS ? contextViewOf(Profile.CS)
                                                : flatViewOf(Profile.Flat),
                                   Epochs, {}, Profile.IsInstr);
    Expected<ProfileStore> Store = ProfileStore::open(std::move(Bytes));
    if (!Store)
      return Store.takeError().withContext("binary transport");
    Expected<LoaderStats> Loaded =
        loadProfileFromStore(M, *Store, Opts.Loader, Lazy);
    if (!Loaded)
      return Loaded.takeError().withContext("binary transport");
    return Record(Loaded.take());
  }
  }
  if (Profile.IsCS)
    return Record(loadContextProfile(M, Profile.CS, Opts.Loader));
  return Record(loadFlatProfile(M, Profile.Flat, Profile.IsInstr, Opts.Loader));
}

Status ProfilePipeline::ingest(std::string &StoreBytes,
                               const ProfileBundle &Profile,
                               uint64_t Timestamp) {
  if (!Profile.Has)
    return Status::error("ingest: empty profile bundle");
  return ingest(StoreBytes,
                Profile.IsCS ? contextViewOf(Profile.CS)
                             : flatViewOf(Profile.Flat),
                Timestamp, Profile.IsInstr);
}

Status ProfilePipeline::ingest(std::string &StoreBytes,
                               const ContextProfileView &Fresh,
                               uint64_t Timestamp, bool ExactCounts) {
  IngestOptions IO;
  IO.DecayPermille = Opts.DecayPermille;
  IO.Timestamp = Timestamp;
  IO.ExactCounts = ExactCounts;
  IO.Write.CompactNames = Opts.CompactNames;
  // Every fold is verifier-gated regardless of the generation-time level:
  // the store is long-lived shared state, and a bad fold poisons every
  // build downstream.
  IO.Verify = VerifyLevel::Full;

  IngestResult R = ingestEpoch(StoreBytes, Fresh, IO);
  accumulate(Stats.Verify, R.Verify);
  if (!R.Ok)
    return Status::error("ingest: " + R.Error);
  Stats.Ingest += R.Merge;
  ++Stats.EpochsFolded;
  return {};
}

Expected<ProfileBundle> loadStoreBundle(std::string_view StoreBytes) {
  Expected<ProfileStore> Store = ProfileStore::openBorrowed(StoreBytes);
  if (!Store)
    return Store.takeError();
  ProfileBundle Bundle;
  Bundle.Has = true;
  Bundle.IsCS = Store->isCS();
  Bundle.IsInstr = Store->isInstr();
  Expected<ContextProfileView> V = Store->loadView();
  if (!V)
    return V.takeError();
  if (Bundle.IsCS)
    Bundle.CS = contextProfileOf(*V);
  else
    Bundle.Flat = flatProfileOf(*V);
  return Bundle;
}

Expected<postlink::PostLinkResult>
ProfilePipeline::postlink(const Binary &Bin,
                          const std::vector<PerfSample> &Samples,
                          const FlatProfile *FnProf, const Module *IR) {
  Expected<postlink::PostLinkResult> R =
      postlink::runPostLink(Bin, Samples, FnProf, IR, Opts.PostLinkOpts);
  if (R)
    LastPostLink = R->Stats;
  return R;
}

} // namespace csspgo
