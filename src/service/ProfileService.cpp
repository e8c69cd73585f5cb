//===- service/ProfileService.cpp - Continuous profiling service -------------===//

#include "service/ProfileService.h"

#include "probe/ProbeInserter.h"
#include "profgen/ShardedProfGen.h"
#include "sim/Executor.h"
#include "store/ProfileStore.h"
#include "support/BoundedQueue.h"
#include "support/SourceText.h"
#include "support/ThreadPool.h"
#include "workload/Workloads.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

namespace csspgo {

namespace {

/// What one worker produced for one (host, epoch) assignment.
struct HostProfile {
  /// The host's profile as the arena view profgen emits, the form the
  /// fold merges.
  ContextProfileView CS;
  CSProfileGenStats Stats;
  uint64_t Samples = 0;
};

} // namespace

/// One deployed binary version of a service. Tasks reference the release
/// they were assigned under, so a deploy mid-stream never changes what an
/// already-enqueued epoch profiles.
struct ProfileService::Release {
  unsigned Index = 0;
  std::shared_ptr<const Module> Source; ///< Pristine IR of this release.
  std::unique_ptr<Binary> Bin;          ///< Probe-anchored profiling build.
  ProbeTable Probes;
  /// Built once per release, not once per host task.
  std::unique_ptr<const Symbolizer> Sym;
};

/// Everything in flight for one epoch: per-host result slots (indexed by
/// host, so completion order is irrelevant) and the release each service
/// was on when the epoch was produced.
struct ProfileService::EpochBatch {
  std::vector<std::optional<HostProfile>> Results;
  std::vector<std::shared_ptr<Release>> Rels;
  std::atomic<size_t> Remaining{0};
};

struct ProfileService::PerService {
  std::string Name;
  WorkloadConfig Workload;
  /// Source the next release drifts from; touched only by the producer.
  std::unique_ptr<Module> Current;
  std::shared_ptr<Release> Rel; ///< Written by producer, snapshotted per epoch.
  unsigned Releases = 1;

  ProfilePipeline Pipeline;

  std::string StoreBytes;
  uint64_t EpochsFolded = 0;
  uint64_t EpochsDropped = 0;
  uint64_t LastFoldTimestamp = 0;
  uint64_t SamplesIngested = 0;
  std::string LastError;

  std::vector<std::string> HotSet;
  double HotChurn = 0;

  LoaderStats ProbeStats; ///< Last freshness probe (store → current IR).
  double RecoveredSampleRate = 0;
  uint64_t LastProbeStoreSamples = 0;
};

static std::shared_ptr<ProfileService::Release>
buildRelease(const Module &Source, unsigned Index) {
  auto R = std::make_shared<ProfileService::Release>();
  R->Index = Index;
  R->Source = std::shared_ptr<const Module>(Source.clone().release());
  BuildConfig BC;
  BC.Variant = PGOVariant::CSSPGOFull;
  BuildResult B = buildWithPGO(Source, BC, nullptr);
  R->Bin = std::move(B.Bin);
  R->Probes = B.ProbeDescs;
  R->Sym = std::make_unique<const Symbolizer>(*R->Bin);
  return R;
}

ProfileService::ProfileService(ServiceConfig Config)
    : C(std::move(Config)), Fleet(C.Fleet) {
  C.Fleet = Fleet.config(); // FleetSim clamps; keep the two in sync.
  C.QueueBound = std::max<size_t>(1, C.QueueBound);
  C.HotTopN = std::max(1u, C.HotTopN);
  for (unsigned S = 0; S != C.Fleet.Services; ++S) {
    auto Svc = std::make_unique<PerService>();
    Svc->Name = Fleet.serviceName(S);
    Svc->Workload = Fleet.serviceWorkload(S);
    Svc->Current = generateProgram(Svc->Workload);
    Svc->Rel = buildRelease(*Svc->Current, 0);
    PipelineOptions PO;
    PO.kind(ProfGenKind::CS)
        .verify(VerifyLevel::Full)
        .strict(true)
        .decay(C.DecayPermille)
        .compactNames(C.CompactNames);
    Svc->Pipeline = ProfilePipeline(PO);
    Services.push_back(std::move(Svc));
  }
}

ProfileService::~ProfileService() = default;

const std::string &ProfileService::store(unsigned S) const {
  return Services[S]->StoreBytes;
}

namespace {

/// Executes one host assignment and generates its context profile.
/// Workers run this concurrently; everything it touches is task-local or
/// const (the release binary and probe table are shared read-only).
HostProfile profileHost(const ProfileService::Release &R,
                        const WorkloadConfig &W, const HostTask &T) {
  HostProfile Out;
  std::vector<int64_t> Mem = generateInput(W, T.InputSeed);
  ExecConfig EC;
  EC.Sampler.Enabled = true;
  EC.Sampler.PeriodCycles = T.SamplePeriodCycles;
  EC.Sampler.Precise = true;
  EC.Sampler.Seed = T.SamplerSeed;
  RunResult Run = execute(*R.Bin, "main", Mem, EC);

  // One shard: sharding here is across hosts, not samples. No verify:
  // the fold is the verification gate.
  Out.CS = generateCSProfileSharded(*R.Sym, R.Probes, Run.Samples,
                                    /*InferMissingFrames=*/true,
                                    /*Parallelism=*/1, &Out.Stats);
  for (const ContextRecord &C : Out.CS.Contexts)
    Out.Samples =
        saturatingAdd(Out.Samples, Out.CS.Arena.Records[C.Rec].TotalSamples);
  return Out;
}

/// Top-N store functions by (samples desc, name asc) — deterministic.
std::vector<std::string> hotFunctions(const ProfileStore &St, unsigned N) {
  std::vector<std::pair<uint64_t, std::string>> All;
  for (size_t I = 0; I != St.numFunctions(); ++I)
    All.push_back(
        {St.functionTotalSamples(I), std::string(St.functionName(I))});
  std::sort(All.begin(), All.end(), [](const auto &A, const auto &B) {
    return A.first != B.first ? A.first > B.first : A.second < B.second;
  });
  if (All.size() > N)
    All.resize(N);
  std::vector<std::string> Names;
  for (auto &[Total, Name] : All)
    Names.push_back(std::move(Name));
  return Names;
}

} // namespace

Status ProfileService::run(unsigned NumEpochs) {
  if (!NumEpochs)
    return {};
  const unsigned First = NextEpoch;
  const unsigned Last = First + NumEpochs;

  struct Item {
    size_t EpochIdx = 0; ///< Relative to First.
    HostTask Task;
    std::shared_ptr<Release> Rel;
    const WorkloadConfig *Workload = nullptr;
  };

  std::vector<std::unique_ptr<EpochBatch>> Batches;
  for (unsigned I = 0; I != NumEpochs; ++I)
    Batches.push_back(std::make_unique<EpochBatch>());
  std::mutex DoneMutex;
  std::condition_variable DoneCV;
  std::atomic<unsigned> Produced{0};

  BoundedQueue<Item> Queue(C.QueueBound);

  // Shard workers: drain the queue until closed. Results land in their
  // pre-assigned host slots, so completion order cannot affect the fold.
  ThreadPool Pool(C.Shards);
  std::vector<std::future<void>> Drains;
  for (unsigned W = 0; W != Pool.concurrency(); ++W) {
    Drains.push_back(Pool.async([&] {
      while (std::optional<Item> I = Queue.pop()) {
        EpochBatch &B = *Batches[I->EpochIdx];
        B.Results[I->Task.Host] = profileHost(*I->Rel, *I->Workload, I->Task);
        if (B.Remaining.fetch_sub(1) == 1) {
          std::lock_guard<std::mutex> Lock(DoneMutex);
          DoneCV.notify_all();
        }
      }
    }));
  }

  // Producer: deploys releases at their epoch boundaries, then streams
  // the epoch's host assignments. push() blocking on a full queue is the
  // fleet's backpressure.
  std::thread Producer([&] {
    for (unsigned E = First; E != Last; ++E) {
      if (C.DriftEveryEpochs && E && E % C.DriftEveryEpochs == 0) {
        for (auto &Svc : Services) {
          // Alternate the edit kinds so both guard insertion and block
          // splits show up over a long run.
          CFGDriftKind Kind = Svc->Releases % 2 ? CFGDriftKind::GuardInsert
                                                : CFGDriftKind::BlockSplit;
          applyCFGDrift(*Svc->Current, Kind, E);
          Svc->Rel = buildRelease(*Svc->Current, Svc->Releases);
          ++Svc->Releases;
        }
      }
      EpochBatch &B = *Batches[E - First];
      for (auto &Svc : Services)
        B.Rels.push_back(Svc->Rel);
      std::vector<HostTask> Tasks = Fleet.epochTasks(E);
      B.Results.resize(Tasks.size());
      B.Remaining.store(Tasks.size());
      Produced.fetch_add(1);
      for (const HostTask &T : Tasks) {
        Item I;
        I.EpochIdx = E - First;
        I.Task = T;
        I.Rel = B.Rels[T.Service];
        I.Workload = &Services[T.Service]->Workload;
        if (!Queue.push(std::move(I)))
          return; // Queue closed underneath us (fatal shutdown).
      }
    }
    Queue.close();
  });

  // Folder (this thread): epochs fold strictly in order — decay makes the
  // fold non-commutative, so fold order is part of the determinism
  // contract, whatever order the shards finished in.
  Status Fatal;
  for (unsigned E = First; E != Last; ++E) {
    EpochBatch &B = *Batches[E - First];
    {
      std::unique_lock<std::mutex> Lock(DoneMutex);
      DoneCV.wait(Lock, [&] {
        return Produced.load() > E - First && B.Remaining.load() == 0;
      });
    }
    unsigned Ahead = Produced.load() - (E - First);
    MaxEpochLag = std::max(MaxEpochLag, Ahead ? Ahead - 1 : 0);
    if (Status S = foldEpoch(E, B); !S && Fatal.ok())
      Fatal = S;
    Batches[E - First].reset(); // Free host profiles as the stream advances.
  }

  Producer.join();
  for (auto &D : Drains)
    D.get(); // Rethrows worker exceptions at the orchestration point.

  QueueHighWater = std::max(QueueHighWater, Queue.highWater());
  TasksExecuted += static_cast<uint64_t>(NumEpochs) * C.Fleet.Hosts;
  NextEpoch = Last;
  return Fatal;
}

Status ProfileService::foldEpoch(unsigned E, EpochBatch &Batch) {
  for (unsigned S = 0; S != C.Fleet.Services; ++S) {
    PerService &Svc = *Services[S];
    PipelineStats &PS = Svc.Pipeline.stats();
    PS.ShardsUsed =
        std::max(PS.ShardsUsed, C.Shards ? C.Shards
                                         : ThreadPool::defaultConcurrency());

    // Reduce this service's hosts in ascending host order (slots are laid
    // out by host index, so a straight scan is exactly that order) — on
    // the flat plane: one k-way merge of the host views into an empty
    // destination, bit-identical to folding each host trie in turn.
    std::vector<const ContextProfileView *> HostPtrs;
    uint64_t EpochSamples = 0;
    for (unsigned H = 0; H != C.Fleet.Hosts; ++H) {
      if (Fleet.serviceOfHost(H) != S || !Batch.Results[H])
        continue;
      HostProfile &HP = *Batch.Results[H];
      PS.ProfGen += HP.Stats;
      EpochSamples += HP.Samples;
      HostPtrs.push_back(&HP.CS);
    }
    MergeStats ReduceStats;
    ContextProfileView Epoch =
        mergeContextViews(HostPtrs, ReduceStats, /*IntoEmptyDst=*/true);
    PS.Reduce += ReduceStats;

    if (!EpochSamples) {
      ++Svc.EpochsDropped;
      Svc.LastError = "epoch produced no samples";
      continue;
    }

    uint64_t Ts = Fleet.timestamp(E);
    if (Status S2 = Svc.Pipeline.ingest(Svc.StoreBytes, Epoch, Ts); !S2) {
      // The gate held: the aggregate store is untouched and the service
      // keeps running. Dropped epochs are the dashboard's alarm signal.
      ++Svc.EpochsDropped;
      Svc.LastError = S2.message();
      continue;
    }
    ++Svc.EpochsFolded;
    Svc.LastFoldTimestamp = Ts;
    Svc.SamplesIngested += EpochSamples;
    PS.TotalSamples += EpochSamples;

    // Post-fold observability: hot-set churn and the freshness probe
    // (annotate this epoch's release straight from the store — the
    // build-farm view of the aggregate). The store borrows the service's
    // aggregate bytes, which stay untouched until the next fold.
    Expected<ProfileStore> St = ProfileStore::openBorrowed(Svc.StoreBytes);
    if (!St) {
      Svc.LastError = St.status().message();
      continue;
    }
    std::vector<std::string> Hot = hotFunctions(*St, C.HotTopN);
    if (!Svc.HotSet.empty() && !Hot.empty()) {
      std::set<std::string> Prev(Svc.HotSet.begin(), Svc.HotSet.end());
      size_t Kept = 0;
      for (const std::string &N : Hot)
        Kept += Prev.count(N);
      Svc.HotChurn =
          1.0 - static_cast<double>(Kept) / static_cast<double>(Hot.size());
    }
    Svc.HotSet = std::move(Hot);

    std::unique_ptr<Module> Target = Batch.Rels[S]->Source->clone();
    insertProbes(*Target, AnchorKind::PseudoProbe);
    St->resolveNames(*Target);
    LoaderOptions LO;
    Expected<LoaderStats> Probe =
        loadProfileFromStore(*Target, *St, LO, /*Lazy=*/true);
    if (!Probe) {
      Svc.LastError = Probe.status().message();
      continue;
    }
    Svc.ProbeStats = *Probe;
    accumulate(PS.Loader, *Probe);
    Svc.LastProbeStoreSamples = St->totalSamples();
    Svc.RecoveredSampleRate =
        Svc.LastProbeStoreSamples
            ? static_cast<double>(Probe->StaleCountsRecovered) /
                  static_cast<double>(Svc.LastProbeStoreSamples)
            : 0;
  }
  return {};
}

FleetSnapshot ProfileService::snapshot() const {
  FleetSnapshot Snap;
  Snap.EpochsProduced = NextEpoch;
  Snap.Shards = C.Shards ? C.Shards : ThreadPool::defaultConcurrency();
  Snap.QueueBound = C.QueueBound;
  Snap.QueueHighWater = QueueHighWater;
  Snap.MaxEpochLag = MaxEpochLag;
  Snap.TasksExecuted = TasksExecuted;
  uint64_t NewestTs = NextEpoch ? Fleet.timestamp(NextEpoch - 1) : 0;
  for (unsigned S = 0; S != C.Fleet.Services; ++S) {
    const PerService &Svc = *Services[S];
    ServiceSnapshot Row;
    Row.Name = Svc.Name;
    Row.Hosts = Fleet.hostsOfService(S);
    Row.Releases = Svc.Releases;
    Row.EpochsFolded = Svc.EpochsFolded;
    Row.EpochsDropped = Svc.EpochsDropped;
    Row.LastFoldTimestamp = Svc.LastFoldTimestamp;
    Row.FreshnessLagSeconds = NewestTs > Svc.LastFoldTimestamp
                                  ? NewestTs - Svc.LastFoldTimestamp
                                  : 0;
    Row.SamplesIngested = Svc.SamplesIngested;
    Row.StoreSizeBytes = Svc.StoreBytes.size();
    if (!Svc.StoreBytes.empty()) {
      Expected<ProfileStore> St = ProfileStore::openBorrowed(Svc.StoreBytes);
      if (St) {
        Row.StoreSamples = St->totalSamples();
        Row.StoreFunctions = St->numFunctions();
      }
    }
    Row.FunctionsAnnotated = Svc.ProbeStats.FunctionsAnnotated;
    Row.StaleMatched = Svc.ProbeStats.StaleMatched;
    Row.StaleDropped = Svc.ProbeStats.StaleDropped;
    Row.CountsRecovered = Svc.ProbeStats.StaleCountsRecovered;
    Row.RecoveredSampleRate = Svc.RecoveredSampleRate;
    Row.HotChurn = Svc.HotChurn;
    Row.Pipeline = Svc.Pipeline.stats();
    Snap.Services.push_back(std::move(Row));
  }
  return Snap;
}

//===----------------------------------------------------------------------===//
// Dashboard rendering.
//===----------------------------------------------------------------------===//

namespace {

std::string percent(double Frac) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f%%", Frac * 100.0);
  return Buf;
}

} // namespace

std::string FleetSnapshot::toText() const {
  std::ostringstream Out;
  uint64_t Hosts = 0;
  for (const ServiceSnapshot &S : Services)
    Hosts += S.Hosts;
  Out << "fleet: " << Hosts << " hosts, " << Services.size() << " services, "
      << EpochsProduced << " epochs produced\n";
  Out << "ingestion: " << Shards << " shards, queue bound " << QueueBound
      << " (high water " << QueueHighWater << "), max epoch lag "
      << MaxEpochLag << ", " << TasksExecuted << " host-epochs executed\n";
  TextTable Table({"service", "hosts", "rel", "folded", "dropped", "lag(s)",
                   "samples", "store", "recovered", "churn"});
  for (const ServiceSnapshot &S : Services) {
    Table.addRow({S.Name, std::to_string(S.Hosts),
                  std::to_string(S.Releases), std::to_string(S.EpochsFolded),
                  std::to_string(S.EpochsDropped),
                  std::to_string(S.FreshnessLagSeconds),
                  std::to_string(S.SamplesIngested),
                  formatBytes(S.StoreSizeBytes),
                  percent(S.RecoveredSampleRate), percent(S.HotChurn)});
  }
  Out << Table.render();
  for (const ServiceSnapshot &S : Services) {
    Out << S.Name << ": " << S.StoreFunctions << " store functions, "
        << S.StoreSamples << " aggregate samples, " << S.FunctionsAnnotated
        << " annotated";
    if (S.StaleMatched || S.StaleDropped)
      Out << ", stale " << S.StaleMatched << " matched / " << S.StaleDropped
          << " dropped, " << S.CountsRecovered << " counts recovered";
    Out << "\n";
  }
  return Out.str();
}

std::string FleetSnapshot::toJSON() const {
  std::ostringstream Out;
  Out << "{\"epochs_produced\":" << EpochsProduced
      << ",\"shards\":" << Shards << ",\"queue_bound\":" << QueueBound
      << ",\"queue_high_water\":" << QueueHighWater
      << ",\"max_epoch_lag\":" << MaxEpochLag
      << ",\"tasks_executed\":" << TasksExecuted << ",\"services\":[";
  for (size_t I = 0; I != Services.size(); ++I) {
    const ServiceSnapshot &S = Services[I];
    if (I)
      Out << ",";
    Out << "{\"name\":\"" << S.Name << "\",\"hosts\":" << S.Hosts
        << ",\"releases\":" << S.Releases
        << ",\"epochs_folded\":" << S.EpochsFolded
        << ",\"epochs_dropped\":" << S.EpochsDropped
        << ",\"last_fold_timestamp\":" << S.LastFoldTimestamp
        << ",\"freshness_lag_seconds\":" << S.FreshnessLagSeconds
        << ",\"samples_ingested\":" << S.SamplesIngested
        << ",\"store_samples\":" << S.StoreSamples
        << ",\"store_bytes\":" << S.StoreSizeBytes
        << ",\"store_functions\":" << S.StoreFunctions
        << ",\"functions_annotated\":" << S.FunctionsAnnotated
        << ",\"stale_matched\":" << S.StaleMatched
        << ",\"stale_dropped\":" << S.StaleDropped
        << ",\"counts_recovered\":" << S.CountsRecovered
        << ",\"recovered_sample_rate_permille\":"
        << static_cast<uint64_t>(S.RecoveredSampleRate * 1000 + 0.5)
        << ",\"hot_churn_permille\":"
        << static_cast<uint64_t>(S.HotChurn * 1000 + 0.5)
        << ",\"pipeline\":" << S.Pipeline.toJSON() << "}";
  }
  Out << "]}";
  return Out.str();
}

} // namespace csspgo
