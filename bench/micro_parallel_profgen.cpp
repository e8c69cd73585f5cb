//===- bench/micro_parallel_profgen.cpp - sharded profgen benchmark --------===//
//
// Throughput benchmark of the sharded profile-generation pipeline
// (ShardedProfGen): partitions a large LBR sample set into K shards,
// unwinds and emits context views on a thread pool, and reduces with
// mergeContextViews. The production workflow aggregates samples from
// many hosts (§IV-A), so generation throughput is the operational
// bottleneck this pipeline attacks.
//
// The harness replicates one profiled run's samples up to a target count
// (default 1,000,000; argv[1] overrides) and
// times serial vs sharded generation for K in {2, 4, 8}, verifying every
// sharded dump is bit-identical to the serial one. Expect >=2x at 4
// threads on a machine with >=4 cores; on a single-core host every K
// degenerates to ~1x (the determinism check still runs).
//
// It then isolates the reduction itself at fleet scale: K host shards of
// the same fleet-sized database (the serial profile cloned under
// per-module name suffixes — one binary profiled on K hosts), each plane
// starting from its native representation. The map plane folds the K
// part tries sequentially with the test oracle's mergeContextProfiles
// (the pre-arena reducer); the flat plane k-way merges the K arena views over sorted
// slices (mergeContextViews — what ShardedProfGen phase 3 and the store
// ingest folds run; views arrive for free from the profgen workers or the
// store's zero-copy loader, and the one-time flatten of this bench's map
// clones is reported separately as flatten_ms). Both reductions must be
// bit-identical with identical MergeStats, and the flat plane must be at
// least 3x faster (a same-machine ratio) or the bench exits 1.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "oracle/Oracle.h"

#include "codegen/Linker.h"
#include "probe/ProbeInserter.h"
#include "probe/ProbeTable.h"
#include "profgen/ShardedProfGen.h"
#include "profile/ProfileArena.h"
#include "profile/ProfileIO.h"
#include "sim/Executor.h"
#include "support/SourceText.h"
#include "support/ThreadPool.h"
#include "workload/Workloads.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace csspgo;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

std::string fmt(double Value, int Digits) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Digits, Value);
  return Buf;
}

/// Deep-renames a function profile under a per-module \p Suffix — every
/// name the record mentions (own, call targets, inlinees) moves with it,
/// so the clones stay internally consistent.
FunctionProfile renameProfile(const FunctionProfile &P,
                              const std::string &Suffix) {
  FunctionProfile Out;
  Out.Name = P.Name + Suffix;
  Out.Guid = P.Guid;
  Out.Checksum = P.Checksum;
  Out.TotalSamples = P.TotalSamples;
  Out.HeadSamples = P.HeadSamples;
  Out.Body = P.Body;
  for (const auto &[K, Targets] : P.Calls)
    for (const auto &[Callee, N] : Targets)
      Out.Calls[K].emplace(Callee + Suffix, N);
  for (const auto &[K, Map] : P.Inlinees)
    for (const auto &[Callee, Sub] : Map)
      Out.Inlinees[K].emplace(Callee + Suffix, renameProfile(Sub, Suffix));
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  size_t Target = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1000000;

  // One real profiled run supplies the sample shapes; replication scales
  // the volume to datacenter-aggregation size without hours of simulation.
  WorkloadConfig WC = workloadPreset("AdRanker", 0.5);
  auto M = generateProgram(WC);
  insertProbes(*M, AnchorKind::PseudoProbe);
  ProbeTable Probes = ProbeTable::fromModule(*M);
  auto Bin = compileToBinary(*M);
  ExecConfig EC;
  EC.Sampler.Enabled = true;
  EC.Sampler.PeriodCycles = 499; // Dense sampling for a rich seed set.
  std::vector<int64_t> Mem = generateInput(WC, 7);
  std::vector<PerfSample> Seed = execute(*Bin, "main", Mem, EC).Samples;
  if (Seed.empty()) {
    std::fprintf(stderr, "no samples collected from the seed run\n");
    return 1;
  }

  std::vector<PerfSample> Samples;
  Samples.reserve(Target);
  while (Samples.size() < Target)
    Samples.push_back(Seed[Samples.size() % Seed.size()]);

  std::printf("sharded profile generation: %zu samples (%zu-sample seed), "
              "%u hardware threads\n\n",
              Samples.size(), Seed.size(), ThreadPool::defaultConcurrency());

  Symbolizer Sym(*Bin);
  auto Start = std::chrono::steady_clock::now();
  CSProfileGenStats SerialStats;
  ContextProfile Serial = contextProfileOf(generateCSProfileSharded(
      Sym, Probes, Samples, /*InferMissingFrames=*/true, /*Parallelism=*/1,
      &SerialStats));
  double SerialSec = secondsSince(Start);
  std::string SerialDump = serializeContextProfile(Serial);

  TextTable Table({"shards", "wall s", "speedup", "Msamples/s", "reduce",
                   "identical"});
  Table.addRow({"1 (serial)", fmt(SerialSec, 2), "1.00x",
                fmt(Samples.size() / SerialSec / 1e6, 2), "-",
                "ref"});

  bool AllIdentical = true;
  double SpeedupAt4 = 0;
  for (unsigned K : {2u, 4u, 8u}) {
    Start = std::chrono::steady_clock::now();
    CSProfileGenStats Stats;
    MergeStats Reduce;
    ContextProfile Sharded = contextProfileOf(generateCSProfileSharded(
        Sym, Probes, Samples, /*InferMissingFrames=*/true, K, &Stats,
        &Reduce));
    double Sec = secondsSince(Start);
    bool Identical = serializeContextProfile(Sharded) == SerialDump &&
                     Stats.Samples == SerialStats.Samples &&
                     Stats.RangesProcessed == SerialStats.RangesProcessed;
    AllIdentical &= Identical;
    double Speedup = SerialSec / Sec;
    if (K == 4)
      SpeedupAt4 = Speedup;
    Table.addRow({std::to_string(K), fmt(Sec, 2),
                  fmt(Speedup, 2) + "x",
                  fmt(Samples.size() / Sec / 1e6, 2),
                  std::to_string(Reduce.ContextsAdded) + "+" +
                      std::to_string(Reduce.ContextsMerged) + " ctx",
                  Identical ? "yes" : "NO"});
  }
  std::printf("%s\n", Table.render().c_str());
  std::printf("4-thread speedup: %.2fx (target >=2x on >=4 cores)\n\n",
              SpeedupAt4);

  // Reduction-plane comparison at fleet scale (see the file header). The
  // K host shards share one context set — the serial profile cloned
  // under per-module suffixes — which also exercises the identical-name-
  // table fast path the fleet case hits in buildRemaps.
  const unsigned MergeShards = 16;
  const unsigned MergeClones = 16;
  ContextProfile FleetDB;
  FleetDB.Kind = Serial.Kind;
  for (unsigned M = 0; M != MergeClones; ++M) {
    std::string Suffix = ".m" + std::to_string(M);
    Serial.forEachNode(
        [&](const SampleContext &Ctx, const ContextTrieNode &N) {
          SampleContext RCtx = Ctx;
          for (ContextFrame &Fr : RCtx)
            Fr.Func += Suffix;
          ContextTrieNode &Node = FleetDB.getOrCreateNode(RCtx);
          Node.Profile = renameProfile(N.Profile, Suffix);
          Node.HasProfile = true;
          Node.ShouldBeInlined = N.ShouldBeInlined;
        });
  }
  std::vector<ContextProfile> Parts(MergeShards, FleetDB);

  double FlattenSec = 1e30;
  std::vector<ContextProfileView> Views;
  std::vector<const ContextProfileView *> Ptrs;
  const int MergeReps = 5;
  for (int R = 0; R != MergeReps; ++R) {
    auto T0 = std::chrono::steady_clock::now();
    std::vector<ContextProfileView> V;
    V.reserve(Parts.size());
    for (const ContextProfile &P : Parts)
      V.push_back(contextViewOf(P));
    FlattenSec = std::min(FlattenSec, secondsSince(T0));
    Views = std::move(V);
  }
  for (const ContextProfileView &V : Views)
    Ptrs.push_back(&V);

  double MapSec = 1e30, FlatSec = 1e30;
  MergeStats MapStats, FlatStats;
  std::string MapDump, FlatDump;
  for (int R = 0; R != MergeReps; ++R) {
    ContextProfile Dst;
    MergeStats S;
    auto T0 = std::chrono::steady_clock::now();
    for (const ContextProfile &P : Parts)
      S += mergeContextProfiles(Dst, P);
    MapSec = std::min(MapSec, secondsSince(T0));
    MapStats = S;
    if (R == 0)
      MapDump = serializeContextProfile(Dst);
  }
  for (int R = 0; R != MergeReps; ++R) {
    MergeStats S;
    auto T0 = std::chrono::steady_clock::now();
    ContextProfileView Merged =
        mergeContextViews(Ptrs, S, /*IntoEmptyDst=*/true);
    FlatSec = std::min(FlatSec, secondsSince(T0));
    FlatStats = S;
    if (R == 0)
      FlatDump = serializeContextProfile(contextProfileOf(Merged));
  }
  bool MergeIdentical = FlatDump == MapDump &&
                        FlatStats.ContextsAdded == MapStats.ContextsAdded &&
                        FlatStats.ContextsMerged == MapStats.ContextsMerged &&
                        FlatStats.CountsSummed == MapStats.CountsSummed &&
                        FlatStats.SaturatedCounts == MapStats.SaturatedCounts;
  AllIdentical &= MergeIdentical;
  double MergeSpeedup = FlatSec > 0 ? MapSec / FlatSec : 0;
  std::printf("%u-way fleet reduce: map plane %.2f ms, flat slices %.2f ms "
              "(%.2fx; one-time flatten %.2f ms; identical: %s)\n\n",
              MergeShards, MapSec * 1e3, FlatSec * 1e3, MergeSpeedup,
              FlattenSec * 1e3, MergeIdentical ? "yes" : "NO");

  csspgo::bench::printBenchJson(
      "micro_parallel_profgen",
      {{"samples", static_cast<double>(Samples.size())},
       {"serial_msamples_per_sec", Samples.size() / SerialSec / 1e6},
       {"speedup_4", SpeedupAt4},
       {"merge_map_ms", MapSec * 1e3},
       {"merge_flat_ms", FlatSec * 1e3},
       {"flatten_ms", FlattenSec * 1e3},
       {"merge_speedup", MergeSpeedup},
       {"identical", AllIdentical ? 1 : 0}});

  if (!AllIdentical) {
    std::fprintf(stderr,
                 "FAIL: sharded profile differs from the serial profile\n");
    return 1;
  }
  const double MinMergeSpeedup = 3.0;
  if (MergeSpeedup < MinMergeSpeedup) {
    std::fprintf(stderr,
                 "FAIL: flat-slice reduce is only %.2fx the map-plane "
                 "reduce (minimum %.2fx)\n",
                 MergeSpeedup, MinMergeSpeedup);
    return 1;
  }
  return 0;
}
