//===- bench/micro_service_ingest.cpp - fleet ingestion benchmark ----------===//
//
// Throughput benchmark of the continuous-profiling service's sharded
// ingestion front: a fixed fleet streams epoch batches through the
// bounded queue into K profiling shards, and every epoch folds into the
// per-service binary stores under decay. Reports host-epochs/s and
// samples/s for K in {1, 2, 4}, verifying every sharded pass produces
// stores bit-identical to the serial pass (the service's determinism
// contract), and exits nonzero if throughput is zero or the stores
// diverge — the CI smoke asserts both.
//
// CSSPGO_SCALE scales the per-host workload; CSSPGO_FLEET_EPOCHS sets the
// number of epochs (default 4). The best sharded-over-serial throughput
// ratio is printed, not gated: it needs a quiet multi-core host.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "service/ProfileService.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace csspgo;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace

int main() {
  ServiceConfig SC;
  SC.Fleet.Hosts = 12;
  SC.Fleet.Services = 3;
  SC.Fleet.RequestScale = 0.05 * bench::scaleFromEnv();
  SC.DecayPermille = 900;
  SC.QueueBound = 8;
  unsigned Epochs = 4;
  if (const char *Env = std::getenv("CSSPGO_FLEET_EPOCHS"))
    if (unsigned long long V = std::strtoull(Env, nullptr, 10))
      Epochs = static_cast<unsigned>(V);

  std::printf("fleet ingestion: %u hosts x %u services, %u epochs, "
              "queue bound %zu\n\n",
              SC.Fleet.Hosts, SC.Fleet.Services, Epochs, SC.QueueBound);

  TextTable Table({"shards", "time (s)", "host-epochs/s", "samples/s",
                   "queue hw", "identical"});
  std::vector<std::string> Serial;
  bool AllIdentical = true;
  double SerialRate = 0;
  double BestShardedRate = 0;
  for (unsigned K : {1u, 2u, 4u}) {
    ServiceConfig Run = SC;
    Run.Shards = K;
    ProfileService Svc(Run);
    auto Start = std::chrono::steady_clock::now();
    Status St = Svc.run(Epochs);
    double Secs = secondsSince(Start);
    if (!St.ok()) {
      std::fprintf(stderr, "service run failed at K=%u: %s\n", K,
                   St.message().c_str());
      return 1;
    }
    FleetSnapshot Snap = Svc.snapshot();
    uint64_t Samples = 0;
    for (const ServiceSnapshot &S : Snap.Services)
      Samples += S.SamplesIngested;
    double HostEpochRate = Secs > 0 ? Snap.TasksExecuted / Secs : 0;
    double SampleRate = Secs > 0 ? Samples / Secs : 0;

    bool Identical = true;
    std::vector<std::string> Stores;
    for (unsigned S = 0; S != SC.Fleet.Services; ++S)
      Stores.push_back(Svc.store(S));
    if (K == 1) {
      Serial = Stores;
      SerialRate = HostEpochRate;
    } else {
      Identical = Stores == Serial;
      BestShardedRate = std::max(BestShardedRate, HostEpochRate);
    }
    AllIdentical &= Identical;

    char TimeBuf[32], HeBuf[32], SBuf[32];
    std::snprintf(TimeBuf, sizeof(TimeBuf), "%.3f", Secs);
    std::snprintf(HeBuf, sizeof(HeBuf), "%.1f", HostEpochRate);
    std::snprintf(SBuf, sizeof(SBuf), "%.0f", SampleRate);
    Table.addRow({std::to_string(K), TimeBuf, HeBuf, SBuf,
                  std::to_string(Snap.QueueHighWater),
                  Identical ? "yes" : "NO"});
  }
  std::printf("%s\n", Table.render().c_str());

  if (!AllIdentical) {
    std::fprintf(stderr, "FAIL: sharded stores diverged from serial\n");
    return 1;
  }
  if (SerialRate <= 0) {
    std::fprintf(stderr, "FAIL: zero ingestion throughput reported\n");
    return 1;
  }
  double ShardSpeedup = BestShardedRate / SerialRate;
  std::printf("serial ingestion throughput: %.1f host-epochs/s "
              "(nonzero, sharded passes bit-identical); best sharded "
              "speedup %.2fx\n",
              SerialRate, ShardSpeedup);
  return 0;
}
