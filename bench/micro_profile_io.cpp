//===- bench/micro_profile_io.cpp - profile store I/O benchmark -----------===//
//
// Profile serving benchmark for the continuous-deployment store
// (store/ProfileStore.h): per workload, the size of the CS profile as
// extended text vs binary container vs compact-name (GUID table)
// container, and the time to materialize it three ways —
//
//   text-parse:   parseContextProfile over the full text database (what a
//                 text-profile build job pays, always O(whole database));
//   binary-eager: the full-store load a tool or conversion pays —
//                 openBorrowed + loadView + contextProfileOf over
//                 the whole database;
//   flat-lazy:    openBorrowed + binary-search lookup + StoreViewLoader
//                 over one link unit of a simulated fleet database (the
//                 workload profile cloned under per-module name suffixes
//                 into 16 modules) — the zero-copy module-scoped path a
//                 build job takes.
//
// Every path is checked for bit-identity (serialized text of the loaded
// profile) before timing. Reports best-of-N wall times
// (CSSPGO_MICRO_REPS, default 3); scale the workloads with CSSPGO_SCALE.
// Emits the shared one-line JSON summary, keyed on the clang-like
// ClangProxy workload, and exits 1 if the binary container is not
// smaller than text, the lazy module-scoped load is not faster than the
// eager full text parse, or the lazy module-scoped load is under 5x
// faster than the eager full-store load — the store's "K of N functions
// costs O(K)" contract.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "profile/ProfileIO.h"
#include "store/ProfileStore.h"

#include <chrono>

using namespace csspgo;
using namespace csspgo::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Best-of-\p Reps wall time of \p Fn (the standard noise-rejecting
/// estimator on shared hosts).
template <typename FnT> double bestSeconds(unsigned Reps, FnT Fn) {
  double Best = 1e30;
  for (unsigned R = 0; R != Reps; ++R) {
    auto Start = std::chrono::steady_clock::now();
    Fn();
    Best = std::min(Best, secondsSince(Start));
  }
  return Best;
}

std::string fmtMs(double Seconds) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.2f ms", Seconds * 1e3);
  return Buf;
}

std::string fmtX(double Ratio) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1fx", Ratio);
  return Buf;
}

[[noreturn]] void fail(const std::string &Msg) {
  std::fprintf(stderr, "micro_profile_io: FAILED: %s\n", Msg.c_str());
  std::exit(1);
}

/// Deep-copies \p P with \p Suffix appended to its own name, every call
/// target, and every inlinee (recursively) — one renamed "module copy" of
/// a function profile. Counts, keys and checksums are untouched.
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

/// Builds the shared-database workload: \p Clones disjoint copies of
/// \p CS under per-module name suffixes ".m0" .. ".m<Clones-1>", the
/// shape of a fleet profile store serving many link units. A build job
/// materializes exactly one module out of it.
ContextProfile fleetDB(const ContextProfile &CS, unsigned Clones) {
  ContextProfile DB;
  DB.Kind = CS.Kind;
  for (unsigned M = 0; M != Clones; ++M) {
    std::string Suffix = ".m" + std::to_string(M);
    CS.forEachNode([&](const SampleContext &Ctx, const ContextTrieNode &N) {
      SampleContext RCtx = Ctx;
      for (ContextFrame &F : RCtx)
        F.Func += Suffix;
      ContextTrieNode &Node = DB.getOrCreateNode(RCtx);
      Node.Profile = renameProfile(N.Profile, Suffix);
      Node.HasProfile = true;
      Node.ShouldBeInlined = N.ShouldBeInlined;
    });
  }
  return DB;
}

struct Row {
  std::string Workload;
  size_t TextBytes = 0;
  size_t BinaryBytes = 0;
  size_t CompactBytes = 0;
  double ParseText = 0;
  double LoadEager = 0;
  double LoadLazyFlat = 0;
  size_t UnitFunctions = 0;
  size_t TotalFunctions = 0;
};

Row benchWorkload(const std::string &Workload, unsigned Reps,
                  unsigned Clones) {
  Row R;
  R.Workload = Workload;

  PGODriver Driver(makeConfig(Workload));
  VariantOutcome Out = Driver.run(PGOVariant::CSSPGOFull);
  ContextProfile DB = fleetDB(Out.Profile.CS, Clones);
  std::string Text = serializeContextProfile(DB);
  R.TextBytes = Text.size();

  ContextProfileView DBView = contextViewOf(DB);
  std::string Bytes = writeStore(DBView, {{0, DB.totalSamples(), 1000}});
  R.BinaryBytes = Bytes.size();
  StoreWriteOptions Compact;
  Compact.CompactNames = true;
  R.CompactBytes =
      writeStore(DBView, {{0, DB.totalSamples(), 1000}}, Compact).size();

  Expected<ProfileStore> StoreE = ProfileStore::open(Bytes);
  if (!StoreE)
    fail(Workload + ": store does not open: " + StoreE.status().message());
  ProfileStore &Store = *StoreE;
  R.TotalFunctions = Store.numFunctions();

  // One link unit of the fleet: module 0. The suffix is anchored at the
  // end of the name, so ".m0" cannot match ".m10". A build job knows its
  // functions by NAME, so the timed paths below look the unit up by name
  // — lookup cost is part of what the data plane is measured on.
  const std::string UnitSuffix = ".m0";
  std::vector<size_t> Unit;
  std::vector<std::string> UnitNames;
  for (size_t I = 0; I < Store.numFunctions(); ++I) {
    std::string_view N = Store.functionName(I);
    if (N.size() >= UnitSuffix.size() &&
        N.compare(N.size() - UnitSuffix.size(), UnitSuffix.size(),
                  UnitSuffix) == 0) {
      Unit.push_back(I);
      UnitNames.emplace_back(N);
    }
  }
  if (Unit.empty())
    fail(Workload + ": fleet database has no module-0 functions");
  R.UnitFunctions = Unit.size();

  // Bit-identity before timing: text parse == eager store load, the
  // lazy union over all functions reproduces the eager load, and the
  // unit load is exactly module 0 of the database (a one-clone fleetDB).
  {
    ContextProfile FromText;
    if (!parseContextProfile(Text, FromText))
      fail(Workload + ": text profile does not parse");
    Expected<ContextProfileView> FullView = Store.loadView();
    if (!FullView)
      fail(Workload +
           ": eager store load failed: " + FullView.status().message());
    std::string Eager = serializeContextProfile(contextProfileOf(*FullView));
    if (serializeContextProfile(FromText) != Eager)
      fail(Workload + ": text and binary loads disagree");

    StoreViewLoader All(Store);
    for (size_t I = 0; I != Store.numFunctions(); ++I) {
      Status St = All.load(I);
      if (!St.ok())
        fail(Workload + ": lazy load failed: " + St.message());
    }
    if (serializeContextProfile(contextProfileOf(All.view())) != Eager)
      fail(Workload + ": lazy union and eager load disagree");

    StoreViewLoader UnitFlat(Store);
    for (size_t I : Unit) {
      Status St = UnitFlat.load(I);
      if (!St.ok())
        fail(Workload + ": unit lazy load failed: " + St.message());
    }
    if (serializeContextProfile(contextProfileOf(UnitFlat.view())) !=
        serializeContextProfile(fleetDB(Out.Profile.CS, 1)))
      fail(Workload + ": unit load is not module 0 of the database");
  }

  R.ParseText = bestSeconds(Reps, [&] {
    ContextProfile P;
    if (!parseContextProfile(Text, P))
      fail(Workload + ": text profile does not parse");
  });
  // The baseline the lazy-speedup gate is defined against: everything a
  // consumer of the whole store pays, on the same zero-copy plane.
  R.LoadEager = bestSeconds(Reps, [&] {
    Expected<ProfileStore> S = ProfileStore::openBorrowed(Bytes);
    if (!S)
      fail(Workload + ": " + S.status().message());
    Expected<ContextProfileView> V = S->loadView();
    if (!V)
      fail(Workload + ": " + V.status().message());
    ContextProfile P = contextProfileOf(*V);
  });
  // The module-scoped load: borrowed open (no byte copy, names stay
  // views into the buffer, no side tables), name lookup by binary search
  // over the sorted index, and arena view decode of just the unit's
  // tiles. The view is the usable representation — merge, scale and
  // ingest all run on it directly.
  R.LoadLazyFlat = bestSeconds(Reps, [&] {
    Expected<ProfileStore> S = ProfileStore::openBorrowed(Bytes);
    if (!S)
      fail(Workload + ": " + S.status().message());
    StoreViewLoader L(*S);
    for (const std::string &N : UnitNames) {
      int I = S->findFunction(N);
      if (I < 0)
        fail(Workload + ": unit function missing from the store");
      Status St = L.load(static_cast<size_t>(I));
      if (!St.ok())
        fail(Workload + ": " + St.message());
    }
  });
  return R;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Jobs = benchJobs(argc, argv);
  unsigned Reps = 3;
  if (const char *Env = std::getenv("CSSPGO_MICRO_REPS"))
    Reps = std::max(1, std::atoi(Env));
  const unsigned Clones = 16;

  printHeader("micro_profile_io",
              "profile store: text vs binary, eager vs lazy");

  std::vector<std::string> Workloads = serverWorkloadNames();
  Workloads.push_back("ClangProxy");
  auto Rows = runMany<Row>(Workloads.size(), Jobs, [&](size_t I) {
    return benchWorkload(Workloads[I], Reps, Clones);
  });

  TextTable Table({"workload", "text", "binary", "compact", "text parse",
                   "binary eager", "flat lazy (unit)", "lazy speedup"});
  for (const Row &R : Rows)
    Table.addRow(
        {R.Workload, formatBytes(R.TextBytes), formatBytes(R.BinaryBytes),
         formatBytes(R.CompactBytes), fmtMs(R.ParseText), fmtMs(R.LoadEager),
         fmtMs(R.LoadLazyFlat),
         fmtX(R.LoadLazyFlat > 0 ? R.LoadEager / R.LoadLazyFlat : 0)});
  std::printf("%s\n", Table.render().c_str());
  std::printf("the database is the workload profile cloned into %u modules\n"
              "(per-module name suffixes); binary eager loads the whole\n"
              "store into maps; flat lazy decodes module 0 through the\n"
              "per-function index on the zero-copy arena plane; text\n"
              "parse always pays for the whole database.\n\n",
              Clones);

  const Row &Clang = Rows.back();
  std::printf("ClangProxy: %zu functions, unit of %zu; binary %.0f%% of "
              "text, compact %.0f%%\n",
              Clang.TotalFunctions, Clang.UnitFunctions,
              100.0 * Clang.BinaryBytes / Clang.TextBytes,
              100.0 * Clang.CompactBytes / Clang.TextBytes);
  double LazySpeedup =
      Clang.LoadLazyFlat > 0 ? Clang.LoadEager / Clang.LoadLazyFlat : 0;
  printBenchJson(
      "micro_profile_io",
      {{"text_bytes", static_cast<double>(Clang.TextBytes)},
       {"binary_bytes", static_cast<double>(Clang.BinaryBytes)},
       {"compact_bytes", static_cast<double>(Clang.CompactBytes)},
       {"parse_text_ms", Clang.ParseText * 1e3},
       {"load_eager_view_ms", Clang.LoadEager * 1e3},
       {"load_lazy_flat_ms", Clang.LoadLazyFlat * 1e3},
       {"lazy_flat_vs_text_speedup",
        Clang.LoadLazyFlat > 0 ? Clang.ParseText / Clang.LoadLazyFlat : 0},
       {"lazy_flat_vs_eager_speedup", LazySpeedup}});

  if (Clang.BinaryBytes >= Clang.TextBytes)
    fail("binary container is not smaller than text on ClangProxy");
  if (Clang.LoadLazyFlat >= Clang.ParseText)
    fail("lazy module-scoped load is not faster than the eager text "
         "parse on ClangProxy");
  const double MinSpeedup = 5.0;
  if (LazySpeedup < MinSpeedup) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "lazy module-scoped load is only %.2fx the eager "
                  "full-store load on ClangProxy (minimum %.2fx)",
                  LazySpeedup, MinSpeedup);
    fail(Buf);
  }
  return 0;
}
