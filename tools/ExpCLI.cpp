//===- tools/ExpCLI.cpp - csspgo_exp CLI surface --------------------------===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ExpCLI.h"

#include <cctype>
#include <cstdlib>
#include <cstring>

namespace csspgo {
namespace cli {

//===----------------------------------------------------------------------===//
// The subcommand table: single source of truth for dispatch, usage and
// per-subcommand help. tests/CLITest.cpp golden-tests the rendered text.
//===----------------------------------------------------------------------===//

namespace {

const SubcommandInfo Table[] = {
    {"run", "<workload> <variant> [scale]", "end-to-end PGO run", 2,
     "with --json, prints one machine-readable object instead: the run\n"
     "header plus the unified pipeline stats (profgen, reduce, loader,\n"
     "verify) in stable key order.",
     false},
    {"trace", "<workload> [scale]",
     "trace-mode diagnostics and sampling-path cross-check", 1,
     "collects a core-instruction trace of the training run (TNT/TIP\n"
     "packets, delta-compressed timestamps), replays it into a context\n"
     "profile and cross-checks it against the PMU-sampling path: the two\n"
     "profiles must be bit-identical whenever frequencies suffice.\n"
     "Prints trace size and compression, the replay's timestamp\n"
     "validation, per-mode profiling overhead and the measured per-block\n"
     "timing summary; exits nonzero on a profile mismatch.\n"
     "\n"
     "flags:\n"
     "  --every N       timestamp every N branch events (default 32)\n"
     "  --max-kb N      trace buffer bound in KiB (default 65536)\n"
     "  --no-compress   raw 8-byte timestamps instead of deltas",
     true},
    {"bolt", "<workload> <variant> [scale]",
     "post-link optimize the variant's binary, then re-evaluate", 2,
     "rewrites the already-linked binary BOLT-style: reconstructs the\n"
     "binary CFG (gated on a byte-identical disassemble->reassemble\n"
     "round trip), maps training-run LBR samples onto it, folds\n"
     "identical bodies, reorders blocks along Ext-TSP and splits\n"
     "never-executed code into the cold region. `bolt <workload> none`\n"
     "is the BOLT-only ablation cell; a PGO variant gives the stacked\n"
     "PGO+BOLT cell.\n"
     "\n"
     "flags:\n"
     "  --no-fold       keep duplicate function bodies\n"
     "  --no-reorder    keep the compiler's block layout\n"
     "  --no-split      keep never-executed code in the hot section\n"
     "  --min-mapped P  permille of LBR endpoints that must resolve\n"
     "                  before the layout transforms run (default 500)",
     true},
    {"profile", "<workload> <variant> [scale]", "print the profile text", 2,
     nullptr, false},
    {"compare", "<workload> [scale]", "all variants side by side", 1, nullptr,
     false},
    {"ir", "<workload> [scale]", "dump the generated IR", 1, nullptr, false},
    {"convert", "<in> <out>",
     "convert a profile between text and binary store", 2,
     "direction is inferred from the input bytes; --compact selects guid\n"
     "name tables for written stores.",
     false},
    {"store", "inspect [--layout] <file> | ingest <file> <workload> "
     "<variant> [scale]",
     "inspect a store / fold in a fresh epoch", 2,
     "inspect --layout additionally prints the physical file layout:\n"
     "every section's absolute offset and size plus the per-function\n"
     "payload tiles the zero-copy readers address directly.\n"
     "\n"
     "ingest honors --decay, --timestamp and --compact; the fold is\n"
     "verifier-gated and the file is untouched when the gate rejects it.",
     true},
    {"fuzz", "[iterations] [seed]", "differential fuzzing", 0, nullptr,
     false},
    {"serve", "[flags]", "run the continuous-profiling fleet service", 0,
     "streams a simulated fleet end to end: each epoch every host's\n"
     "samples are profiled on one of K ingestion shards (-j), reduced in\n"
     "host order and folded into its service's binary store\n"
     "(verifier-gated, --decay weighted). Prints the fleet dashboard\n"
     "(text, or JSON with --json) after every pass and serves forever\n"
     "unless told otherwise.\n"
     "\n"
     "flags:\n"
     "  --hosts N           fleet size (default 32)\n"
     "  --services N        distinct services (default 3)\n"
     "  --epochs N          epochs per pass (default 8)\n"
     "  --seed N            fleet seed (default 1)\n"
     "  --scale S           workload scale, permille (default 50)\n"
     "  --queue-bound N     ingestion queue capacity (default 16)\n"
     "  --drift-every N     deploy a drifted release every N epochs\n"
     "  --exit-after-drain  exit after one drained pass",
     true},
    {"train", "[scale]", "longitudinal release-train staleness simulation",
     0,
     "simulates a release train: the workload source evolves through\n"
     "--releases seeded drift plans, and each release is built with the\n"
     "previous release's profile under the selected stale-profile\n"
     "policies (drop / match / ingest), scored against a per-release\n"
     "plain build and a fresh-profile oracle. Prints the per-release\n"
     "trajectory and its aggregates (one stable JSON object with\n"
     "--json); exits nonzero when any release fails Full profile\n"
     "verification or changes program semantics.\n"
     "\n"
     "-j shards the train's builds; any job count is bit-identical.\n"
     "--decay weights the ingest policy's store folds.\n"
     "\n"
     "flags:\n"
     "  --archetype W   workload preset, e.g. one of the archetypes\n"
     "                  RpcFanout|InterpLoop|ColdBoot (default AdRanker)\n"
     "  --releases N    train length (default 4)\n"
     "  --policy P      drop|match|ingest|all (default all)\n"
     "  --variant V     PGO variant under test (default csspgo)\n"
     "  --postlink      add the PGO+BOLT column: each oracle binary\n"
     "                  rewritten from one-release-stale samples\n"
     "  --seed N        drift-plan seed (default 1)",
     true},
    {"list", "", "workloads and variants", 0, nullptr, false},
};

} // namespace

const SubcommandInfo *subcommands(size_t &Count) {
  Count = sizeof(Table) / sizeof(Table[0]);
  return Table;
}

const SubcommandInfo *findSubcommand(const char *Name) {
  for (const SubcommandInfo &S : Table)
    if (std::strcmp(Name, S.Name) == 0)
      return &S;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Flag parsing.
//===----------------------------------------------------------------------===//

bool parseUnsigned(const char *S, unsigned long long &Out, int Base) {
  // strtoull itself skips leading whitespace and accepts a '-' sign,
  // wrapping negatives into huge magnitudes ("-3" -> 2^64 - 3); these are
  // never valid flag values, so reject them up front.
  if (!S || std::isspace(static_cast<unsigned char>(*S)) || *S == '-')
    return false;
  char *End = nullptr;
  Out = std::strtoull(S, &End, Base);
  return End != S && !*End;
}

bool parseTransport(const char *S, ProfileTransport &Out) {
  if (std::strcmp(S, "memory") == 0)
    Out = ProfileTransport::InMemory;
  else if (std::strcmp(S, "text") == 0)
    Out = ProfileTransport::Text;
  else if (std::strcmp(S, "binary") == 0)
    Out = ProfileTransport::BinaryEager;
  else if (std::strcmp(S, "binary-lazy") == 0)
    Out = ProfileTransport::BinaryLazy;
  else
    return false;
  return true;
}

bool parseGlobalFlags(int &argc, char **argv, GlobalOptions &G,
                      std::string &Err) {
  int Out = 1;
  for (int I = 1; I < argc; ++I) {
    auto takesValue = [&](const char *Flag) {
      return std::strcmp(argv[I], Flag) == 0 && I + 1 < argc;
    };
    auto badValue = [&](const char *Flag) {
      Err = std::string("bad value for ") + Flag + ": '" + argv[I] + "'";
      return false;
    };
    unsigned long long N = 0;
    if (takesValue("-j") || takesValue("--parallelism")) {
      if (!parseUnsigned(argv[++I], N))
        return badValue("--parallelism");
      G.Parallelism = static_cast<unsigned>(N);
    } else if (takesValue("--format")) {
      if (!parseTransport(argv[++I], G.Transport))
        return badValue("--format");
    } else if (takesValue("--decay")) {
      if (!parseUnsigned(argv[++I], N) || N > 1000)
        return badValue("--decay");
      G.DecayPermille = static_cast<unsigned>(N);
    } else if (takesValue("--timestamp")) {
      if (!parseUnsigned(argv[++I], N))
        return badValue("--timestamp");
      G.EpochTimestamp = N;
    } else if (std::strcmp(argv[I], "--compact") == 0) {
      G.CompactNames = true;
    } else if (std::strcmp(argv[I], "--json") == 0) {
      G.JSON = true;
    } else {
      // Positional, --help, or a subcommand-local flag: leave in place.
      argv[Out++] = argv[I];
    }
  }
  argc = Out;
  return true;
}

bool takeUnsignedFlag(int &argc, char **argv, const char *Name,
                      unsigned long long &Out, std::string &Err) {
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], Name) != 0)
      continue;
    if (I + 1 >= argc || !parseUnsigned(argv[I + 1], Out)) {
      Err = std::string("bad value for ") + Name;
      return false;
    }
    for (int J = I; J + 2 < argc; ++J)
      argv[J] = argv[J + 2];
    argc -= 2;
    return true;
  }
  return true;
}

bool takeValueFlag(int &argc, char **argv, const char *Name,
                   std::string &Out, std::string &Err) {
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], Name) != 0)
      continue;
    if (I + 1 >= argc) {
      Err = std::string("missing value for ") + Name;
      return false;
    }
    Out = argv[I + 1];
    for (int J = I; J + 2 < argc; ++J)
      argv[J] = argv[J + 2];
    argc -= 2;
    return true;
  }
  return true;
}

bool takeBoolFlag(int &argc, char **argv, const char *Name) {
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], Name) != 0)
      continue;
    for (int J = I; J + 1 < argc; ++J)
      argv[J] = argv[J + 1];
    --argc;
    return true;
  }
  return false;
}

const char *firstFlag(int argc, char **argv) {
  for (int I = 1; I < argc; ++I)
    if (argv[I][0] == '-' && argv[I][1] == '-')
      return argv[I];
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Text rendering.
//===----------------------------------------------------------------------===//

std::string globalOptionsText() {
  return "global options (every subcommand):\n"
         "  -j, --parallelism N   profile-generation / ingestion shards\n"
         "  --format F            profile transport: "
         "memory|text|binary|binary-lazy\n"
         "  --decay P             ingest decay permille (1000 = plain "
         "merge)\n"
         "  --timestamp T         ingest epoch timestamp\n"
         "  --compact             guid name table for written stores\n"
         "  --json                machine-readable output where supported\n";
}

std::string usageText() {
  std::string S = "usage:\n";
  for (const SubcommandInfo &Sub : Table) {
    S += "  csspgo_exp ";
    S += Sub.Name;
    if (*Sub.Operands) {
      S += ' ';
      S += Sub.Operands;
    }
    S += "\n      ";
    S += Sub.Help;
    S += '\n';
  }
  S += "\nvariants: none instr autofdo probeonly csspgo trace\n";
  S += "`csspgo_exp <subcommand> --help` shows subcommand details.\n\n";
  S += globalOptionsText();
  return S;
}

std::string helpText(const SubcommandInfo &Sub) {
  std::string S = "usage: csspgo_exp ";
  S += Sub.Name;
  if (*Sub.Operands) {
    S += ' ';
    S += Sub.Operands;
  }
  S += "\n  ";
  S += Sub.Help;
  S += '\n';
  if (Sub.Details) {
    S += '\n';
    S += Sub.Details;
    S += '\n';
  }
  S += '\n';
  S += globalOptionsText();
  return S;
}

} // namespace cli
} // namespace csspgo
