//===- tests/CLITest.cpp - csspgo_exp CLI surface tests ---------*- C++ -*-===//
//
// Golden-output tests for the documented CLI surface: the `--help` text
// of every subcommand is pinned verbatim, so any change to the surface
// (flags, operands, semantics) must update the goldens consciously. Plus
// unit tests for the shared flag parser every subcommand goes through,
// the dispatcher's rejection of unknown spellings, and a check that the
// README's bench environment-knob table lists exactly the knobs the
// benches and tools read.
//
//===----------------------------------------------------------------------===//

#include "ExpCLI.h"

#include "store/ProfileStore.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace csspgo;

namespace {

/// The global-options block, pinned once; every subcommand's help ends
/// with it (that IS the "flags are uniform across subcommands" contract).
const char *const GlobalBlock =
    "global options (every subcommand):\n"
    "  -j, --parallelism N   profile-generation / ingestion shards\n"
    "  --format F            profile transport: "
    "memory|text|binary|binary-lazy\n"
    "  --decay P             ingest decay permille (1000 = plain merge)\n"
    "  --timestamp T         ingest epoch timestamp\n"
    "  --compact             guid name table for written stores\n"
    "  --json                machine-readable output where supported\n";

std::string helpFor(const char *Name) {
  const cli::SubcommandInfo *S = cli::findSubcommand(Name);
  EXPECT_NE(S, nullptr) << Name;
  return S ? cli::helpText(*S) : std::string();
}

/// Mutable argv for the destructive parsers.
struct Argv {
  explicit Argv(std::vector<std::string> Args) : Strings(std::move(Args)) {
    Ptrs.push_back(const_cast<char *>("csspgo_exp"));
    for (std::string &S : Strings)
      Ptrs.push_back(S.data());
    Count = static_cast<int>(Ptrs.size());
  }
  std::vector<std::string> Strings;
  std::vector<char *> Ptrs;
  int Count = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// Golden help text, every subcommand.
//===----------------------------------------------------------------------===//

TEST(CLIGolden, GlobalOptionsBlock) {
  EXPECT_EQ(cli::globalOptionsText(), GlobalBlock);
}

TEST(CLIGolden, HelpRun) {
  EXPECT_EQ(helpFor("run"),
            std::string("usage: csspgo_exp run <workload> <variant> [scale]\n"
                        "  end-to-end PGO run\n"
                        "\n"
                        "with --json, prints one machine-readable object "
                        "instead: the run\n"
                        "header plus the unified pipeline stats (profgen, "
                        "reduce, loader,\n"
                        "verify) in stable key order.\n"
                        "\n") +
                GlobalBlock);
}

TEST(CLIGolden, HelpTrace) {
  EXPECT_EQ(
      helpFor("trace"),
      std::string(
          "usage: csspgo_exp trace <workload> [scale]\n"
          "  trace-mode diagnostics and sampling-path cross-check\n"
          "\n"
          "collects a core-instruction trace of the training run (TNT/TIP\n"
          "packets, delta-compressed timestamps), replays it into a "
          "context\n"
          "profile and cross-checks it against the PMU-sampling path: the "
          "two\n"
          "profiles must be bit-identical whenever frequencies suffice.\n"
          "Prints trace size and compression, the replay's timestamp\n"
          "validation, per-mode profiling overhead and the measured "
          "per-block\n"
          "timing summary; exits nonzero on a profile mismatch.\n"
          "\n"
          "flags:\n"
          "  --every N       timestamp every N branch events (default 32)\n"
          "  --max-kb N      trace buffer bound in KiB (default 65536)\n"
          "  --no-compress   raw 8-byte timestamps instead of deltas\n"
          "\n") +
          GlobalBlock);
}

TEST(CLIGolden, HelpBolt) {
  EXPECT_EQ(
      helpFor("bolt"),
      std::string(
          "usage: csspgo_exp bolt <workload> <variant> [scale]\n"
          "  post-link optimize the variant's binary, then re-evaluate\n"
          "\n"
          "rewrites the already-linked binary BOLT-style: reconstructs "
          "the\n"
          "binary CFG (gated on a byte-identical disassemble->reassemble\n"
          "round trip), maps training-run LBR samples onto it, folds\n"
          "identical bodies, reorders blocks along Ext-TSP and splits\n"
          "never-executed code into the cold region. `bolt <workload> "
          "none`\n"
          "is the BOLT-only ablation cell; a PGO variant gives the "
          "stacked\n"
          "PGO+BOLT cell.\n"
          "\n"
          "flags:\n"
          "  --no-fold       keep duplicate function bodies\n"
          "  --no-reorder    keep the compiler's block layout\n"
          "  --no-split      keep never-executed code in the hot section\n"
          "  --min-mapped P  permille of LBR endpoints that must resolve\n"
          "                  before the layout transforms run (default "
          "500)\n"
          "\n") +
          GlobalBlock);
}

TEST(CLIGolden, HelpProfile) {
  EXPECT_EQ(helpFor("profile"),
            std::string(
                "usage: csspgo_exp profile <workload> <variant> [scale]\n"
                "  print the profile text\n"
                "\n") +
                GlobalBlock);
}

TEST(CLIGolden, HelpCompare) {
  EXPECT_EQ(helpFor("compare"),
            std::string("usage: csspgo_exp compare <workload> [scale]\n"
                        "  all variants side by side\n"
                        "\n") +
                GlobalBlock);
}

TEST(CLIGolden, HelpIR) {
  EXPECT_EQ(helpFor("ir"),
            std::string("usage: csspgo_exp ir <workload> [scale]\n"
                        "  dump the generated IR\n"
                        "\n") +
                GlobalBlock);
}

TEST(CLIGolden, HelpConvert) {
  EXPECT_EQ(helpFor("convert"),
            std::string("usage: csspgo_exp convert <in> <out>\n"
                        "  convert a profile between text and binary store\n"
                        "\n"
                        "direction is inferred from the input bytes; "
                        "--compact selects guid\n"
                        "name tables for written stores.\n"
                        "\n") +
                GlobalBlock);
}

TEST(CLIGolden, HelpStore) {
  EXPECT_EQ(helpFor("store"),
            std::string("usage: csspgo_exp store inspect [--layout] <file> "
                        "| ingest <file> <workload> <variant> [scale]\n"
                        "  inspect a store / fold in a fresh epoch\n"
                        "\n"
                        "inspect --layout additionally prints the physical "
                        "file layout:\n"
                        "every section's absolute offset and size plus the "
                        "per-function\n"
                        "payload tiles the zero-copy readers address "
                        "directly.\n"
                        "\n"
                        "ingest honors --decay, --timestamp and --compact; "
                        "the fold is\n"
                        "verifier-gated and the file is untouched when the "
                        "gate rejects it.\n"
                        "\n") +
                GlobalBlock);
}

TEST(CLIGolden, HelpFuzz) {
  EXPECT_EQ(helpFor("fuzz"),
            std::string("usage: csspgo_exp fuzz [iterations] [seed]\n"
                        "  differential fuzzing\n"
                        "\n") +
                GlobalBlock);
}

TEST(CLIGolden, HelpServe) {
  EXPECT_EQ(
      helpFor("serve"),
      std::string(
          "usage: csspgo_exp serve [flags]\n"
          "  run the continuous-profiling fleet service\n"
          "\n"
          "streams a simulated fleet end to end: each epoch every host's\n"
          "samples are profiled on one of K ingestion shards (-j), reduced "
          "in\n"
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
          "  --exit-after-drain  exit after one drained pass\n"
          "\n") +
          GlobalBlock);
}

TEST(CLIGolden, HelpTrain) {
  EXPECT_EQ(
      helpFor("train"),
      std::string(
          "usage: csspgo_exp train [scale]\n"
          "  longitudinal release-train staleness simulation\n"
          "\n"
          "simulates a release train: the workload source evolves through\n"
          "--releases seeded drift plans, and each release is built with "
          "the\n"
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
          "                  RpcFanout|InterpLoop|ColdBoot (default "
          "AdRanker)\n"
          "  --releases N    train length (default 4)\n"
          "  --policy P      drop|match|ingest|all (default all)\n"
          "  --variant V     PGO variant under test (default csspgo)\n"
          "  --postlink      add the PGO+BOLT column: each oracle binary\n"
          "                  rewritten from one-release-stale samples\n"
          "  --seed N        drift-plan seed (default 1)\n"
          "\n") +
          GlobalBlock);
}

TEST(CLIGolden, HelpList) {
  EXPECT_EQ(helpFor("list"),
            std::string("usage: csspgo_exp list\n"
                        "  workloads and variants\n"
                        "\n") +
                GlobalBlock);
}

TEST(CLIGolden, UsageListsEverySubcommandAndEndsWithGlobals) {
  std::string U = cli::usageText();
  size_t Count = 0;
  const cli::SubcommandInfo *Subs = cli::subcommands(Count);
  EXPECT_EQ(Count, 12u);
  size_t Prev = 0;
  for (size_t I = 0; I != Count; ++I) {
    size_t Pos = U.find(std::string("csspgo_exp ") + Subs[I].Name);
    EXPECT_NE(Pos, std::string::npos) << Subs[I].Name;
    EXPECT_GT(Pos, Prev) << "table order must match display order";
    Prev = Pos;
  }
  EXPECT_NE(U.find(GlobalBlock), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Shared flag parsing.
//===----------------------------------------------------------------------===//

TEST(CLIFlags, GlobalFlagsStripUniformly) {
  Argv A({"run", "AdRanker", "csspgo", "-j", "4", "--format", "binary-lazy",
          "--decay", "700", "--timestamp", "42", "--compact", "--json"});
  cli::GlobalOptions G;
  std::string Err;
  ASSERT_TRUE(cli::parseGlobalFlags(A.Count, A.Ptrs.data(), G, Err)) << Err;
  EXPECT_EQ(G.Parallelism, 4u);
  EXPECT_EQ(G.Transport, ProfileTransport::BinaryLazy);
  EXPECT_EQ(G.DecayPermille, 700u);
  EXPECT_EQ(G.EpochTimestamp, 42u);
  EXPECT_TRUE(G.CompactNames);
  EXPECT_TRUE(G.JSON);
  // Only positionals remain, order preserved.
  ASSERT_EQ(A.Count, 4);
  EXPECT_STREQ(A.Ptrs[1], "run");
  EXPECT_STREQ(A.Ptrs[2], "AdRanker");
  EXPECT_STREQ(A.Ptrs[3], "csspgo");
}

TEST(CLIFlags, MalformedValuesAreRejectedWithADiagnostic) {
  for (std::vector<std::string> Bad :
       {std::vector<std::string>{"run", "--decay", "1400"},
        std::vector<std::string>{"run", "--format", "carrier-pigeon"},
        std::vector<std::string>{"run", "-j", "many"}}) {
    Argv A(Bad);
    cli::GlobalOptions G;
    std::string Err;
    EXPECT_FALSE(cli::parseGlobalFlags(A.Count, A.Ptrs.data(), G, Err));
    EXPECT_FALSE(Err.empty());
  }
}

// Regression: strtoull silently wraps negative inputs into huge
// magnitudes ("-3" -> 2^64 - 3), so `-j -3` used to parse as a
// 19-digit shard count and `--decay -1` as more-than-plain merge.
// parseUnsigned must reject a leading '-' (and leading whitespace,
// which strtoull also skips) outright.
TEST(CLIFlags, NegativeAndPaddedValuesAreRejected) {
  unsigned long long N = 0;
  EXPECT_FALSE(cli::parseUnsigned("-3", N));
  EXPECT_FALSE(cli::parseUnsigned("-0", N));
  EXPECT_FALSE(cli::parseUnsigned(" 5", N));
  EXPECT_FALSE(cli::parseUnsigned("\t5", N));
  EXPECT_TRUE(cli::parseUnsigned("5", N));
  EXPECT_EQ(N, 5u);

  for (std::vector<std::string> Bad :
       {std::vector<std::string>{"run", "-j", "-3"},
        std::vector<std::string>{"run", "--decay", "-1"},
        std::vector<std::string>{"run", "--timestamp", "-42"}}) {
    Argv A(Bad);
    cli::GlobalOptions G;
    std::string Err;
    EXPECT_FALSE(cli::parseGlobalFlags(A.Count, A.Ptrs.data(), G, Err))
        << Bad[1] << " " << Bad[2];
    EXPECT_FALSE(Err.empty());
  }
}

TEST(CLIFlags, TakeValueFlagConsumesValueOrReportsMissing) {
  Argv A({"train", "0.05", "--policy", "ingest"});
  std::string Policy, Err;
  ASSERT_TRUE(
      cli::takeValueFlag(A.Count, A.Ptrs.data(), "--policy", Policy, Err));
  EXPECT_EQ(Policy, "ingest");
  EXPECT_EQ(A.Count, 3); // Flag and value consumed.

  Argv B({"train", "0.05"});
  Policy.clear();
  ASSERT_TRUE(
      cli::takeValueFlag(B.Count, B.Ptrs.data(), "--policy", Policy, Err));
  EXPECT_TRUE(Policy.empty()); // Absent: untouched.

  Argv C({"train", "0.05", "--policy"});
  EXPECT_FALSE(
      cli::takeValueFlag(C.Count, C.Ptrs.data(), "--policy", Policy, Err));
  EXPECT_FALSE(Err.empty());
}

TEST(CLIFlags, UnknownFlagsAreLeftForTheSubcommand) {
  Argv A({"serve", "--hosts", "8", "--exit-after-drain"});
  cli::GlobalOptions G;
  std::string Err;
  ASSERT_TRUE(cli::parseGlobalFlags(A.Count, A.Ptrs.data(), G, Err));
  EXPECT_EQ(A.Count, 5); // Untouched: serve parses these itself.
  EXPECT_STREQ(cli::firstFlag(A.Count, A.Ptrs.data()), "--hosts");

  unsigned long long Hosts = 32;
  ASSERT_TRUE(
      cli::takeUnsignedFlag(A.Count, A.Ptrs.data(), "--hosts", Hosts, Err));
  EXPECT_EQ(Hosts, 8u);
  EXPECT_TRUE(cli::takeBoolFlag(A.Count, A.Ptrs.data(), "--exit-after-drain"));
  EXPECT_FALSE(
      cli::takeBoolFlag(A.Count, A.Ptrs.data(), "--exit-after-drain"));
  EXPECT_EQ(cli::firstFlag(A.Count, A.Ptrs.data()), nullptr);
  EXPECT_EQ(A.Count, 2); // Just the subcommand name left.
}

TEST(CLIFlags, TakeUnsignedFlagLeavesDefaultWhenAbsent) {
  Argv A({"serve"});
  unsigned long long N = 123;
  std::string Err;
  ASSERT_TRUE(cli::takeUnsignedFlag(A.Count, A.Ptrs.data(), "--epochs", N,
                                    Err));
  EXPECT_EQ(N, 123u);
  Argv B({"serve", "--epochs", "oops"});
  EXPECT_FALSE(
      cli::takeUnsignedFlag(B.Count, B.Ptrs.data(), "--epochs", N, Err));
}

TEST(CLIFlags, FindSubcommandAndMinOperands) {
  EXPECT_EQ(cli::findSubcommand("nope"), nullptr);
  const cli::SubcommandInfo *Run = cli::findSubcommand("run");
  ASSERT_NE(Run, nullptr);
  EXPECT_EQ(Run->MinOperands, 2);
  EXPECT_FALSE(Run->LocalFlags); // The dispatcher rejects any --flag.
  const cli::SubcommandInfo *Bolt = cli::findSubcommand("bolt");
  ASSERT_NE(Bolt, nullptr);
  EXPECT_EQ(Bolt->MinOperands, 2);
  EXPECT_TRUE(Bolt->LocalFlags);
  const cli::SubcommandInfo *Serve = cli::findSubcommand("serve");
  ASSERT_NE(Serve, nullptr);
  EXPECT_TRUE(Serve->LocalFlags);
  const cli::SubcommandInfo *Train = cli::findSubcommand("train");
  ASSERT_NE(Train, nullptr);
  EXPECT_EQ(Train->MinOperands, 0);
  EXPECT_TRUE(Train->LocalFlags); // train parses --releases etc. itself.
}

//===----------------------------------------------------------------------===//
// The dispatcher: spellings the tool does not have, unknown workloads,
// scales that are not a finite number > 0 and scales whose request count
// does not fit an unsigned exit 2 with the usage, before any run starts.
//===----------------------------------------------------------------------===//

namespace {

/// Runs csspgo_exp with \p Args; returns its exit code, and its stdout and
/// stderr in \p Output.
int runTool(const std::string &Args, std::string &Output) {
  std::string Cmd = std::string(CSSPGO_EXP_BINARY) + " " + Args + " 2>&1";
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  size_t N = 0;
  while ((N = std::fread(Buf, 1, sizeof(Buf), P)) > 0)
    Output.append(Buf, N);
  int Status = pclose(P);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

} // namespace

TEST(CLIDispatch, UnknownSubcommandsAndRunFlagsExitWithUsage) {
  for (const char *Args : {"fleet", "fleet --epochs 1",
                           "run AdRanker csspgo 0.05 --mode trace",
                           "run AdRanker csspgo 0.05 --postlink",
                           "run Bogus csspgo 0.05", "run AdRanker csspgo -1",
                           "run AdRanker csspgo abc", "ir Bogus",
                           "run AdRanker csspgo 2e6", "ir AdRanker 1e300"}) {
    std::string Output;
    EXPECT_EQ(runTool(Args, Output), 2) << Args;
    EXPECT_NE(Output.find("usage:\n  csspgo_exp run"), std::string::npos)
        << Args << ":\n"
        << Output;
  }
}

// `convert` takes a text profile nested exactly MaxInlineeNesting (64)
// levels deep and refuses a deeper one with a message, however deep:
// 200,000 levels used to overflow the stack.
TEST(CLIConvert, NestingPastTheBoundFailsCleanly) {
  const std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("csspgo_cli_nesting_" + std::to_string(::getpid()));
  std::filesystem::create_directories(Dir);
  for (unsigned Levels : {64u, 65u, 200000u}) {
    // Empty inlinees, every line indented by one space, so the text grows
    // only linearly with the depth.
    std::string Text = "!kind: line\nmain:0:0\n";
    for (unsigned I = 0; I != Levels; ++I)
      Text += " 1: > f:0:0 {\n";
    for (unsigned I = 0; I != Levels; ++I)
      Text += " }\n";
    const std::filesystem::path In = Dir / "deep.txt";
    std::ofstream(In) << Text;
    std::string Output;
    int Exit = runTool("convert " + In.string() + " " +
                           (Dir / "deep.bin").string(),
                       Output);
    if (Levels == 64) {
      EXPECT_EQ(Exit, 0) << Output;
      continue;
    }
    EXPECT_EQ(Exit, 1) << Levels;
    EXPECT_NE(Output.find("is not a valid profile"), std::string::npos)
        << Levels << ":\n"
        << Output;
  }
  std::filesystem::remove_all(Dir);
}

// `convert` refuses a call-site line with no targets, which the store
// could not hold, and writes no store.
TEST(CLIConvert, EmptyCallSiteLineFailsCleanly) {
  const std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("csspgo_cli_emptysite_" + std::to_string(::getpid()));
  std::filesystem::create_directories(Dir);
  const std::filesystem::path In = Dir / "p.txt", Out = Dir / "p.bin";
  std::ofstream(In) << "!kind: line\nmain:10:1\n 1: 10\n 2: @\n";
  std::string Output;
  EXPECT_EQ(runTool("convert " + In.string() + " " + Out.string(), Output), 1);
  EXPECT_NE(Output.find("is not a valid profile"), std::string::npos)
      << Output;
  EXPECT_FALSE(std::filesystem::exists(Out));
  std::filesystem::remove_all(Dir);
}

// An exact-count (Instr) store keeps its flag through `convert` to text
// and back, so a later Instr epoch folds into the converted store under
// exact-count rules. Without the flag the fold checked head/call-edge
// conservation, which counter profiles do not obey, and failed. Text of
// any other profile carries no "!counts:" line.
TEST(CLIConvert, InstrStoreKeepsExactCountsThroughText) {
  const std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("csspgo_cli_instr_" + std::to_string(::getpid()));
  std::filesystem::create_directories(Dir);
  auto Path = [&Dir](const char *Name) { return (Dir / Name).string(); };
  auto Slurp = [](const std::string &File) {
    std::ifstream In(File, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(In), {});
  };
  // Entry counts as heads, and no call targets into either function.
  FlatProfile P;
  P.Kind = ProfileKind::LineBased;
  P.getOrCreate("main").addBody({1, 0}, 10);
  P.getOrCreate("main").HeadSamples = 1;
  P.getOrCreate("f").addBody({1, 0}, 4);
  P.getOrCreate("f").HeadSamples = 4;

  for (bool Exact : {true, false}) {
    std::ofstream(Path("i.bin"), std::ios::binary)
        << writeStore(flatViewOf(P), {{1, 14, 1000}}, {}, Exact);
    std::string Output;
    ASSERT_EQ(
        runTool("convert " + Path("i.bin") + " " + Path("i.txt"), Output), 0)
        << Output;
    std::string Text = Slurp(Path("i.txt"));
    EXPECT_EQ(Text.find("!counts: exact\n") != std::string::npos, Exact)
        << Text;
    EXPECT_EQ(Text.find("!counts:") != std::string::npos, Exact) << Text;
    ASSERT_EQ(
        runTool("convert " + Path("i.txt") + " " + Path("i2.bin"), Output), 0)
        << Output;
    std::string Bytes = Slurp(Path("i2.bin"));
    Expected<ProfileStore> S = ProfileStore::open(Bytes);
    ASSERT_TRUE(bool(S)) << S.status().message();
    EXPECT_EQ(S->isInstr(), Exact);
    ASSERT_EQ(
        runTool("convert " + Path("i2.bin") + " " + Path("i2.txt"), Output),
        0)
        << Output;
    EXPECT_EQ(Slurp(Path("i2.txt")), Text);
    if (!Exact)
      continue;
    IngestOptions IO;
    IO.DecayPermille = 500;
    IO.ExactCounts = true;
    IngestResult R = ingestEpoch(Bytes, flatViewOf(P), IO);
    EXPECT_TRUE(R.Ok) << R.Error;
  }
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// The README's "Benchmark environment knobs" table names every CSSPGO_*
// variable bench/ and tools/ read, and nothing else.
//===----------------------------------------------------------------------===//

namespace {

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

TEST(KnobSurface, ReadmeTableMatchesEveryGetenv) {
  const std::filesystem::path Root = CSSPGO_SOURCE_DIR;
  const std::regex Knob("CSSPGO_[A-Z0-9_]+");

  // The first column of each row of the table under the heading.
  std::set<std::string> Documented;
  std::istringstream Readme(readFile(Root / "README.md"));
  std::string Line;
  bool InSection = false;
  while (std::getline(Readme, Line)) {
    if (Line.rfind("## ", 0) == 0) {
      InSection = Line == "## Benchmark environment knobs";
      continue;
    }
    if (!InSection || Line.rfind("| ", 0) != 0)
      continue;
    std::string First = Line.substr(0, Line.find('|', 1));
    for (std::sregex_iterator It(First.begin(), First.end(), Knob), End;
         It != End; ++It)
      Documented.insert(It->str());
  }
  ASSERT_FALSE(Documented.empty()) << "knob table not found in README.md";

  const std::regex Getenv("getenv\\(\"(CSSPGO_[A-Z0-9_]+)\"\\)");
  std::set<std::string> Read;
  for (const char *Dir : {"bench", "tools"})
    for (const auto &Entry : std::filesystem::directory_iterator(Root / Dir)) {
      std::string Ext = Entry.path().extension().string();
      if (Ext != ".cpp" && Ext != ".h")
        continue;
      std::string Text = readFile(Entry.path());
      for (std::sregex_iterator It(Text.begin(), Text.end(), Getenv), End;
           It != End; ++It)
        Read.insert((*It)[1].str());
    }

  for (const std::string &K : Read)
    EXPECT_TRUE(Documented.count(K)) << K << " is read but not in the table";
  for (const std::string &K : Documented)
    EXPECT_TRUE(Read.count(K)) << K << " is in the table but read nowhere";
}
