//===- tools/ExpCLI.h - csspgo_exp CLI surface ------------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The csspgo_exp command-line surface as a library: the subcommand
/// table, the shared option-flag parser and the usage/help text
/// generators. Keeping it out of main() serves two purposes: every
/// subcommand parses the same flags the same way (they historically each
/// grew their own subset), and the help text is golden-testable
/// (tests/CLITest.cpp) so the documented surface cannot drift from the
/// dispatcher, which is driven by the same table.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_TOOLS_EXPCLI_H
#define CSSPGO_TOOLS_EXPCLI_H

#include "pgo/BuildPipeline.h"

#include <cstddef>
#include <string>

namespace csspgo {
namespace cli {

/// Options shared by every subcommand, stripped from argv before
/// dispatch. A flag a subcommand has no use for is simply unused — the
/// set parses uniformly everywhere.
struct GlobalOptions {
  /// -j/--parallelism: profile-generation shards, or serve's ingestion shards.
  unsigned Parallelism = 1;
  /// --format: profile transport for optimized builds.
  ProfileTransport Transport = ProfileTransport::InMemory;
  /// --compact: GUID name tables for written stores.
  bool CompactNames = false;
  /// --decay: ingest decay permille (1000 = plain merge).
  unsigned DecayPermille = 1000;
  /// --timestamp: ingest epoch timestamp.
  unsigned long long EpochTimestamp = 0;
  /// --json: machine-readable stats/dashboard output.
  bool JSON = false;
};

struct SubcommandInfo {
  const char *Name;
  const char *Operands; ///< Usage fragment after the name.
  const char *Help;     ///< One-liner for the usage table.
  int MinOperands;      ///< Required positionals after the name.
  /// Extra --help paragraph (subcommand-specific flags and semantics);
  /// null when the one-liner says it all.
  const char *Details;
  /// Subcommand parses its own --flags (dispatcher must not reject
  /// leftovers).
  bool LocalFlags;
};

/// The table, in display order. \p Count receives the entry count.
const SubcommandInfo *subcommands(size_t &Count);
/// Entry for \p Name, or null.
const SubcommandInfo *findSubcommand(const char *Name);

bool parseUnsigned(const char *S, unsigned long long &Out, int Base = 10);
bool parseTransport(const char *S, ProfileTransport &Out);

/// Strips the global flags from (argc, argv) into \p G, leaving
/// positionals and unrecognized --flags in place (subcommands with
/// LocalFlags consume those; the dispatcher rejects them otherwise).
/// Returns false with \p Err set on a malformed value.
bool parseGlobalFlags(int &argc, char **argv, GlobalOptions &G,
                      std::string &Err);

/// Consumes `--name <value>` from argv if present; false + Err on a bad
/// value. Absent flag leaves \p Out untouched and returns true.
bool takeUnsignedFlag(int &argc, char **argv, const char *Name,
                      unsigned long long &Out, std::string &Err);
/// Consumes `--name <value>` verbatim into \p Out; false + Err when the
/// flag is present without a value. Absent flag leaves \p Out untouched.
bool takeValueFlag(int &argc, char **argv, const char *Name,
                   std::string &Out, std::string &Err);
/// Consumes bare `--name` from argv; returns whether it was present.
bool takeBoolFlag(int &argc, char **argv, const char *Name);
/// First remaining `--flag` in argv, or null (leftover detection).
const char *firstFlag(int argc, char **argv);

/// Whole-tool usage text (the table plus the global options).
std::string usageText();
/// Per-subcommand `--help` text.
std::string helpText(const SubcommandInfo &S);
/// The global-options block shared by both of the above.
std::string globalOptionsText();

} // namespace cli
} // namespace csspgo

#endif // CSSPGO_TOOLS_EXPCLI_H
