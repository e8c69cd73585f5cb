//===- profile/ProfileIO.h - Text profile (de)serialization -----*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Text serialization of flat and context-sensitive profiles, modeled on
/// LLVM's extended-text sample-profile format. Serialized size is also the
/// metric for the profile-size scalability experiment (§III-B: untrimmed
/// context-sensitive profiles can be ~10x larger).
///
/// Flat format (one function), after a "!kind: probe|line" line and, for
/// an exact-count (Instr) profile only, a "!counts: exact" line:
///   foo:TOTAL:HEAD
///    !CFGChecksum: 12345            (probe-based only)
///    IDX.DISC: COUNT
///    IDX.DISC: @ CALLEE:COUNT [CALLEE:COUNT ...]
///    IDX.DISC: > CALLEE:TOTAL:HEAD { ... nested body ... }
///
/// Context-sensitive format (one context per record):
///   [main:12 @ foo:3 @ bar]:TOTAL:HEAD
///    !CFGChecksum: 12345
///    !ShouldBeInlined              (pre-inliner decision)
///    IDX: COUNT
///    IDX: @ CALLEE:COUNT
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PROFILE_PROFILEIO_H
#define CSSPGO_PROFILE_PROFILEIO_H

#include "profile/ContextTrie.h"
#include "profile/FunctionProfile.h"

#include <string>

namespace csspgo {

/// \p ExactCounts marks an Instr (counter) profile with "!counts: exact";
/// any other profile's text has no such line.
std::string serializeFlatProfile(const FlatProfile &Profile,
                                 bool ExactCounts = false);
std::string serializeContextProfile(const ContextProfile &Profile);

/// Parses a flat profile; returns false on malformed input, inlinee
/// nesting deeper than MaxInlineeNesting included. \p ExactCounts, if
/// given, is set to whether the text carries "!counts: exact".
bool parseFlatProfile(const std::string &Text, FlatProfile &Out,
                      bool *ExactCounts = nullptr);

/// Parses a context-sensitive profile; returns false on malformed input,
/// inlinee nesting deeper than MaxInlineeNesting included.
bool parseContextProfile(const std::string &Text, ContextProfile &Out);

/// Serialized size in bytes (the scalability metric).
size_t profileSizeBytes(const FlatProfile &Profile);
size_t profileSizeBytes(const ContextProfile &Profile);

} // namespace csspgo

#endif // CSSPGO_PROFILE_PROFILEIO_H
