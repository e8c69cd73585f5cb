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
/// Flat format (one function):
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

std::string serializeFlatProfile(const FlatProfile &Profile);
std::string serializeContextProfile(const ContextProfile &Profile);

/// Parses a flat profile; returns false on malformed input, inlinee
/// nesting deeper than MaxInlineeNesting included.
bool parseFlatProfile(const std::string &Text, FlatProfile &Out);

/// Parses a context-sensitive profile; returns false on malformed input,
/// inlinee nesting deeper than MaxInlineeNesting included.
bool parseContextProfile(const std::string &Text, ContextProfile &Out);

/// Serialized size in bytes (the scalability metric).
size_t profileSizeBytes(const FlatProfile &Profile);
size_t profileSizeBytes(const ContextProfile &Profile);

} // namespace csspgo

#endif // CSSPGO_PROFILE_PROFILEIO_H
