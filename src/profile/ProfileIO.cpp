//===- profile/ProfileIO.cpp - Text profile (de)serialization -------------===//

#include "profile/ProfileIO.h"

#include <charconv>
#include <sstream>

namespace csspgo {

static void writeKey(std::ostringstream &OS, ProfileKey K) {
  OS << K.Index;
  if (K.Disc)
    OS << "." << K.Disc;
}

static void writeBody(std::ostringstream &OS, const FunctionProfile &P,
                      int Indent) {
  std::string Pad(Indent, ' ');
  if (P.Checksum) {
    OS << Pad << "!CFGChecksum: " << P.Checksum << "\n";
  }
  for (const auto &[K, N] : P.Body) {
    OS << Pad;
    writeKey(OS, K);
    OS << ": " << N << "\n";
  }
  for (const auto &[K, Targets] : P.Calls) {
    if (Targets.empty())
      continue; // A site without targets has no line (parseBodyLine).
    OS << Pad;
    writeKey(OS, K);
    OS << ": @";
    for (const auto &[Callee, N] : Targets)
      OS << " " << Callee << ":" << N;
    OS << "\n";
  }
  for (const auto &[K, Map] : P.Inlinees) {
    for (const auto &[Callee, Inlinee] : Map) {
      OS << Pad;
      writeKey(OS, K);
      OS << ": > " << Callee << ":" << Inlinee.TotalSamples << ":"
         << Inlinee.HeadSamples << " {\n";
      writeBody(OS, Inlinee, Indent + 1);
      OS << Pad << "}\n";
    }
  }
}

std::string serializeFlatProfile(const FlatProfile &Profile,
                                 bool ExactCounts) {
  std::ostringstream OS;
  OS << (Profile.Kind == ProfileKind::ProbeBased ? "!kind: probe\n"
                                                 : "!kind: line\n");
  if (ExactCounts)
    OS << "!counts: exact\n";
  for (const auto &[Name, P] : Profile.Functions) {
    OS << Name << ":" << P.TotalSamples << ":" << P.HeadSamples << "\n";
    writeBody(OS, P, 1);
  }
  return OS.str();
}

std::string serializeContextProfile(const ContextProfile &Profile) {
  std::ostringstream OS;
  OS << (Profile.Kind == ProfileKind::ProbeBased ? "!kind: probe\n"
                                                 : "!kind: line\n");
  Profile.forEachNode([&OS](const SampleContext &Ctx,
                            const ContextTrieNode &N) {
    const FunctionProfile &P = N.Profile;
    OS << contextToString(Ctx) << ":" << P.TotalSamples << ":"
       << P.HeadSamples << "\n";
    if (N.ShouldBeInlined)
      OS << " !ShouldBeInlined\n";
    writeBody(OS, P, 1);
  });
  return OS.str();
}

namespace {

/// A line-oriented cursor over the serialized text.
class LineReader {
public:
  explicit LineReader(const std::string &Text) : Text(Text) {}

  /// Reads the next line; returns false at end of input.
  bool next(std::string &Line) {
    if (Pos >= Text.size())
      return false;
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    return true;
  }

  void pushBack(const std::string &Line) {
    Pos -= Line.size() + 1;
  }

private:
  const std::string &Text;
  size_t Pos = 0;
};

size_t indentOf(const std::string &S) {
  size_t I = 0;
  while (I < S.size() && S[I] == ' ')
    ++I;
  return I;
}

/// Strict unsigned parse over [First, Last): all digits, no sign, no
/// leading/trailing junk, and the value must fit the type — a count field
/// overflowing uint64_t is corruption, not a number to clamp.
template <typename T>
bool parseUInt(const char *First, const char *Last, T &Out) {
  if (First == Last)
    return false;
  auto [Ptr, Ec] = std::from_chars(First, Last, Out, 10);
  return Ec == std::errc() && Ptr == Last;
}

template <typename T> bool parseUInt(const std::string &S, T &Out) {
  return parseUInt(S.data(), S.data() + S.size(), Out);
}

bool parseKey(const std::string &S, ProfileKey &K) {
  size_t Dot = S.find('.');
  const char *B = S.data();
  if (Dot == std::string::npos) {
    K.Disc = 0;
    return parseUInt(B, B + S.size(), K.Index);
  }
  return parseUInt(B, B + Dot, K.Index) &&
         parseUInt(B + Dot + 1, B + S.size(), K.Disc);
}

/// Parses one body line into \p P, which sits at inlinee nesting depth
/// \p Depth; an inlinee record recurses one level deeper.
bool parseBodyLine(LineReader &Reader, const std::string &Line,
                   FunctionProfile &P, unsigned Depth) {
  std::string S = Line.substr(indentOf(Line));
  if (S.rfind("!CFGChecksum: ", 0) == 0) {
    // The serializer emits at most one (nonzero) checksum line per
    // profile; a second one is corruption, not an update.
    if (P.Checksum)
      return false;
    return parseUInt(S.substr(14), P.Checksum);
  }
  if (S == "!ShouldBeInlined")
    return false; // The context parser consumes the attribute by peeking
                  // right after the header; reaching it here means it is
                  // duplicated or misplaced.
  size_t Colon = S.find(": ");
  if (Colon == std::string::npos)
    return false;
  ProfileKey K;
  if (!parseKey(S.substr(0, Colon), K))
    return false;
  std::string Rest = S.substr(Colon + 2);
  if (Rest.empty())
    return false;
  if (Rest[0] == '@') {
    // Call targets: "@ callee:count callee:count", at least one. A site
    // without targets has no form in a view or a store, so a text -> store
    // -> text round trip would drop it.
    if (P.Calls.count(K))
      return false; // One line per call site.
    auto &Targets = P.Calls[K];
    std::istringstream IS(Rest.substr(1));
    std::string Tok;
    while (IS >> Tok) {
      size_t C = Tok.rfind(':');
      if (C == std::string::npos || C == 0)
        return false;
      std::string Callee = Tok.substr(0, C);
      uint64_t Count;
      if (!parseUInt(Tok.data() + C + 1, Tok.data() + Tok.size(), Count))
        return false;
      if (!Targets.emplace(std::move(Callee), Count).second)
        return false; // Duplicate callee at one site.
    }
    return !Targets.empty();
  }
  if (Rest[0] == '>') {
    // Nested inlinee: "> callee:total:head {".
    size_t Brace = Rest.rfind('{');
    if (Brace == std::string::npos || Brace < 3 ||
        Brace != Rest.size() - 1 || Rest[1] != ' ' ||
        Rest[Brace - 1] != ' ')
      return false;
    std::string Header = Rest.substr(2, Brace - 3);
    size_t C2 = Header.rfind(':');
    if (C2 == std::string::npos || C2 == 0)
      return false;
    size_t C1 = Header.rfind(':', C2 - 1);
    if (C1 == std::string::npos || C1 == 0)
      return false;
    std::string Callee = Header.substr(0, C1);
    uint64_t Total, Head;
    if (!parseUInt(Header.data() + C1 + 1, Header.data() + C2, Total) ||
        !parseUInt(Header.data() + C2 + 1, Header.data() + Header.size(),
                   Head))
      return false;
    if (P.inlineeAt(K, Callee))
      return false; // Duplicate inlinee record.
    if (Depth >= MaxInlineeNesting)
      return false; // Nested deeper than any reader accepts.
    FunctionProfile &Inlinee = P.getOrCreateInlinee(K, Callee);
    Inlinee.HeadSamples = Head;
    // Body lines until the matching "}".
    std::string BodyLine;
    size_t MyIndent = indentOf(Line);
    while (Reader.next(BodyLine)) {
      std::string Trimmed = BodyLine.substr(indentOf(BodyLine));
      if (Trimmed == "}" && indentOf(BodyLine) == MyIndent)
        // Count conservation at parse time: the recorded total must match
        // the recomputed body sum, or the inlinee body was truncated or
        // tampered with.
        return Inlinee.TotalSamples == Total;
      if (!parseBodyLine(Reader, BodyLine, Inlinee, Depth + 1))
        return false;
    }
    return false; // Missing closing brace.
  }
  // Plain body count.
  if (P.Body.count(K))
    return false; // One line per key.
  uint64_t Count;
  if (!parseUInt(Rest, Count))
    return false;
  P.addBody(K, Count);
  return true;
}

/// Parses body lines at indentation > \p HeaderIndent into the top-level
/// profile \p P.
bool parseBody(LineReader &Reader, FunctionProfile &P, size_t HeaderIndent) {
  std::string Line;
  while (Reader.next(Line)) {
    if (Line.empty())
      continue;
    if (indentOf(Line) <= HeaderIndent) {
      Reader.pushBack(Line);
      return true;
    }
    if (!parseBodyLine(Reader, Line, P, 0))
      return false;
  }
  return true;
}

bool parseHeader(const std::string &Line, std::string &Name, uint64_t &Total,
                 uint64_t &Head) {
  // name:total:head — name may contain ':' (contexts), so split from the
  // right.
  size_t C2 = Line.rfind(':');
  if (C2 == std::string::npos || C2 == 0)
    return false;
  size_t C1 = Line.rfind(':', C2 - 1);
  if (C1 == std::string::npos || C1 == 0)
    return false;
  Name = Line.substr(0, C1);
  return parseUInt(Line.data() + C1 + 1, Line.data() + C2, Total) &&
         parseUInt(Line.data() + C2 + 1, Line.data() + Line.size(), Head);
}

/// "!kind: probe" / "!kind: line"; anything else under the "!kind: "
/// prefix is malformed.
bool parseKindLine(const std::string &Line, ProfileKind &Kind) {
  if (Line == "!kind: probe")
    Kind = ProfileKind::ProbeBased;
  else if (Line == "!kind: line")
    Kind = ProfileKind::LineBased;
  else
    return false;
  return true;
}

} // namespace

bool parseFlatProfile(const std::string &Text, FlatProfile &Out,
                      bool *ExactCounts) {
  LineReader Reader(Text);
  std::string Line;
  bool Exact = false;
  while (Reader.next(Line)) {
    if (Line.empty())
      continue;
    if (Line.rfind("!kind: ", 0) == 0) {
      if (!parseKindLine(Line, Out.Kind))
        return false;
      continue;
    }
    if (Line == "!counts: exact") {
      Exact = true;
      continue;
    }
    if (indentOf(Line) != 0)
      return false;
    std::string Name;
    uint64_t Total, Head;
    if (!parseHeader(Line, Name, Total, Head) || Name.empty())
      return false;
    if (Out.Functions.count(Name))
      return false; // The serializer emits each function exactly once.
    FunctionProfile &P = Out.getOrCreate(Name);
    P.HeadSamples = Head;
    if (!parseBody(Reader, P, 0))
      return false;
    // Count conservation at parse time: the header total is redundant
    // with the body sum, so a mismatch means truncated or edited input.
    if (P.TotalSamples != Total)
      return false;
  }
  if (ExactCounts)
    *ExactCounts = Exact;
  return true;
}

bool parseContextProfile(const std::string &Text, ContextProfile &Out) {
  LineReader Reader(Text);
  std::string Line;
  while (Reader.next(Line)) {
    if (Line.empty())
      continue;
    if (Line.rfind("!kind: ", 0) == 0) {
      if (!parseKindLine(Line, Out.Kind))
        return false;
      continue;
    }
    if (indentOf(Line) != 0)
      return false;
    std::string Name;
    uint64_t Total, Head;
    if (!parseHeader(Line, Name, Total, Head))
      return false;
    SampleContext Ctx;
    if (!contextFromString(Name, Ctx))
      return false;
    ContextTrieNode &N = Out.getOrCreateNode(Ctx);
    if (N.HasProfile)
      return false; // Duplicate context record.
    N.HasProfile = true;
    N.Profile.HeadSamples = Head;
    // Peek for the !ShouldBeInlined attribute.
    std::string Attr;
    if (Reader.next(Attr)) {
      if (Attr.substr(indentOf(Attr)) == "!ShouldBeInlined")
        N.ShouldBeInlined = true;
      else
        Reader.pushBack(Attr);
    }
    if (!parseBody(Reader, N.Profile, 0))
      return false;
    if (N.Profile.TotalSamples != Total)
      return false;
  }
  return true;
}

size_t profileSizeBytes(const FlatProfile &Profile) {
  return serializeFlatProfile(Profile).size();
}

size_t profileSizeBytes(const ContextProfile &Profile) {
  return serializeContextProfile(Profile).size();
}

} // namespace csspgo
