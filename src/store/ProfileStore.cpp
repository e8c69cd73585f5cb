//===- store/ProfileStore.cpp - Binary profile store ------------------------===//

#include "store/ProfileStore.h"

#include "ir/Module.h"
#include "profile/ProfileSummary.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cstring>
#include <tuple>

namespace csspgo {

namespace {

/// Sentinel of a name the view being written never references.
constexpr uint32_t Unreferenced = ~uint32_t(0);

/// Marks in \p TableIdx every name record \p Rec references: call and
/// inlinee callees, recursively through nested inlinees.
void markReferencedNames(const ProfileArena &A, uint32_t Rec,
                         std::vector<uint32_t> &TableIdx) {
  const FuncRecord &R = A.Records[Rec];
  for (uint32_t I = R.CallsBegin; I != R.CallsEnd; ++I)
    TableIdx[A.Calls[I].Callee] = 0;
  for (uint32_t I = R.InlineesBegin; I != R.InlineesEnd; ++I) {
    TableIdx[A.Inlinees[I].Callee] = 0;
    markReferencedNames(A, A.Inlinees[I].Rec, TableIdx);
  }
}

template <typename Slot>
uint64_t numKeyRuns(const std::vector<Slot> &Slots, uint32_t Begin,
                    uint32_t End) {
  uint64_t N = 0;
  for (uint32_t I = Begin; I != End; I = keyRunEnd(Slots, I, End))
    ++N;
  return N;
}

/// Encodes record \p Rec straight from its arena slices, which are in the
/// canonical (key, callee name) order the reader requires. \p TableIdx
/// maps a name id to its string-table index.
void encodeRecord(ByteWriter &W, const ProfileArena &A, uint32_t Rec,
                  const std::vector<uint32_t> &TableIdx) {
  const FuncRecord &R = A.Records[Rec];
  W.uleb(R.TotalSamples);
  W.uleb(R.HeadSamples);
  W.uleb(R.BodyEnd - R.BodyBegin);
  for (uint32_t I = R.BodyBegin; I != R.BodyEnd; ++I) {
    W.uleb(A.Body[I].Key.Index);
    W.uleb(A.Body[I].Key.Disc);
    W.uleb(A.Body[I].Count);
  }
  W.uleb(numKeyRuns(A.Calls, R.CallsBegin, R.CallsEnd));
  for (uint32_t I = R.CallsBegin; I != R.CallsEnd;) {
    uint32_t End = keyRunEnd(A.Calls, I, R.CallsEnd);
    W.uleb(A.Calls[I].Key.Index);
    W.uleb(A.Calls[I].Key.Disc);
    W.uleb(End - I);
    for (; I != End; ++I) {
      W.uleb(TableIdx[A.Calls[I].Callee]);
      W.uleb(A.Calls[I].Count);
    }
  }
  W.uleb(numKeyRuns(A.Inlinees, R.InlineesBegin, R.InlineesEnd));
  for (uint32_t I = R.InlineesBegin; I != R.InlineesEnd;) {
    uint32_t End = keyRunEnd(A.Inlinees, I, R.InlineesEnd);
    W.uleb(A.Inlinees[I].Key.Index);
    W.uleb(A.Inlinees[I].Key.Disc);
    W.uleb(End - I);
    for (; I != End; ++I) {
      const FuncRecord &Sub = A.Records[A.Inlinees[I].Rec];
      W.uleb(TableIdx[A.Inlinees[I].Callee]);
      W.uleb(Sub.Guid);
      W.uleb(Sub.Checksum);
      encodeRecord(W, A, A.Inlinees[I].Rec, TableIdx);
    }
  }
}

constexpr NameId InvalidNameId = ~NameId(0);

/// Lazily maps store string-table indices to arena name ids, interning a
/// name the first time a record references it. A module-scoped lazy load
/// then interns O(names referenced), not O(string table). Arena ids are
/// therefore NOT name-ordered — which is fine: the view merges remap
/// every part through a name-sorted output interner, and the in-record
/// slice order is validated on the store indices (sorted-unique table, so
/// ascending index IS ascending name).
struct NameMapper {
  const std::vector<std::string_view> &Names;
  NameInterner &Interner;
  std::vector<NameId> &Map;

  NameId operator()(uint64_t Idx) {
    NameId &Slot = Map[Idx];
    if (Slot == InvalidNameId)
      Slot = Interner.intern(Names[Idx]);
    return Slot;
  }
};

/// The store's one record decoder: cursors one payload tile straight into
/// an arena — body/call slots append to the pools, inlinee children
/// recurse through a temporary so the parent's inline slice stays
/// contiguous. Every slice must be strictly ascending — the canonical
/// order every writer emits (std::map iteration), and what lets merges
/// run on the slices without re-sorting.
bool decodeRecordView(ByteReader &R, ProfileArena &A, NameMapper &NM,
                      unsigned Depth, uint32_t &RecOut, std::string &Err) {
  if (Depth > MaxInlineeNesting) {
    Err = "inlinee nesting exceeds depth limit";
    return false;
  }
  FuncRecord Rec;
  uint64_t NBody, NCalls, NInl, Idx, Disc, N;
  if (!R.uleb(Rec.TotalSamples) || !R.uleb(Rec.HeadSamples) ||
      !R.uleb(NBody)) {
    Err = "truncated record header";
    return false;
  }
  Rec.BodyBegin = static_cast<uint32_t>(A.Body.size());
  for (uint64_t I = 0; I != NBody; ++I) {
    if (!R.uleb(Idx) || !R.uleb(Disc) || !R.uleb(N) || Idx > UINT32_MAX ||
        Disc > UINT32_MAX) {
      Err = "malformed body entry";
      return false;
    }
    ProfileKey K(static_cast<uint32_t>(Idx), static_cast<uint32_t>(Disc));
    if (I && !(A.Body.back().Key < K)) {
      Err = "body entries not in ascending key order";
      return false;
    }
    A.Body.push_back({K, N});
  }
  Rec.BodyEnd = static_cast<uint32_t>(A.Body.size());
  if (!R.uleb(NCalls)) {
    Err = "truncated call-site count";
    return false;
  }
  Rec.CallsBegin = static_cast<uint32_t>(A.Calls.size());
  ProfileKey PrevSite;
  for (uint64_t I = 0; I != NCalls; ++I) {
    uint64_t NTargets;
    if (!R.uleb(Idx) || !R.uleb(Disc) || !R.uleb(NTargets) ||
        Idx > UINT32_MAX || Disc > UINT32_MAX) {
      Err = "malformed call site";
      return false;
    }
    ProfileKey K(static_cast<uint32_t>(Idx), static_cast<uint32_t>(Disc));
    if (I && !(PrevSite < K)) {
      Err = "call sites not in ascending key order";
      return false;
    }
    PrevSite = K;
    uint64_t PrevName = 0;
    for (uint64_t T = 0; T != NTargets; ++T) {
      uint64_t NameIdx;
      if (!R.uleb(NameIdx) || !R.uleb(N) || NameIdx >= NM.Map.size()) {
        Err = "malformed call target";
        return false;
      }
      if (T && NameIdx <= PrevName) {
        Err = "call targets not in ascending name order";
        return false;
      }
      PrevName = NameIdx;
      A.Calls.push_back({K, NM(NameIdx), N});
    }
  }
  Rec.CallsEnd = static_cast<uint32_t>(A.Calls.size());
  if (!R.uleb(NInl)) {
    Err = "truncated inline-site count";
    return false;
  }
  std::vector<InlineSlot> Tmp;
  ProfileKey PrevISite;
  for (uint64_t I = 0; I != NInl; ++I) {
    uint64_t NCallees;
    if (!R.uleb(Idx) || !R.uleb(Disc) || !R.uleb(NCallees) ||
        Idx > UINT32_MAX || Disc > UINT32_MAX) {
      Err = "malformed inline site";
      return false;
    }
    ProfileKey K(static_cast<uint32_t>(Idx), static_cast<uint32_t>(Disc));
    if (I && !(PrevISite < K)) {
      Err = "inline sites not in ascending key order";
      return false;
    }
    PrevISite = K;
    uint64_t PrevName = 0;
    for (uint64_t C = 0; C != NCallees; ++C) {
      uint64_t NameIdx, Guid, Checksum;
      if (!R.uleb(NameIdx) || !R.uleb(Guid) || !R.uleb(Checksum) ||
          NameIdx >= NM.Map.size()) {
        Err = "malformed inlinee";
        return false;
      }
      if (C && NameIdx <= PrevName) {
        Err = "inlinees not in ascending name order";
        return false;
      }
      PrevName = NameIdx;
      uint32_t Child;
      if (!decodeRecordView(R, A, NM, Depth + 1, Child, Err))
        return false;
      NameId CN = NM(NameIdx);
      FuncRecord &CR = A.Records[Child];
      CR.Name = CN;
      CR.Guid = Guid;
      CR.Checksum = Checksum;
      Tmp.push_back({K, CN, Child});
    }
  }
  Rec.InlineesBegin = static_cast<uint32_t>(A.Inlinees.size());
  A.Inlinees.insert(A.Inlinees.end(), Tmp.begin(), Tmp.end());
  Rec.InlineesEnd = static_cast<uint32_t>(A.Inlinees.size());
  RecOut = static_cast<uint32_t>(A.Records.size());
  A.Records.push_back(Rec);
  return true;
}

/// Trie-DFS order over context frame slices: lexicographic on the path
/// keys [(0, F0), (S0, F1), (S1, F2), ...], prefixes first — exactly the
/// (site, callee) child order ContextProfile::forEachNode visits in.
/// Callee frames compare as strings: with lazy interning the arena ids
/// follow first-reference order, not name order, so id comparison would
/// not be name comparison.
int compareContextFrames(const ProfileArena &A, const ContextRecord &X,
                         const ContextRecord &Y) {
  uint32_t LX = X.FramesEnd - X.FramesBegin;
  uint32_t LY = Y.FramesEnd - Y.FramesBegin;
  uint32_t L = std::min(LX, LY);
  for (uint32_t I = 0; I != L; ++I) {
    uint32_t SX = I ? A.Frames[X.FramesBegin + I - 1].Site : 0;
    uint32_t SY = I ? A.Frames[Y.FramesBegin + I - 1].Site : 0;
    if (SX != SY)
      return SX < SY ? -1 : 1;
    NameId FX = A.Frames[X.FramesBegin + I].Func;
    NameId FY = A.Frames[Y.FramesBegin + I].Func;
    if (FX != FY) {
      int C = A.Names.name(FX).compare(A.Names.name(FY));
      if (C != 0)
        return C < 0 ? -1 : 1;
    }
  }
  if (LX != LY)
    return LX < LY ? -1 : 1;
  return 0;
}

Status notOneFrameBlock() {
  return Status::error("flat store block is not one one-frame context with "
                       "flags 0");
}

/// Non-compact layout: u32 count, count u32 cumulative end offsets, then
/// the concatenated name blob — every name is random-accessible, so
/// open() builds its views with plain word loads instead of a varint
/// walk over the whole table. Compact layout: u32 count + count u64
/// GUIDs. The table is emitted sorted-unique (writeStore sorts the names
/// it references); findFunction's binary search and the canonical
/// "ascending index is ascending name" record order stand on that, and
/// open() rejects a non-compact table that breaks it.
std::string encodeStringTable(const std::vector<std::string_view> &Strings,
                              bool Compact) {
  ByteWriter W;
  W.u32(static_cast<uint32_t>(Strings.size()));
  if (Compact) {
    for (std::string_view S : Strings)
      W.u64(computeFunctionGuid(S));
    return W.take();
  }
  uint32_t End = 0;
  for (std::string_view S : Strings) {
    End += static_cast<uint32_t>(S.size());
    W.u32(End);
  }
  for (std::string_view S : Strings)
    W.bytes(S);
  return W.take();
}

std::string encodeEpochTable(const std::vector<EpochInfo> &Epochs) {
  ByteWriter W;
  W.uleb(Epochs.size());
  for (const EpochInfo &E : Epochs) {
    W.uleb(E.Timestamp);
    W.uleb(E.TotalSamples);
    W.uleb(E.DecayPermille);
  }
  return W.take();
}

std::string encodeSummary(std::vector<uint64_t> Counts) {
  std::sort(Counts.rbegin(), Counts.rend());
  ByteWriter W;
  std::vector<std::pair<uint64_t, uint64_t>> Dist;
  for (uint64_t C : Counts) {
    if (!Dist.empty() && Dist.back().first == C)
      ++Dist.back().second;
    else
      Dist.push_back({C, 1});
  }
  W.uleb(Dist.size());
  for (const auto &[Value, Mult] : Dist) {
    W.uleb(Value);
    W.uleb(Mult);
  }
  return W.take();
}

struct IndexEntryW {
  uint32_t NameIdx;
  uint64_t Offset;
  uint64_t Size;
  uint64_t Total;
  uint64_t Head;
};

/// Fixed 36-byte entries (u32 name index + four u64s), no count prefix —
/// the count is the section size over 36. Fixed width costs bytes
/// relative to varints but lets open() decode the index with straight
/// word loads, which is what keeps the zero-copy open O(bytes) with a
/// tiny constant.
std::string encodeFuncIndex(const std::vector<IndexEntryW> &Entries) {
  ByteWriter W;
  for (const IndexEntryW &E : Entries) {
    W.u32(E.NameIdx);
    W.u64(E.Offset);
    W.u64(E.Size);
    W.u64(E.Total);
    W.u64(E.Head);
  }
  return W.take();
}

/// Lays out header + section table + payloads and patches in the content
/// hash over everything after the hash field itself.
std::string
assembleStore(uint8_t Flags,
              const std::vector<std::pair<StoreSection, std::string>> &Secs) {
  ByteWriter W;
  W.bytes(std::string_view(StoreMagic, sizeof(StoreMagic)));
  W.u16(StoreVersion);
  W.u8(Flags);
  W.u8(0); // reserved
  W.u64(0); // content hash, patched below
  W.u32(static_cast<uint32_t>(Secs.size()));
  uint64_t Off = StoreHeaderSize + Secs.size() * StoreSectionEntrySize;
  for (const auto &[Id, Body] : Secs) {
    W.u32(static_cast<uint32_t>(Id));
    W.u32(0);
    W.u64(Off);
    W.u64(Body.size());
    Off += Body.size();
  }
  for (const auto &[Id, Body] : Secs)
    W.bytes(Body);
  std::string Out = W.take();
  uint64_t Hash = hashStoreBytes(std::string_view(Out).substr(16));
  for (int I = 0; I != 8; ++I)
    Out[8 + I] = static_cast<char>(Hash >> (8 * I));
  return Out;
}

const char *sectionName(StoreSection S) {
  switch (S) {
  case StoreSection::StringTable:
    return "string-table";
  case StoreSection::EpochTable:
    return "epoch-table";
  case StoreSection::FuncIndex:
    return "func-index";
  case StoreSection::CSPayload:
    return "cs-payload";
  case StoreSection::Summary:
    return "summary";
  }
  return nullptr; // Unknown (or retired) section id.
}

} // namespace

std::string writeStore(const ContextProfileView &V,
                       const std::vector<EpochInfo> &Epochs,
                       const StoreWriteOptions &Opts, bool ExactCounts) {
  const ProfileArena &A = V.Arena;
  // The string table holds the sorted, unique names the view references —
  // not the whole interner, which may hold names a merge or a lazy load
  // no longer reaches.
  std::vector<uint32_t> TableIdx(A.Names.size(), Unreferenced);
  for (const ContextRecord &C : V.Contexts) {
    for (uint32_t F = C.FramesBegin; F != C.FramesEnd; ++F)
      TableIdx[A.Frames[F].Func] = 0;
    markReferencedNames(A, C.Rec, TableIdx);
  }
  std::vector<NameId> Referenced;
  for (NameId Id = 0; Id != TableIdx.size(); ++Id)
    if (TableIdx[Id] != Unreferenced)
      Referenced.push_back(Id);
  std::sort(Referenced.begin(), Referenced.end(), [&A](NameId X, NameId Y) {
    return A.Names.name(X) < A.Names.name(Y);
  });
  std::vector<std::string_view> Strings;
  for (NameId Id : Referenced) {
    TableIdx[Id] = static_cast<uint32_t>(Strings.size());
    Strings.push_back(A.Names.name(Id));
  }

  // Every function is one payload block of the contexts it is the leaf
  // of (the unit of lazy loading), in name order; the stable sort keeps
  // the view's trie-DFS order within a block. A flat view's block is its
  // one one-frame context.
  auto LeafOf = [&](uint32_t C) {
    return TableIdx[A.Frames[V.Contexts[C].FramesEnd - 1].Func];
  };
  std::vector<uint32_t> Order(V.Contexts.size());
  for (uint32_t C = 0; C != Order.size(); ++C)
    Order[C] = C;
  std::stable_sort(Order.begin(), Order.end(), [&](uint32_t X, uint32_t Y) {
    return LeafOf(X) < LeafOf(Y);
  });

  // Each context is a frame list, a node header {flags, Guid, Checksum}
  // and the record; the index entry's total and head are the saturating
  // sums over the block.
  ByteWriter Payload;
  std::vector<IndexEntryW> Entries;
  for (size_t I = 0; I != Order.size();) {
    uint32_t Leaf = LeafOf(Order[I]);
    size_t End = I;
    while (End != Order.size() && LeafOf(Order[End]) == Leaf)
      ++End;
    uint64_t Off = Payload.size();
    uint64_t Total = 0, Head = 0;
    Payload.uleb(End - I);
    for (; I != End; ++I) {
      const ContextRecord &C = V.Contexts[Order[I]];
      const FuncRecord &R = A.Records[C.Rec];
      Payload.uleb(C.FramesEnd - C.FramesBegin);
      for (uint32_t F = C.FramesBegin; F != C.FramesEnd; ++F) {
        Payload.uleb(TableIdx[A.Frames[F].Func]);
        Payload.uleb(A.Frames[F].Site);
      }
      Payload.u8(C.ShouldBeInlined ? 1 : 0);
      Payload.uleb(R.Guid);
      Payload.uleb(R.Checksum);
      encodeRecord(Payload, A, C.Rec, TableIdx);
      Total = saturatingAdd(Total, R.TotalSamples);
      Head = saturatingAdd(Head, R.HeadSamples);
    }
    Entries.push_back({Leaf, Off, Payload.size() - Off, Total, Head});
  }

  uint8_t Flags = (V.Kind == ProfileKind::ProbeBased ? SF_ProbeBased : 0) |
                  (V.IsCS ? SF_ContextSensitive : 0) |
                  (ExactCounts ? SF_ExactCounts : 0) |
                  (Opts.CompactNames ? SF_CompactNames : 0);
  return assembleStore(
      Flags,
      {{StoreSection::StringTable,
        encodeStringTable(Strings, Opts.CompactNames)},
       {StoreSection::EpochTable, encodeEpochTable(Epochs)},
       {StoreSection::FuncIndex, encodeFuncIndex(Entries)},
       {StoreSection::CSPayload, Payload.take()},
       {StoreSection::Summary, encodeSummary(hotCountDistribution(V))}});
}

std::string_view ProfileStore::section(StoreSection S) const {
  const SectionRef &Ref = Sections[static_cast<uint32_t>(S)];
  if (!Ref.Present)
    return {};
  return data().substr(Ref.Offset, Ref.Size);
}

bool ProfileStore::decodeSections(std::string &Err) {
  std::string_view Bytes = data();
  ByteReader Header(Bytes);
  std::string_view Magic;
  uint16_t Version;
  uint8_t Reserved;
  uint32_t NumSections;
  uint64_t Hash;
  if (!Header.bytes(sizeof(StoreMagic), Magic) ||
      std::memcmp(Magic.data(), StoreMagic, sizeof(StoreMagic)) != 0) {
    Err = "not a profile store (bad magic)";
    return false;
  }
  if (!Header.u16(Version) || Version != StoreVersion) {
    Err = "unsupported store version";
    return false;
  }
  if (!Header.u8(Flags) || (Flags & ~StoreKnownFlags)) {
    Err = "unknown flag bits";
    return false;
  }
  if (!Header.u8(Reserved) || Reserved != 0) {
    Err = "nonzero reserved header byte";
    return false;
  }
  if (!Header.u64(Hash) || Hash != hashStoreBytes(Bytes.substr(16))) {
    Err = "content hash mismatch (truncated or corrupted store)";
    return false;
  }
  if (!Header.u32(NumSections) || NumSections > 64) {
    Err = "malformed section count";
    return false;
  }
  uint64_t DataStart =
      StoreHeaderSize + uint64_t(NumSections) * StoreSectionEntrySize;
  if (DataStart > Bytes.size()) {
    Err = "section table past end of store";
    return false;
  }
  for (uint32_t I = 0; I != NumSections; ++I) {
    uint32_t Id, Pad;
    uint64_t Off, Size;
    if (!Header.u32(Id) || !Header.u32(Pad) || !Header.u64(Off) ||
        !Header.u64(Size)) {
      Err = "truncated section table";
      return false;
    }
    if (Off < DataStart || Size > Bytes.size() || Off > Bytes.size() - Size) {
      Err = "section bounds outside store";
      return false;
    }
    if (!sectionName(static_cast<StoreSection>(Id)))
      continue; // Unknown section: skip (forward compatibility).
    if (Sections[Id].Present) {
      Err = "duplicate section";
      return false;
    }
    Sections[Id] = {Off, Size, true};
  }

  auto Required = [&](StoreSection S) {
    if (!Sections[static_cast<uint32_t>(S)].Present) {
      Err = std::string("missing required section: ") + sectionName(S);
      return false;
    }
    return true;
  };
  if (!Required(StoreSection::StringTable) ||
      !Required(StoreSection::EpochTable) ||
      !Required(StoreSection::FuncIndex) || !Required(StoreSection::Summary) ||
      !Required(StoreSection::CSPayload))
    return false;

  // String table: u32 count, then either u64 GUIDs (compact) or u32
  // cumulative end offsets followed by the concatenated name blob.
  {
    std::string_view Sec = section(StoreSection::StringTable);
    if (Sec.size() < 4) {
      Err = "malformed string table";
      return false;
    }
    uint32_t Count = loadStoreWord32(Sec.data());
    if (compactNames()) {
      if (Sec.size() != 4 + 8ull * Count) {
        Err = "truncated compact string table";
        return false;
      }
      Names.reserve(Count);
      for (uint32_t I = 0; I != Count; ++I) {
        uint64_t Guid = loadStoreWord(Sec.data() + 4 + 8ull * I);
        NameGuids.push_back(Guid);
        NameStorage.push_back("guid." + std::to_string(Guid));
        Names.push_back(NameStorage.back());
      }
    } else {
      if (Sec.size() < 4 + 4ull * Count) {
        Err = "truncated string table";
        return false;
      }
      // Zero-copy: every entry stays a view into the container bytes —
      // open() allocates nothing per name. Pre-sized index writes,
      // not push_back + substr: the bounds checks inside substr and the
      // grow branch in push_back defeat the compiler here and cost ~7x on
      // this loop, which open() pays on every store.
      std::string_view Blob = Sec.substr(4 + 4ull * Count);
      Names.resize(Count);
      // Sorted-unique is required, not assumed: findFunction's binary
      // search and the canonical "ascending index is ascending name"
      // record order stand on it, and the view merges assert that order.
      uint32_t Prev = 0;
      for (uint32_t I = 0; I != Count; ++I) {
        uint32_t End = loadStoreWord32(Sec.data() + 4 + 4ull * I);
        if (End < Prev || End > Blob.size()) {
          Err = "malformed string table offsets";
          return false;
        }
        Names[I] = std::string_view(Blob.data() + Prev, End - Prev);
        Prev = End;
        if (I && !(Names[I - 1] < Names[I])) {
          Err = "string table not in strictly ascending order";
          return false;
        }
      }
      if (Prev != Blob.size()) {
        Err = "trailing bytes in string table";
        return false;
      }
    }
  }

  // Epoch table.
  {
    ByteReader R(section(StoreSection::EpochTable));
    uint64_t Count;
    if (!R.uleb(Count)) {
      Err = "malformed epoch table";
      return false;
    }
    for (uint64_t I = 0; I != Count; ++I) {
      EpochInfo E;
      uint64_t Decay;
      if (!R.uleb(E.Timestamp) || !R.uleb(E.TotalSamples) ||
          !R.uleb(Decay) || Decay > 1000) {
        Err = "malformed epoch entry";
        return false;
      }
      E.DecayPermille = static_cast<uint32_t>(Decay);
      Epochs.push_back(E);
    }
    if (!R.done()) {
      Err = "trailing bytes in epoch table";
      return false;
    }
  }

  // Function index: entries must tile the payload section exactly.
  uint64_t PayloadSize =
      Sections[static_cast<uint32_t>(StoreSection::CSPayload)].Size;
  {
    std::string_view Sec = section(StoreSection::FuncIndex);
    constexpr size_t EntryBytes = 36; // u32 name + 4 x u64
    if (Sec.size() % EntryBytes != 0) {
      Err = "malformed function index";
      return false;
    }
    size_t Count = Sec.size() / EntryBytes;
    Index.resize(Count);
    uint64_t Expected = 0;
    for (size_t I = 0; I != Count; ++I) {
      const char *P = Sec.data() + I * EntryBytes;
      IndexEntry &E = Index[I];
      E.NameIdx = loadStoreWord32(P);
      E.Offset = loadStoreWord(P + 4);
      E.Size = loadStoreWord(P + 12);
      E.Total = loadStoreWord(P + 20);
      E.Head = loadStoreWord(P + 28);
      if (E.NameIdx >= Names.size()) {
        Err = "malformed index entry";
        return false;
      }
      if (I && E.NameIdx <= Index[I - 1].NameIdx) {
        Err = "index entries not in ascending name order";
        return false;
      }
      if (E.Offset != Expected || E.Size > PayloadSize - E.Offset) {
        Err = "index entries do not tile the payload";
        return false;
      }
      Expected = E.Offset + E.Size;
    }
    if (Expected != PayloadSize) {
      Err = "payload bytes not covered by the index";
      return false;
    }
  }

  // Summary distribution: strictly descending values, positive counts.
  {
    ByteReader R(section(StoreSection::Summary));
    uint64_t Count;
    if (!R.uleb(Count)) {
      Err = "malformed summary";
      return false;
    }
    for (uint64_t I = 0; I != Count; ++I) {
      uint64_t Value, Mult;
      if (!R.uleb(Value) || !R.uleb(Mult) || Mult == 0 ||
          (!Distribution.empty() && Value >= Distribution.back().first)) {
        Err = "malformed summary distribution";
        return false;
      }
      Distribution.push_back({Value, Mult});
    }
    if (!R.done()) {
      Err = "trailing bytes in summary";
      return false;
    }
  }
  return true;
}

Expected<ProfileStore> ProfileStore::open(std::string Bytes) {
  ProfileStore S;
  S.Owned = std::move(Bytes);
  std::string Err;
  if (!S.decodeSections(Err))
    return Status::error(Err);
  return S;
}

Expected<ProfileStore> ProfileStore::openBorrowed(std::string_view Bytes) {
  ProfileStore S;
  S.Borrowed = Bytes;
  std::string Err;
  if (!S.decodeSections(Err))
    return Status::error(Err);
  return S;
}

std::vector<std::pair<std::string, size_t>> ProfileStore::sectionSizes() const {
  std::vector<std::pair<std::string, size_t>> Out;
  for (uint32_t I = 1; I != 8; ++I)
    if (Sections[I].Present)
      Out.push_back({sectionName(static_cast<StoreSection>(I)),
                     static_cast<size_t>(Sections[I].Size)});
  return Out;
}

std::vector<std::tuple<std::string, uint64_t, uint64_t>>
ProfileStore::sectionLayout() const {
  std::vector<std::tuple<std::string, uint64_t, uint64_t>> Out;
  for (uint32_t I = 1; I != 8; ++I)
    if (Sections[I].Present)
      Out.push_back({sectionName(static_cast<StoreSection>(I)),
                     Sections[I].Offset, Sections[I].Size});
  std::sort(Out.begin(), Out.end(), [](const auto &A, const auto &B) {
    return std::get<1>(A) < std::get<1>(B);
  });
  return Out;
}

std::string_view ProfileStore::functionName(size_t I) const {
  return Names[Index[I].NameIdx];
}

std::pair<uint64_t, uint64_t> ProfileStore::functionTile(size_t I) const {
  uint64_t Payload = Sections[static_cast<uint32_t>(StoreSection::CSPayload)]
                         .Offset;
  return {Payload + Index[I].Offset, Index[I].Size};
}

uint64_t ProfileStore::totalSamples() const {
  uint64_t Total = 0;
  for (const IndexEntry &E : Index)
    Total = saturatingAdd(Total, E.Total);
  return Total;
}

int ProfileStore::findFunction(const std::string &Name) const {
  if (compactNames()) {
    // Compact/resolved names are not in table order, so they get a map,
    // built on first use to keep open() off the O(N log N) path.
    if (NameToFunc.empty())
      for (uint32_t I = 0; I != Index.size(); ++I)
        NameToFunc[Names[Index[I].NameIdx]] = I;
    auto It = NameToFunc.find(Name);
    return It == NameToFunc.end() ? -1 : static_cast<int>(It->second);
  }
  // The index is name-sorted (open() checks both the string table and
  // the index order), so lookup is a binary search over borrowed views —
  // no side tables, nothing built up front.
  auto It = std::lower_bound(
      Index.begin(), Index.end(), std::string_view(Name),
      [this](const IndexEntry &E, std::string_view N) {
        return Names[E.NameIdx] < N;
      });
  if (It == Index.end() || Names[It->NameIdx] != Name)
    return -1;
  return static_cast<int>(It - Index.begin());
}

void ProfileStore::resolveNames(const Module &M) {
  if (!compactNames())
    return;
  std::map<uint64_t, const std::string *> ByGuid;
  for (const auto &F : M.Functions)
    ByGuid[F->getGuid()] = &F->getName();
  for (size_t I = 0; I != Names.size(); ++I) {
    auto It = ByGuid.find(NameGuids[I]);
    if (It != ByGuid.end()) {
      // Copy the module's name: the Module need not outlive the store.
      NameStorage.push_back(*It->second);
      Names[I] = NameStorage.back();
    }
  }
  NameToFunc.clear();
}

Expected<ContextProfileView> ProfileStore::loadView() const {
  StoreViewLoader L(*this);
  for (size_t I = 0; I != Index.size(); ++I)
    if (Status S = L.load(I); !S.ok())
      return S;
  ContextProfileView V = L.take();
  // Context blocks are grouped per leaf function (the lazy-load unit), so
  // the concatenation is DFS-ordered only within each block. Restore the
  // global trie-DFS order the view contract requires. A flat view's
  // one-frame contexts already follow the (name-sorted) index.
  const ProfileArena &A = V.Arena;
  if (V.IsCS)
    std::sort(V.Contexts.begin(), V.Contexts.end(),
              [&A](const ContextRecord &X, const ContextRecord &Y) {
                return compareContextFrames(A, X, Y) < 0;
              });
  return V;
}

uint64_t ProfileStore::hotThreshold(double Cutoff) const {
  std::vector<uint64_t> Counts;
  for (const auto &[Value, Mult] : Distribution)
    for (uint64_t I = 0; I != Mult; ++I)
      Counts.push_back(Value);
  return summaryThreshold(std::move(Counts), Cutoff);
}

StoreViewLoader::StoreViewLoader(const ProfileStore &S) : S(S) {
  V.Kind = S.kind();
  V.IsCS = S.isCS();
  NameMap.assign(S.Names.size(), InvalidNameId);
}

Status StoreViewLoader::load(size_t I) {
  const ProfileStore::IndexEntry &E = S.Index[I];
  NameMapper NM{S.Names, V.Arena.Names, NameMap};
  ByteReader R(S.section(StoreSection::CSPayload).substr(E.Offset, E.Size));
  // A tile is a block of contexts, each with its frames and a node header.
  // The one shape rule: a flat store's block is one context of one frame
  // with flags 0 — the function, as flatViewOf emits it.
  uint64_t NContexts;
  if (!R.uleb(NContexts))
    return Status::error("malformed context block");
  if (!V.IsCS && NContexts != 1)
    return notOneFrameBlock();
  // The block's contexts must be strictly ascending in trie-DFS order —
  // what the writer emits, and what rules out a repeated context, which
  // the view merge would otherwise meet as an out-of-order input. Each
  // context's path keys [(0, F0), (S0, F1), ...] compare as a vector:
  // compareContextFrames's order, decided on store string indices, which
  // ascend with names (the writer emits a sorted-unique table) even where
  // a compact store's "guid.<n>" placeholders do not.
  std::vector<std::pair<uint64_t, uint64_t>> Prev, Cur;
  uint64_t Total = 0, Head = 0;
  for (uint64_t C = 0; C != NContexts; ++C) {
    ContextRecord CR;
    CR.FramesBegin = static_cast<uint32_t>(V.Arena.Frames.size());
    uint64_t NFrames;
    if (!R.uleb(NFrames) || NFrames == 0 || NFrames > R.remaining())
      return Status::error("malformed context frame count");
    Cur.clear();
    uint64_t InSite = 0;
    for (uint64_t F = 0; F != NFrames; ++F) {
      uint64_t NameIdx, Site;
      if (!R.uleb(NameIdx) || !R.uleb(Site) || NameIdx >= NM.Map.size() ||
          Site > UINT32_MAX)
        return Status::error("malformed context frame");
      V.Arena.Frames.push_back({NM(NameIdx), static_cast<uint32_t>(Site)});
      Cur.push_back({InSite, NameIdx});
      InSite = Site;
    }
    if (C && !(Prev < Cur))
      return Status::error("contexts not in ascending trie order");
    std::swap(Prev, Cur);
    FrameSlot Leaf = V.Arena.Frames.back();
    if (Leaf.Site != 0 || Leaf.Func != NM(E.NameIdx))
      return Status::error("context leaf disagrees with its index entry");
    uint8_t NodeFlags;
    uint64_t Guid, Checksum;
    if (!R.u8(NodeFlags) || NodeFlags > 1 || !R.uleb(Guid) ||
        !R.uleb(Checksum))
      return Status::error("malformed context node header");
    if (!V.IsCS && (NFrames != 1 || NodeFlags != 0))
      return notOneFrameBlock();
    CR.FramesEnd = static_cast<uint32_t>(V.Arena.Frames.size());
    std::string Err;
    if (!decodeRecordView(R, V.Arena, NM, 0, CR.Rec, Err))
      return Status::error(Err);
    FuncRecord &FR = V.Arena.Records[CR.Rec];
    FR.Name = Leaf.Func;
    FR.Guid = Guid;
    FR.Checksum = Checksum;
    Total = saturatingAdd(Total, FR.TotalSamples);
    Head = saturatingAdd(Head, FR.HeadSamples);
    CR.ShouldBeInlined = NodeFlags & 1;
    V.Contexts.push_back(CR);
  }
  if (!R.done())
    return Status::error("context block shorter than its index slice");
  if (Total != E.Total || Head != E.Head)
    return Status::error("block totals disagree with the function index");
  return {};
}

IngestResult ingestEpoch(std::string &Bytes, const ContextProfileView &FreshV,
                         const IngestOptions &Opts) {
  IngestResult R;
  if (Opts.DecayPermille > 1000) {
    R.Error = "decay must be in [0, 1000] permille";
    return R;
  }
  // The prior store (if any) opens over the caller's bytes without a
  // copy: they are only replaced after the last read.
  ProfileStore Prior;
  bool Exists = !Bytes.empty();
  if (Exists) {
    Expected<ProfileStore> S = ProfileStore::openBorrowed(Bytes);
    if (!S) {
      R.Error = "cannot open existing store: " + S.status().message();
      return R;
    }
    Prior = S.take();
    if (Prior.compactNames()) {
      R.Error = "cannot ingest into a compact-name store (names are not "
                "recoverable without a module)";
      return R;
    }
    if (Prior.isCS() != FreshV.IsCS) {
      R.Error = FreshV.IsCS ? "store holds a flat profile; context-sensitive "
                              "epoch rejected"
                            : "store holds a context-sensitive profile; flat "
                              "epoch rejected";
      return R;
    }
    // Any decay: a replacing fold must not flip the kind of a store whose
    // history it keeps.
    if (Prior.numFunctions() != 0 && Prior.kind() != FreshV.Kind) {
      R.Error = "epoch profile kind disagrees with the store";
      return R;
    }
  }

  // Exact counts are a flat-store property (Instr profiles are flat).
  bool Instr = !FreshV.IsCS && (Exists ? Prior.isInstr() : Opts.ExactCounts);
  ContextProfileView AggV;
  // Decay 0 = replace: history is fully decayed away, so the prior
  // aggregate is never materialized at all.
  if (Exists && Opts.DecayPermille != 0) {
    Expected<ContextProfileView> V = Prior.loadView();
    if (!V) {
      R.Error = "cannot materialize existing store: " + V.status().message();
      return R;
    }
    AggV = V.take();
    scaleContextView(AggV, Opts.DecayPermille, 1000, Instr);
  }
  // An empty aggregate folds exactly like the map path's empty
  // destination: the fresh epoch is the sole merge *source*
  // (IntoEmptyDst), so kind adoption and MergeStats come out identical.
  ContextProfileView Merged =
      AggV.Contexts.empty()
          ? mergeContextViews({&FreshV}, R.Merge, /*IntoEmptyDst=*/true)
          : mergeContextViews({&AggV, &FreshV}, R.Merge);
  uint64_t FreshTotal = 0;
  for (const ContextRecord &C : FreshV.Contexts)
    FreshTotal =
        saturatingAdd(FreshTotal, FreshV.Arena.Records[C.Rec].TotalSamples);
  std::vector<EpochInfo> Epochs = Prior.epochs();
  Epochs.push_back({Opts.Timestamp, FreshTotal, Opts.DecayPermille});

  VerifierOptions VO;
  VO.Level = Opts.Verify;
  VO.ExactCounts = Instr;
  VO.CheckHeadEdges = !Instr;
  R.Verify = verifyProfileView(Merged, VO);
  if (!R.Verify.ok()) {
    R.Error = "post-ingest verification failed: " + R.Verify.str();
    return R;
  }
  std::string Out = writeStore(Merged, Epochs, Opts.Write, Instr);
  Bytes = std::move(Out);
  R.Ok = true;
  R.EpochsNow = Epochs.size();
  return R;
}

} // namespace csspgo
