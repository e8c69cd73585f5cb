//===- tests/oracle/ReferenceProfileStore.cpp - Map-container store writer ===//
//
// The store writer as it ran on the map containers: names collected into
// a std::set, contexts grouped per leaf in a std::map, records encoded by
// walking FunctionProfile's maps, and the summary distribution gathered
// from the maps. Kept independent of the arena and of the production
// writer (this file includes neither ProfileArena.h nor ProfileStore.cpp's
// helpers), so writeStore over a view has a second implementation whose
// bytes it must equal.
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracle.h"

#include "store/StoreFormat.h"
#include "support/Hashing.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

namespace csspgo {

namespace {

void collectRefs(const FunctionProfile &P, std::set<std::string> &S) {
  for (const auto &[K, Targets] : P.Calls)
    for (const auto &[Callee, N] : Targets)
      S.insert(Callee);
  for (const auto &[K, Map] : P.Inlinees)
    for (const auto &[Callee, Sub] : Map) {
      S.insert(Callee);
      collectRefs(Sub, S);
    }
}

/// Sorted-unique string table under construction.
class StringIndex {
public:
  explicit StringIndex(std::set<std::string> Set)
      : Strings(Set.begin(), Set.end()) {
    for (uint32_t I = 0; I != Strings.size(); ++I)
      Map[Strings[I]] = I;
  }

  uint32_t index(const std::string &S) const { return Map.at(S); }
  const std::vector<std::string> &all() const { return Strings; }

private:
  std::vector<std::string> Strings;
  std::map<std::string, uint32_t> Map;
};

void encodeRecord(ByteWriter &W, const FunctionProfile &P,
                  const StringIndex &SI) {
  W.uleb(P.TotalSamples);
  W.uleb(P.HeadSamples);
  W.uleb(P.Body.size());
  for (const auto &[K, N] : P.Body) {
    W.uleb(K.Index);
    W.uleb(K.Disc);
    W.uleb(N);
  }
  W.uleb(P.Calls.size());
  for (const auto &[K, Targets] : P.Calls) {
    W.uleb(K.Index);
    W.uleb(K.Disc);
    W.uleb(Targets.size());
    for (const auto &[Callee, N] : Targets) {
      W.uleb(SI.index(Callee));
      W.uleb(N);
    }
  }
  W.uleb(P.Inlinees.size());
  for (const auto &[K, Map] : P.Inlinees) {
    W.uleb(K.Index);
    W.uleb(K.Disc);
    W.uleb(Map.size());
    for (const auto &[Callee, Sub] : Map) {
      W.uleb(SI.index(Callee));
      W.uleb(Sub.Guid);
      W.uleb(Sub.Checksum);
      encodeRecord(W, Sub, SI);
    }
  }
}

std::string encodeStringTable(const std::vector<std::string> &Strings,
                              bool Compact) {
  ByteWriter W;
  W.u32(static_cast<uint32_t>(Strings.size()));
  if (Compact) {
    for (const std::string &S : Strings)
      W.u64(computeFunctionGuid(S));
    return W.take();
  }
  uint32_t End = 0;
  for (const std::string &S : Strings) {
    End += static_cast<uint32_t>(S.size());
    W.u32(End);
  }
  for (const std::string &S : Strings)
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

/// One context of a payload block: its frames (outermost first), node
/// flag and samples.
struct BlockNode {
  SampleContext Ctx;
  bool ShouldBeInlined = false;
  const FunctionProfile *Profile = nullptr;
};

/// Contexts grouped per leaf function, in trie-DFS order within each
/// group.
using LeafBlocks = std::map<std::string, std::vector<BlockNode>>;

std::string writeBlocks(const LeafBlocks &ByLeaf, uint8_t Flags,
                        const std::vector<EpochInfo> &Epochs,
                        const StoreWriteOptions &Opts,
                        std::vector<uint64_t> HotCounts) {
  std::set<std::string> Strs;
  for (const auto &[Leaf, Nodes] : ByLeaf)
    for (const BlockNode &N : Nodes) {
      for (const ContextFrame &F : N.Ctx)
        Strs.insert(F.Func);
      collectRefs(*N.Profile, Strs);
    }
  StringIndex SI(std::move(Strs));

  ByteWriter Payload;
  std::vector<IndexEntryW> Entries;
  for (const auto &[Leaf, Nodes] : ByLeaf) {
    uint64_t Off = Payload.size();
    uint64_t Total = 0, Head = 0;
    Payload.uleb(Nodes.size());
    for (const BlockNode &N : Nodes) {
      Payload.uleb(N.Ctx.size());
      for (const ContextFrame &F : N.Ctx) {
        Payload.uleb(SI.index(F.Func));
        Payload.uleb(F.Site);
      }
      Payload.u8(N.ShouldBeInlined ? 1 : 0);
      Payload.uleb(N.Profile->Guid);
      Payload.uleb(N.Profile->Checksum);
      encodeRecord(Payload, *N.Profile, SI);
      Total = saturatingAdd(Total, N.Profile->TotalSamples);
      Head = saturatingAdd(Head, N.Profile->HeadSamples);
    }
    Entries.push_back(
        {SI.index(Leaf), Off, Payload.size() - Off, Total, Head});
  }

  if (Opts.CompactNames)
    Flags |= SF_CompactNames;
  return assembleStore(
      Flags,
      {{StoreSection::StringTable,
        encodeStringTable(SI.all(), Opts.CompactNames)},
       {StoreSection::EpochTable, encodeEpochTable(Epochs)},
       {StoreSection::FuncIndex, encodeFuncIndex(Entries)},
       {StoreSection::CSPayload, Payload.take()},
       {StoreSection::Summary, encodeSummary(std::move(HotCounts))}});
}

uint8_t kindFlags(ProfileKind Kind) {
  return Kind == ProfileKind::ProbeBased ? SF_ProbeBased : 0;
}

} // namespace

std::vector<uint64_t> referenceHotCountDistribution(const FlatProfile &P) {
  std::vector<uint64_t> CallCounts;
  std::function<void(const FunctionProfile &)> Collect =
      [&](const FunctionProfile &FP) {
        for (const auto &[K, Targets] : FP.Calls)
          for (const auto &[Callee, N] : Targets)
            CallCounts.push_back(N);
        for (const auto &[K, Map] : FP.Inlinees)
          for (const auto &[Name, Sub] : Map)
            Collect(Sub);
      };
  for (const auto &[Name, FP] : P.Functions)
    Collect(FP);
  if (CallCounts.empty())
    for (const auto &[Name, FP] : P.Functions)
      for (const auto &[K, N] : FP.Body)
        CallCounts.push_back(N);
  return CallCounts;
}

std::vector<uint64_t> referenceHotCountDistribution(const ContextProfile &P) {
  std::vector<uint64_t> Totals;
  P.forEachNode([&Totals](const SampleContext &, const ContextTrieNode &N) {
    Totals.push_back(N.Profile.TotalSamples);
  });
  return Totals;
}

std::string referenceWriteStore(const FlatProfile &P,
                                const std::vector<EpochInfo> &Epochs,
                                const StoreWriteOptions &Opts, bool IsInstr) {
  LeafBlocks ByLeaf;
  for (const auto &[Name, FP] : P.Functions)
    ByLeaf[Name].push_back({{{Name, 0}}, false, &FP});
  return writeBlocks(ByLeaf,
                     kindFlags(P.Kind) | (IsInstr ? SF_ExactCounts : 0),
                     Epochs, Opts, referenceHotCountDistribution(P));
}

std::string referenceWriteStore(const ContextProfile &P,
                                const std::vector<EpochInfo> &Epochs,
                                const StoreWriteOptions &Opts) {
  LeafBlocks ByLeaf;
  P.forEachNode([&](const SampleContext &Ctx, const ContextTrieNode &N) {
    ByLeaf[Ctx.back().Func].push_back({Ctx, N.ShouldBeInlined, &N.Profile});
  });
  return writeBlocks(ByLeaf, kindFlags(P.Kind) | SF_ContextSensitive, Epochs,
                     Opts, referenceHotCountDistribution(P));
}

} // namespace csspgo
