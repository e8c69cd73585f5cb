//===- profgen/CSProfileGenerator.cpp - CSSPGO profile generation -----------===//

#include "profgen/CSProfileGenerator.h"

#include "support/Hashing.h"

#include <algorithm>
#include <map>
#include <tuple>

namespace csspgo {

namespace {

/// One count against a ContextPool node: its head count, a body count
/// (Key = probe id) or a call-target count (Key = call site, Callee =
/// callee name id). Sorted, a node's counts are contiguous and in map
/// order: head, body by probe, call targets by (site, callee name), as
/// name ids follow name order.
struct NodeCount {
  enum : uint32_t { Head, Body, Call };
  uint32_t Node = 0, Kind = 0, Key = 0, Callee = 0;
  uint64_t Count = 0;
  bool operator<(const NodeCount &O) const {
    return std::tie(Node, Kind, Key, Callee) <
           std::tie(O.Node, O.Kind, O.Key, O.Callee);
  }
};

/// Sorts \p V, sums each run of equal keys into one entry, and returns
/// where each node's entries start: node N's are V[First[N], First[N+1]).
std::vector<uint32_t> sumPerNode(std::vector<NodeCount> &V, size_t Nodes) {
  std::sort(V.begin(), V.end());
  size_t Out = 0;
  for (const NodeCount &E : V)
    if (Out && !(V[Out - 1] < E))
      V[Out - 1].Count = saturatingAdd(V[Out - 1].Count, E.Count);
    else
      V[Out++] = E;
  V.resize(Out);
  std::vector<uint32_t> First(Nodes + 1, 0);
  for (const NodeCount &E : V)
    ++First[E.Node + 1];
  for (size_t I = 1; I <= Nodes; ++I)
    First[I] += First[I - 1];
  return First;
}

/// Writes the counts against \p Pool as a canonical view: the pool walked
/// in trie order (ContextPool::forEachChild), each record's slots from
/// its sorted counts. A CS view has one context per node holding samples,
/// in trie-DFS order. A flat view has one per top-level node, and each
/// node below it is a nested inlinee record. Guid and Checksum come from
/// the probe descriptor; a name without one gets the Guid the map
/// containers seed: computeFunctionGuid(leaf) for a trie node, 0 for a
/// flat function or inlinee.
ContextProfileView emitView(const Symbolizer &Sym, const ProbeTable &Probes,
                            const ContextPool &Pool,
                            std::vector<NodeCount> &Counts, bool IsCS) {
  ContextProfileView V;
  V.IsCS = IsCS;
  ProfileArena &A = V.Arena;
  auto Name = [&](uint32_t Id) { return A.Names.intern(Sym.name(Id)); };
  std::vector<uint32_t> At = sumPerNode(Counts, Pool.size());

  auto Record = [&](auto &Self, uint32_t Id) -> uint32_t {
    FuncRecord R;
    const std::string &Func = Sym.name(Pool[Id].Func);
    R.Name = Name(Pool[Id].Func);
    if (const ProbeDescriptor *D = Probes.findByName(Func)) {
      R.Guid = D->Guid;
      R.Checksum = D->CFGChecksum;
    } else if (IsCS) {
      R.Guid = computeFunctionGuid(Func);
    }
    R.BodyBegin = static_cast<uint32_t>(A.Body.size());
    R.CallsBegin = static_cast<uint32_t>(A.Calls.size());
    for (uint32_t I = At[Id]; I != At[Id + 1]; ++I) {
      const NodeCount &E = Counts[I];
      if (E.Kind == NodeCount::Head) {
        R.HeadSamples = E.Count;
      } else if (E.Kind == NodeCount::Body) {
        A.Body.push_back({E.Key, E.Count});
        R.TotalSamples = saturatingAdd(R.TotalSamples, E.Count);
      } else {
        A.Calls.push_back({E.Key, Name(E.Callee), E.Count});
      }
    }
    R.BodyEnd = static_cast<uint32_t>(A.Body.size());
    R.CallsEnd = static_cast<uint32_t>(A.Calls.size());
    // Inlinee records first, then their slots, as appendProfile does.
    std::vector<InlineSlot> Slots;
    if (!IsCS)
      Pool.forEachChild(Id, [&](uint32_t K) {
        Slots.push_back({Pool[K].Site, Name(Pool[K].Func), Self(Self, K)});
      });
    R.InlineesBegin = static_cast<uint32_t>(A.Inlinees.size());
    A.Inlinees.insert(A.Inlinees.end(), Slots.begin(), Slots.end());
    R.InlineesEnd = static_cast<uint32_t>(A.Inlinees.size());
    A.Records.push_back(R);
    return static_cast<uint32_t>(A.Records.size() - 1);
  };

  std::vector<uint32_t> Path; // The walk's nodes, outermost first.
  auto Walk = [&](auto &Self, uint32_t Id) -> void {
    Path.push_back(Id);
    if (!IsCS || At[Id] != At[Id + 1]) {
      ContextRecord R;
      R.FramesBegin = static_cast<uint32_t>(A.Frames.size());
      for (size_t I = 0; I != Path.size(); ++I)
        A.Frames.push_back(
            {Name(Pool[Path[I]].Func),
             I + 1 != Path.size() ? Pool[Path[I + 1]].Site : 0});
      R.FramesEnd = static_cast<uint32_t>(A.Frames.size());
      R.Rec = Record(Record, Id);
      V.Contexts.push_back(R);
    }
    if (IsCS)
      Pool.forEachChild(Id, [&](uint32_t K) { Self(Self, K); });
    Path.pop_back();
  };
  Pool.forEachChild(0, [&](uint32_t K) { Walk(Walk, K); });
  return V;
}

/// The node of function \p Leaf reached from \p C through \p Frames. A
/// probe-only expansion (from the empty context) passes the function
/// holding the code as \p Top, which names the outermost frame.
uint32_t nodeOf(ContextPool &Pool, CallerContext C,
                std::span<const InternedFrame> Frames, uint32_t Leaf,
                uint32_t Top = ~0u) {
  for (InternedFrame F : Frames) {
    if (!C.Node && Top != ~0u)
      F.Func = Top;
    C = Pool.extend(C, F);
  }
  return Pool.child(C.Node, C.Site, Leaf);
}

/// Counted pairs keyed (context node, context site, A, B): a range [A, B]
/// of instructions, or a call from instruction A to function B.
using PairCounts =
    std::map<std::tuple<uint32_t, uint32_t, size_t, size_t>, uint64_t>;

/// Expands each counted pair into the pool once, adding its count to the
/// node of the probe's (or the caller's) function under the pair's caller
/// context, then emits the view. Copies of a duplicated probe at different
/// addresses land on the same (node, id) key and are summed — the
/// one-to-one mapping property. Probe-only (\p IsCS false) pairs carry the
/// empty context: the outermost frame is named for the function holding
/// the code, and a callee's head samples go to its top-level node.
ContextProfileView expandAndEmit(const Symbolizer &Sym,
                                 const ProbeTable &Probes, ContextPool &Pool,
                                 const PairCounts &Ranges,
                                 const PairCounts &Calls, bool IsCS) {
  auto TopOf = [&](size_t Idx) {
    return IsCS ? ~0u : Sym.funcNameId(Sym.binary().funcIndexOf(Idx));
  };
  std::vector<NodeCount> Counts;
  for (const auto &[K, N] : Ranges) {
    auto [Node, Site, RBegin, REnd] = K;
    for (size_t Idx = RBegin; Idx <= REnd; ++Idx)
      for (const Symbolizer::BlockProbe &P : Sym.blockProbesAt(Idx))
        Counts.push_back({nodeOf(Pool, {Node, Site}, Sym.frames(P.Inline),
                                 P.Origin, TopOf(Idx)),
                          NodeCount::Body, P.ProbeId, 0, N});
  }
  for (const auto &[K, N] : Calls) {
    auto [Node, CtxSite, Src, CalleeIdx] = K;
    uint32_t Caller = nodeOf(Pool, {Node, CtxSite}, Sym.inlineFramesAt(Src),
                             Sym.originAt(Src), TopOf(Src));
    uint32_t Site = Sym.callProbeAt(Src);
    uint32_t Callee = Sym.funcNameId(static_cast<uint32_t>(CalleeIdx));
    Counts.push_back({Caller, NodeCount::Call, Site, Callee, N});
    Counts.push_back({IsCS ? Pool.child(Caller, Site, Callee)
                           : Pool.child(0, 0, Callee),
                      NodeCount::Head, 0, 0, N});
  }
  return emitView(Sym, Probes, Pool, Counts, IsCS);
}

} // namespace

ContextProfileView generateCSProfileChunk(const Symbolizer &Sym,
                                          const ProbeTable &Probes,
                                          const std::vector<PerfSample> &Samples,
                                          size_t Begin, size_t End,
                                          MissingFrameInferrer *Inferrer,
                                          CSProfileGenStats *Stats) {
  ContextPool Pool;
  ContextUnwinder Unwinder(Sym, Pool, Inferrer);
  // Phase 1: count (context, range) and (context, call branch) pairs.
  PairCounts Ranges, Calls;
  for (size_t SampleIdx = Begin; SampleIdx != End; ++SampleIdx) {
    const UnwoundSample &U = Unwinder.unwind(Samples[SampleIdx]);
    for (const RangeWithContext &R : U.Ranges)
      ++Ranges[{R.Ctx.Node, R.Ctx.Site, R.BeginIdx, R.EndIdx}];
    for (const BranchWithContext &B : U.Branches)
      if (uint32_t Callee = Sym.calleeOf(B.SrcIdx, B.DstIdx); Callee != ~0u)
        ++Calls[{B.Ctx.Node, B.Ctx.Site, B.SrcIdx, Callee}];
  }
  if (Stats)
    *Stats = Unwinder.stats();
  // Phase 2: expand each unique pair once.
  return expandAndEmit(Sym, Probes, Pool, Ranges, Calls, /*IsCS=*/true);
}

ContextProfileView
generateProbeOnlyProfileChunk(const Symbolizer &Sym, const ProbeTable &Probes,
                              const std::vector<PerfSample> &Samples,
                              size_t Begin, size_t End,
                              CSProfileGenStats *Stats) {
  const Binary &Bin = Sym.binary();
  LBRCounts LC = countLBR(Sym, Samples, Begin, End);
  if (Stats) {
    Stats->Samples += End - Begin;
    Stats->RangesProcessed += LC.Ranges;
    Stats->BrokenRanges += LC.BrokenRanges;
  }
  // Each counted instruction is a one-instruction range and each call a
  // call pair, both under the empty context, in key order.
  PairCounts Ranges, Calls;
  for (size_t Idx = 0; Idx != LC.Insts.size(); ++Idx)
    if (LC.Insts[Idx] && Bin.funcIndexOf(Idx) != ~0u)
      Ranges.emplace_hint(Ranges.end(), std::tuple(0u, 0u, Idx, Idx),
                          LC.Insts[Idx]);
  for (const auto &[Edge, Count] : LC.Calls)
    if (Bin.funcIndexOf(Edge.first) != ~0u)
      Calls.emplace_hint(Calls.end(),
                         std::tuple(0u, 0u, Edge.first, size_t(Edge.second)),
                         Count);
  ContextPool Pool;
  return expandAndEmit(Sym, Probes, Pool, Ranges, Calls, /*IsCS=*/false);
}

} // namespace csspgo
