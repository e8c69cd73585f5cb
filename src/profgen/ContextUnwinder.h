//===- profgen/ContextUnwinder.h - Algorithm 1 -------------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The virtual unwinder: reconstructs the calling context of every LBR
/// branch and linear range from a *synchronized* LBR + stack sample —
/// Algorithm 1 of the paper. LBR entries are processed in reverse
/// execution order; calls pop the leaf frame, returns push the frame being
/// returned from, tail-call jumps replace the leaf. Each linear range
/// [branch target, next branch source] is attributed to the reconstructed
/// caller context, an interned ContextPool id; the generator expands
/// inlined frames per probe.
///
/// The unwinder also performs the two §III-B mitigations:
/// - synchronization check: a stack that lags the LBR (sampling skid,
///   Precise=false in the simulator) is detected and the sample degrades
///   to context-less ranges;
/// - missing-frame inference for frames elided by tail-call elimination.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PROFGEN_CONTEXTUNWINDER_H
#define CSSPGO_PROFGEN_CONTEXTUNWINDER_H

#include "profgen/MissingFrameInferrer.h"
#include "profgen/Symbolizer.h"
#include "sim/Sampler.h"

#include <map>
#include <tuple>

namespace csspgo {

/// A context in a ContextPool: the node of its frames and the call-site
/// probe of its last frame toward the callee. {0, 0} is the empty context.
struct CallerContext {
  uint32_t Node = 0;
  uint32_t Site = 0;
};

/// Interned context-trie nodes. Node 0 is the root; node (Parent, Site,
/// Func) is name id Func called from Parent's call site Site (0 under the
/// root), keyed like ContextTrieNode::Children, so pool nodes map one to
/// one onto trie nodes.
class ContextPool {
public:
  struct Node {
    uint32_t Parent = 0, Site = 0, Func = 0;
  };

  ContextPool() : Nodes(1) {}
  uint32_t child(uint32_t Parent, uint32_t Site, uint32_t Func);
  CallerContext extend(CallerContext C, InternedFrame F) {
    return {child(C.Node, C.Site, F.Func), F.Site};
  }
  const Node &operator[](uint32_t Id) const { return Nodes[Id]; }
  size_t size() const { return Nodes.size(); }
  /// Calls \p Fn on each child of node \p Id, by (site, name id): as name
  /// ids follow name order, that is ContextTrieNode::Children order.
  template <typename FnT> void forEachChild(uint32_t Id, FnT Fn) const {
    for (auto It = Ids.lower_bound({Id, 0, 0});
         It != Ids.end() && std::get<0>(It->first) == Id; ++It)
      Fn(It->second);
  }

private:
  std::vector<Node> Nodes;
  std::map<std::tuple<uint32_t, uint32_t, uint32_t>, uint32_t> Ids;
};

/// A linear range [BeginIdx, EndIdx] (inclusive instruction indices)
/// executed once under Ctx (frames of the *callers* of the function owning
/// the range; empty for top-level code).
struct RangeWithContext {
  size_t BeginIdx = 0;
  size_t EndIdx = 0;
  CallerContext Ctx;
};

/// A taken branch with the caller context of its source.
struct BranchWithContext {
  size_t SrcIdx = 0;
  size_t DstIdx = 0;
  CallerContext Ctx;
};

struct UnwoundSample {
  bool Synced = true;
  std::vector<RangeWithContext> Ranges;
  std::vector<BranchWithContext> Branches;
};

struct CSProfileGenStats {
  uint64_t Samples = 0;
  uint64_t UnsyncedSamples = 0;
  uint64_t RangesProcessed = 0;
  /// CS only: samples skipped whole (an empty LBR or stack, or a stack
  /// entry or newest branch target that does not resolve).
  uint64_t DroppedSamples = 0;
  /// Skipped ranges (LBRCounts); CS adds LBR entries outside the text.
  uint64_t BrokenRanges = 0;
  /// CS only: each branch counts the inference of its caller context's
  /// expansion, reused or not.
  MissingFrameInferrer::Stats TailCallStats;

  CSProfileGenStats &operator+=(const CSProfileGenStats &O);
  bool operator==(const CSProfileGenStats &) const = default;
};

class ContextUnwinder {
public:
  /// Contexts intern into \p Pool; \p Inferrer (nullptr: no inference)
  /// must already hold the tail-call edge graph.
  ContextUnwinder(const Symbolizer &Sym, ContextPool &Pool,
                  MissingFrameInferrer *Inferrer)
      : Sym(Sym), Pool(Pool), Inferrer(Inferrer) {}

  /// Unwinds one sample. The result stays valid until the next call.
  const UnwoundSample &unwind(const PerfSample &Sample);

  const CSProfileGenStats &stats() const { return S; }

private:
  /// The caller context of code in function \p LeafFunc under CallStack.
  /// Re-expanded only when the stack or the leaf function changed.
  CallerContext contextFor(uint32_t LeafFunc);

  const Symbolizer &Sym;
  ContextPool &Pool;
  MissingFrameInferrer *Inferrer;
  CSProfileGenStats S;
  /// Call-instruction indices, outermost caller first.
  std::vector<size_t> CallStack;
  std::vector<size_t> Srcs, Dsts; ///< The sample's LBR, resolved once.
  bool LastValid = false; ///< Cleared whenever CallStack changes.
  uint32_t LastLeaf = 0;
  CallerContext LastCtx;
  MissingFrameInferrer::Stats LastInferred;
  UnwoundSample Out;
};

/// Scans Samples[Begin, End) for tail-call jumps and feeds them to
/// \p Inferrer as dynamic tail-call edges (the pre-pass that builds the
/// inference graph). The sharded pipeline collects per-shard edge sets in
/// parallel and unions them via MissingFrameInferrer::addEdgesFrom.
void collectTailCallEdges(const Symbolizer &Sym,
                          const std::vector<PerfSample> &Samples,
                          size_t Begin, size_t End,
                          MissingFrameInferrer &Inferrer);

} // namespace csspgo

#endif // CSSPGO_PROFGEN_CONTEXTUNWINDER_H
