//===- tests/oracle/Oracle.h - Executor test oracle -------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The test-only oracle (library csspgo_oracle), the independent second
/// implementation every differential check (unit tests, the fuzz
/// harness, the micro benches) diffs production code against:
///
///  * for the simulator, the straightforward reference interpreter,
///    independent of the production machine model in sim/MachineCore.h,
///    plus the one run comparison the checks report through;
///  * for the profile data plane, the sequential map-container merges and
///    decay scaler that specify the view merge mergeContextViews and the
///    view scaler scaleContextView (profile/ProfileArena.h) on flat and
///    context-sensitive inputs alike, written without the arena;
///  * for profile inference, the N-pass cycle-canceling min-cost
///    circulation solver and its inference network, which the
///    parent-graph solver of inference/MinCostFlow.h must match in
///    optimal objective;
///  * for block layout, the Ext-TSP chain merger that rescores every chain
///    pair on every merge, which the incremental solver of
///    opt/ExtTSPCore.h must match, and the greedy fallthrough chaining
///    that large functions used to get, which it must beat;
///  * for the mid-level CFG analyses, reverse post order and reachability
///    on pointer sets, std::map predecessors, set-of-sets dominators, the
///    loop finder over them, pair-scan tail merge and code motion, which
///    ir/CFG.h's number-indexed analyses and the passes in opt/ must
///    reproduce to the byte;
///  * for profile generation, the string-keyed CS generator that expands
///    every branch's caller context and every probe hit's context anew,
///    and the probe-only generator on std::maps, which the interned
///    two-phase generators of profgen/ must reproduce to the byte and
///    counter;
///  * for the binary store and the verifier, the store writer and the
///    profile verifier as they ran on the map containers, which writeStore
///    and the view checker of verify/ProfileVerifier.h (both over
///    ContextProfileView) must reproduce to the byte and to the report
///    field.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_TESTS_ORACLE_ORACLE_H
#define CSSPGO_TESTS_ORACLE_ORACLE_H

#include "inference/ProfileInference.h"
#include "ir/CFG.h"
#include "opt/PassManager.h"
#include "opt/ExtTSPCore.h"
#include "profile/ContextTrie.h"
#include "profile/FunctionProfile.h"
#include "profgen/CSProfileGenerator.h"
#include "profile/ProfileMerge.h"
#include "sim/Executor.h"
#include "store/ProfileStore.h"
#include "support/Random.h"
#include "trace/TraceDecoder.h"
#include "verify/ProfileVerifier.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace csspgo {

/// Runs \p Bin like execute(), on the reference interpreter. Must produce
/// a RunResult bit-identical to execute()'s for every well-formed binary
/// and configuration.
RunResult executeReference(const Binary &Bin, const std::string &Entry,
                           std::vector<int64_t> &Memory,
                           const ExecConfig &Config);

/// Compares every RunResult field. Returns an empty string when \p A and
/// \p B match, else a message naming the first field that differs (values
/// printed A first).
std::string diffRuns(const RunResult &A, const RunResult &B);

/// \p Live as \p Replay reconstructs it: the replay's clock, counters and
/// samples over everything a trace cannot carry (exit value, memory-side
/// outputs). diffRuns(Live, replayedRun(Live, Replay)) holds a replay to
/// the sampled run it must reproduce.
RunResult replayedRun(const RunResult &Live, const TraceReplayResult &Replay);

/// Accumulates \p Src into \p Dst (counts are summed) — the mergeInto
/// step of the mergeContextViews contract on flat views. An empty \p Dst
/// adopts \p Src's kind; otherwise a kind mismatch (line-based vs
/// probe-based) is fatal.
MergeStats mergeFlatProfiles(FlatProfile &Dst, const FlatProfile &Src);

/// Accumulates \p Src into \p Dst context by context — the step of the
/// mergeContextViews contract on CS views. Same kind rules as
/// mergeFlatProfiles.
MergeStats mergeContextProfiles(ContextProfile &Dst,
                                const ContextProfile &Src);

/// Flattens \p P to a context-insensitive profile: every context of a
/// function merges into one FunctionProfile (what AutoFDO would see,
/// modulo correlation quality), taking the last context's Guid/Checksum.
FlatProfile flattenContextProfile(const ContextProfile &P);

/// Scales every count in \p Profile by Num/Den under the scaleContextView
/// contract (round half up, telescoping head/call-edge accumulators,
/// \p ExactCounts head clamp).
void scaleFlatProfile(FlatProfile &Profile, uint64_t Num, uint64_t Den,
                      bool ExactCounts = false);
void scaleContextProfile(ContextProfile &Profile, uint64_t Num, uint64_t Den);

/// Min-cost circulation by negative-cycle canceling, each cycle found by a
/// full N-pass Bellman-Ford. Same interface as MinCostFlowSolver; stops
/// after 4096 cancellations.
class ReferenceMinCostFlow {
public:
  int addNode();
  int addEdge(int From, int To, int64_t Cap, int64_t Cost);
  void solve();
  int64_t flowOn(int EdgeId) const;
  int numNodes() const { return NumNodes; }

private:
  struct Arc {
    int To = 0;
    int64_t Cap = 0; ///< Residual capacity.
    int64_t Cost = 0;
    int Rev = 0; ///< Index of the reverse arc in Adj[To].
  };

  /// Returns the (node, arc index) pairs of a negative cycle of the
  /// residual graph, empty if none.
  std::vector<std::pair<int, int>> findNegativeCycle() const;

  int NumNodes = 0;
  std::vector<std::vector<Arc>> Adj;
  /// Public edge id -> (node, arc index).
  std::vector<std::pair<int, int>> EdgeIndex;
  std::vector<int64_t> OrigCap;
};

/// Returns true if the annotated counts of \p F are flow-consistent
/// within \p Tolerance: every block with successors sends out its count,
/// and every block but the entry receives it.
bool isProfileConsistent(const Function &F, uint64_t Tolerance = 0);

/// inferFunctionProfile on the reference solver and the network it was
/// first built with (counts capped by 2^40-capacity arcs), for every
/// function size.
void inferFunctionProfileReference(Function &F);

/// The cost the inference network assigns to the block counts \p F carries
/// against the measured counts \p Measured (one per block, 0 where
/// unmeasured). Equal for any two optimal inferences of the same counts.
int64_t inferenceObjective(const Function &F,
                           const std::vector<uint64_t> &Measured);

/// Draws a circulation network from \p R (parallel, zero-capacity and
/// negative-cost edges, isolated nodes) and solves it with both
/// MinCostFlowSolver and ReferenceMinCostFlow. Returns an empty string
/// when MinCostFlowSolver's flow stays within 0 <= flow <= cap on every
/// edge, is conserved at every node and costs what the reference's
/// costs; else a message naming the first violation.
std::string diffRandomCirculation(Rng &R);

/// The block order of the chain merger that rescores every ordered chain
/// pair as score(A + B) - score(A) - score(B) on every step.
std::vector<unsigned> referenceExtTSPOrder(const exttsp::Instance &In);

/// Greedy fallthrough chaining in the spirit of Pettis-Hansen, the order
/// functions above 64 blocks used to get: chains start at the hottest
/// unplaced blocks (the entry first) and follow the heaviest edge.
std::vector<unsigned> greedyChainOrder(Function &F);

/// How an Ext-TSP order compares with referenceExtTSPOrder's.
enum class LayoutMatch {
  Identical,  ///< The reference's order.
  EqualScore, ///< Another order of the same blocks, bit-equal in score.
  /// The reference's rounded gains broke an exact tie the other way, and
  /// the order is the one the exact gains lead to.
  ExactTie,
  Diverged, ///< None of the above.
};

/// Compares \p Order, exttsp::solve's order for \p In, with the
/// reference's. Where the two differ in score, replays the merges with
/// exact gains (the score of the cross edges, summed in edge order, as
/// exttsp::solve computes them) beside the reference's rounded
/// score(A + B) - score(A) - score(B): the first step where the two picks
/// differ must tie in exact gain, to within 1e-12 of the total edge
/// weight, and \p Order must be the order the exact gains lead to. On
/// Diverged, \p Why (if given) says what differs.
LayoutMatch matchExtTSPReference(const exttsp::Instance &In,
                                 const std::vector<unsigned> &Order,
                                 std::string *Why = nullptr);

/// Draws an Ext-TSP instance from \p R (parallel edges, self-loops, zero
/// weights, zero-size blocks, any entry block) and solves it with
/// exttsp::solve. Returns an empty string when the order starts at the
/// entry block and matchExtTSPReference does not find it Diverged; else a
/// message with the instance.
std::string diffRandomExtTSP(Rng &R);

/// Predecessors rebuilt into a std::map: every block has an entry, one
/// element per edge, each list in layout order.
std::map<BasicBlock *, std::vector<BasicBlock *>>
referencePredecessors(Function &F);

/// Reverse post order by a recursive walk on a std::set of visited blocks.
std::vector<BasicBlock *> referenceReversePostOrder(Function &F);

/// removeUnreachableBlocks on a std::unordered_set of reached blocks.
bool referenceRemoveUnreachableBlocks(Function &F);

/// Dominator sets by iterative dataflow: Dom[B] holds every block that
/// dominates B, B included; unreachable blocks have no entry.
std::map<BasicBlock *, std::set<BasicBlock *>> referenceDominators(Function &F);

/// A natural loop as referenceFindLoops reports it, its body a std::set.
struct ReferenceLoop {
  BasicBlock *Header = nullptr;
  std::set<BasicBlock *> Blocks;
  std::vector<BasicBlock *> Latches;
};

/// findLoops over referenceDominators: the same loops, in the same order,
/// with the same blocks and latch order.
std::vector<ReferenceLoop> referenceFindLoops(Function &F);

/// runTailMerge comparing every block pair (I < J) in index order,
/// rebuilding predecessors and restarting the scan after each merge.
unsigned referenceTailMerge(Function &F);

/// runCodeMotion over referenceFindLoops, rebuilding predecessors after
/// each hoist. With \p KeepOuterWrites, a new preheader joins every other
/// loop that holds its header, as runCodeMotion does; without it, the
/// loops stay as first found (the nested-loop miscompile).
unsigned referenceCodeMotion(Function &F, const OptOptions &Opts,
                             bool KeepOuterWrites);

/// Compares findLoops' loops of \p FA with reference loops of \p FB by
/// layout position of headers, blocks and latches. Returns an empty
/// string when equal, else what differs first.
std::string diffLoops(const Function &FA, const std::vector<Loop> &A,
                      const Function &FB,
                      const std::vector<ReferenceLoop> &B);

/// A module holding only a copy of \p F: labels, counts, edge weights and
/// block numbers included, so a block created in the copy gets the label
/// and number it would get in \p F.
std::unique_ptr<Module> cloneFunctionAlone(const Function &F);

/// Checks every analysis of ir/CFG.h on \p F against its reference:
/// reversePostOrder, DominatorTree (reachability and every dominance
/// pair), findLoops and PredecessorMap on \p F, and removeUnreachableBlocks
/// (result, surviving blocks, and a PredecessorMap it keeps current) on a
/// copy. Leaves \p F as it was. Returns an empty string when all agree,
/// else what differs first.
std::string diffCFGAnalyses(Function &F);

/// Draws a module with one function, "main", of 1 to 24 blocks from \p R:
/// mostly fallthrough edges plus random ones, so loops nest, share
/// headers and have several latches, and self-loops, irreducible regions
/// and unreachable blocks occur; small register and probe-id alphabets
/// and copied blocks give tail merge whole and partial candidates.
std::unique_ptr<Module> randomCFGModule(Rng &R);

/// Draws randomCFGModule(R) and checks it with diffCFGAnalyses, and
/// runTailMerge and runCodeMotion against their references on clones
/// (change counts and printed IR). Returns an empty string when all
/// agree, else what differs with the printed function as a repro.
std::string diffRandomCFG(Rng &R);

/// CS generation over Samples[Begin, End) with the tail-call graph of all
/// of \p Samples, string-keyed throughout: what generateCSProfileSharded
/// must equal (its view converted with contextProfileOf), profile and
/// stats, for any shard count. \p Bin must be well-formed.
ContextProfile referenceCSProfile(const Binary &Bin, const ProbeTable &Probes,
                                  const std::vector<PerfSample> &Samples,
                                  size_t Begin, size_t End,
                                  bool InferMissingFrames,
                                  CSProfileGenStats *Stats = nullptr);

/// Probe-only generation over all of \p Samples on std::maps: what
/// generateProbeOnlyProfileSharded must equal (its view converted with
/// flatProfileOf).
FlatProfile referenceProbeOnlyProfile(const Binary &Bin,
                                      const ProbeTable &Probes,
                                      const std::vector<PerfSample> &Samples,
                                      CSProfileGenStats *Stats = nullptr);

/// The map-container store writer: names gathered into a std::set,
/// contexts grouped per leaf in a std::map, records encoded from the
/// FunctionProfile maps. writeStore(flatViewOf(P), Epochs, Opts, IsInstr)
/// and writeStore(contextViewOf(P), Epochs, Opts) must return the same
/// bytes for any profile the view carries exactly (no empty call-target
/// or inlinee maps, map keys equal to profile names).
std::string referenceWriteStore(const FlatProfile &P,
                                const std::vector<EpochInfo> &Epochs,
                                const StoreWriteOptions &Opts = {},
                                bool IsInstr = false);
std::string referenceWriteStore(const ContextProfile &P,
                                const std::vector<EpochInfo> &Epochs,
                                const StoreWriteOptions &Opts = {});

/// The hot-count distributions the map writer persisted; equal as
/// multisets to hotCountDistribution of the profile's view.
std::vector<uint64_t> referenceHotCountDistribution(const FlatProfile &P);
std::vector<uint64_t> referenceHotCountDistribution(const ContextProfile &P);

/// The map-container verifier: every check of verify/ProfileVerifier.h in
/// one walk over the FunctionProfiles and the trie. verifyFlatProfile /
/// verifyContextProfile, and verifyProfileView on the profile's view,
/// must return the same report field for field on any profile without
/// map-shape faults (see ProfileVerifier.h for those).
VerifyReport referenceVerifyFlatProfile(const FlatProfile &Profile,
                                        const VerifierOptions &Opts = {});
VerifyReport referenceVerifyContextProfile(const ContextProfile &Profile,
                                           const VerifierOptions &Opts = {});

/// Compares every VerifyReport field, Details in order. Returns an empty
/// string when \p A and \p B match, else the first field that differs
/// (values printed A first).
std::string diffVerifyReports(const VerifyReport &A, const VerifyReport &B);

} // namespace csspgo

#endif // CSSPGO_TESTS_ORACLE_ORACLE_H
