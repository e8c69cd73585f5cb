//===- store/ProfileStore.h - Binary profile store ---------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profile storage/serving layer for continuous deployment: a sectioned
/// binary container (StoreFormat.h) holding one aggregated profile plus its
/// ingestion history, a reader with a per-function offset index so a build
/// job materializes only the functions its module actually contains, and
/// `ingestEpoch()` — the continuous-collection entry point that folds a
/// fresh ProfileGenerator output into the aggregate under exponential decay
/// and re-verifies the invariants on every fold.
///
/// The container is lossless: writeStore → open → load reproduces the exact
/// in-memory profile (including Guid/Checksum, which the text format
/// drops), and writing the loaded profile again is byte-identical. Decay
/// scaling preserves the verifier's head/call-edge conservation by
/// construction (see scaleContextView), so an ingested store always passes
/// strict `csspgo_verify`.
///
/// Flat and context-sensitive stores share one payload format, as they
/// share one view: every function is a block of contexts, and a flat
/// store's block holds one one-frame context (the function) with node
/// flags 0. One writer encodes it from a view's slices, and one read plane
/// decodes it: `open`/`openBorrowed` validate the container, and
/// StoreViewLoader (or the eager loadView) cursors the indexed payload
/// tiles straight into one ContextProfileView with no byte copy of the
/// container under a borrowed open, no map nodes and no per-record string
/// allocation. The context-sensitive flag decides only which map
/// container the view converts to and which hot-count distribution the
/// summary holds. The store itself never builds a map: writing, folding
/// and verifying all run on views. Callers that need the map containers
/// (the loader's annotation pass, the tools) build them once from the
/// view with flatProfileOf / contextProfileOf, as the view's IsCS says.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_STORE_PROFILESTORE_H
#define CSSPGO_STORE_PROFILESTORE_H

#include "profile/ContextTrie.h"
#include "profile/FunctionProfile.h"
#include "profile/ProfileArena.h"
#include "profile/ProfileMerge.h"
#include "store/StoreFormat.h"
#include "support/Status.h"
#include "verify/ProfileVerifier.h"

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace csspgo {

class Module;

/// One ingestion epoch recorded in the store (newest last).
struct EpochInfo {
  /// Producer-supplied collection time (seconds; 0 = unset). Stored, never
  /// interpreted — benches pass fixed values to stay deterministic.
  uint64_t Timestamp = 0;
  /// Total samples of the epoch's fresh profile (before decay).
  uint64_t TotalSamples = 0;
  /// Decay applied to the prior aggregate when this epoch was folded in
  /// (permille: 1000 = plain merge, 0 = replace).
  uint32_t DecayPermille = 1000;
};

struct StoreWriteOptions {
  /// Store GUIDs instead of names in the string table (LLVM's MD5 name
  /// table analogue). Roughly halves the table for long C++-style names;
  /// readers resolve GUIDs back to names against a module
  /// (ProfileStore::resolveNames) before lazy loading.
  bool CompactNames = false;
};

/// Serializes \p V (+ ingestion history) into container bytes: a CS store
/// when V.IsCS, else a flat one; \p ExactCounts marks an Instr (counter)
/// profile. Records are encoded straight from the view's slices. The
/// string table holds the sorted, unique names the view references
/// (frames, call and inlinee callees), every function's block holds the
/// contexts it is the leaf of in the view's trie-DFS order, and the
/// summary is hotCountDistribution(V). Map holders convert with
/// flatViewOf / contextViewOf; equal profiles give equal bytes either way.
std::string writeStore(const ContextProfileView &V,
                       const std::vector<EpochInfo> &Epochs,
                       const StoreWriteOptions &Opts = {},
                       bool ExactCounts = false);

/// Reader over one store file. open() validates the whole container up
/// front (magic, version, flags, content hash, section table, function
/// index); after that per-function loads decode straight from the indexed
/// payload slice, so materializing K of N functions costs O(K), not O(N).
class ProfileStore {
public:
  ProfileStore() = default;

  /// Parses and validates \p Bytes (takes ownership). Returns an error
  /// Status on any malformation — a truncated or bit-flipped input is
  /// always rejected here, never at load time.
  static Expected<ProfileStore> open(std::string Bytes);

  /// Zero-copy open: validates and indexes \p Bytes without copying them.
  /// The caller must keep the buffer alive and unmodified for the store's
  /// lifetime (mmap-style borrow); every rejection open() performs —
  /// truncation, bit flips, malformed sections — applies identically here
  /// because both run the same validation over the same bytes.
  static Expected<ProfileStore> openBorrowed(std::string_view Bytes);

  bool isCS() const { return Flags & SF_ContextSensitive; }
  bool isInstr() const { return Flags & SF_ExactCounts; }
  bool compactNames() const { return Flags & SF_CompactNames; }
  ProfileKind kind() const {
    return (Flags & SF_ProbeBased) ? ProfileKind::ProbeBased
                                   : ProfileKind::LineBased;
  }

  const std::vector<EpochInfo> &epochs() const { return Epochs; }
  size_t sizeBytes() const { return data().size(); }
  /// (section name, payload bytes) of every section, for `store inspect`
  /// and the size benches.
  std::vector<std::pair<std::string, size_t>> sectionSizes() const;
  /// (section name, absolute offset, size) of every section, in file
  /// order — `store inspect --layout`.
  std::vector<std::tuple<std::string, uint64_t, uint64_t>> sectionLayout()
      const;

  /// Number of top-level functions (flat) or leaf functions (CS).
  size_t numFunctions() const { return Index.size(); }
  std::string_view functionName(size_t I) const;
  uint64_t functionTotalSamples(size_t I) const { return Index[I].Total; }
  /// Absolute (offset, size) of function \p I's payload tile within the
  /// container — the directly-addressable slice the zero-copy readers
  /// cursor over. For `store inspect --layout` and debugging.
  std::pair<uint64_t, uint64_t> functionTile(size_t I) const;
  /// Sum of per-function totals (saturating).
  uint64_t totalSamples() const;

  /// Index of the function named \p Name, or -1. Name lookup works on
  /// compact stores only after resolveNames().
  int findFunction(const std::string &Name) const;

  /// Resolves compact-name (GUID) string-table entries against the
  /// functions of \p M; entries with no match keep a stable
  /// "guid.<decimal>" placeholder. No-op for stores written with names.
  void resolveNames(const Module &M);

  /// Eager full materialization (tools, ingest, conversion): decodes
  /// every function into an arena view. A flat view's one-frame contexts
  /// keep the index (= name) order; a CS view's contexts are sorted into
  /// global trie-DFS order, so both satisfy the canonical-order contract
  /// of the view merge.
  Expected<ContextProfileView> loadView() const;

  /// Hot threshold from the persisted count distribution — identical to
  /// hotThreshold() over the eagerly loaded profile, which is what makes
  /// lazy module-scoped loading bit-identical to an eager load.
  uint64_t hotThreshold(double Cutoff) const;

private:
  friend class StoreViewLoader;

  struct IndexEntry {
    uint32_t NameIdx = 0;
    uint64_t Offset = 0; ///< Relative to the payload section.
    uint64_t Size = 0;
    uint64_t Total = 0;
    uint64_t Head = 0;
  };
  struct SectionRef {
    uint64_t Offset = 0;
    uint64_t Size = 0;
    bool Present = false;
  };

  /// The container bytes: Owned when open() copied them in, otherwise the
  /// borrowed buffer. Owned wins so the view stays valid across moves.
  std::string_view data() const {
    return Owned.empty() ? Borrowed : std::string_view(Owned);
  }
  std::string_view section(StoreSection S) const;
  bool decodeSections(std::string &Err);

  std::string Owned;
  std::string_view Borrowed;
  uint8_t Flags = 0;
  SectionRef Sections[8];
  /// String table. Non-compact entries are views straight into data() —
  /// open() allocates nothing per name; compact placeholders and
  /// resolveNames() results point into NameStorage (a deque, so views
  /// stay valid as entries are added and across store moves).
  std::vector<std::string_view> Names;
  std::deque<std::string> NameStorage;
  /// Persisted name GUIDs of a compact string table (empty otherwise).
  std::vector<uint64_t> NameGuids;
  std::vector<EpochInfo> Epochs;
  std::vector<IndexEntry> Index;
  /// Compact stores' name -> index map, built by the first findFunction.
  mutable std::map<std::string_view, uint32_t> NameToFunc;
  /// (count value, multiplicity), descending — the hotThreshold input.
  std::vector<std::pair<uint64_t, uint64_t>> Distribution;
};

/// Streams store functions into a ContextProfileView: the zero-copy read
/// plane. Each load() is a varint cursor over the function's payload tile
/// appending POD slots — no maps, no string churn, and names intern into
/// the view's arena on first reference, so a module-scoped load never
/// touches the rest of the string table. load(I) appends every context
/// whose leaf is function I, in the tile's (trie-DFS within leaf) order —
/// use ProfileStore::loadView for a globally DFS-ordered view — and
/// rejects a block whose contexts are not strictly ascending in that
/// order, whose context totals do not sum to the index entry's, or, on a
/// flat store, that is not one one-frame context with flags 0. The store
/// (and, for a borrowed store, its buffer) must outlive the loader.
class StoreViewLoader {
public:
  explicit StoreViewLoader(const ProfileStore &S);

  /// Appends function \p I's record(s) to the view. The records were
  /// hash-validated at open(), so a failure here means a malformed or
  /// non-canonical record (writer/reader disagreement or a hostile store
  /// with a recomputed hash) — reported, never a crash.
  Status load(size_t I);

  ContextProfileView &view() { return V; }
  ContextProfileView take() { return std::move(V); }

private:
  const ProfileStore &S;
  ContextProfileView V;
  /// Store string index -> view name id, interned on first reference so a
  /// module-scoped load pays O(names referenced), not O(string table).
  std::vector<NameId> NameMap;
};

struct IngestOptions {
  /// Weight (permille) the prior aggregate keeps: 1000 folds the new epoch
  /// in at full history (plain merge), 500 halves history each epoch
  /// (exponential decay), 0 discards it (replace).
  uint32_t DecayPermille = 1000;
  /// Recorded in the new EpochInfo.
  uint64_t Timestamp = 0;
  /// Exact-count (Instr) semantics; only consulted when the store is
  /// created (later epochs must match the store's flag).
  bool ExactCounts = false;
  StoreWriteOptions Write;
  /// Post-ingest invariant verification level (Full by default; every
  /// ingest is gated on a clean report).
  VerifyLevel Verify = VerifyLevel::Full;
};

struct IngestResult {
  bool Ok = false;
  std::string Error;
  MergeStats Merge;
  VerifyReport Verify;
  size_t EpochsNow = 0;
};

/// Folds the epoch view \p Fresh (flat or CS, as its IsCS says) into the
/// store held in \p Bytes: decay-scales the prior aggregate by
/// DecayPermille/1000, merges the fresh epoch on top under the usual
/// saturation semantics, appends the epoch record (its total is the
/// saturating sum of the view's context totals), verifies, and rewrites
/// \p Bytes — which is left untouched unless the result is Ok. An empty
/// \p Bytes creates a new single-epoch store. A prior store that holds
/// any function fixes the kind (probe- or line-based) at every decay,
/// replacement included.
///
/// The fold runs on the arena data plane end to end — borrowed-buffer
/// open, arena decode, view decay-scale, k-way view merge, the view
/// verifier and the view writer — and builds no map container. A store
/// that opens but decodes to non-canonical views fails the fold with an
/// error, never an abort. Callers holding map containers convert with
/// flatViewOf / contextViewOf.
IngestResult ingestEpoch(std::string &Bytes, const ContextProfileView &Fresh,
                         const IngestOptions &Opts = {});

} // namespace csspgo

#endif // CSSPGO_STORE_PROFILESTORE_H
