//===- workload/Workloads.h - Named workload presets -------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named workload presets standing in for the paper's evaluation targets
/// (§IV-A): AdRanker, AdRetriever, AdFinder, HHVM and HaaS (server), plus
/// ClangProxy (the §IV-D client workload: broad code coverage, short run).
/// Each preset dials the generator toward the salient property of its
/// namesake (size, branchiness, call density, skew, coverage).
///
/// Also provides the source-drift helper for the §III-A drift experiment.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_WORKLOAD_WORKLOADS_H
#define CSSPGO_WORKLOAD_WORKLOADS_H

#include "workload/ProgramGenerator.h"

#include <vector>

namespace csspgo {

/// Returns the preset named \p Name ("AdRanker", "AdRetriever",
/// "AdFinder", "HHVM", "HaaS", "ClangProxy", plus the archetype presets
/// "RpcFanout", "InterpLoop", "ColdBoot"). \p RequestScale multiplies
/// the request count (benchmarks use larger scales than unit tests); the
/// product is clamped to [1, UINT_MAX].
WorkloadConfig workloadPreset(const std::string &Name,
                              double RequestScale = 1.0);

/// All five server workload names in paper order.
std::vector<std::string> serverWorkloadNames();

/// The three non-server archetype presets (RpcFanout, InterpLoop,
/// ColdBoot) in ROADMAP order.
std::vector<std::string> archetypeWorkloadNames();

/// Applies a minor, CFG-preserving source drift to \p M: every function
/// gets its line numbers shifted from mid-function down, as if a comment
/// block had been inserted into the source. Debug-info keyed profiles
/// mis-correlate below the shift; probe-based profiles are unaffected and
/// the CFG checksum still matches (§III-A).
void applySourceDrift(Module &M, uint32_t ShiftLines = 3);

/// CFG-*changing* drift kinds for the stale-profile matching experiment.
/// Unlike applySourceDrift these alter block structure, so probe CFG
/// checksums of profiles collected before the drift mismatch and the
/// profiles become stale. Every kind preserves program semantics: a
/// drifted module computes exactly what the original did.
enum class CFGDriftKind {
  /// Per function: split one block at a seeded point and guard the tail
  /// with a never-taken if (a constant-true compare branching over a cold
  /// arm), shifting source lines below the edit down by three — the
  /// "developer added an early-out check" edit.
  GuardInsert,
  /// Folds constant-condition guards back out (the inverse edit):
  /// constant CondBrs become Brs, unreachable arms are erased, and
  /// single-predecessor Br chains collapse, shifting lines back up.
  GuardDelete,
  /// Per function: split one straight-line block in two (no line-number
  /// changes — stresses probe remapping alone).
  BlockSplit,
  /// Module-wide: clone the most-called non-entry function under a
  /// "<name>_v2" symbol (fresh GUID), give it a new tiny "<name>_helper"
  /// callee, retarget every direct call and function-table entry, and
  /// erase the old body — the "function renamed and extended" refactor.
  CalleeRename,
};

/// Applies \p K to \p M; \p Seed varies the edit points. Returns the
/// number of edits (functions edited, or call sites retargeted for
/// CalleeRename).
unsigned applyCFGDrift(Module &M, CFGDriftKind K, uint32_t Seed = 1);

} // namespace csspgo

#endif // CSSPGO_WORKLOAD_WORKLOADS_H
