//===- pgo/BuildPipeline.h - PGO build pipelines -----------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compilation pipelines of the PGO variants under study:
///
///   None            — plain optimized build (profiling binary for the
///                     sampling variants, and the overhead baseline).
///   Instr           — traditional instrumentation PGO: counters in the
///                     profiling binary (strong barriers + run-time cost),
///                     exact counter-keyed profile in the release build.
///   AutoFDO         — sampling PGO with debug-info correlation [2].
///   CSSPGOProbeOnly — pseudo-probes as correlation anchors, flat profile
///                     (isolates the pseudo-instrumentation contribution).
///   CSSPGOFull      — probes + context-sensitive profile + pre-inliner.
///
/// All variants share the same optimization pipeline (pre-opt, top-down
/// loader inlining where applicable, bottom-up inliner, mid-level passes,
/// Ext-TSP layout, function splitting) per the paper's §IV-A alignment.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PGO_BUILDPIPELINE_H
#define CSSPGO_PGO_BUILDPIPELINE_H

#include "ir/Module.h"
#include "loader/ProfileLoader.h"
#include "opt/Inliner.h"
#include "opt/PassManager.h"
#include "profile/ContextTrie.h"
#include "profile/FunctionProfile.h"
#include "codegen/MachineModule.h"
#include "probe/ProbeTable.h"

#include <memory>

namespace csspgo {

enum class PGOVariant : uint8_t {
  None,
  Instr,
  AutoFDO,
  CSSPGOProbeOnly,
  CSSPGOFull,
  /// Core-instruction-trace collection (probes + full CS profile like
  /// CSSPGOFull, but the profile comes from replaying a branch trace
  /// instead of PMU samples, and the build additionally consumes the
  /// trace's measured per-block timing).
  Trace,
};

const char *variantName(PGOVariant V);

/// How a profile travels from collection to the optimized build. InMemory
/// hands the in-memory containers straight to the loader (the historical
/// behavior); the other transports round-trip through a serialization on
/// the way, exercising what a real deployment does between the profiling
/// fleet and the build farm. All four produce bit-identical builds for
/// the sampling variants (the store is lossless and the text format drops
/// only loader-irrelevant fields); `csspgo_exp run --format` selects one.
enum class ProfileTransport : uint8_t {
  InMemory,    ///< No serialization.
  Text,        ///< serialize + parse (profile/ProfileIO).
  BinaryEager, ///< writeStore + open + full materialization.
  BinaryLazy,  ///< writeStore + open + module-scoped lazy loading.
};

const char *transportName(ProfileTransport T);

/// A profile of any of the three shapes.
struct ProfileBundle {
  bool Has = false;
  bool IsInstr = false;
  bool IsCS = false;
  FlatProfile Flat;
  ContextProfile CS;
  /// Transport the optimized build consumes this bundle through.
  ProfileTransport Transport = ProfileTransport::InMemory;
  /// Measured per-block timing from a core-instruction trace (Trace
  /// variant only; null otherwise). Shared because bundles are copied
  /// freely between pipeline stages; the optimized build borrows it for
  /// the timing-aware transform gates (OptOptions::Timing).
  std::shared_ptr<const TimingProfile> Timing;
};

struct BuildConfig {
  PGOVariant Variant = PGOVariant::None;
  OptOptions Opt;
  InlineParams Inline;
  LoaderOptions Loader;
  /// Run MCF profile inference after annotation (profi, ref [10]). Off
  /// only in the inference ablation.
  bool EnableInference = true;
};

struct BuildResult {
  std::unique_ptr<Module> IR;
  std::unique_ptr<Binary> Bin;
  LoaderStats Loader;
  InlinerStats Inliner;
  /// Probe descriptors snapshotted at insertion time (before any function
  /// could be optimized away); the .pseudo_probe_desc section equivalent.
  ProbeTable ProbeDescs;
};

/// Builds \p Source under \p Config. \p Profile may be null (profiling
/// build / plain build). The returned binary carries probes for CSSPGO
/// variants and counters for the Instr *profiling* build only.
BuildResult buildWithPGO(const Module &Source, const BuildConfig &Config,
                         const ProfileBundle *Profile);

/// Annotation-only build used by the profile-quality analysis (Table I):
/// clones \p Source, inserts matching anchors, correlates \p Profile onto
/// the pristine IR with *no inlining*, runs inference, and returns the
/// annotated module. Modules produced this way from different profiles are
/// block-for-block comparable. Loader policy knobs of \p Base (e.g.
/// RecoverStaleProfiles for a drop-policy quality column) carry through;
/// the no-inline settings override Base's inlining fields.
std::unique_ptr<Module> annotateForQuality(const Module &Source,
                                           const ProfileBundle &Profile,
                                           const LoaderOptions &Base = {});

} // namespace csspgo

#endif // CSSPGO_PGO_BUILDPIPELINE_H
