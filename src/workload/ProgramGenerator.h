//===- workload/ProgramGenerator.h - Synthetic workloads ---------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic synthetic program generator standing in for the paper's
/// production services (AdRanker, AdRetriever, AdFinder, HHVM, HaaS) and
/// the Clang client workload. Programs are request-serving loops with the
/// structural features CSSPGO exploits and the hazards it mitigates:
///
/// - a service dispatch layer whose leaf utilities behave differently per
///   calling service (a "mode" argument that steers branches) — the
///   context-sensitivity payoff of Fig. 3;
/// - biased and unbiased conditional branches driven by input data;
/// - small loops (unroll bait), loop-invariant expressions (code-motion
///   bait), if/else arms with identical tails (tail-merge bait) and
///   convertible diamonds (if-convert bait) — each a §III-A correlation
///   hazard;
/// - rare cold paths (function-splitting / i-cache payoff);
/// - tail-call dispatch chains (missing-frame experiment) and bounded
///   recursion;
/// - behavior driven by a memory image, so training and evaluation inputs
///   can differ realistically.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_WORKLOAD_PROGRAMGENERATOR_H
#define CSSPGO_WORKLOAD_PROGRAMGENERATOR_H

#include "ir/Module.h"
#include "support/Random.h"

#include <memory>
#include <string>
#include <vector>

namespace csspgo {

/// Structural archetype of the generated program. Server is the original
/// request-serving shape (services -> mids -> utils); the others model the
/// ROADMAP's additional deployment scenarios:
///
///  - RpcFanout: a frontend aggregator that fans each request out to
///    several backend RPC stubs (always-indirect call sites, per-backend
///    modes, timeout/retry cold paths) — the microservice shape where
///    context sensitivity distinguishes the same backend under different
///    aggregation legs.
///  - InterpLoop: a bytecode interpreter fetch/dispatch loop over opcode
///    handlers (a skewed indirect dispatch site with an inline fast path
///    for the hottest opcode) — the HHVM-style shape where indirect-call
///    promotion and layout of the dispatch loop dominate.
///  - ColdBoot: a long straight-line startup sequence of once-executed
///    init phases followed by a short steady-state loop — the mobile
///    cold-start shape (à la -fprofile-timestamp) where function ordering
///    and hot/cold splitting decide i-cache behavior.
enum class WorkloadArchetype : uint8_t {
  Server,
  RpcFanout,
  InterpLoop,
  ColdBoot,
};

struct WorkloadConfig {
  std::string Name = "workload";
  uint64_t Seed = 1;

  WorkloadArchetype Archetype = WorkloadArchetype::Server;

  unsigned NumServices = 4;
  unsigned NumMids = 16;
  unsigned NumUtils = 8;
  unsigned NumColdHandlers = 6;

  /// Requests the driver loop processes.
  unsigned Requests = 4000;
  /// Inner per-request feature-loop trip count.
  unsigned FeatureLoop = 8;
  /// Calls from each mid into utils.
  unsigned UtilCallsPerMid = 2;
  /// Distinct mids each service dispatches over (selected by feature
  /// value at run time through an if-else chain).
  unsigned MidsPerService = 10;

  /// Probability a util->util call is a tail call.
  double TailCallProb = 0.3;
  /// Probability a mid contains an identical-tail if/else pair.
  double DupTailProb = 0.5;
  /// Probability of an unpredictable (50/50) branch vs a biased one.
  double UnbiasedBranchProb = 0.3;
  /// Rare-path probability (cold handler call), in 1/1000 units of the
  /// input value space.
  unsigned ColdPathPerMille = 8;

  /// Zipf-like skew of the service mix (higher = more skew).
  double ServiceSkew = 1.2;

  /// Fraction of services dispatching mids through an indirect call (a
  /// function-pointer table) instead of an if-else chain. Indirect sites
  /// are where value profiling / indirect-call promotion pays off.
  double IndirectDispatchProb = 0.35;

  /// Words per request record in the input image.
  unsigned RecordWords = 8;
  uint64_t MemWords = 1 << 16;

  /// Extra straight-line arithmetic per block (code-size dial).
  unsigned ArithDensity = 3;

  /// RpcFanout: backend RPC calls issued per request by the frontend.
  unsigned FanoutBackends = 6;
  /// RpcFanout: probability a backend call path carries a timeout/retry
  /// check (the retry arm is the archetype's cold path).
  double RpcTimeoutProb = 0.5;

  /// InterpLoop: distinct opcode handlers, and the length of the bytecode
  /// program each request interprets.
  unsigned NumOpcodes = 24;
  unsigned BytecodeLength = 48;
  /// InterpLoop: Zipf skew of the opcode mix (hot opcodes dominate).
  double OpcodeSkew = 1.4;

  /// ColdBoot: one-shot init phases executed in order before the (short)
  /// steady-state loop. Each phase runs exactly once, so layout — not
  /// branch bias — decides its cost.
  unsigned BootPhases = 40;
};

/// Generates the program. The module's entry function is "main"; it
/// returns a checksum of all processed requests (used to verify that
/// every PGO variant preserves semantics).
std::unique_ptr<Module> generateProgram(const WorkloadConfig &Config);

/// Generates an input memory image for \p Config with the given seed.
/// \p DistributionShift (0..1) perturbs the value distribution slightly,
/// modeling train/eval differences.
std::vector<int64_t> generateInput(const WorkloadConfig &Config,
                                   uint64_t Seed,
                                   double DistributionShift = 0.0);

} // namespace csspgo

#endif // CSSPGO_WORKLOAD_PROGRAMGENERATOR_H
