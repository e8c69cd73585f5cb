//===- inference/ProfileInference.h - Profile inference ----------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Profile inference ("Profi", ref [10]): turns the raw, possibly
/// inconsistent block counts produced by sample correlation into a
/// flow-consistent profile (inflow == count == outflow at every block)
/// with per-edge weights, by solving a minimum-cost circulation that
/// rewards matching the measured counts and penalizes deviation. Both the
/// AutoFDO baseline and CSSPGO run this stage (§IV-A: "Since CSSPGO by
/// default uses Profi ... we also turned on Profi for AutoFDO").
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_INFERENCE_PROFILEINFERENCE_H
#define CSSPGO_INFERENCE_PROFILEINFERENCE_H

#include "ir/Module.h"

namespace csspgo {

/// Runs inference on \p F in place: blocks get consistent Count and
/// SuccWeights. Blocks without annotation participate with weight 0 and
/// may receive inferred flow. No-op when no block has a count.
void inferFunctionProfile(Function &F);

/// Runs inference over every function of \p M.
void inferModuleProfile(Module &M);

} // namespace csspgo

#endif // CSSPGO_INFERENCE_PROFILEINFERENCE_H
