//===- loader/DebugInfoCorrelator.cpp - Line-based correlation --------------===//

#include "loader/Correlators.h"

#include <algorithm>

namespace csspgo {

void annotateBlocksByLines(const std::vector<BasicBlock *> &Blocks,
                           const FunctionProfile &P, uint64_t OriginGuid) {
  for (BasicBlock *BB : Blocks) {
    uint64_t Weight = 0;
    for (const Instruction &I : BB->Insts) {
      if (I.OriginGuid != OriginGuid)
        continue;
      Weight = std::max(
          Weight, P.bodyAt({I.DL.Line, I.DL.Discriminator}));
    }
    BB->setCount(Weight);
    BB->SuccWeights.clear();
  }
}

ProfileKey callSiteKey(const Instruction &Call, ProfileKind Kind) {
  if (Kind == ProfileKind::ProbeBased)
    return {Call.ProbeId, 0};
  return {Call.DL.Line, Call.DL.Discriminator};
}

} // namespace csspgo
