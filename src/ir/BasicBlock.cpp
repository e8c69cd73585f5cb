//===- ir/BasicBlock.cpp - Basic block ------------------------------------===//

#include "ir/BasicBlock.h"

namespace csspgo {

unsigned BasicBlock::numSuccessors() const {
  if (!hasTerminator())
    return 0;
  const Instruction &T = terminator();
  switch (T.Op) {
  case Opcode::Ret:
    return 0;
  case Opcode::Br:
    return 1;
  case Opcode::CondBr:
    return 2;
  default:
    return 0;
  }
}

void BasicBlock::replaceSuccessor(BasicBlock *From, BasicBlock *To) {
  if (!hasTerminator())
    return;
  Instruction &T = terminator();
  if (T.Succ0 == From)
    T.Succ0 = To;
  if (T.Succ1 == From)
    T.Succ1 = To;
}

const Instruction *BasicBlock::getBlockProbe() const {
  for (const Instruction &I : Insts)
    if (I.isProbe())
      return &I;
  return nullptr;
}

uint64_t BasicBlock::succWeight(unsigned SuccIdx) const {
  unsigned N = numSuccessors();
  assert(SuccIdx < N && "successor index out of range");
  if (SuccIdx < SuccWeights.size())
    return SuccWeights[SuccIdx];
  return N ? Count / N : 0;
}

} // namespace csspgo
