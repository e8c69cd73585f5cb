//===- ir/Function.cpp - Function -----------------------------------------===//

#include "ir/Function.h"

#include "support/Hashing.h"

#include <algorithm>

namespace csspgo {

Function::Function(Module *Parent, std::string Name, unsigned NumParams)
    : Parent(Parent), Name(std::move(Name)),
      Guid(computeFunctionGuid(this->Name)), NumParams(NumParams),
      NumRegs(NumParams) {}

BasicBlock *Function::createBlock(const std::string &LabelHint) {
  std::string Label = LabelHint + "." + std::to_string(NextBlockId);
  Blocks.push_back(std::make_unique<BasicBlock>(this, Label, NextBlockId++));
  return Blocks.back().get();
}

void Function::eraseBlock(BasicBlock *BB) {
  assert(BB != getEntry() && "cannot erase the entry block");
  auto It = std::find_if(
      Blocks.begin(), Blocks.end(),
      [BB](const std::unique_ptr<BasicBlock> &P) { return P.get() == BB; });
  assert(It != Blocks.end() && "block not in function");
  Blocks.erase(It);
}

void Function::renumberBlocks() {
  unsigned Id = 0;
  for (auto &BB : Blocks) {
    BB->setLabel(Name + ".bb" + std::to_string(Id));
    BB->Number = Id++;
  }
  NextBlockId = Id;
}

unsigned Function::blockIndex(const BasicBlock *BB) const {
  for (unsigned I = 0; I != Blocks.size(); ++I)
    if (Blocks[I].get() == BB)
      return I;
  return ~0u;
}

std::vector<unsigned> Function::blockPositions() const {
  std::vector<unsigned> Pos(getMaxBlockNumber(), ~0u);
  for (unsigned I = 0; I != Blocks.size(); ++I)
    Pos[Blocks[I]->getNumber()] = I;
  return Pos;
}

} // namespace csspgo
