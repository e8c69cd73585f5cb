//===- ir/Module.cpp - Module ---------------------------------------------===//

#include "ir/Module.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace csspgo {

Function *Module::createFunction(const std::string &FName,
                                 unsigned NumParams) {
  assert(!FunctionMap.count(FName) && "duplicate function name");
  Functions.push_back(std::make_unique<Function>(this, FName, NumParams));
  Function *F = Functions.back().get();
  FunctionMap[FName] = F;
  GuidNames[F->getGuid()] = FName;
  return F;
}

Function *Module::getFunction(const std::string &FName) const {
  auto It = FunctionMap.find(FName);
  return It == FunctionMap.end() ? nullptr : It->second;
}

void Module::eraseFunction(Function *F) {
  FunctionMap.erase(F->getName());
  auto It = std::find_if(
      Functions.begin(), Functions.end(),
      [F](const std::unique_ptr<Function> &P) { return P.get() == F; });
  assert(It != Functions.end() && "function not in module");
  Functions.erase(It);
}

std::unique_ptr<Module> Module::clone() const {
  auto New = std::make_unique<Module>(Name);
  New->EntryFunction = EntryFunction;
  New->MemWords = MemWords;
  New->GuidNames = GuidNames;
  New->FunctionTable = FunctionTable;

  for (const auto &F : Functions) {
    Function *NF = New->createFunction(F->getName(), F->getNumParams());
    NF->ensureRegs(F->getNumRegs());
    NF->NoInline = F->NoInline;
    NF->AlwaysInline = F->AlwaysInline;
    NF->IsEntryPoint = F->IsEntryPoint;
    NF->NextProbeId = F->NextProbeId;
    NF->ProbeCFGChecksum = F->ProbeCFGChecksum;
    NF->HasProbes = F->HasProbes;
    NF->NumCounters = F->NumCounters;
    NF->HasEntryCount = F->HasEntryCount;
    NF->EntryCount = F->EntryCount;

    std::unordered_map<const BasicBlock *, BasicBlock *> BlockMap;
    for (const auto &BB : F->Blocks) {
      BasicBlock *NB = NF->createBlock("bb");
      NB->setLabel(BB->getLabel());
      NB->Insts = BB->Insts;
      NB->HasCount = BB->HasCount;
      NB->Count = BB->Count;
      NB->SuccWeights = BB->SuccWeights;
      NB->IsColdSection = BB->IsColdSection;
      BlockMap[BB.get()] = NB;
    }
    for (auto &NB : NF->Blocks) {
      for (Instruction &I : NB->Insts) {
        if (I.Succ0)
          I.Succ0 = BlockMap.at(I.Succ0);
        if (I.Succ1)
          I.Succ1 = BlockMap.at(I.Succ1);
      }
    }
  }
  return New;
}

} // namespace csspgo
