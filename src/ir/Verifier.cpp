//===- ir/Verifier.cpp - IR verifier --------------------------------------===//

#include "ir/Verifier.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>

namespace csspgo {

std::vector<std::string> verifyFunction(const Function &F) {
  std::vector<std::string> Problems;
  auto Err = [&](const std::string &Msg) {
    Problems.push_back(F.getName() + ": " + Msg);
  };

  if (F.Blocks.empty()) {
    Err("function has no blocks");
    return Problems;
  }

  // The function's blocks, sorted by address: a successor is owned when
  // its pointer is among them, compared without dereferencing it (a
  // dangling successor must not be read).
  std::vector<const BasicBlock *> Owned;
  Owned.reserve(F.Blocks.size());
  for (const auto &BB : F.Blocks)
    Owned.push_back(BB.get());
  std::sort(Owned.begin(), Owned.end(), std::less<>());
  auto Owns = [&Owned](const BasicBlock *BB) {
    return BB && std::binary_search(Owned.begin(), Owned.end(), BB,
                                    std::less<>());
  };

  const Module *M = F.getParent();

  for (const auto &BB : F.Blocks) {
    if (BB->Insts.empty()) {
      Err("block " + BB->getLabel() + " is empty");
      continue;
    }
    if (!BB->Insts.back().isTerminator())
      Err("block " + BB->getLabel() + " lacks a terminator");

    for (size_t I = 0; I != BB->Insts.size(); ++I) {
      const Instruction &Inst = BB->Insts[I];
      if (Inst.isTerminator() && I + 1 != BB->Insts.size())
        Err("block " + BB->getLabel() + " has a terminator mid-block");

      auto CheckOp = [&](const Operand &O) {
        if (O.isReg() && O.getReg() >= F.getNumRegs())
          Err("register r" + std::to_string(O.getReg()) +
              " out of range in " + BB->getLabel());
      };
      CheckOp(Inst.A);
      CheckOp(Inst.B);
      CheckOp(Inst.C);
      for (const Operand &O : Inst.Args)
        CheckOp(O);
      if (Inst.Dst != InvalidReg && Inst.Dst >= F.getNumRegs())
        Err("dst register out of range in " + BB->getLabel());

      if (Inst.Op == Opcode::Br || Inst.Op == Opcode::CondBr) {
        if (!Owns(Inst.Succ0))
          Err("dangling Succ0 in " + BB->getLabel());
        if (Inst.Op == Opcode::CondBr && !Owns(Inst.Succ1))
          Err("dangling Succ1 in " + BB->getLabel());
      }

      if (Inst.Op == Opcode::Call && M && !M->getFunction(Inst.Callee))
        Err("call to unknown function '" + Inst.Callee + "'");
      if (Inst.Op == Opcode::CallIndirect && M &&
          M->FunctionTable.empty())
        Err("indirect call without a module function table");

      // Probe ids are 1-based; 0 is reserved for "no probe". Note that
      // duplicate probe ids are legal: code duplication (unroll, tail dup,
      // jump threading) clones probes and profgen sums the copies (§III-A).
      if (Inst.isProbe() && Inst.ProbeId == 0)
        Err("probe with id 0 in " + BB->getLabel());
    }

    if (!BB->SuccWeights.empty() &&
        BB->SuccWeights.size() != BB->numSuccessors())
      Err("edge weight arity mismatch in " + BB->getLabel());
  }
  return Problems;
}

std::vector<std::string> verifyModule(const Module &M) {
  std::vector<std::string> Problems;
  for (const auto &F : M.Functions) {
    auto P = verifyFunction(*F);
    Problems.insert(Problems.end(), P.begin(), P.end());
  }
  if (!M.EntryFunction.empty() && !M.getFunction(M.EntryFunction))
    Problems.push_back("entry function '" + M.EntryFunction + "' not found");
  for (const std::string &Entry : M.FunctionTable)
    if (!M.getFunction(Entry))
      Problems.push_back("function table entry '" + Entry + "' not found");
  return Problems;
}

void verifyOrDie(const Module &M, const char *When) {
  auto Problems = verifyModule(M);
  if (Problems.empty())
    return;
  std::fprintf(stderr, "IR verification failed %s:\n", When);
  for (const std::string &P : Problems)
    std::fprintf(stderr, "  %s\n", P.c_str());
  std::abort();
}

} // namespace csspgo
