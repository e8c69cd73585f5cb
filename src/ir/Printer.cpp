//===- ir/Printer.cpp - Textual IR printer --------------------------------===//

#include "ir/Printer.h"

#include <sstream>

namespace csspgo {

static std::string operandStr(const Operand &O) {
  if (O.isReg())
    return "r" + std::to_string(O.getReg());
  if (O.isImm())
    return std::to_string(O.getImm());
  return "<none>";
}

std::string printInstruction(const Instruction &I) {
  std::ostringstream OS;
  switch (I.Op) {
  case Opcode::Store:
    OS << "store [" << operandStr(I.A) << "] = " << operandStr(I.B);
    break;
  case Opcode::Ret:
    OS << "ret " << operandStr(I.A);
    break;
  case Opcode::Br:
    OS << "br " << I.Succ0->getLabel();
    break;
  case Opcode::CondBr:
    OS << "condbr " << operandStr(I.A) << ", " << I.Succ0->getLabel() << ", "
       << I.Succ1->getLabel();
    break;
  case Opcode::Call: {
    OS << "r" << I.Dst << " = " << (I.IsTailCall ? "tailcall " : "call ")
       << I.Callee << "(";
    for (size_t A = 0; A != I.Args.size(); ++A) {
      if (A)
        OS << ", ";
      OS << operandStr(I.Args[A]);
    }
    OS << ")";
    if (I.ProbeId)
      OS << " !callprobe " << I.ProbeId;
    break;
  }
  case Opcode::CallIndirect: {
    OS << "r" << I.Dst << " = callindirect [" << operandStr(I.A) << "](";
    for (size_t A = 0; A != I.Args.size(); ++A) {
      if (A)
        OS << ", ";
      OS << operandStr(I.Args[A]);
    }
    OS << ")";
    if (I.ProbeId)
      OS << " !callprobe " << I.ProbeId;
    break;
  }
  case Opcode::PseudoProbe:
    OS << "pseudoprobe guid=" << I.OriginGuid << " id=" << I.ProbeId;
    break;
  case Opcode::InstrProfIncr:
    OS << "instrprof.incr counter=" << I.ProbeId;
    break;
  case Opcode::Select:
    OS << "r" << I.Dst << " = select " << operandStr(I.A) << ", "
       << operandStr(I.B) << ", " << operandStr(I.C);
    break;
  case Opcode::Load:
    OS << "r" << I.Dst << " = load [" << operandStr(I.A) << "]";
    break;
  case Opcode::Mov:
    OS << "r" << I.Dst << " = mov " << operandStr(I.A);
    break;
  default:
    OS << "r" << I.Dst << " = " << opcodeName(I.Op) << " " << operandStr(I.A)
       << ", " << operandStr(I.B);
    break;
  }
  OS << "  !dbg :" << I.DL.Line;
  if (I.DL.Discriminator)
    OS << "." << I.DL.Discriminator;
  return OS.str();
}

std::string printBlock(const BasicBlock &BB) {
  std::ostringstream OS;
  OS << BB.getLabel() << ":";
  if (BB.HasCount) {
    OS << "  ; count=" << BB.Count;
    if (!BB.SuccWeights.empty()) {
      OS << " weights=[";
      for (size_t I = 0; I != BB.SuccWeights.size(); ++I) {
        if (I)
          OS << ",";
        OS << BB.SuccWeights[I];
      }
      OS << "]";
    }
  }
  if (BB.IsColdSection)
    OS << "  ; cold";
  OS << "\n";
  for (const Instruction &I : BB.Insts)
    OS << "  " << printInstruction(I) << "\n";
  return OS.str();
}

std::string printFunction(const Function &F) {
  std::ostringstream OS;
  OS << "func " << F.getName() << "(" << F.getNumParams() << " params, "
     << F.getNumRegs() << " regs)";
  if (F.HasEntryCount)
    OS << " ; entry_count=" << F.EntryCount;
  if (F.HasProbes)
    OS << " ; probed checksum=" << F.ProbeCFGChecksum;
  OS << " {\n";
  for (const auto &BB : F.Blocks)
    OS << printBlock(*BB);
  OS << "}\n";
  return OS.str();
}

std::string printModule(const Module &M) {
  std::ostringstream OS;
  OS << "; module " << M.getName() << ", entry=" << M.EntryFunction << "\n";
  for (const auto &F : M.Functions)
    OS << printFunction(*F) << "\n";
  return OS.str();
}

} // namespace csspgo
