//===- ir/Printer.h - Textual IR printer ------------------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Human-readable IR dumping for debugging, examples and golden tests.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_IR_PRINTER_H
#define CSSPGO_IR_PRINTER_H

#include "ir/Module.h"

#include <string>

namespace csspgo {

std::string printInstruction(const Instruction &I);
std::string printBlock(const BasicBlock &BB);
std::string printFunction(const Function &F);
std::string printModule(const Module &M);

} // namespace csspgo

#endif // CSSPGO_IR_PRINTER_H
