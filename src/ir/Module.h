//===- ir/Module.h - Module -------------------------------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Module: the unit of compilation. Owns functions and records the entry
/// point and the size of the global memory the program operates on.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_IR_MODULE_H
#define CSSPGO_IR_MODULE_H

#include "ir/Function.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace csspgo {

class Module {
public:
  explicit Module(std::string Name) : Name(std::move(Name)) {}

  const std::string &getName() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  /// Creates a function; names must be unique within the module.
  Function *createFunction(const std::string &FName, unsigned NumParams);

  /// Looks a function up by name; returns nullptr if absent.
  Function *getFunction(const std::string &FName) const;

  /// Removes \p F. No remaining call sites may reference it.
  void eraseFunction(Function *F);

  std::vector<std::unique_ptr<Function>> Functions;

  /// Name of the entry function executed by the simulator.
  std::string EntryFunction;

  /// Number of 64-bit words of global memory (input data lives here).
  uint64_t MemWords = 1 << 16;

  /// Indirect-call function table: CallIndirect's slot operand indexes
  /// into this (the moral equivalent of a vtable / function-pointer
  /// array). Entries keep their functions alive through dead-function
  /// removal, like address-taken functions in a real linker.
  std::vector<std::string> FunctionTable;

  /// Adds \p FName to the function table and returns its slot.
  uint32_t addFunctionTableEntry(const std::string &FName) {
    FunctionTable.push_back(FName);
    return static_cast<uint32_t>(FunctionTable.size() - 1);
  }

  /// Returns the slot of \p FName in the table, or ~0u.
  uint32_t functionTableSlot(const std::string &FName) const {
    for (uint32_t I = 0; I != FunctionTable.size(); ++I)
      if (FunctionTable[I] == FName)
        return I;
    return ~0u;
  }

  /// Deep-copies the module (blocks, instructions, successor pointers and
  /// profile annotations are all remapped/copied).
  std::unique_ptr<Module> clone() const;

  /// Names of all functions ever created, including ones later removed as
  /// dead (debug info and probe descriptors keep symbol names even when
  /// the standalone body is gone — required to symbolize inlined copies).
  const std::map<uint64_t, std::string> &guidNames() const {
    return GuidNames;
  }

private:
  std::string Name;
  std::map<std::string, Function *> FunctionMap;
  std::map<uint64_t, std::string> GuidNames;
};

} // namespace csspgo

#endif // CSSPGO_IR_MODULE_H
