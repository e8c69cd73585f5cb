//===- tests/Parser.h - Textual IR parser -----------------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parser for the textual IR produced by ir/Printer.h, enabling module
/// round-trips for golden tests and hand-written test inputs. Test-only:
/// nothing in the library reads IR text, so it links into csspgo_tests
/// alone. The grammar is exactly the printer's output:
///
///   ; module NAME, entry=ENTRY
///   func NAME(P params, R regs) [; entry_count=N] [; probed checksum=C] {
///   label:  [; count=N weights=[a,b]] [; cold]
///     r3 = add r1, 2  !dbg :12[.d]
///     condbr r3, then.1, else.2  !dbg :13
///     ...
///   }
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_TESTS_PARSER_H
#define CSSPGO_TESTS_PARSER_H

#include "ir/Module.h"

#include <memory>
#include <string>
#include <vector>

namespace csspgo {

/// Parses \p Text into a module. On failure returns nullptr and, when
/// \p Error is non-null, stores a line-numbered diagnostic there.
std::unique_ptr<Module> parseModule(const std::string &Text,
                                    std::string *Error = nullptr);

/// Splits \p S on \p Sep, keeping empty fields.
std::vector<std::string> splitString(const std::string &S, char Sep);

} // namespace csspgo

#endif // CSSPGO_TESTS_PARSER_H
