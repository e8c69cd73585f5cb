//===- support/SourceText.h - Formatting helpers --------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string/formatting helpers shared by printers, profile text IO and
/// the benchmark harnesses (fixed-width tables, percentages, counts).
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_SUPPORT_SOURCETEXT_H
#define CSSPGO_SUPPORT_SOURCETEXT_H

#include <cstdint>
#include <string>
#include <vector>

namespace csspgo {

/// Formats \p Value as e.g. "+3.42%" (always signed, two decimals).
std::string formatSignedPercent(double Value);

/// Formats \p Value as e.g. "12.3%" (unsigned, one decimal).
std::string formatPercent(double Value);

/// Formats a byte count as e.g. "12.4 KiB".
std::string formatBytes(uint64_t Bytes);

/// Right-pads \p S with spaces to width \p Width.
std::string padRight(const std::string &S, size_t Width);

/// A tiny fixed-width text table used by the bench binaries to print
/// paper-style rows ("Fig 6", "Table I", ...).
class TextTable {
public:
  explicit TextTable(std::vector<std::string> Header);

  /// Appends one data row; must have the same arity as the header.
  void addRow(std::vector<std::string> Row);

  /// Renders the table with aligned columns.
  std::string render() const;

private:
  std::vector<std::vector<std::string>> Rows;
};

} // namespace csspgo

#endif // CSSPGO_SUPPORT_SOURCETEXT_H
