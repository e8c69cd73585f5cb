//===- support/SourceText.cpp - Formatting helpers ------------------------===//

#include "support/SourceText.h"

#include <cassert>
#include <cstdio>

namespace csspgo {

std::string formatSignedPercent(double Value) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%+.2f%%", Value);
  return Buf;
}

std::string formatPercent(double Value) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f%%", Value);
  return Buf;
}

std::string formatBytes(uint64_t Bytes) {
  char Buf[32];
  if (Bytes < 1024) {
    std::snprintf(Buf, sizeof(Buf), "%llu B",
                  static_cast<unsigned long long>(Bytes));
  } else if (Bytes < 1024 * 1024) {
    std::snprintf(Buf, sizeof(Buf), "%.1f KiB", Bytes / 1024.0);
  } else {
    std::snprintf(Buf, sizeof(Buf), "%.1f MiB", Bytes / (1024.0 * 1024.0));
  }
  return Buf;
}

std::string padRight(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return S + std::string(Width - S.size(), ' ');
}

TextTable::TextTable(std::vector<std::string> Header) {
  Rows.push_back(std::move(Header));
}

void TextTable::addRow(std::vector<std::string> Row) {
  assert(Row.size() == Rows.front().size() && "row arity mismatch");
  Rows.push_back(std::move(Row));
}

std::string TextTable::render() const {
  std::vector<size_t> Widths(Rows.front().size(), 0);
  for (const auto &Row : Rows)
    for (size_t I = 0; I != Row.size(); ++I)
      if (Row[I].size() > Widths[I])
        Widths[I] = Row[I].size();

  std::string Out;
  for (size_t R = 0; R != Rows.size(); ++R) {
    for (size_t I = 0; I != Rows[R].size(); ++I) {
      if (I)
        Out += "  ";
      Out += padRight(Rows[R][I], Widths[I]);
    }
    Out += '\n';
    if (R == 0) {
      for (size_t I = 0; I != Widths.size(); ++I) {
        if (I)
          Out += "  ";
        Out += std::string(Widths[I], '-');
      }
      Out += '\n';
    }
  }
  return Out;
}

} // namespace csspgo
