//===- tests/Parser.cpp - Textual IR parser -------------------------------===//

#include "Parser.h"


#include <cctype>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>

namespace csspgo {

namespace {

class Parser {
public:
  explicit Parser(const std::string &Text) : Text(Text) {}

  std::unique_ptr<Module> run(std::string *Error);

private:
  bool nextLine(std::string &Line);
  [[noreturn]] void fail(const std::string &Msg);

  /// Token helpers over a single line.
  static std::string trim(const std::string &S);
  static bool startsWith(const std::string &S, const char *Prefix) {
    return S.rfind(Prefix, 0) == 0;
  }

  Operand parseOperand(const std::string &Tok);
  void parseInstruction(const std::string &Line, BasicBlock *BB);
  void parseBlockHeader(const std::string &Line);
  void parseFunctionHeader(const std::string &Line);

  const std::string &Text;
  size_t Pos = 0;
  unsigned LineNo = 0;

  std::unique_ptr<Module> M;
  Function *F = nullptr;
  BasicBlock *BB = nullptr;
  /// Per-function label -> block, plus branch fixups resolved at '}'.
  std::map<std::string, BasicBlock *> Labels;
  /// (block, instruction index, label, which-successor): indices survive
  /// vector growth where raw Instruction pointers would not.
  std::vector<std::tuple<BasicBlock *, size_t, std::string, int>> Fixups;
  std::string ErrorMsg;
};

std::string Parser::trim(const std::string &S) {
  size_t B = 0, E = S.size();
  while (B < E && std::isspace(static_cast<unsigned char>(S[B])))
    ++B;
  while (E > B && std::isspace(static_cast<unsigned char>(S[E - 1])))
    --E;
  return S.substr(B, E - B);
}

bool Parser::nextLine(std::string &Line) {
  if (Pos >= Text.size())
    return false;
  size_t End = Text.find('\n', Pos);
  if (End == std::string::npos)
    End = Text.size();
  Line = Text.substr(Pos, End - Pos);
  Pos = End + 1;
  ++LineNo;
  return true;
}

void Parser::fail(const std::string &Msg) {
  throw std::runtime_error("line " + std::to_string(LineNo) + ": " + Msg);
}

Operand Parser::parseOperand(const std::string &TokIn) {
  std::string Tok = trim(TokIn);
  if (Tok.empty() || Tok == "<none>")
    return Operand();
  if (Tok[0] == 'r' && Tok.size() > 1 &&
      std::isdigit(static_cast<unsigned char>(Tok[1])))
    return Operand::reg(
        static_cast<RegId>(std::strtoul(Tok.c_str() + 1, nullptr, 10)));
  return Operand::imm(std::strtoll(Tok.c_str(), nullptr, 10));
}

void Parser::parseFunctionHeader(const std::string &Line) {
  // func NAME(P params, R regs) [; entry_count=N] [; probed checksum=C] {
  size_t Open = Line.find('(');
  size_t Close = Line.find(')');
  if (Open == std::string::npos || Close == std::string::npos)
    fail("malformed function header");
  std::string Name = trim(Line.substr(5, Open - 5));
  unsigned Params = 0, Regs = 0;
  if (std::sscanf(Line.c_str() + Open, "(%u params, %u regs)", &Params,
                  &Regs) != 2)
    fail("malformed function signature");
  F = M->createFunction(Name, Params);
  F->ensureRegs(Regs);
  Labels.clear();
  Fixups.clear();
  BB = nullptr;

  size_t EC = Line.find("entry_count=");
  if (EC != std::string::npos) {
    F->HasEntryCount = true;
    F->EntryCount = std::strtoull(Line.c_str() + EC + 12, nullptr, 10);
  }
  size_t CS = Line.find("probed checksum=");
  if (CS != std::string::npos) {
    F->HasProbes = true;
    F->ProbeCFGChecksum =
        std::strtoull(Line.c_str() + CS + 16, nullptr, 10);
  }
}

void Parser::parseBlockHeader(const std::string &Line) {
  size_t Colon = Line.find(':');
  std::string Label = trim(Line.substr(0, Colon));
  BB = F->createBlock("parsed");
  BB->setLabel(Label);
  Labels[Label] = BB;

  size_t Count = Line.find("count=");
  if (Count != std::string::npos)
    BB->setCount(std::strtoull(Line.c_str() + Count + 6, nullptr, 10));
  size_t Weights = Line.find("weights=[");
  if (Weights != std::string::npos) {
    const char *P = Line.c_str() + Weights + 9;
    while (*P && *P != ']') {
      BB->SuccWeights.push_back(std::strtoull(P, const_cast<char **>(&P),
                                              10));
      if (*P == ',')
        ++P;
    }
  }
  if (Line.find("; cold") != std::string::npos)
    BB->IsColdSection = true;
}

void Parser::parseInstruction(const std::string &LineIn, BasicBlock *Block) {
  std::string Line = trim(LineIn);
  Instruction I;
  I.OriginGuid = F->getGuid();

  // Peel the !dbg suffix.
  size_t Dbg = Line.find("  !dbg :");
  if (Dbg != std::string::npos) {
    const char *P = Line.c_str() + Dbg + 8;
    I.DL.Line = static_cast<uint32_t>(
        std::strtoul(P, const_cast<char **>(&P), 10));
    if (*P == '.')
      I.DL.Discriminator = static_cast<uint32_t>(
          std::strtoul(P + 1, nullptr, 10));
    Line = trim(Line.substr(0, Dbg));
  }
  // Peel a !callprobe suffix.
  size_t CP = Line.find(" !callprobe ");
  if (CP != std::string::npos) {
    I.ProbeId = static_cast<uint32_t>(
        std::strtoul(Line.c_str() + CP + 12, nullptr, 10));
    Line = trim(Line.substr(0, CP));
  }

  auto SplitArgs = [this](const std::string &S) {
    std::vector<Operand> Args;
    for (const std::string &Part : splitString(S, ','))
      if (!trim(Part).empty())
        Args.push_back(parseOperand(Part));
    return Args;
  };

  if (startsWith(Line, "store [")) {
    size_t RB = Line.find(']');
    I.Op = Opcode::Store;
    I.A = parseOperand(Line.substr(7, RB - 7));
    I.B = parseOperand(Line.substr(Line.find('=', RB) + 1));
  } else if (startsWith(Line, "ret ")) {
    I.Op = Opcode::Ret;
    I.A = parseOperand(Line.substr(4));
  } else if (startsWith(Line, "br ")) {
    I.Op = Opcode::Br;
    Block->Insts.push_back(I);
    Fixups.emplace_back(Block, Block->Insts.size() - 1, trim(Line.substr(3)),
                        0);
    return;
  } else if (startsWith(Line, "condbr ")) {
    I.Op = Opcode::CondBr;
    auto Parts = splitString(Line.substr(7), ',');
    if (Parts.size() != 3)
      fail("condbr needs 3 operands");
    I.A = parseOperand(Parts[0]);
    Block->Insts.push_back(I);
    Fixups.emplace_back(Block, Block->Insts.size() - 1, trim(Parts[1]), 0);
    Fixups.emplace_back(Block, Block->Insts.size() - 1, trim(Parts[2]), 1);
    return;
  } else if (startsWith(Line, "pseudoprobe ")) {
    I.Op = Opcode::PseudoProbe;
    size_t G = Line.find("guid=");
    size_t Id = Line.find(" id="); // Leading space: "id=" occurs in "guid=".
    if (G == std::string::npos || Id == std::string::npos)
      fail("malformed pseudoprobe");
    I.OriginGuid = std::strtoull(Line.c_str() + G + 5, nullptr, 10);
    I.ProbeId = static_cast<uint32_t>(
        std::strtoul(Line.c_str() + Id + 4, nullptr, 10));
  } else if (startsWith(Line, "instrprof.incr ")) {
    I.Op = Opcode::InstrProfIncr;
    size_t C = Line.find("counter=");
    I.ProbeId = static_cast<uint32_t>(
        std::strtoul(Line.c_str() + C + 8, nullptr, 10));
  } else {
    // rN = <op> ...
    size_t Eq = Line.find('=');
    if (Eq == std::string::npos || Line[0] != 'r')
      fail("unrecognized instruction: " + Line);
    I.Dst = static_cast<RegId>(std::strtoul(Line.c_str() + 1, nullptr, 10));
    std::string RHS = trim(Line.substr(Eq + 1));

    if (startsWith(RHS, "call ") || startsWith(RHS, "tailcall ")) {
      I.Op = Opcode::Call;
      I.IsTailCall = startsWith(RHS, "tailcall ");
      size_t NameBegin = I.IsTailCall ? 9 : 5;
      size_t Open = RHS.find('(');
      size_t Close = RHS.rfind(')');
      I.Callee = trim(RHS.substr(NameBegin, Open - NameBegin));
      I.Args = SplitArgs(RHS.substr(Open + 1, Close - Open - 1));
    } else if (startsWith(RHS, "callindirect [")) {
      I.Op = Opcode::CallIndirect;
      size_t RB = RHS.find(']');
      I.A = parseOperand(RHS.substr(14, RB - 14));
      size_t Open = RHS.find('(', RB);
      size_t Close = RHS.rfind(')');
      I.Args = SplitArgs(RHS.substr(Open + 1, Close - Open - 1));
    } else if (startsWith(RHS, "select ")) {
      I.Op = Opcode::Select;
      auto Parts = splitString(RHS.substr(7), ',');
      if (Parts.size() != 3)
        fail("select needs 3 operands");
      I.A = parseOperand(Parts[0]);
      I.B = parseOperand(Parts[1]);
      I.C = parseOperand(Parts[2]);
    } else if (startsWith(RHS, "load [")) {
      I.Op = Opcode::Load;
      size_t RB = RHS.find(']');
      I.A = parseOperand(RHS.substr(6, RB - 6));
    } else if (startsWith(RHS, "mov ")) {
      I.Op = Opcode::Mov;
      I.A = parseOperand(RHS.substr(4));
    } else {
      // Binary: "<mnemonic> a, b"
      size_t Space = RHS.find(' ');
      if (Space == std::string::npos)
        fail("unrecognized instruction: " + Line);
      std::string Mn = RHS.substr(0, Space);
      static const std::map<std::string, Opcode> Binary = {
          {"add", Opcode::Add},     {"sub", Opcode::Sub},
          {"mul", Opcode::Mul},     {"div", Opcode::Div},
          {"mod", Opcode::Mod},     {"and", Opcode::And},
          {"or", Opcode::Or},       {"xor", Opcode::Xor},
          {"shl", Opcode::Shl},     {"shr", Opcode::Shr},
          {"cmpeq", Opcode::CmpEQ}, {"cmpne", Opcode::CmpNE},
          {"cmplt", Opcode::CmpLT}, {"cmple", Opcode::CmpLE},
          {"cmpgt", Opcode::CmpGT}, {"cmpge", Opcode::CmpGE}};
      auto It = Binary.find(Mn);
      if (It == Binary.end())
        fail("unknown mnemonic '" + Mn + "'");
      I.Op = It->second;
      auto Parts = splitString(RHS.substr(Space + 1), ',');
      if (Parts.size() != 2)
        fail("binary op needs 2 operands");
      I.A = parseOperand(Parts[0]);
      I.B = parseOperand(Parts[1]);
    }
  }
  Block->Insts.push_back(std::move(I));
}

std::unique_ptr<Module> Parser::run(std::string *Error) {
  try {
    std::string Line;
    std::string EntryName;
    M = std::make_unique<Module>("parsed");
    while (nextLine(Line)) {
      std::string T = trim(Line);
      if (T.empty())
        continue;
      if (startsWith(T, "; module")) {
        size_t Comma = T.find(',');
        if (Comma != std::string::npos)
          M->setName(trim(T.substr(9, Comma - 9)));
        size_t E = T.find("entry=");
        if (E != std::string::npos)
          EntryName = trim(T.substr(E + 6));
        continue;
      }
      if (startsWith(T, "func ")) {
        parseFunctionHeader(T);
        continue;
      }
      if (T == "}") {
        if (!F)
          fail("'}' outside a function");
        for (auto &[Blk, Idx, Label, Which] : Fixups) {
          auto It = Labels.find(Label);
          if (It == Labels.end())
            fail("unknown block label '" + Label + "'");
          Instruction &Inst = Blk->Insts[Idx];
          (Which == 0 ? Inst.Succ0 : Inst.Succ1) = It->second;
        }
        F = nullptr;
        BB = nullptr;
        continue;
      }
      if (!F)
        fail("instruction outside a function");
      // Block headers are unindented "label:" lines; the printer indents
      // every instruction by two spaces.
      if (Line[0] != ' ') {
        if (T.find(':') == std::string::npos)
          fail("expected a block label, got: " + T);
        parseBlockHeader(T);
        continue;
      }
      if (!BB)
        fail("instruction before any block label");
      parseInstruction(T, BB);
    }
    M->EntryFunction = EntryName;
    return std::move(M);
  } catch (const std::exception &E) {
    if (Error)
      *Error = E.what();
    return nullptr;
  }
}

} // namespace

std::unique_ptr<Module> parseModule(const std::string &Text,
                                    std::string *Error) {
  return Parser(Text).run(Error);
}

std::vector<std::string> splitString(const std::string &S, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  for (size_t I = 0; I <= S.size(); ++I) {
    if (I == S.size() || S[I] == Sep) {
      Parts.push_back(S.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  return Parts;
}

} // namespace csspgo
