//===- tests/ParserTest.cpp - IR parser round-trip tests --------*- C++ -*-===//

#include "Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "probe/ProbeInserter.h"
#include "workload/ProgramGenerator.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace csspgo;
using namespace csspgo::testing;

namespace {

/// Print -> parse -> print must be a fixed point.
void expectRoundTrip(const Module &M) {
  std::string T1 = printModule(M);
  std::string Error;
  auto Back = parseModule(T1, &Error);
  ASSERT_NE(Back, nullptr) << Error;
  // Function table and entry are not part of the printed form beyond the
  // header; copy the table for verification purposes.
  Back->FunctionTable = M.FunctionTable;
  EXPECT_TRUE(verifyModule(*Back).empty());
  EXPECT_EQ(printModule(*Back), T1);
}

} // namespace

TEST(Parser, RoundTripsCallerModule) {
  auto M = makeCallerModule(5);
  expectRoundTrip(*M);
}

TEST(Parser, RoundTripsProbedModule) {
  auto M = makeCallerModule(5);
  insertProbes(*M, AnchorKind::PseudoProbe);
  expectRoundTrip(*M);
}

TEST(Parser, RoundTripsCounterModule) {
  auto M = makeCallerModule(5);
  insertProbes(*M, AnchorKind::InstrCounter);
  expectRoundTrip(*M);
}

TEST(Parser, RoundTripsAnnotatedModule) {
  auto M = makeCallerModule(5);
  Function *F = M->getFunction("leaf");
  F->Blocks[0]->setCount(100);
  F->Blocks[0]->SuccWeights = {60, 40};
  F->Blocks[2]->IsColdSection = true;
  F->HasEntryCount = true;
  F->EntryCount = 7;
  expectRoundTrip(*M);
}

TEST(Parser, RoundTripsGeneratedWorkload) {
  WorkloadConfig C;
  C.Seed = 5;
  C.Requests = 10;
  C.NumServices = 2;
  C.NumMids = 4;
  C.NumUtils = 3;
  C.MidsPerService = 2;
  C.IndirectDispatchProb = 1.0; // Exercise callindirect printing/parsing.
  auto M = generateProgram(C);
  expectRoundTrip(*M);
}

TEST(Parser, ParsedModuleExecutesIdentically) {
  auto M = makeCallerModule(25);
  std::string Text = printModule(*M);
  auto Back = parseModule(Text);
  ASSERT_NE(Back, nullptr);
  Back->EntryFunction = "main";
  auto R1 = compileAndRun(*M);
  auto R2 = compileAndRun(*Back);
  EXPECT_EQ(R1.ExitValue, R2.ExitValue);
  EXPECT_EQ(R1.Instructions, R2.Instructions);
}

TEST(Parser, ReportsErrors) {
  std::string Error;
  EXPECT_EQ(parseModule("func broken(\n", &Error), nullptr);
  EXPECT_NE(Error.find("line 1"), std::string::npos);

  EXPECT_EQ(parseModule("func f(0 params, 1 regs) {\nentry:\n  br nowhere\n}\n",
                        &Error),
            nullptr);
  EXPECT_NE(Error.find("unknown block label"), std::string::npos);

  EXPECT_EQ(parseModule("func f(0 params, 0 regs) {\n  r0 = zorble 1, 2\n}\n",
                        &Error),
            nullptr);
}
