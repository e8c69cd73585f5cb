//===- examples/context_profiler_demo.cpp - Algorithm 1 walkthrough -------===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
//
// A guided tour of the context-sensitive profiler (§III-B): builds the
// paper's Fig. 4-style program (two vector heads sharing a scalar helper),
// runs it with synchronized LBR + stack sampling, reconstructs calling
// contexts with the virtual unwinder (Algorithm 1), and prints the
// resulting context trie — showing that the shared helper's branch
// behavior is fully separated per caller (Fig. 3b), which a flat profile
// cannot express (Fig. 3a). Finishes with the pre-inliner's decisions.
//
//===----------------------------------------------------------------------===//

#include "codegen/Linker.h"
#include "ir/Builder.h"
#include "ir/Verifier.h"
#include "preinline/PreInliner.h"
#include "probe/ProbeInserter.h"
#include "probe/ProbeTable.h"
#include "profgen/BinarySizeExtractor.h"
#include "profgen/ProfileGenerator.h"
#include "profile/ProfileIO.h"
#include "sim/Executor.h"

#include <cstdio>

using namespace csspgo;

namespace {

/// The paper's Fig. 4 shape:
///   addVectorHead -> scalarOp(mode=ADD) -> scalarAdd path
///   subVectorHead -> scalarOp(mode=SUB) -> scalarSub path
std::unique_ptr<Module> makeFig4Program(int64_t Iters) {
  auto M = std::make_unique<Module>("fig4");

  Function *ScalarOp = M->createFunction("scalarOp", 2); // (x, mode)
  {
    Builder B(ScalarOp);
    BasicBlock *E = ScalarOp->createBlock("entry");
    BasicBlock *AddP = ScalarOp->createBlock("scalarAdd");
    BasicBlock *SubP = ScalarOp->createBlock("scalarSub");
    BasicBlock *J = ScalarOp->createBlock("join");
    B.setInsertBlock(E);
    RegId R = B.emitConst(0);
    B.emitCondBr(Operand::reg(1), AddP, SubP);
    B.setInsertBlock(AddP);
    B.emitBinary(Opcode::Add, Operand::reg(0), Operand::imm(1));
    AddP->Insts.back().Dst = R;
    B.emitBr(J);
    B.setInsertBlock(SubP);
    B.emitBinary(Opcode::Sub, Operand::reg(0), Operand::imm(1));
    SubP->Insts.back().Dst = R;
    B.emitBr(J);
    B.setInsertBlock(J);
    B.emitRet(Operand::reg(R));
  }

  for (const char *Head : {"addVectorHead", "subVectorHead"}) {
    Function *F = M->createFunction(Head, 1);
    Builder B(F);
    BasicBlock *E = F->createBlock("entry");
    B.setInsertBlock(E);
    RegId R = B.emitCall(
        "scalarOp", {Operand::reg(0), Operand::imm(Head[0] == 'a' ? 1 : 0)});
    B.emitRet(Operand::reg(R));
  }

  Function *Main = M->createFunction("main", 0);
  Builder B(Main);
  BasicBlock *E = Main->createBlock("entry");
  BasicBlock *H = Main->createBlock("h");
  BasicBlock *Body = Main->createBlock("b");
  BasicBlock *X = Main->createBlock("x");
  B.setInsertBlock(E);
  RegId Acc = B.emitConst(0);
  RegId I = B.emitConst(0);
  B.emitBr(H);
  B.setInsertBlock(H);
  RegId C = B.emitBinary(Opcode::CmpLT, Operand::reg(I), Operand::imm(Iters));
  B.emitCondBr(Operand::reg(C), Body, X);
  B.setInsertBlock(Body);
  RegId A = B.emitCall("addVectorHead", {Operand::reg(I)});
  RegId S = B.emitCall("subVectorHead", {Operand::reg(I)});
  B.emitBinary(Opcode::Add, Operand::reg(A), Operand::reg(S));
  Body->Insts.back().Dst = Acc;
  B.emitBinary(Opcode::Add, Operand::reg(I), Operand::imm(1));
  Body->Insts.back().Dst = I;
  B.emitBr(H);
  B.setInsertBlock(X);
  B.emitRet(Operand::reg(Acc));
  M->EntryFunction = "main";
  verifyOrDie(*M, "fig4 demo program");
  return M;
}

} // namespace

int main() {
  std::printf("Fig. 3/4 walkthrough: context-sensitive profiling\n"
              "=================================================\n\n");

  // 1. Build + pseudo-instrument.
  auto M = makeFig4Program(5000);
  insertProbes(*M, AnchorKind::PseudoProbe);
  ProbeTable Probes = ProbeTable::fromModule(*M);
  auto Bin = compileToBinary(*M);
  std::printf("program: %zu functions, %llu bytes of code, %zu probes\n",
              M->Functions.size(),
              static_cast<unsigned long long>(Bin->textSize()),
              Bin->Probes.size());

  // 2. Run with synchronized LBR + stack sampling.
  ExecConfig EC;
  EC.Sampler.Enabled = true;
  EC.Sampler.PeriodCycles = 211;
  std::vector<int64_t> Mem(64, 0);
  RunResult R = execute(*Bin, "main", Mem, EC);
  std::printf("profiling run: %llu cycles, %zu PMU samples "
              "(16-deep LBR + stack each)\n\n",
              static_cast<unsigned long long>(R.Cycles), R.Samples.size());

  // 3. Reconstruct contexts (Algorithm 1) and build the trie.
  ProfGenOptions GenOpts;
  GenOpts.Kind = ProfGenKind::CS;
  GenOpts.Parallelism = 1;
  ProfGenResult Gen =
      ProfileGenerator(*Bin, &Probes, GenOpts).generate(R.Samples);
  const CSProfileGenStats &Stats = Gen.Stats;
  ContextProfile &CS = Gen.CS;
  std::printf("unwinder: %llu samples, %llu unsynced\n",
              static_cast<unsigned long long>(Stats.Samples),
              static_cast<unsigned long long>(Stats.UnsyncedSamples));
  std::printf("\ncontext trie (scalarOp probe 2 = add path, probe 3 = sub "
              "path):\n");
  CS.forEachNode([](const SampleContext &Ctx, const ContextTrieNode &N) {
    std::printf("  %-58s total=%-8llu add=%-6llu sub=%llu\n",
                contextToString(Ctx).c_str(),
                static_cast<unsigned long long>(N.Profile.TotalSamples),
                static_cast<unsigned long long>(N.Profile.bodyAt({2, 0})),
                static_cast<unsigned long long>(N.Profile.bodyAt({3, 0})));
  });

  // 4. Pre-inliner (Algorithm 2) with binary-measured sizes (Algorithm 3).
  FuncSizeTable Sizes = extractFuncSizes(*Bin);
  PreInlinerStats PS = runPreInliner(CS, Sizes);
  std::printf("\npre-inliner: marked %u contexts ShouldBeInlined, merged %u "
              "into base profiles (hot threshold %llu)\n",
              PS.ContextsMarkedInlined, PS.ContextsMergedToBase,
              static_cast<unsigned long long>(PS.HotThresholdUsed));
  std::printf("\nfinal profile (as shipped to the compiler):\n%s\n",
              serializeContextProfile(CS).c_str());
  std::printf("Note how scalarOp's contexts are 100%%-biased per caller:\n"
              "that is the context-sensitivity a flat profile averages\n"
              "away (Fig. 3a vs 3b).\n");
  return 0;
}
