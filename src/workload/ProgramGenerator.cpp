//===- workload/ProgramGenerator.cpp - Synthetic workloads ------------------===//

#include "workload/ProgramGenerator.h"

#include "ir/Builder.h"
#include "ir/Verifier.h"

#include <algorithm>
#include <cmath>

namespace csspgo {

namespace {

class ProgramBuilder {
public:
  ProgramBuilder(const WorkloadConfig &Config)
      : Config(Config), Rand(Config.Seed) {}

  std::unique_ptr<Module> build();

private:
  void buildUtil(unsigned K);
  void buildColdHandler(unsigned H);
  void buildMid(unsigned J);
  void buildService(unsigned I);
  void buildRecursive();
  void buildMain();

  // Archetype-specific layers (see WorkloadArchetype).
  void buildRpcFrontend(unsigned I);
  void buildOpHandler(unsigned J);
  void buildInterp();
  void buildBootPhase(unsigned K);
  void buildArchetypeMain();

  /// Emits ArithDensity straight-line ops over \p Src, returns last reg.
  RegId emitArith(Builder &B, RegId Src) {
    RegId R = Src;
    for (unsigned A = 0; A != Config.ArithDensity; ++A) {
      Opcode Ops[] = {Opcode::Add, Opcode::Mul, Opcode::Xor, Opcode::Sub};
      Opcode Op = Ops[Rand.nextBelow(4)];
      R = B.emitBinary(Op, Operand::reg(R),
                       Operand::imm(Rand.nextInRange(1, 13)));
    }
    return R;
  }

  std::string utilName(unsigned K) const {
    return "util_" + std::to_string(K);
  }
  std::string midName(unsigned J) const { return "mid_" + std::to_string(J); }
  std::string serviceName(unsigned I) const {
    return "service_" + std::to_string(I);
  }
  std::string coldName(unsigned H) const {
    return "cold_handler_" + std::to_string(H);
  }
  std::string opName(unsigned J) const { return "op_" + std::to_string(J); }
  std::string phaseName(unsigned K) const {
    return "init_phase_" + std::to_string(K);
  }

  /// First word of the bytecode region (InterpLoop): the top of the memory
  /// image, far above the request records.
  int64_t bytecodeBase() const {
    return static_cast<int64_t>(Config.MemWords - Config.BytecodeLength);
  }

  const WorkloadConfig &Config;
  Rng Rand;
  Module *M = nullptr;
  /// Per-service mode constants (drive the context-sensitive branches).
  std::vector<int64_t> Modes;
};

void ProgramBuilder::buildUtil(unsigned K) {
  // util_k(x, mode): context-sensitive branch on mode, a small unrollable
  // self-loop, and an optional tail call along the util chain.
  Function *F = M->createFunction(utilName(K), 2);
  Builder B(F);
  RegId X = 0, Mode = 1;

  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *MA = F->createBlock("modeA");
  BasicBlock *MB = F->createBlock("modeB");
  BasicBlock *MJ = F->createBlock("modejoin");
  BasicBlock *LH = F->createBlock("loop.h");
  BasicBlock *LB = F->createBlock("loop.b");
  BasicBlock *LX = F->createBlock("loop.x");

  // The mode split point: services pass distinct constant modes, so this
  // branch is ~100/0 per calling context but mixed in aggregate.
  int64_t Split = 50;
  B.setInsertBlock(Entry);
  RegId Acc = B.emitConst(0);
  RegId C = B.emitBinary(Opcode::CmpLT, Operand::reg(Mode),
                         Operand::imm(Split));
  B.emitCondBr(Operand::reg(C), MA, MB);

  B.setInsertBlock(MA);
  RegId YA = B.emitBinary(Opcode::Mul, Operand::reg(X), Operand::imm(2));
  YA = emitArith(B, YA);
  B.emitBinary(Opcode::Add, Operand::reg(YA), Operand::imm(1));
  MA->Insts.back().Dst = Acc;
  B.emitBr(MJ);

  B.setInsertBlock(MB);
  RegId YB = B.emitBinary(Opcode::Mul, Operand::reg(X), Operand::imm(3));
  YB = emitArith(B, YB);
  YB = emitArith(B, YB);
  B.emitBinary(Opcode::Sub, Operand::reg(YB), Operand::imm(2));
  MB->Insts.back().Dst = Acc;
  B.emitBr(MJ);

  // Small counted loop (unroll bait): acc = acc*5+3, 3 times.
  B.setInsertBlock(MJ);
  RegId I = B.emitConst(0);
  B.emitBr(LH);

  B.setInsertBlock(LH);
  RegId LC = B.emitBinary(Opcode::CmpLT, Operand::reg(I), Operand::imm(3));
  B.emitCondBr(Operand::reg(LC), LB, LX);

  B.setInsertBlock(LB);
  B.emitBinary(Opcode::Mul, Operand::reg(Acc), Operand::imm(5));
  LB->Insts.back().Dst = Acc;
  B.emitBinary(Opcode::Add, Operand::reg(I), Operand::imm(1));
  LB->Insts.back().Dst = I;
  B.emitBr(LH);

  B.setInsertBlock(LX);
  if (K + 1 < Config.NumUtils && Rand.nextBool(Config.TailCallProb)) {
    // Tail-call dispatch into the next util (frame elided at run time).
    RegId T = B.emitCall(utilName(K + 1),
                         {Operand::reg(Acc), Operand::reg(Mode)},
                         /*IsTail=*/true);
    B.emitRet(Operand::reg(T));
  } else {
    RegId R = B.emitBinary(Opcode::And, Operand::reg(Acc),
                           Operand::imm(0xFFFF));
    B.emitRet(Operand::reg(R));
  }
}

void ProgramBuilder::buildColdHandler(unsigned H) {
  // Rarely-executed error/slow path: a few stores to a scratch area.
  Function *F = M->createFunction(coldName(H), 1);
  Builder B(F);
  BasicBlock *Entry = F->createBlock("entry");
  B.setInsertBlock(Entry);
  RegId X = 0;
  RegId Addr = B.emitBinary(Opcode::Add, Operand::reg(X),
                            Operand::imm(1024 + 64 * H));
  RegId V = emitArith(B, X);
  B.emitStore(Operand::reg(Addr), Operand::reg(V));
  RegId V2 = B.emitBinary(Opcode::Xor, Operand::reg(V), Operand::imm(0x55));
  B.emitStore(Operand::reg(Addr), Operand::reg(V2));
  B.emitRet(Operand::reg(V2));
}

void ProgramBuilder::buildRecursive() {
  // rec(n): bounded recursion, exercises call-stack handling.
  Function *F = M->createFunction("rec", 1);
  Builder B(F);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *BaseCase = F->createBlock("base");
  BasicBlock *Rec = F->createBlock("rec");
  B.setInsertBlock(Entry);
  RegId C = B.emitBinary(Opcode::CmpLE, Operand::reg(0), Operand::imm(0));
  B.emitCondBr(Operand::reg(C), BaseCase, Rec);
  B.setInsertBlock(BaseCase);
  B.emitRet(Operand::imm(0));
  B.setInsertBlock(Rec);
  RegId N1 = B.emitBinary(Opcode::Sub, Operand::reg(0), Operand::imm(1));
  RegId R = B.emitCall("rec", {Operand::reg(N1)});
  RegId R1 = B.emitBinary(Opcode::Add, Operand::reg(R), Operand::imm(1));
  B.emitRet(Operand::reg(R1));
}

void ProgramBuilder::buildMid(unsigned J) {
  // mid_j(v, mode): biased branch with optional identical tails, a loop
  // with a hoistable invariant and an if-convertible diamond, util calls,
  // and a rare cold path.
  Function *F = M->createFunction(midName(J), 2);
  Builder B(F);
  RegId V = 0, Mode = 1;

  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *ArmA = F->createBlock("armA");
  BasicBlock *ArmB = F->createBlock("armB");
  bool DupTails = Rand.nextBool(Config.DupTailProb);
  BasicBlock *TailA = DupTails ? F->createBlock("tailA") : nullptr;
  BasicBlock *TailB = DupTails ? F->createBlock("tailB") : nullptr;
  BasicBlock *Join = F->createBlock("join");
  BasicBlock *LH = F->createBlock("loop.h");
  BasicBlock *LB = F->createBlock("loop.b");
  BasicBlock *P = F->createBlock("ifc.t");
  BasicBlock *Q = F->createBlock("ifc.f");
  BasicBlock *RJ = F->createBlock("ifc.j");
  BasicBlock *LX = F->createBlock("loop.x");
  BasicBlock *Cold = F->createBlock("cold");
  BasicBlock *Done = F->createBlock("done");

  bool Unbiased = Rand.nextBool(Config.UnbiasedBranchProb);
  int64_t Threshold = Unbiased ? 50 : Rand.nextInRange(75, 95);

  B.setInsertBlock(Entry);
  RegId Acc = B.emitConst(0);
  RegId W = B.emitBinary(Opcode::Mul, Operand::reg(V), Operand::imm(3));
  RegId C1 = B.emitBinary(Opcode::CmpLT, Operand::reg(V),
                          Operand::imm(Threshold));
  B.emitCondBr(Operand::reg(C1), ArmA, ArmB);

  B.setInsertBlock(ArmA);
  RegId A1 = B.emitBinary(Opcode::Add, Operand::reg(W), Operand::imm(11));
  A1 = emitArith(B, A1);
  ArmA->Insts.back().Dst = Acc;
  B.emitBr(DupTails ? TailA : Join);

  B.setInsertBlock(ArmB);
  RegId B1 = B.emitBinary(Opcode::Shl, Operand::reg(W), Operand::imm(1));
  B1 = emitArith(B, B1);
  ArmB->Insts.back().Dst = Acc;
  B.emitBr(DupTails ? TailB : Join);

  if (DupTails) {
    // Identical tails: tail-merge bait. Both blocks carry the same
    // instructions and the same successor; only anchors (probes/counters)
    // distinguish them. The store keeps the arms out of if-conversion's
    // reach (impure), so the merge opportunity survives to tail merge.
    B.setInsertBlock(TailA);
    B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::imm(7));
    TailA->Insts.back().Dst = Acc;
    B.emitStore(Operand::imm(2048 + static_cast<int64_t>(J)),
                Operand::reg(Acc));
    B.emitBinary(Opcode::Xor, Operand::reg(Acc), Operand::imm(0x3C));
    TailA->Insts.back().Dst = Acc;
    B.emitBr(Join);
    // Clone verbatim into TailB (identical lines too: same "source").
    TailB->Insts = TailA->Insts;
  }

  // Loop with a hoistable invariant in the header (code-motion bait) and
  // an unpredictable diamond in the body (if-convert bait).
  B.setInsertBlock(Join);
  RegId I = B.emitConst(0);
  B.emitBr(LH);

  B.setInsertBlock(LH);
  RegId Inv = B.emitBinary(Opcode::Mul, Operand::reg(Mode), Operand::imm(13));
  RegId LC = B.emitBinary(Opcode::CmpLT, Operand::reg(I), Operand::imm(4));
  B.emitCondBr(Operand::reg(LC), LB, LX);

  B.setInsertBlock(LB);
  RegId Par = B.emitBinary(Opcode::And, Operand::reg(V), Operand::imm(1));
  B.emitCondBr(Operand::reg(Par), P, Q);

  RegId XR = F->allocReg();
  B.setInsertBlock(P);
  B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(Inv));
  P->Insts.back().Dst = XR;
  B.emitBr(RJ);
  B.setInsertBlock(Q);
  B.emitBinary(Opcode::Sub, Operand::reg(Acc), Operand::reg(Inv));
  Q->Insts.back().Dst = XR;
  B.emitBr(RJ);

  B.setInsertBlock(RJ);
  B.emitBinary(Opcode::Add, Operand::reg(XR), Operand::imm(0));
  RJ->Insts.back().Dst = Acc;
  B.emitBinary(Opcode::Add, Operand::reg(I), Operand::imm(1));
  RJ->Insts.back().Dst = I;
  B.emitBr(LH);

  // Util calls with the caller's mode (the context carrier).
  B.setInsertBlock(LX);
  for (unsigned U = 0; U != Config.UtilCallsPerMid; ++U) {
    unsigned K = static_cast<unsigned>(Rand.nextBelow(Config.NumUtils));
    RegId R = B.emitCall(utilName(K), {Operand::reg(Acc), Operand::reg(Mode)});
    B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(R));
    LX->Insts.back().Dst = Acc;
  }
  // Rare cold path.
  RegId CC = B.emitBinary(
      Opcode::CmpGE, Operand::reg(V),
      Operand::imm(100 - static_cast<int64_t>(
                             std::max(1u, Config.ColdPathPerMille / 10))));
  B.emitCondBr(Operand::reg(CC), Cold, Done);

  B.setInsertBlock(Cold);
  unsigned H = static_cast<unsigned>(Rand.nextBelow(Config.NumColdHandlers));
  RegId CR = B.emitCall(coldName(H), {Operand::reg(Acc)});
  B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(CR));
  Cold->Insts.back().Dst = Acc;
  if (J + 2 < Config.NumMids && Rand.nextBool(Config.TailCallProb * 0.4)) {
    // Second tail-call site skipping one mid ahead: creates converging
    // tail-call paths (J -> J+2 directly and via J+1), so some missing
    // frames become ambiguous for the inferrer — the paper's failure mode.
    RegId T2 = B.emitCall(midName(J + 2),
                          {Operand::reg(Acc), Operand::reg(Mode)},
                          /*IsTail=*/true);
    B.emitRet(Operand::reg(T2));
  } else {
    B.emitBr(Done);
  }

  B.setInsertBlock(Done);
  if (J + 1 < Config.NumMids && Rand.nextBool(Config.TailCallProb * 0.5)) {
    // Mid-level tail dispatch: mids are too big to inline, so these tail
    // calls survive into the binary and elide frames at run time — the
    // §III-B missing-frame scenario at scale.
    RegId T = B.emitCall(midName(J + 1),
                         {Operand::reg(Acc), Operand::reg(Mode)},
                         /*IsTail=*/true);
    B.emitRet(Operand::reg(T));
  } else {
    B.emitRet(Operand::reg(Acc));
  }
}

void ProgramBuilder::buildService(unsigned I) {
  // service_i(base): per-request feature loop that dispatches over a
  // service-specific set of mids (selected by feature value) with the
  // service-specific mode constant.
  Function *F = M->createFunction(serviceName(I), 1);
  Builder B(F);
  RegId Base = 0;

  unsigned NumDispatch = std::min(Config.MidsPerService, Config.NumMids);
  // Service-specific mid set: a strided window over all mids so that
  // every mid is reachable from some service.
  std::vector<unsigned> MidSet;
  for (unsigned D = 0; D != NumDispatch; ++D)
    MidSet.push_back((I * NumDispatch + D) % Config.NumMids);

  bool UseIndirect = Rand.nextBool(Config.IndirectDispatchProb);

  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *LH = F->createBlock("feat.h");
  BasicBlock *LB = F->createBlock("feat.b");
  std::vector<BasicBlock *> Checks, Calls;
  if (!UseIndirect)
    for (unsigned D = 0; D != NumDispatch; ++D) {
      Checks.push_back(F->createBlock("mcheck"));
      Calls.push_back(F->createBlock("mcall"));
    }
  BasicBlock *Next = F->createBlock("feat.n");
  BasicBlock *LX = F->createBlock("feat.x");

  B.setInsertBlock(Entry);
  RegId Acc = B.emitConst(0);
  RegId Feat = B.emitConst(0);
  RegId Mode = B.emitConst(Modes[I]);
  B.emitBr(LH);

  B.setInsertBlock(LH);
  RegId C = B.emitBinary(Opcode::CmpLT, Operand::reg(Feat),
                         Operand::imm(Config.FeatureLoop));
  B.emitCondBr(Operand::reg(C), LB, LX);

  B.setInsertBlock(LB);
  RegId Off = B.emitBinary(Opcode::Mod, Operand::reg(Feat),
                           Operand::imm(Config.RecordWords - 1));
  RegId Idx = B.emitBinary(Opcode::Add, Operand::reg(Base), Operand::reg(Off));
  Idx = B.emitBinary(Opcode::Add, Operand::reg(Idx), Operand::imm(1));
  RegId V = B.emitLoad(Operand::reg(Idx));
  // Dispatch selector: skewed toward the first mids of the set so the
  // service has a hot core and a lukewarm tail.
  RegId Mixed = B.emitBinary(Opcode::Mul, Operand::reg(V), Operand::reg(V));
  RegId Sel = B.emitBinary(Opcode::Mod, Operand::reg(Mixed),
                           Operand::imm(NumDispatch * 2));
  if (UseIndirect) {
    // Indirect dispatch through the mid function table, with a dominant
    // slot (sel >= NumDispatch collapses to the set's first mid) so the
    // site is promotable.
    RegId SlotIdx = B.emitBinary(Opcode::Mod, Operand::reg(Sel),
                                 Operand::imm(NumDispatch));
    // Collapse ~3/4 of the selector range onto the set's first mid so the
    // site has a clearly dominant target (promotable by ICP).
    RegId IsTail = B.emitBinary(
        Opcode::CmpGE, Operand::reg(Sel),
        Operand::imm(std::max<int64_t>(1, NumDispatch / 2)));
    RegId Dom = B.emitSelect(Operand::reg(IsTail), Operand::imm(0),
                             Operand::reg(SlotIdx));
    RegId Abs = B.emitBinary(Opcode::Add, Operand::reg(Dom),
                             Operand::imm(I * NumDispatch));
    RegId Slot = B.emitBinary(Opcode::Mod, Operand::reg(Abs),
                              Operand::imm(Config.NumMids));
    RegId R = B.emitCallIndirect(Operand::reg(Slot),
                                 {Operand::reg(V), Operand::reg(Mode)});
    B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(R));
    LB->Insts.back().Dst = Acc;
    B.emitBr(Next);
  } else {
    B.emitBr(Checks[0]);
  }

  for (unsigned D = 0; !UseIndirect && D != NumDispatch; ++D) {
    B.setInsertBlock(Checks[D]);
    if (D + 1 == NumDispatch) {
      B.emitBr(Calls[D]); // Default arm.
    } else {
      // sel <= D captures a decreasing share per arm.
      RegId E = B.emitBinary(Opcode::CmpLE, Operand::reg(Sel),
                             Operand::imm(D));
      B.emitCondBr(Operand::reg(E), Calls[D], Checks[D + 1]);
    }
    B.setInsertBlock(Calls[D]);
    RegId R = B.emitCall(midName(MidSet[D]),
                         {Operand::reg(V), Operand::reg(Mode)});
    B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(R));
    Calls[D]->Insts.back().Dst = Acc;
    B.emitBr(Next);
  }

  B.setInsertBlock(Next);
  // One service exercises the recursive helper lightly.
  if (I == 0) {
    RegId N = B.emitBinary(Opcode::Mod, Operand::reg(V), Operand::imm(4));
    RegId R = B.emitCall("rec", {Operand::reg(N)});
    B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(R));
    Next->Insts.back().Dst = Acc;
  }
  B.emitBinary(Opcode::Add, Operand::reg(Feat), Operand::imm(1));
  Next->Insts.back().Dst = Feat;
  B.emitBr(LH);

  B.setInsertBlock(LX);
  B.emitRet(Operand::reg(Acc));
}

void ProgramBuilder::buildMain() {
  Function *F = M->createFunction("main", 0);
  F->IsEntryPoint = true;
  F->NoInline = true;
  Builder B(F);

  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *LH = F->createBlock("req.h");
  BasicBlock *LB = F->createBlock("req.b");
  std::vector<BasicBlock *> Checks, Calls;
  for (unsigned I = 0; I != Config.NumServices; ++I) {
    Checks.push_back(F->createBlock("check"));
    Calls.push_back(F->createBlock("dispatch"));
  }
  BasicBlock *Next = F->createBlock("req.next");
  BasicBlock *Exit = F->createBlock("req.x");

  B.setInsertBlock(Entry);
  RegId Acc = B.emitConst(0);
  RegId Req = B.emitConst(0);
  B.emitBr(LH);

  B.setInsertBlock(LH);
  RegId C = B.emitBinary(Opcode::CmpLT, Operand::reg(Req),
                         Operand::imm(Config.Requests));
  B.emitCondBr(Operand::reg(C), LB, Exit);

  B.setInsertBlock(LB);
  RegId BaseR = B.emitBinary(Opcode::Mul, Operand::reg(Req),
                             Operand::imm(Config.RecordWords));
  RegId T = B.emitLoad(Operand::reg(BaseR));
  B.emitBr(Checks[0]);

  for (unsigned I = 0; I != Config.NumServices; ++I) {
    B.setInsertBlock(Checks[I]);
    if (I + 1 == Config.NumServices) {
      B.emitBr(Calls[I]); // Default arm.
    } else {
      RegId E = B.emitBinary(Opcode::CmpEQ, Operand::reg(T),
                             Operand::imm(I));
      B.emitCondBr(Operand::reg(E), Calls[I], Checks[I + 1]);
    }
    B.setInsertBlock(Calls[I]);
    RegId R = B.emitCall(serviceName(I), {Operand::reg(BaseR)});
    B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(R));
    Calls[I]->Insts.back().Dst = Acc;
    B.emitBr(Next);
  }

  B.setInsertBlock(Next);
  B.emitBinary(Opcode::And, Operand::reg(Acc), Operand::imm((1ll << 40) - 1));
  Next->Insts.back().Dst = Acc;
  B.emitBinary(Opcode::Add, Operand::reg(Req), Operand::imm(1));
  Next->Insts.back().Dst = Req;
  B.emitBr(LH);

  B.setInsertBlock(Exit);
  B.emitRet(Operand::reg(Acc));
}

void ProgramBuilder::buildRpcFrontend(unsigned I) {
  // service_i(base) as an RPC aggregator: each request fans out to
  // FanoutBackends backend stubs through the function table (RPC stubs are
  // always indirect), every leg with its own dominant backend and the
  // frontend's mode constant; a biased timeout check per leg retries
  // against the primary replica via the cold handler.
  Function *F = M->createFunction(serviceName(I), 1);
  Builder B(F);
  RegId Base = 0;

  bool HasRetry = Rand.nextBool(Config.RpcTimeoutProb);

  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *LH = F->createBlock("rpc.h");
  BasicBlock *LB = F->createBlock("rpc.b");
  BasicBlock *Retry = HasRetry ? F->createBlock("rpc.retry") : nullptr;
  BasicBlock *Next = F->createBlock("rpc.n");
  BasicBlock *LX = F->createBlock("rpc.x");

  B.setInsertBlock(Entry);
  RegId Acc = B.emitConst(0);
  RegId Leg = B.emitConst(0);
  RegId Mode = B.emitConst(Modes[I]);
  B.emitBr(LH);

  B.setInsertBlock(LH);
  RegId C = B.emitBinary(Opcode::CmpLT, Operand::reg(Leg),
                         Operand::imm(Config.FanoutBackends));
  B.emitCondBr(Operand::reg(C), LB, LX);

  B.setInsertBlock(LB);
  RegId Off = B.emitBinary(Opcode::Mod, Operand::reg(Leg),
                           Operand::imm(Config.RecordWords - 1));
  RegId Idx = B.emitBinary(Opcode::Add, Operand::reg(Base), Operand::reg(Off));
  Idx = B.emitBinary(Opcode::Add, Operand::reg(Idx), Operand::imm(1));
  RegId V = B.emitLoad(Operand::reg(Idx));
  // Per-leg backend choice with a dominant primary: most values collapse
  // onto the leg's primary stub, the tail spreads over replicas — a
  // promotable indirect site per (frontend, leg) context.
  RegId Mixed = B.emitBinary(Opcode::Mul, Operand::reg(V), Operand::reg(V));
  RegId Spread =
      B.emitBinary(Opcode::Mod, Operand::reg(Mixed),
                   Operand::imm(std::max(1u, Config.NumMids / 4)));
  RegId IsTail =
      B.emitBinary(Opcode::CmpGE, Operand::reg(V), Operand::imm(25));
  RegId Rep = B.emitSelect(Operand::reg(IsTail), Operand::imm(0),
                           Operand::reg(Spread));
  RegId Abs = B.emitBinary(Opcode::Add, Operand::reg(Rep), Operand::reg(Leg));
  Abs = B.emitBinary(
      Opcode::Add, Operand::reg(Abs),
      Operand::imm(static_cast<int64_t>(I) * Config.FanoutBackends));
  RegId Slot = B.emitBinary(Opcode::Mod, Operand::reg(Abs),
                            Operand::imm(Config.NumMids));
  RegId R = B.emitCallIndirect(Operand::reg(Slot),
                               {Operand::reg(V), Operand::reg(Mode)});
  B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(R));
  LB->Insts.back().Dst = Acc;
  if (HasRetry) {
    // Timeout: rare by value distribution; the retry arm pays the cold
    // handler and re-issues against the primary replica.
    RegId TC = B.emitBinary(Opcode::CmpGE, Operand::reg(V), Operand::imm(98));
    B.emitCondBr(Operand::reg(TC), Retry, Next);

    B.setInsertBlock(Retry);
    unsigned H =
        static_cast<unsigned>(Rand.nextBelow(Config.NumColdHandlers));
    RegId CR = B.emitCall(coldName(H), {Operand::reg(V)});
    RegId PSlot = B.emitConst(
        static_cast<int64_t>(I * Config.FanoutBackends % Config.NumMids));
    RegId RR = B.emitCallIndirect(Operand::reg(PSlot),
                                  {Operand::reg(V), Operand::reg(Mode)});
    B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(CR));
    Retry->Insts.back().Dst = Acc;
    B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(RR));
    Retry->Insts.back().Dst = Acc;
    B.emitBr(Next);
  } else {
    B.emitBr(Next);
  }

  B.setInsertBlock(Next);
  if (I == 0) {
    // The first frontend exercises the recursive helper lightly.
    RegId N = B.emitBinary(Opcode::Mod, Operand::reg(V), Operand::imm(4));
    RegId RC = B.emitCall("rec", {Operand::reg(N)});
    B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(RC));
    Next->Insts.back().Dst = Acc;
  }
  B.emitBinary(Opcode::Add, Operand::reg(Leg), Operand::imm(1));
  Next->Insts.back().Dst = Leg;
  B.emitBr(LH);

  B.setInsertBlock(LX);
  B.emitRet(Operand::reg(Acc));
}

void ProgramBuilder::buildOpHandler(unsigned J) {
  // op_j(acc, arg): one bytecode handler. Personalities cycle so the
  // dispatch table mixes pure arithmetic, memory traffic, util calls (the
  // context carriers) and a rare trap into the cold path.
  Function *F = M->createFunction(opName(J), 2);
  Builder B(F);
  RegId Acc = 0, Arg = 1;
  BasicBlock *Entry = F->createBlock("entry");
  B.setInsertBlock(Entry);
  switch (J % 5) {
  case 0: {
    RegId R = B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(Arg));
    R = emitArith(B, R);
    B.emitRet(Operand::reg(R));
    break;
  }
  case 1: {
    RegId R = B.emitBinary(Opcode::Mul, Operand::reg(Acc), Operand::imm(3));
    R = B.emitBinary(Opcode::Xor, Operand::reg(R), Operand::reg(Arg));
    R = emitArith(B, R);
    B.emitRet(Operand::reg(R));
    break;
  }
  case 2: {
    // Memory personality: spill/reload through an opcode-local scratch
    // slot.
    RegId Addr = B.emitConst(3072 + 8 * static_cast<int64_t>(J));
    B.emitStore(Operand::reg(Addr), Operand::reg(Acc));
    RegId L = B.emitLoad(Operand::reg(Addr));
    RegId R = B.emitBinary(Opcode::Sub, Operand::reg(L), Operand::reg(Arg));
    B.emitRet(Operand::reg(R));
    break;
  }
  case 3: {
    // Call personality: the handler leans on a util with an
    // opcode-specific mode — the same utils behave differently under
    // different opcodes (context sensitivity inside the interpreter).
    RegId U = B.emitCall(
        utilName(J % Config.NumUtils),
        {Operand::reg(Arg), Operand::imm((J * 37) % 100)});
    RegId R = B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(U));
    B.emitRet(Operand::reg(R));
    break;
  }
  default: {
    // Trap personality: rare operand values divert into a cold handler.
    BasicBlock *Trap = F->createBlock("trap");
    BasicBlock *Done = F->createBlock("done");
    RegId R = F->allocReg();
    RegId TC =
        B.emitBinary(Opcode::CmpGE, Operand::reg(Arg), Operand::imm(99));
    B.emitCondBr(Operand::reg(TC), Trap, Done);
    B.setInsertBlock(Trap);
    RegId CR = B.emitCall(coldName(J % Config.NumColdHandlers),
                          {Operand::reg(Arg)});
    B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(CR));
    Trap->Insts.back().Dst = R;
    B.emitBr(Done);
    B.setInsertBlock(Done);
    // R is the trap result on the trap path; on the common path the
    // handler just shifts the accumulator.
    RegId S = B.emitBinary(Opcode::Shl, Operand::reg(Acc), Operand::imm(1));
    RegId Out = B.emitBinary(Opcode::Xor, Operand::reg(S), Operand::reg(Arg));
    B.emitRet(Operand::reg(Out));
    (void)R;
    break;
  }
  }
}

void ProgramBuilder::buildInterp() {
  // interp(base): the fetch/decode/dispatch loop. The hottest opcode (0)
  // takes an inline fast path behind a biased compare; everything else
  // dispatches through the opcode table — the skewed indirect site
  // indirect-call promotion targets.
  Function *F = M->createFunction("interp", 1);
  Builder B(F);
  RegId Base = 0;

  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *LH = F->createBlock("fetch");
  BasicBlock *LB = F->createBlock("decode");
  BasicBlock *Fast = F->createBlock("op.fast");
  BasicBlock *Slow = F->createBlock("dispatch");
  BasicBlock *Join = F->createBlock("retire");
  BasicBlock *LX = F->createBlock("halt");

  B.setInsertBlock(Entry);
  RegId Acc = B.emitConst(0);
  RegId PC = B.emitConst(0);
  B.emitBr(LH);

  B.setInsertBlock(LH);
  RegId C = B.emitBinary(Opcode::CmpLT, Operand::reg(PC),
                         Operand::imm(Config.BytecodeLength));
  B.emitCondBr(Operand::reg(C), LB, LX);

  B.setInsertBlock(LB);
  RegId OpAddr =
      B.emitBinary(Opcode::Add, Operand::reg(PC), Operand::imm(bytecodeBase()));
  RegId Op = B.emitLoad(Operand::reg(OpAddr));
  RegId AOff = B.emitBinary(Opcode::Mod, Operand::reg(PC),
                            Operand::imm(Config.RecordWords - 1));
  RegId AIdx =
      B.emitBinary(Opcode::Add, Operand::reg(Base), Operand::reg(AOff));
  AIdx = B.emitBinary(Opcode::Add, Operand::reg(AIdx), Operand::imm(1));
  RegId Arg = B.emitLoad(Operand::reg(AIdx));
  RegId IsFast =
      B.emitBinary(Opcode::CmpEQ, Operand::reg(Op), Operand::imm(0));
  B.emitCondBr(Operand::reg(IsFast), Fast, Slow);

  RegId NewAcc = F->allocReg();
  B.setInsertBlock(Fast);
  B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(Arg));
  Fast->Insts.back().Dst = NewAcc;
  B.emitBr(Join);

  B.setInsertBlock(Slow);
  RegId Slot = B.emitBinary(Opcode::Mod, Operand::reg(Op),
                            Operand::imm(Config.NumOpcodes));
  B.emitCallIndirect(Operand::reg(Slot),
                     {Operand::reg(Acc), Operand::reg(Arg)});
  Slow->Insts.back().Dst = NewAcc;
  B.emitBr(Join);

  B.setInsertBlock(Join);
  B.emitBinary(Opcode::And, Operand::reg(NewAcc),
               Operand::imm((1ll << 32) - 1));
  Join->Insts.back().Dst = Acc;
  B.emitBinary(Opcode::Add, Operand::reg(PC), Operand::imm(1));
  Join->Insts.back().Dst = PC;
  B.emitBr(LH);

  B.setInsertBlock(LX);
  B.emitRet(Operand::reg(Acc));
}

void ProgramBuilder::buildBootPhase(unsigned K) {
  // init_phase_k(x): executed exactly once at startup. NoInline keeps each
  // phase a distinct function in the binary, so placement — not branch
  // bias — decides its i-cache cost; hot/cold splitting and layout are
  // what the archetype measures.
  Function *F = M->createFunction(phaseName(K), 1);
  F->NoInline = true;
  Builder B(F);
  RegId X = 0;
  BasicBlock *Entry = F->createBlock("entry");
  B.setInsertBlock(Entry);
  RegId V = emitArith(B, X);
  RegId Addr = B.emitConst(4096 + 8 * static_cast<int64_t>(K));
  B.emitStore(Operand::reg(Addr), Operand::reg(V));
  RegId V2 = B.emitBinary(Opcode::Xor, Operand::reg(V),
                          Operand::imm(13 * static_cast<int64_t>(K) + 7));
  if (K % 3 == 0) {
    // Every third phase warms a util (the boot sequence touches shared
    // library code too).
    RegId U = B.emitCall(utilName(K % Config.NumUtils),
                         {Operand::reg(V2), Operand::imm((K * 7) % 100)});
    V2 = B.emitBinary(Opcode::Add, Operand::reg(V2), Operand::reg(U));
  }
  B.emitStore(Operand::reg(Addr), Operand::reg(V2));
  B.emitRet(Operand::reg(V2));
}

void ProgramBuilder::buildArchetypeMain() {
  Function *F = M->createFunction("main", 0);
  F->IsEntryPoint = true;
  F->NoInline = true;
  Builder B(F);

  if (Config.Archetype == WorkloadArchetype::InterpLoop) {
    // Request loop: every record runs the interpreter over the shared
    // bytecode program.
    BasicBlock *Entry = F->createBlock("entry");
    BasicBlock *LH = F->createBlock("req.h");
    BasicBlock *LB = F->createBlock("req.b");
    BasicBlock *Exit = F->createBlock("req.x");

    B.setInsertBlock(Entry);
    RegId Acc = B.emitConst(0);
    RegId Req = B.emitConst(0);
    B.emitBr(LH);

    B.setInsertBlock(LH);
    RegId C = B.emitBinary(Opcode::CmpLT, Operand::reg(Req),
                           Operand::imm(Config.Requests));
    B.emitCondBr(Operand::reg(C), LB, Exit);

    B.setInsertBlock(LB);
    RegId BaseR = B.emitBinary(Opcode::Mul, Operand::reg(Req),
                               Operand::imm(Config.RecordWords));
    RegId R = B.emitCall("interp", {Operand::reg(BaseR)});
    B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(R));
    LB->Insts.back().Dst = Acc;
    B.emitBinary(Opcode::And, Operand::reg(Acc),
                 Operand::imm((1ll << 40) - 1));
    LB->Insts.back().Dst = Acc;
    B.emitBinary(Opcode::Add, Operand::reg(Req), Operand::imm(1));
    LB->Insts.back().Dst = Req;
    B.emitBr(LH);

    B.setInsertBlock(Exit);
    B.emitRet(Operand::reg(Acc));
    return;
  }

  // ColdBoot: a long straight-line once-executed boot sequence, then a
  // short steady-state request loop dispatching over the mid table.
  BasicBlock *Entry = F->createBlock("boot");
  BasicBlock *LH = F->createBlock("req.h");
  BasicBlock *LB = F->createBlock("req.b");
  BasicBlock *Exit = F->createBlock("req.x");

  B.setInsertBlock(Entry);
  RegId Acc = B.emitConst(0);
  for (unsigned K = 0; K != Config.BootPhases; ++K) {
    RegId X = B.emitBinary(Opcode::And, Operand::reg(Acc), Operand::imm(0xFF));
    RegId R = B.emitCall(phaseName(K), {Operand::reg(X)});
    B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(R));
    Entry->Insts.back().Dst = Acc;
  }
  RegId Req = B.emitConst(0);
  B.emitBr(LH);

  B.setInsertBlock(LH);
  RegId C = B.emitBinary(Opcode::CmpLT, Operand::reg(Req),
                         Operand::imm(Config.Requests));
  B.emitCondBr(Operand::reg(C), LB, Exit);

  B.setInsertBlock(LB);
  RegId BaseR = B.emitBinary(Opcode::Mul, Operand::reg(Req),
                             Operand::imm(Config.RecordWords));
  RegId Idx = B.emitBinary(Opcode::Add, Operand::reg(BaseR), Operand::imm(1));
  RegId V = B.emitLoad(Operand::reg(Idx));
  RegId Slot = B.emitBinary(Opcode::Mod, Operand::reg(V),
                            Operand::imm(Config.NumMids));
  RegId R = B.emitCallIndirect(Operand::reg(Slot),
                               {Operand::reg(V), Operand::imm(30)});
  B.emitBinary(Opcode::Add, Operand::reg(Acc), Operand::reg(R));
  LB->Insts.back().Dst = Acc;
  B.emitBinary(Opcode::And, Operand::reg(Acc), Operand::imm((1ll << 40) - 1));
  LB->Insts.back().Dst = Acc;
  B.emitBinary(Opcode::Add, Operand::reg(Req), Operand::imm(1));
  LB->Insts.back().Dst = Req;
  B.emitBr(LH);

  B.setInsertBlock(Exit);
  B.emitRet(Operand::reg(Acc));
}

std::unique_ptr<Module> ProgramBuilder::build() {
  auto Mod = std::make_unique<Module>(Config.Name);
  M = Mod.get();
  M->MemWords = Config.MemWords;
  M->EntryFunction = "main";

  Modes.resize(Config.NumServices);
  for (unsigned I = 0; I != Config.NumServices; ++I) {
    // Half the services below the util split point, half above.
    Modes[I] = I % 2 == 0 ? Rand.nextInRange(5, 40) : Rand.nextInRange(60, 95);
  }

  switch (Config.Archetype) {
  case WorkloadArchetype::Server:
    // Dispatch table: every mid is indirectly callable (slot = mid index).
    for (unsigned J = 0; J != Config.NumMids; ++J)
      M->addFunctionTableEntry(midName(J));
    for (unsigned K = 0; K != Config.NumUtils; ++K)
      buildUtil(Config.NumUtils - 1 - K); // Build targets before callers.
    for (unsigned H = 0; H != Config.NumColdHandlers; ++H)
      buildColdHandler(H);
    buildRecursive();
    for (unsigned J = 0; J != Config.NumMids; ++J)
      buildMid(J);
    for (unsigned I = 0; I != Config.NumServices; ++I)
      buildService(I);
    buildMain();
    break;

  case WorkloadArchetype::RpcFanout:
    // Mids double as the backend RPC stubs; every fan-out leg dispatches
    // through the table.
    for (unsigned J = 0; J != Config.NumMids; ++J)
      M->addFunctionTableEntry(midName(J));
    for (unsigned K = 0; K != Config.NumUtils; ++K)
      buildUtil(Config.NumUtils - 1 - K);
    for (unsigned H = 0; H != Config.NumColdHandlers; ++H)
      buildColdHandler(H);
    buildRecursive();
    for (unsigned J = 0; J != Config.NumMids; ++J)
      buildMid(J);
    for (unsigned I = 0; I != Config.NumServices; ++I)
      buildRpcFrontend(I);
    buildMain(); // Same request dispatch over service_i frontends.
    break;

  case WorkloadArchetype::InterpLoop:
    // The opcode handlers are the dispatch table.
    for (unsigned J = 0; J != Config.NumOpcodes; ++J)
      M->addFunctionTableEntry(opName(J));
    for (unsigned K = 0; K != Config.NumUtils; ++K)
      buildUtil(Config.NumUtils - 1 - K);
    for (unsigned H = 0; H != Config.NumColdHandlers; ++H)
      buildColdHandler(H);
    for (unsigned J = 0; J != Config.NumOpcodes; ++J)
      buildOpHandler(J);
    buildInterp();
    buildArchetypeMain();
    break;

  case WorkloadArchetype::ColdBoot:
    for (unsigned J = 0; J != Config.NumMids; ++J)
      M->addFunctionTableEntry(midName(J));
    for (unsigned K = 0; K != Config.NumUtils; ++K)
      buildUtil(Config.NumUtils - 1 - K);
    for (unsigned H = 0; H != Config.NumColdHandlers; ++H)
      buildColdHandler(H);
    for (unsigned J = 0; J != Config.NumMids; ++J)
      buildMid(J);
    for (unsigned K = 0; K != Config.BootPhases; ++K)
      buildBootPhase(K);
    buildArchetypeMain();
    break;
  }

  verifyOrDie(*M, "after workload generation");
  return Mod;
}

} // namespace

std::unique_ptr<Module> generateProgram(const WorkloadConfig &Config) {
  return ProgramBuilder(Config).build();
}

std::vector<int64_t> generateInput(const WorkloadConfig &Config,
                                   uint64_t Seed, double DistributionShift) {
  Rng Rand(Seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<int64_t> Mem(Config.MemWords, 0);

  // Zipf-like service mix.
  std::vector<double> Weights(Config.NumServices);
  for (unsigned I = 0; I != Config.NumServices; ++I)
    Weights[I] = 1.0 / std::pow(I + 1, Config.ServiceSkew);

  uint64_t MaxRecords = Config.MemWords / Config.RecordWords;
  uint64_t Records = std::min<uint64_t>(Config.Requests, MaxRecords);
  int64_t ValueCeiling =
      99 + static_cast<int64_t>(10 * DistributionShift);
  for (uint64_t R = 0; R != Records; ++R) {
    uint64_t Base = R * Config.RecordWords;
    Mem[Base] = static_cast<int64_t>(Rand.pickWeighted(Weights));
    for (unsigned W = 1; W != Config.RecordWords; ++W)
      Mem[Base + W] = Rand.nextInRange(0, ValueCeiling);
  }

  if (Config.Archetype == WorkloadArchetype::InterpLoop) {
    // The shared bytecode program lives at the top of memory. Opcode 0 is
    // the hottest (the interpreter's inline fast path); the tail follows a
    // Zipf mix that DistributionShift flattens slightly, so train and eval
    // disagree about exactly how dominant the fast path is.
    double Skew = Config.OpcodeSkew * (1.0 - DistributionShift);
    std::vector<double> OpWeights(Config.NumOpcodes);
    for (unsigned J = 0; J != Config.NumOpcodes; ++J)
      OpWeights[J] = 1.0 / std::pow(J + 1, Skew);
    uint64_t CodeBase = Config.MemWords - Config.BytecodeLength;
    for (unsigned PC = 0; PC != Config.BytecodeLength; ++PC)
      Mem[CodeBase + PC] = static_cast<int64_t>(Rand.pickWeighted(OpWeights));
  }
  return Mem;
}

} // namespace csspgo
