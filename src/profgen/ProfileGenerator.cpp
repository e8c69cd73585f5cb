//===- profgen/ProfileGenerator.cpp - Unified profgen facade --------------===//

#include "profgen/ProfileGenerator.h"

#include "profgen/AutoFDOGenerator.h"
#include "profgen/InstrProfileGenerator.h"
#include "profgen/ShardedProfGen.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace csspgo {

const char *profGenKindName(ProfGenKind K) {
  switch (K) {
  case ProfGenKind::CS:
    return "cs";
  case ProfGenKind::ProbeOnly:
    return "probeonly";
  case ProfGenKind::AutoFDO:
    return "autofdo";
  case ProfGenKind::Instr:
    return "instr";
  }
  return "?";
}

ProfileGenerator::ProfileGenerator(const Binary &Bin, const ProbeTable *Probes,
                                   ProfGenOptions Opts)
    : Bin(Bin), Probes(Probes), Opts(Opts) {
  if ((Opts.Kind == ProfGenKind::CS || Opts.Kind == ProfGenKind::ProbeOnly) &&
      !Probes) {
    std::fprintf(stderr,
                 "csspgo: ProfileGenerator kind '%s' requires a probe "
                 "descriptor table\n",
                 profGenKindName(Opts.Kind));
    std::abort();
  }
}

ProfGenResult
ProfileGenerator::generate(const std::vector<PerfSample> &Samples) const {
  if (Opts.Kind == ProfGenKind::Instr) {
    std::fprintf(stderr, "csspgo: the Instr kind generates from a counter "
                         "dump, not from samples\n");
    std::abort();
  }
  ProfGenResult R;
  VerifierOptions VO;
  VO.Level = Opts.Verify;
  // A freshly generated profile must agree with the probe table it was
  // generated against (CS/ProbeOnly kinds); AutoFDO keys records by
  // line offsets, where the probe domain does not apply.
  VO.Probes = Probes;
  if (Opts.Kind == ProfGenKind::AutoFDO) {
    AutoFDOGenStats AS;
    R.Flat = generateAutoFDOProfile(Bin, Samples, &AS);
    R.Stats.Samples = Samples.size();
    R.Stats.RangesProcessed = AS.RangesProcessed;
    R.Verify = verifyFlatProfile(R.Flat, VO);
    return R;
  }
  R.ShardsUsed = static_cast<unsigned>(std::max<size_t>(
      1, planShards(Samples.size(),
                    resolveParallelism(Opts.Parallelism, Samples.size()))
             .size()));
  Symbolizer Sym(Bin);
  ContextProfileView V =
      Opts.Kind == ProfGenKind::CS
          ? generateCSProfileSharded(Sym, *Probes, Samples,
                                     Opts.InferMissingFrames, Opts.Parallelism,
                                     &R.Stats, &R.Reduce)
          : generateProbeOnlyProfileSharded(Sym, *Probes, Samples,
                                            Opts.Parallelism, &R.Stats,
                                            &R.Reduce);
  // Verified once, on the view; the map is built once, here.
  R.Verify = verifyProfileView(V, VO);
  R.IsCS = V.IsCS;
  if (R.IsCS)
    R.CS = contextProfileOf(V);
  else
    R.Flat = flatProfileOf(V);
  return R;
}

ProfGenResult ProfileGenerator::generate(const CounterDump &Dump,
                                         const RunResult *Run) const {
  assert(Opts.Kind == ProfGenKind::Instr &&
         "counter-dump generation is the Instr kind");
  ProfGenResult R;
  R.Flat = generateInstrProfile(Dump, &Bin, Run);
  if (Opts.Verify != VerifyLevel::Off) {
    VerifierOptions VO;
    VO.Level = Opts.Verify;
    // Counter profiles are exact: the head is a body counter, so
    // HEAD <= TOTAL must hold; the sampled head/call-edge conservation
    // law does not apply (counters are not paired with LBR records).
    VO.ExactCounts = true;
    VO.CheckHeadEdges = false;
    R.Verify = verifyFlatProfile(R.Flat, VO);
  }
  return R;
}

} // namespace csspgo
