//===- pgo/PipelineStats.cpp - Unified pipeline observability ---------------===//

#include "pgo/PipelineStats.h"

#include <sstream>

namespace csspgo {

LoaderStats &accumulate(LoaderStats &S, const LoaderStats &O) {
  S.FunctionsAnnotated += O.FunctionsAnnotated;
  S.StaleDropped += O.StaleDropped;
  S.StaleMatched += O.StaleMatched;
  S.StaleAnchorsMatched += O.StaleAnchorsMatched;
  S.StaleCountsRecovered += O.StaleCountsRecovered;
  S.StaleMatches.insert(S.StaleMatches.end(), O.StaleMatches.begin(),
                        O.StaleMatches.end());
  S.InlinedCallsites += O.InlinedCallsites;
  S.ReplayDepthCapped += O.ReplayDepthCapped;
  S.PromotedIndirectCalls += O.PromotedIndirectCalls;
  if (!S.HotThresholdUsed)
    S.HotThresholdUsed = O.HotThresholdUsed;
  S.StoreFunctionsMaterialized += O.StoreFunctionsMaterialized;
  S.StoreFunctionsSkipped += O.StoreFunctionsSkipped;
  S.VerifyViolations += O.VerifyViolations;
  if (S.VerifyFirst.empty())
    S.VerifyFirst = O.VerifyFirst;
  return S;
}

VerifyReport &accumulate(VerifyReport &R, const VerifyReport &O) {
  R.FunctionsChecked += O.FunctionsChecked;
  R.ContextsChecked += O.ContextsChecked;
  R.Violations += O.Violations;
  for (const Violation &V : O.Details) {
    if (R.Details.size() >= 16)
      break;
    R.Details.push_back(V);
  }
  return R;
}

PipelineStats &PipelineStats::operator+=(const PipelineStats &O) {
  ProfGen += O.ProfGen;
  Reduce += O.Reduce;
  Ingest += O.Ingest;
  accumulate(Loader, O.Loader);
  accumulate(Verify, O.Verify);
  ShardsUsed = std::max(ShardsUsed, O.ShardsUsed);
  EpochsFolded += O.EpochsFolded;
  TotalSamples += O.TotalSamples;
  return *this;
}

namespace {

/// Minimal JSON object writer: unsigned fields with fixed key order. All
/// keys are literals and all values numeric, so no escaping is needed.
class JSONObj {
public:
  void field(const char *Key, uint64_t Value) {
    Out << (First ? "" : ",") << '"' << Key << "\":" << Value;
    First = false;
  }
  void object(const char *Key, const std::string &Body) {
    Out << (First ? "" : ",") << '"' << Key << "\":" << Body;
    First = false;
  }
  std::string str() const { return "{" + Out.str() + "}"; }

private:
  std::ostringstream Out;
  bool First = true;
};

std::string mergeJSON(const MergeStats &M) {
  JSONObj O;
  O.field("contexts_added", M.ContextsAdded);
  O.field("contexts_merged", M.ContextsMerged);
  O.field("counts_summed", M.CountsSummed);
  O.field("saturated", M.SaturatedCounts);
  return O.str();
}

} // namespace

std::string PipelineStats::toJSON() const {
  JSONObj ProfGenO;
  ProfGenO.field("samples", ProfGen.Samples);
  ProfGenO.field("unsynced", ProfGen.UnsyncedSamples);
  ProfGenO.field("ranges", ProfGen.RangesProcessed);
  ProfGenO.field("dropped_samples", ProfGen.DroppedSamples);
  ProfGenO.field("broken_ranges", ProfGen.BrokenRanges);
  ProfGenO.field("tailcall_recovered", ProfGen.TailCallStats.Recovered);

  JSONObj LoaderO;
  LoaderO.field("annotated", Loader.FunctionsAnnotated);
  LoaderO.field("inlined", Loader.InlinedCallsites);
  LoaderO.field("replay_depth_capped", Loader.ReplayDepthCapped);
  LoaderO.field("icp", Loader.PromotedIndirectCalls);
  LoaderO.field("stale_dropped", Loader.StaleDropped);
  LoaderO.field("stale_matched", Loader.StaleMatched);
  LoaderO.field("stale_anchors", Loader.StaleAnchorsMatched);
  LoaderO.field("stale_counts_recovered", Loader.StaleCountsRecovered);
  LoaderO.field("hot_threshold", Loader.HotThresholdUsed);
  LoaderO.field("store_materialized", Loader.StoreFunctionsMaterialized);
  LoaderO.field("store_skipped", Loader.StoreFunctionsSkipped);

  JSONObj VerifyO;
  VerifyO.field("functions_checked", Verify.FunctionsChecked);
  VerifyO.field("contexts_checked", Verify.ContextsChecked);
  VerifyO.field("violations", Verify.Violations);

  JSONObj Top;
  Top.object("profgen", ProfGenO.str());
  Top.object("reduce", mergeJSON(Reduce));
  Top.object("ingest", mergeJSON(Ingest));
  Top.object("loader", LoaderO.str());
  Top.object("verify", VerifyO.str());
  Top.field("shards", ShardsUsed);
  Top.field("epochs_folded", EpochsFolded);
  Top.field("total_samples", TotalSamples);
  return Top.str();
}

} // namespace csspgo
