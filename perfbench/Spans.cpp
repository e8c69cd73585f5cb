//===- perfbench/Spans.cpp - In-memory wall-clock spans -------------------===//

#include "Spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanLog::Scope::Scope(SpanLog &Log, std::string Name)
    : Log(Log), Id(static_cast<int64_t>(Log.Spans.size())) {
  Span S;
  S.Name = std::move(Name);
  S.Request = Log.Request;
  S.Parent = Log.Open.empty() ? -1 : Log.Open.back();
  S.Tid = Log.Tid;
  Log.Spans.push_back(std::move(S));
  Log.Open.push_back(Id);
  Log.Spans[Id].StartNs = nowNs();
}

SpanLog::Scope::~Scope() {
  Log.Spans[Id].EndNs = nowNs();
  Log.Open.pop_back();
}

void SpanLog::adopt(SpanLog &&Other, int64_t Parent) {
  int64_t Base = static_cast<int64_t>(Spans.size());
  for (Span &S : Other.Spans) {
    S.Parent = S.Parent < 0 ? Parent : S.Parent + Base;
    Spans.push_back(std::move(S));
  }
  Other.Spans.clear();
}

std::map<std::string, double>
selfSecondsByName(const std::vector<Span> &Spans) {
  std::vector<std::vector<size_t>> Children(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Children[Spans[I].Parent].push_back(I);

  std::map<std::string, double> Self;
  std::vector<std::pair<uint64_t, uint64_t>> Iv;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    Iv.clear();
    for (size_t C : Children[I])
      Iv.emplace_back(std::max(Spans[C].StartNs, S.StartNs),
                      std::min(Spans[C].EndNs, S.EndNs));
    std::sort(Iv.begin(), Iv.end());
    uint64_t Covered = 0, Reach = S.StartNs;
    for (auto [B, E] : Iv) {
      B = std::max(B, Reach);
      if (E > B) {
        Covered += E - B;
        Reach = E;
      }
    }
    uint64_t Dur = S.EndNs - S.StartNs;
    Self[S.Name] += static_cast<double>(Dur - std::min(Dur, Covered)) * 1e-9;
  }
  return Self;
}

std::string chromeTraceJSON(const std::vector<Span> &Spans) {
  uint64_t T0 = UINT64_MAX;
  for (const Span &S : Spans)
    T0 = std::min(T0, S.StartNs);
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char Buf[160];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,",
                  I ? "," : "", S.Tid, (S.StartNs - T0) * 1e-3,
                  (S.EndNs - S.StartNs) * 1e-3);
    Out += Buf;
    Out += "\"name\":\"" + S.Name + "\",\"cat\":\"" + S.layer() +
           "\",\"args\":{\"id\":" + std::to_string(I) +
           ",\"parent\":" + std::to_string(S.Parent) + ",\"request\":\"" +
           S.Request + "\"}}";
  }
  Out += "\n]}\n";
  return Out;
}

} // namespace perfbench
