//===- perfbench/Spans.h - In-memory wall-clock spans -----------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span log. A span is one call into a layer: its name
/// ("opt.codemotion"; the layer is the part before the first dot), start
/// and end on the steady clock, the span that was open when it began
/// (its parent), the request it serves — one (workload, seed, variant) or
/// one (epoch, host) — and the thread it ran on. Spans stay in memory and
/// are written out once, as Chrome trace-event JSON, when the run ends.
///
/// A span's self time is its duration minus the part of it that its
/// children cover; children may run on other threads (fleet host tasks),
/// so the covered part is the union of the children's intervals.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PERFBENCH_SPANS_H
#define CSSPGO_PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

uint64_t nowNs();

struct Span {
  std::string Name;
  std::string Request;
  int64_t Parent = -1; ///< Index into the owning log; -1 for a root.
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  unsigned Tid = 0;

  std::string layer() const { return Name.substr(0, Name.find('.')); }
};

/// Spans of one thread, opened and closed in stack order. Logs filled on
/// worker threads are folded into the main log with adopt().
class SpanLog {
public:
  explicit SpanLog(unsigned Tid = 0) : Tid(Tid) {}

  /// RAII span: opens in the constructor under the innermost open span,
  /// closes in the destructor.
  class Scope {
  public:
    Scope(SpanLog &Log, std::string Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    int64_t id() const { return Id; }

  private:
    SpanLog &Log;
    int64_t Id;
  };

  /// Request id stamped on spans opened from now on.
  void setRequest(std::string R) { Request = std::move(R); }

  /// Moves \p Other's spans into this log; its roots get parent \p Parent.
  void adopt(SpanLog &&Other, int64_t Parent);

  const std::vector<Span> &spans() const { return Spans; }

private:
  unsigned Tid;
  std::string Request;
  std::vector<Span> Spans;
  std::vector<int64_t> Open;
};

/// Self seconds of every span of \p Spans, summed by span name.
std::map<std::string, double> selfSecondsByName(const std::vector<Span> &Spans);

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps
/// relative to the first span), with the parent and request in args.
std::string chromeTraceJSON(const std::vector<Span> &Spans);

} // namespace perfbench

#endif // CSSPGO_PERFBENCH_SPANS_H
