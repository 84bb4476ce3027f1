//===- perfbench/Trace.h - In-memory spans and sample statistics -*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracing: one span per call into a layer (name,
/// start, end, parent span, and the id of the module or request it
/// served), kept in memory per thread and written out when the run ends.
/// A disabled Tracer records nothing, so the untraced run pays only the
/// clock reads that time whole operations.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_PERFBENCH_TRACE_H
#define SAFETSA_PERFBENCH_TRACE_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names: one per layer boundary the benchmark calls across, plus
/// the operation-level spans that parent them.
enum SpanName : uint16_t {
  kSpanPublish,     ///< cold: source in hand -> acknowledged digest.
  kSpanFirstResult, ///< cold: FETCH sent -> first tier-0 result.
  kSpanLexer,
  kSpanParser,
  kSpanSema,
  kSpanSsagen,
  kSpanOpt,
  kSpanEncode,
  kSpanPublishRtt,
  kSpanFetchRtt,
  kSpanDecode,
  kSpanPrepare,
  kSpanFirstRun,
  kSpanSweep,   ///< warm-long: one pass over the long programs.
  kSpanRequest, ///< warm: loadPrepared + fresh Runtime + runMain.
  kSpanLoadPrepared,
  kSpanRuntimeNew,
  kSpanRun,
  kSpanRelease, ///< warm: Runtime teardown and module reference drop.
  kNumSpanNames
};

inline const char *spanName(uint16_t N) {
  static const char *const Names[kNumSpanNames] = {
      "cold.publish",     "cold.first_result", "lexer",
      "parser",           "sema",              "ssagen",
      "opt",              "codec.encode",      "serve.publish_rtt",
      "serve.fetch_rtt",  "codec.decode",      "exec.prepare",
      "exec.first_run",   "warm.sweep",        "warm.request",
      "serve.load_prepared", "exec.runtime_new", "exec.run",
      "exec.release"};
  return N < kNumSpanNames ? Names[N] : "?";
}

constexpr uint32_t kNoSpan = UINT32_MAX;

struct Span {
  int64_t Start = 0;
  int64_t End = 0;
  uint64_t Id = 0;            ///< Module or request the span served.
  uint32_t Parent = kNoSpan;  ///< Index of the causing span, same tracer.
  uint16_t Name = 0;
  uint16_t Tag = 0;           ///< Module index (warm workloads).
};

/// One thread's span log. Reserve up front: growth inside a measured
/// operation would show up as untraced time.
class Tracer {
public:
  Tracer(bool On, size_t Reserve) : On(On) {
    if (On)
      Spans.reserve(Reserve);
  }

  bool on() const { return On; }

  uint32_t open(uint16_t Name, uint32_t Parent, uint64_t Id, int64_t Start,
                uint16_t Tag = 0) {
    if (!On)
      return kNoSpan;
    Spans.push_back({Start, Start, Id, Parent, Name, Tag});
    return static_cast<uint32_t>(Spans.size() - 1);
  }
  void close(uint32_t S, int64_t End) {
    if (S != kNoSpan)
      Spans[S].End = End;
  }

  std::vector<Span> Spans;

private:
  bool On;
};

/// RAII span around one call into a layer.
class Scope {
public:
  Scope(Tracer &T, uint16_t Name, uint32_t Parent, uint64_t Id,
        uint16_t Tag = 0)
      : T(T), S(T.on() ? T.open(Name, Parent, Id, nowNs(), Tag) : kNoSpan) {}
  ~Scope() {
    if (S != kNoSpan)
      T.close(S, nowNs());
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  uint32_t S;
};

/// Nearest-rank percentile \p P (0..100) of \p V; 0 for an empty sample.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::min(V.size() - 1, Rank == 0 ? 0 : Rank - 1)];
}

/// Durations (ns) of every span named \p Name, optionally only those with
/// tag \p Tag, across all tracers.
inline std::vector<double> spanDurations(const std::vector<Tracer> &Ts,
                                         uint16_t Name, int Tag = -1) {
  std::vector<double> Out;
  for (const Tracer &T : Ts)
    for (const Span &S : T.Spans)
      if (S.Name == Name && (Tag < 0 || S.Tag == Tag))
        Out.push_back(static_cast<double>(S.End - S.Start));
  return Out;
}

/// Per span name: count, total and self time (duration minus the time its
/// direct children cover), for the layer-share table.
struct SelfTime {
  uint64_t Count = 0;
  double TotalNs = 0;
  double SelfNs = 0;
};

inline std::vector<SelfTime> selfTimes(const std::vector<Tracer> &Ts) {
  std::vector<SelfTime> Out(kNumSpanNames);
  for (const Tracer &T : Ts) {
    std::vector<double> Child(T.Spans.size(), 0);
    for (const Span &S : T.Spans)
      if (S.Parent != kNoSpan)
        Child[S.Parent] += static_cast<double>(S.End - S.Start);
    for (size_t I = 0; I != T.Spans.size(); ++I) {
      const Span &S = T.Spans[I];
      SelfTime &O = Out[S.Name];
      ++O.Count;
      O.TotalNs += static_cast<double>(S.End - S.Start);
      O.SelfNs += static_cast<double>(S.End - S.Start) - Child[I];
    }
  }
  return Out;
}

/// Per-operation ratio of child-span time to the operation's own span
/// time, over every root span whose name is in \p Roots. For the cold
/// workload one operation is a module's publish + first-result pair, so
/// the root spans of one id (adjacent in the log) are summed first.
inline std::vector<double> coverages(const std::vector<Tracer> &Ts,
                                     std::initializer_list<uint16_t> Roots) {
  std::vector<double> Out;
  for (const Tracer &T : Ts) {
    std::vector<double> Child(T.Spans.size(), 0);
    for (const Span &S : T.Spans)
      if (S.Parent != kNoSpan)
        Child[S.Parent] += static_cast<double>(S.End - S.Start);
    double Wall = 0, Covered = 0;
    uint64_t CurId = UINT64_MAX;
    auto flush = [&] {
      if (Wall > 0)
        Out.push_back(Covered / Wall);
      Wall = Covered = 0;
    };
    for (size_t I = 0; I != T.Spans.size(); ++I) {
      const Span &S = T.Spans[I];
      if (S.Parent != kNoSpan ||
          std::find(Roots.begin(), Roots.end(), S.Name) == Roots.end())
        continue;
      if (S.Id != CurId) {
        flush();
        CurId = S.Id;
      }
      Wall += static_cast<double>(S.End - S.Start);
      Covered += Child[I];
    }
    flush();
  }
  return Out;
}

/// Writes every span as one tab-separated line: thread, index, name, tag,
/// id, parent index (-1 for roots), start and end in ns.
inline bool writeTrace(const char *Path, const std::vector<Tracer> &Ts) {
  FILE *F = std::fopen(Path, "w");
  if (!F)
    return false;
  std::fprintf(F, "thread\tindex\tname\ttag\tid\tparent\tstart_ns\tend_ns\n");
  for (size_t T = 0; T != Ts.size(); ++T)
    for (size_t I = 0; I != Ts[T].Spans.size(); ++I) {
      const Span &S = Ts[T].Spans[I];
      std::fprintf(F, "%zu\t%zu\t%s\t%u\t%llu\t%lld\t%lld\t%lld\n", T, I,
                   spanName(S.Name), unsigned(S.Tag),
                   static_cast<unsigned long long>(S.Id),
                   S.Parent == kNoSpan ? -1LL : static_cast<long long>(S.Parent),
                   static_cast<long long>(S.Start),
                   static_cast<long long>(S.End));
    }
  return std::fclose(F) == 0;
}

} // namespace perfbench

#endif // SAFETSA_PERFBENCH_TRACE_H
