//===- perfbench/perfbench.cpp - Seeded end-to-end benchmark --------------===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One seeded, oracle-checked benchmark of the whole mobile-code path,
/// driven only through the repo's public entry points. Three workloads
/// (see perfbench/README.md for why each exists):
///
///   cold        distinct generated modules, each compiled, optimized,
///               encoded and PUBLISHed over loopback TCP, then FETCHed over
///               a second connection, fused-decoded, prepared and run once
///               at tier 0. One client thread.
///   warm-long   the six long-running corpus programs, warmed to tier 1 in
///               set-up, requested in seeded sweeps. One client thread.
///   warm-short  a fixed pool of 256 generated modules plus the short
///               corpus programs, resident and warm, requested by Zipf(1)
///               popularity (cheapest first) from seeded draw sequences,
///               one client thread per CPU.
///
/// Every timed execution is checked byte for byte against the tree-walk
/// oracle's output and trap kind, computed once per module in set-up on
/// the unoptimized producer module. The last stdout line is one JSON
/// object: the end-to-end metrics with --trace 0, the per-layer metrics
/// (from in-memory spans around each layer call) with --trace 1.
///
/// Usage:
///   perfbench --workload cold|warm-long|warm-short --seed N --seconds S
///             --trace 0|1 [--trace-dir DIR] [--list-inputs]
///
/// perfbench/run.py builds and runs it; perfbench/README.md documents the
/// workloads, metrics and figures measured with it.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "codec/Codec.h"
#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "exec/ExecUnit.h"
#include "exec/TSAInterp.h"
#include "gc/GC.h"
#include "lexer/Lexer.h"
#include "opt/Optimizer.h"
#include "parser/Parser.h"
#include "sema/Sema.h"
#include "serve/CodeClient.h"
#include "serve/CodeServer.h"
#include "serve/Transport.h"
#include "ssagen/TSAGen.h"
#include "support/Digest.h"
#include "testgen/DifferentialRunner.h"
#include "testgen/Generator.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <latch>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace safetsa;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Constants
//===----------------------------------------------------------------------===//

/// The differential matrix's reference fuel: a generated seed whose oracle
/// run exhausts it is skipped by the matrix's rule; measured runs get 10x.
const uint64_t kRefFuel = testgen::RunnerOptions().Fuel;
const uint64_t kRunFuel = kRefFuel * 10;

/// Corpus programs that execute >= 100k dispatches per run; the rest of
/// the corpus joins warm-short.
const char *const kLongPrograms[] = {"BitSieve", "Assembler",
                                     "BatchEnvironment", "Sorter",
                                     "Linpack", "Main"};
constexpr size_t kNumLong = sizeof(kLongPrograms) / sizeof(kLongPrograms[0]);

/// Generated modules per second of --seconds in the cold stream, which is
/// generated and timed in chunks.
constexpr size_t kColdModulesPerSecond = 100, kColdChunk = 100;
/// Generated modules resident in warm-short (plus the short corpus).
constexpr size_t kShortGenerated = 256;
/// Set-up repetitions per run; setup_s is their median. Cold set-up (a
/// server start and two connections) is a fraction of a millisecond, so it
/// repeats more.
constexpr unsigned kWarmSetupReps = 9, kColdSetupReps = 25;
/// Warm-up passes before giving up on a module reaching tier 1.
constexpr unsigned kMaxWarmPasses = 256;
/// Traced warm-short traces every Nth request, and at most this many in
/// all, so the trace of millions of requests stays small.
constexpr unsigned kShortTraceEvery = 32;
constexpr size_t kMaxTracedRequests = 100000;

/// Seed streams, so the workloads draw disjoint generated programs.
constexpr uint64_t kStreamCold = 1, kStreamShort = 2, kStreamOrder = 3;
/// warm-short's resident pool is generated from this fixed seed; --seed
/// drives its request sequence. Under Zipf(1) a few modules take most
/// requests, so a seeded pool would let those few set the figures.
constexpr uint64_t kShortPoolSeed = 1;
/// warm-short keeps every Nth request's latency, so millions of samples do
/// not move peak RSS.
constexpr unsigned kShortSampleEvery = 8;

struct SplitMix64 {
  uint64_t S;
  explicit SplitMix64(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }
  double unit() { return (next() >> 11) * (1.0 / 9007199254740992.0); }
};

uint64_t streamSeed(uint64_t Seed, uint64_t Stream) {
  return SplitMix64(Seed * 0x100000001b3ull + Stream).next();
}

template <typename T> void shuffle(std::vector<T> &V, SplitMix64 &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

double msOf(int64_t Ns) { return static_cast<double>(Ns) / 1e6; }

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct MetricDef {
  std::string Name;
  const char *Unit;
};

const std::vector<MetricDef> &endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"setup_s", "s"},         {"wire_bytes", "bytes"},
      {"peak_rss_mb", "MB"},    {"op_ms.p50", "ms"},
      {"op_ms.p90", "ms"},      {"ops_per_s", "1/s"}};
  return Defs;
}

const char *const kAblations[] = {"no_inline_caches", "no_fusion",
                                  "no_fusion_guard", "no_inlining"};

const std::vector<MetricDef> &perLayerMetrics() {
  static const std::vector<MetricDef> Defs = [] {
    std::vector<MetricDef> D = {
        // Every workload.
        {"op.samples", "count"},
        {"trace.op_ms.p50", "ms"},
        {"trace.coverage", "ratio"},
        {"input.modules", "count"},
        {"input.fuel_skipped", "count"},
        {"input.heap_skipped", "count"},
        {"gc.cycles", "count"},
        {"gc.pause_us", "us"},
        // cold
        {"publish_ms.p50", "ms"},
        {"publish_ms.p99", "ms"},
        {"first_result_ms.p50", "ms"},
        {"first_result_ms.p99", "ms"},
        {"lexer.us.p50", "us"},
        {"parser.us.p50", "us"},
        {"sema.us.p50", "us"},
        {"ssagen.us.p50", "us"},
        {"opt.us.p50", "us"},
        {"codec.encode_us.p50", "us"},
        {"serve.publish_rtt_us.p50", "us"},
        {"serve.fetch_rtt_us.p50", "us"},
        {"codec.decode_us.p50", "us"},
        {"exec.prepare_us.p50", "us"},
        {"exec.first_run_us.p50", "us"},
        {"lexer.tokens", "count"},
        {"tsa.insts", "count"},
        {"opt.insts_removed", "count"},
        {"opt.checks_removed", "count"},
        {"exec.prepared_insts", "count"},
        {"serve.verify_failures", "count"},
        {"serve.duplicate_publishes", "count"},
        // warm-long
        {"sweep_ms.p50", "ms"},
        {"sweep_ms.p90", "ms"}};
    for (const char *P : kLongPrograms)
      D.push_back({std::string("exec.run_us.") + P + ".p50", "us"});
    for (const char *P : kLongPrograms)
      D.push_back({std::string("exec.dispatches.") + P, "count"});
    for (MetricDef M : std::initializer_list<MetricDef>{
             {"exec.runtime_new_us.p50", "us"},
             {"exec.release_us.p50", "us"},
             {"serve.load_prepared_ns.p50", "ns"},
             {"serve.reprepares", "count"},
             {"exec.tier1.inlined_sites", "count"},
             {"exec.tier1.ic_hits", "count/sweep"},
             {"exec.tier1.ic_misses", "count/sweep"},
             {"exec.tier1.inline_guard_misses", "count/sweep"}})
      D.push_back(M);
    for (const char *A : kAblations) {
      std::string N = std::string("exec.tier1.ablation.") + A;
      D.push_back({N, "ratio"});
      D.push_back({N + ".iqr", "ratio"});
      D.push_back({N + ".resolved", "count"});
    }
    D.push_back({"exec.tier1.vs_tier0", "ratio"});
    D.push_back({"exec.tier1.vs_tier0.iqr", "ratio"});
    // warm-short
    for (MetricDef M : std::initializer_list<MetricDef>{
             {"request_us.p50", "us"},
             {"request_us.p99", "us"},
             {"requests_per_s", "1/s"},
             {"serve.load_prepared_ns.p99", "ns"},
             {"exec.run_us.p50", "us"},
             {"exec.tier1_request_share", "ratio"},
             {"serve.cache.hit_ratio", "ratio"}})
      D.push_back(M);
    return D;
  }();
  return Defs;
}

/// The run's result: op accounting plus named values. Emits exactly the
/// declared list for the run's mode; a layer the workload never calls
/// reads 0.
class Report {
public:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool InvariantsOk = true;

  void set(const std::string &Name, double V) { Values[Name] = V; }
  double get(const std::string &Name) const {
    auto It = Values.find(Name);
    return It == Values.end() ? 0 : It->second;
  }

  void fail(const std::string &What) {
    ++Failed;
    if (Failed <= 5)
      std::fprintf(stderr, "perfbench: FAILED op: %s\n", What.c_str());
  }
  void violate(const std::string &What) {
    InvariantsOk = false;
    std::fprintf(stderr, "perfbench: INVARIANT VIOLATED: %s\n", What.c_str());
  }

  /// Prints the result line with the declared metrics of the run's mode;
  /// returns the process exit code.
  int print(bool Traced) const {
    const auto &Defs = Traced ? perLayerMetrics() : endToEndMetrics();
    for (const auto &[Name, V] : Values) {
      bool Declared = false;
      for (const auto *List : {&perLayerMetrics(), &endToEndMetrics()})
        for (const MetricDef &D : *List)
          Declared |= D.Name == Name;
      if (!Declared) {
        std::fprintf(stderr, "perfbench: undeclared metric %s\n",
                     Name.c_str());
        return 3;
      }
    }
    bool Correct = Failed == 0 && InvariantsOk && Attempted > 0;
    std::string Out = "{\"correct\": ";
    Out += Correct ? "true" : "false";
    Out += ", \"attempted\": " + std::to_string(Attempted);
    Out += ", \"failed\": " + std::to_string(Failed);
    Out += ", \"metrics\": {";
    bool First = true;
    for (const MetricDef &D : Defs) {
      double V = get(D.Name);
      if (!std::isfinite(V)) {
        std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                     D.Name.c_str());
        return 3;
      }
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.17g", V);
      Out += First ? "" : ", ";
      First = false;
      Out += "\"" + D.Name + "\": {\"value\": " + Buf + ", \"unit\": \"" +
             D.Unit + "\"}";
    }
    Out += "}}";
    std::printf("%s\n", Out.c_str());
    std::fflush(stdout);
    return 0;
  }

private:
  std::map<std::string, double> Values;
};

/// The CPUs this process was allowed to run on when it started, in order
/// (read before any pinning).
const std::vector<int> &allowedCpus() {
  static const std::vector<int> Cpus = [] {
    cpu_set_t Set;
    std::vector<int> Out;
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int C = 0; C != CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          Out.push_back(C);
    return Out;
  }();
  return Cpus;
}

/// Pins the calling thread, and every thread it creates from now on, to
/// \p Cpus.
void pinTo(const std::vector<int> &Cpus) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

/// Ends the benchmark's own preparation: returns freed input-generation
/// memory to the OS (so peak RSS measures the system under test) and pins
/// this thread, and the server threads it starts, to one CPU. The cold
/// chain is strict request/response, and set-up publishes module by
/// module, so hand-offs become context switches instead of wake-ups of an
/// idle virtual CPU, whose latency is the host's and dominated
/// run-to-run spread.
void settle() {
  malloc_trim(0);
  if (!allowedCpus().empty())
    pinTo({allowedCpus().back()});
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

//===----------------------------------------------------------------------===//
// Inputs and the oracle
//===----------------------------------------------------------------------===//

struct Expected {
  RuntimeError Err = RuntimeError::Internal;
  std::string Output;
};

struct Input {
  std::string Name;
  std::string Source;
  Expected Want;
  uint64_t TsaInsts = 0;    ///< Unoptimized producer instruction count.
  uint64_t OracleSteps = 0; ///< Fuel the oracle run consumed.
};

enum class OracleStatus { Ok, FuelBound, HeapBound, Broken };

/// The oracle's heap budget. Fuel does not charge allocation size, so a
/// generated program that allocates big arrays in a loop can run for tens
/// of seconds inside its fuel. A seed whose oracle run traps OutOfMemory
/// or needs a collection under this budget is skipped like a fuel-bound
/// one. Every kept program therefore never collects under the default
/// budget either, so its output does not depend on the budget.
const size_t kOracleHeapBudget = 8u << 20;

/// Reference output and trap kind: the tree walker on the unoptimized
/// producer module, at the differential matrix's reference fuel.
OracleStatus runOracle(Input &In, std::string *Err) {
  auto P = compileMJ(In.Name, In.Source);
  if (!P->ok() || !P->TSA) {
    *Err = In.Name + " does not compile:\n" + P->renderDiagnostics();
    return OracleStatus::Broken;
  }
  In.TsaInsts = P->TSA->countInstructions();
  GcOptions Gc;
  Gc.HeapBudget = kOracleHeapBudget;
  Runtime RT(*P->Table, kRefFuel, Gc);
  TSAInterpreter I(*P->TSA, RT);
  ExecResult R = I.runMain();
  if (R.Err == RuntimeError::OutOfFuel)
    return OracleStatus::FuelBound;
  if (R.Err == RuntimeError::OutOfMemory || RT.gcStats().Cycles != 0)
    return OracleStatus::HeapBound;
  In.Want = {R.Err, RT.getOutput()};
  In.OracleSteps = kRefFuel - RT.fuelLeft();
  return OracleStatus::Ok;
}

/// Runs \p Fn(I) for I in [0, N) on every CPU, even from a pinned thread.
template <typename Fn> void parallelFor(size_t N, Fn &&F) {
  unsigned Threads = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&] {
      pinTo(allowedCpus());
      for (size_t I; (I = Next.fetch_add(1)) < N;)
        F(I);
    });
  for (std::thread &T : Pool)
    T.join();
}

/// Generated seeds left out of a workload, by reason.
struct Skips {
  uint64_t Fuel = 0;
  uint64_t Heap = 0;
};

/// The generated programs of one seed stream, in stream order, skipping
/// fuel-bound seeds by the matrix's rule and heap-bound ones. Taking in
/// chunks yields the same programs as taking all at once.
class SeedStream {
public:
  SeedStream(uint64_t Seed, uint64_t Stream)
      : Base(streamSeed(Seed, Stream)) {}

  /// Appends the stream's next \p Count kept programs to \p Out.
  bool take(size_t Count, std::vector<Input> &Out) {
    size_t Goal = Out.size() + Count;
    while (Out.size() < Goal) {
      size_t Want = Goal - Out.size();
      std::vector<Input> Batch(Want + Want / 16 + 8);
      std::vector<OracleStatus> Status(Batch.size());
      std::vector<std::string> Errs(Batch.size());
      parallelFor(Batch.size(), [&](size_t I) {
        uint64_t GenSeed = Base + Next + I;
        Batch[I].Name = "gen" + std::to_string(GenSeed) + ".mj";
        Batch[I].Source = testgen::generateProgram(GenSeed);
        Status[I] = runOracle(Batch[I], &Errs[I]);
      });
      for (size_t I = 0; I != Batch.size() && Out.size() < Goal; ++I) {
        ++Next;
        if (Status[I] == OracleStatus::Broken) {
          std::fprintf(stderr, "perfbench: %s\n", Errs[I].c_str());
          return false;
        }
        if (Status[I] == OracleStatus::FuelBound)
          ++Skipped.Fuel;
        else if (Status[I] == OracleStatus::HeapBound)
          ++Skipped.Heap;
        else
          Out.push_back(std::move(Batch[I]));
      }
    }
    return true;
  }

  Skips Skipped;

private:
  uint64_t Base;
  uint64_t Next = 0;
};

/// The skip counts are part of every generated workload's report.
void reportSkips(Report &Rep, const Skips &S, size_t Kept) {
  Rep.set("input.fuel_skipped", static_cast<double>(S.Fuel));
  Rep.set("input.heap_skipped", static_cast<double>(S.Heap));
  std::fprintf(stderr,
               "inputs: %zu generated modules; skipped %llu fuel-bound and "
               "%llu heap-bound seeds\n",
               Kept, static_cast<unsigned long long>(S.Fuel),
               static_cast<unsigned long long>(S.Heap));
}

bool isLongProgram(const std::string &Name) {
  for (const char *P : kLongPrograms)
    if (Name == P)
      return true;
  return false;
}

/// Corpus programs, long ones (in kLongPrograms order) or the rest.
bool corpusInputs(bool Long, std::vector<Input> &Out) {
  std::vector<const CorpusProgram *> Picked;
  if (Long) {
    for (const char *Name : kLongPrograms) {
      const CorpusProgram *P = findCorpusProgram(Name);
      if (!P) {
        std::fprintf(stderr, "perfbench: corpus has no %s\n", Name);
        return false;
      }
      Picked.push_back(P);
    }
  } else {
    for (const CorpusProgram &P : getCorpus())
      if (!isLongProgram(P.Name))
        Picked.push_back(&P);
  }
  for (const CorpusProgram *P : Picked) {
    Input In{P->Name, P->Source, {}, 0, 0};
    std::string Err;
    OracleStatus S = runOracle(In, &Err);
    if (S != OracleStatus::Ok) {
      std::fprintf(stderr, "perfbench: corpus %s: %s\n", P->Name,
                   S == OracleStatus::Broken ? Err.c_str()
                                             : "oracle fuel- or heap-bound");
      return false;
    }
    Out.push_back(std::move(In));
  }
  return true;
}

bool matches(const Expected &Want, RuntimeError Err, const std::string &Out) {
  return Err == Want.Err && Out == Want.Output;
}

//===----------------------------------------------------------------------===//
// Server plumbing
//===----------------------------------------------------------------------===//

/// A CodeServer with default options (apart from the thread count where a
/// workload needs one) and client connections over loopback TCP.
class Service {
public:
  explicit Service(CodeServerOptions Opts) {
    Server = std::make_unique<CodeServer>(Opts);
  }
  ~Service() {
    for (auto &C : Clients)
      C->close();
    Server.reset(); // Waits for every connection to see EOF.
  }
  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;

  /// Opens one more connection; null when loopback TCP is unavailable.
  CodeClient *connect() {
    TransportPair P = makeLoopbackTcpPair();
    if (!P.Client || !P.Server)
      return nullptr;
    Server->attach(std::move(P.Server));
    Ends.push_back(std::move(P.Client));
    Clients.push_back(std::make_unique<CodeClient>(*Ends.back()));
    return Clients.back().get();
  }

  CodeServer &server() { return *Server; }

private:
  std::vector<std::unique_ptr<Transport>> Ends;
  std::vector<std::unique_ptr<CodeClient>> Clients;
  std::unique_ptr<CodeServer> Server;
};

/// A module as the warm workloads serve it: published optimized.
struct WarmModule {
  std::string Name;
  std::vector<uint8_t> Wire;
  Expected Want;
  Digest D;
};

bool encodeOptimized(const Input &In, WarmModule &M) {
  auto P = compileMJ(In.Name, In.Source);
  if (!P->ok() || !P->TSA)
    return false;
  optimizeModule(*P->TSA);
  M.Name = In.Name;
  M.Wire = encodeModule(*P->TSA);
  M.Want = In.Want;
  M.D = digestOf(ByteSpan(M.Wire));
  return true;
}

struct RequestResult {
  bool Ok = false;
  int64_t Start = 0, End = 0;
  uint64_t Dispatches = 0;
  uint32_t Tier = 0;
};

/// One warm request: loadPrepared + fresh Runtime + runMain, then the
/// Runtime's teardown and the drop of the module reference. The oracle
/// check (a string compare) sits inside the request, between run and
/// release.
RequestResult request(CodeServer &S, const WarmModule &M, uint16_t Tag,
                      Tracer &T, uint32_t Parent, uint64_t Id) {
  RequestResult Res;
  std::string Err;
  int64_t A = nowNs();
  uint32_t R = T.open(kSpanRequest, Parent, Id, A, Tag);
  std::shared_ptr<const PreparedModule> PM;
  {
    Scope Sc(T, kSpanLoadPrepared, R, Id, Tag);
    PM = S.loadPrepared(M.D, &Err);
  }
  if (!PM) {
    T.close(R, nowNs());
    std::fprintf(stderr, "perfbench: loadPrepared %s: %s\n", M.Name.c_str(),
                 Err.c_str());
    return Res;
  }
  std::optional<Runtime> RT;
  std::optional<TSAExec> X;
  {
    Scope Sc(T, kSpanRuntimeNew, R, Id, Tag);
    RT.emplace(*PM->Module->Table, kRunFuel);
    X.emplace(*PM, *RT);
  }
  ExecResult ER;
  {
    Scope Sc(T, kSpanRun, R, Id, Tag);
    ER = X->runMain();
  }
  Res.Ok = matches(M.Want, ER.Err, RT->getOutput());
  Res.Dispatches = kRunFuel - RT->fuelLeft();
  Res.Tier = PM->Tier;
  {
    Scope Sc(T, kSpanRelease, R, Id, Tag);
    X.reset();
    RT.reset();
    PM.reset();
  }
  int64_t B = nowNs();
  T.close(R, B);
  Res.Start = A;
  Res.End = B;
  return Res;
}

/// Set-up of a warm workload: server start, PUBLISH of every module over
/// TCP (verified on publish), then requests until every module has been
/// re-prepared to tier 1. Returns the wall seconds, or a negative value on
/// failure.
double setUpWarm(std::vector<WarmModule> &Ms, std::unique_ptr<Service> &Svc,
                 Report &Rep) {
  int64_t A = nowNs();
  Svc = std::make_unique<Service>(CodeServerOptions{});
  CodeClient *C = Svc->connect();
  if (!C) {
    Rep.violate("loopback TCP unavailable");
    return -1;
  }
  for (WarmModule &M : Ms) {
    std::string Err;
    Digest D;
    if (!C->publish(ByteSpan(M.Wire), D, &Err) || D != M.D) {
      Rep.violate("publish " + M.Name + ": " + Err);
      return -1;
    }
  }
  Tracer Off(false, 0);
  std::vector<bool> Warm(Ms.size(), false);
  for (unsigned Pass = 0; Pass != kMaxWarmPasses; ++Pass) {
    bool All = true;
    for (size_t I = 0; I != Ms.size(); ++I) {
      if (Warm[I])
        continue;
      RequestResult R = request(Svc->server(), Ms[I], 0, Off, kNoSpan, 0);
      ++Rep.Attempted;
      if (!R.Ok)
        Rep.fail("warm-up run of " + Ms[I].Name);
      Warm[I] = R.Tier == 1;
      All &= Warm[I];
    }
    if (All)
      break;
  }
  return static_cast<double>(nowNs() - A) / 1e9;
}

/// Runs \p SetUp \p Reps times, keeping the last service, and records the
/// median wall time as setup_s.
template <typename Fn>
bool repeatedSetUp(Report &Rep, unsigned Reps, Fn &&SetUp) {
  std::vector<double> Secs;
  for (unsigned I = 0; I != Reps; ++I) {
    malloc_trim(0); // Release the previous repetition's server.
    double S = SetUp();
    if (S < 0)
      return false;
    Secs.push_back(S);
  }
  Rep.set("setup_s", percentile(Secs, 50));
  std::fprintf(stderr, "setup_s: median %.6f s of %u, min %.6f, max %.6f\n",
               percentile(Secs, 50), Reps, percentile(Secs, 0),
               percentile(Secs, 100));
  return true;
}

bool readStats(CodeClient &C, ServeStats &S, Report &Rep) {
  std::string Err;
  if (!C.stats(S, &Err)) {
    Rep.violate("STATS failed: " + Err);
    return false;
  }
  return true;
}

/// One timed operation: completion time (us since the window opened) and
/// latency. Compact, because warm-short keeps millions.
struct OpSample {
  uint32_t EndUs;
  uint32_t LatNs;
};

OpSample opSample(int64_t WindowStart, int64_t Start, int64_t End) {
  return {static_cast<uint32_t>((End - WindowStart) / 1000),
          static_cast<uint32_t>(std::min<int64_t>(End - Start, UINT32_MAX))};
}

/// The end-to-end op metrics. The window is cut into up to 20 consecutive
/// slices of at least 100 operations each (by completion time); op_ms.p50,
/// op_ms.p90 and ops_per_s are the medians of the per-slice values, so a
/// burst of host noise moves a few slices, not the result. Each slice's
/// p90 has at least ten samples beyond it. \p Weight is the number of
/// operations each sample stands for.
void reportOps(Report &Rep, std::vector<OpSample> Ops, bool Traced,
               size_t MinSamples, unsigned Weight = 1) {
  std::sort(Ops.begin(), Ops.end(), [](const OpSample &A, const OpSample &B) {
    return A.EndUs < B.EndUs;
  });
  size_t N = Ops.size();
  size_t K = std::clamp<size_t>(N / 100, 1, 20);
  std::vector<double> P50, P90, Rate;
  uint32_t SliceStart = 0;
  for (size_t Slice = 0; Slice != K; ++Slice) {
    size_t Lo = Slice * N / K, Hi = (Slice + 1) * N / K;
    std::vector<double> Ms;
    for (size_t I = Lo; I != Hi; ++I)
      Ms.push_back(Ops[I].LatNs / 1e6);
    P50.push_back(percentile(Ms, 50));
    P90.push_back(percentile(Ms, 90));
    uint32_t SliceEnd = Ops[Hi - 1].EndUs;
    Rate.push_back(static_cast<double>((Hi - Lo) * Weight) * 1e6 /
                   std::max<uint32_t>(1, SliceEnd - SliceStart));
    SliceStart = SliceEnd;
  }
  double Wall = N ? Ops.back().EndUs / 1e6 : 0;
  if (Traced) {
    Rep.set("trace.op_ms.p50", percentile(P50, 50));
    Rep.set("op.samples", static_cast<double>(N));
  } else {
    Rep.set("op_ms.p50", percentile(P50, 50));
    Rep.set("op_ms.p90", percentile(P90, 50));
    Rep.set("ops_per_s", percentile(Rate, 50));
  }
  std::fprintf(stderr,
               "ops: %zu samples in %.2f s, %zu slices; median slice: p50 "
               "%.5f ms, p90 %.5f ms, %.1f ops/s (slice ops/s from %.1f to "
               "%.1f)%s\n",
               N, Wall, K, percentile(P50, 50), percentile(P90, 50),
               percentile(Rate, 50), percentile(Rate, 0),
               percentile(Rate, 100), Traced ? " (traced)" : "");
  if (N < MinSamples)
    Rep.violate("too few samples for the reported percentiles");
}

void reportSelfTimes(const std::vector<Tracer> &Ts) {
  std::vector<SelfTime> ST = selfTimes(Ts);
  double Roots = 0;
  for (const Tracer &T : Ts)
    for (const Span &S : T.Spans)
      if (S.Parent == kNoSpan)
        Roots += static_cast<double>(S.End - S.Start);
  std::fprintf(stderr, "%-22s %10s %12s %12s %8s\n", "span", "count",
               "total_ms", "self_ms", "self%");
  for (unsigned N = 0; N != kNumSpanNames; ++N)
    if (ST[N].Count)
      std::fprintf(stderr, "%-22s %10llu %12.3f %12.3f %7.2f%%\n",
                   spanName(N), static_cast<unsigned long long>(ST[N].Count),
                   ST[N].TotalNs / 1e6, ST[N].SelfNs / 1e6,
                   Roots > 0 ? 100.0 * ST[N].SelfNs / Roots : 0.0);
}

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Traced = false;
  std::string TraceDir;
};

void finishTrace(const RunConfig &Cfg, const std::vector<Tracer> &Ts,
                 Report &Rep) {
  if (!Cfg.Traced)
    return;
  size_t Spans = 0;
  for (const Tracer &T : Ts)
    Spans += T.Spans.size();
  reportSelfTimes(Ts);
  if (Cfg.TraceDir.empty())
    return;
  std::error_code EC;
  std::filesystem::create_directories(Cfg.TraceDir, EC);
  std::string Path = Cfg.TraceDir + "/" + Cfg.Workload + "-seed" +
                     std::to_string(Cfg.Seed) + ".tsv";
  if (!writeTrace(Path.c_str(), Ts))
    Rep.violate("cannot write trace " + Path);
  else
    std::fprintf(stderr, "trace: %zu spans -> %s\n", Spans, Path.c_str());
}

/// trace.coverage: the 1st percentile over operations of the share of
/// the operation's wall time its stage spans cover. \p Enforce makes a
/// value below 0.95 fail the run (operations long enough that the clock
/// reads between spans are noise).
void checkCoverage(Report &Rep, const std::vector<double> &PerOp,
                   bool Enforce) {
  double P1 = percentile(PerOp, 1);
  Rep.set("trace.coverage", P1);
  std::fprintf(stderr, "trace.coverage: p1 %.5f, min %.5f over %zu ops\n",
               P1, percentile(PerOp, 0), PerOp.size());
  if (Enforce && P1 < 0.95)
    Rep.violate("stage spans cover less than 95% of an operation");
}

//===----------------------------------------------------------------------===//
// cold
//===----------------------------------------------------------------------===//

/// The cold stream's length: at least 1000 modules, so that the p99s of
/// its traced run have ten samples beyond them.
size_t coldModules(const RunConfig &Cfg) {
  return std::max<size_t>(1000, kColdModulesPerSecond * Cfg.Seconds);
}

struct ColdCounts {
  uint64_t Tokens = 0, InstsRemoved = 0, ChecksRemoved = 0, Prepared = 0;
};

int runCold(const RunConfig &Cfg, Report &Rep) {
  const size_t N = coldModules(Cfg);
  SeedStream Stream(Cfg.Seed, kStreamCold);
  std::vector<Input> Inputs;
  Inputs.reserve(N);
  settle();

  std::unique_ptr<Service> Svc;
  CodeClient *Pub = nullptr, *Fetch = nullptr;
  if (!repeatedSetUp(Rep, kColdSetupReps, [&]() -> double {
        Svc.reset();
        int64_t A = nowNs();
        Svc = std::make_unique<Service>(CodeServerOptions{});
        Pub = Svc->connect();
        Fetch = Svc->connect();
        if (!Pub || !Fetch) {
          Rep.violate("loopback TCP unavailable");
          return -1;
        }
        return static_cast<double>(nowNs() - A) / 1e9;
      }))
    return 1;

  std::vector<Tracer> Ts;
  Ts.emplace_back(Cfg.Traced, N * 14);
  Tracer &T = Ts[0];
  std::vector<OpSample> Ops;
  std::vector<double> PubMs, FirstMs;
  Ops.reserve(N);
  PubMs.reserve(N);
  FirstMs.reserve(N);
  ColdCounts Counts;
  double WireBytes = 0;
  uint64_t GcCycles0 = gcCounters().Cycles.sum();
  uint64_t GcPause0 = gcCounters().PauseNs.sum();

  // The stream is generated chunk by chunk between timed stretches, so one
  // run's timed work spreads over its whole length rather than a few
  // seconds of host time. Generation pauses are cut out of the op timeline.
  int64_t Start = nowNs(), Paused = 0;
  for (size_t I = 0; I != N; ++I) {
    if (I == Inputs.size()) {
      // Oracle runs collect too; keep their GC work out of the window's.
      int64_t G = nowNs();
      uint64_t Cycles = gcCounters().Cycles.sum();
      uint64_t Pause = gcCounters().PauseNs.sum();
      if (!Stream.take(std::min(kColdChunk, N - I), Inputs))
        return 1;
      GcCycles0 += gcCounters().Cycles.sum() - Cycles;
      GcPause0 += gcCounters().PauseNs.sum() - Pause;
      Paused += nowNs() - G;
    }
    const Input &In = Inputs[I];
    ++Rep.Attempted;
    std::string Err;
    // Publish: source in hand -> acknowledged digest.
    int64_t A = nowNs();
    uint32_t SP = T.open(kSpanPublish, kNoSpan, I, A);
    auto P = std::make_unique<CompiledProgram>();
    std::vector<Token> Tokens;
    {
      Scope S(T, kSpanLexer, SP, I);
      P->SM = SourceManager(In.Name, In.Source);
      Lexer Lex(P->SM.getText(), P->Diags);
      Tokens = Lex.lexAll();
    }
    size_t NumTokens = Tokens.size();
    {
      Scope S(T, kSpanParser, SP, I);
      Parser Parse(std::move(Tokens), P->Diags);
      P->AST = Parse.parseProgram();
    }
    bool SemaOk = false;
    {
      Scope S(T, kSpanSema, SP, I);
      P->Table = std::make_unique<ClassTable>(P->Types);
      Sema Se(P->Types, *P->Table, P->Diags);
      SemaOk = Se.run(P->AST) && !P->Diags.hasErrors();
    }
    if (!SemaOk) {
      T.close(SP, nowNs());
      Rep.fail(In.Name + ": front end rejected the program");
      continue;
    }
    {
      Scope S(T, kSpanSsagen, SP, I);
      TSAGenerator Gen(P->Types, *P->Table);
      P->TSA = Gen.generate(P->AST);
    }
    OptStats OS;
    {
      Scope S(T, kSpanOpt, SP, I);
      OS = optimizeModule(*P->TSA);
    }
    std::vector<uint8_t> Wire;
    {
      Scope S(T, kSpanEncode, SP, I);
      Wire = encodeModule(*P->TSA);
    }
    Digest D;
    bool Published = false;
    {
      Scope S(T, kSpanPublishRtt, SP, I);
      Published = Pub->publish(ByteSpan(Wire), D, &Err);
    }
    int64_t B = nowNs();
    T.close(SP, B);
    if (!Published) {
      Rep.fail(In.Name + ": publish: " + Err);
      continue;
    }

    // First result: FETCH sent -> first tier-0 result.
    int64_t C = nowNs();
    uint32_t SF = T.open(kSpanFirstResult, kNoSpan, I, C);
    std::vector<uint8_t> Bytes;
    bool Fetched = false;
    {
      Scope S(T, kSpanFetchRtt, SF, I);
      Fetched = Fetch->fetch(D, Bytes, &Err);
    }
    std::unique_ptr<DecodedUnit> U;
    if (Fetched) {
      Scope S(T, kSpanDecode, SF, I);
      U = decodeModule(ByteSpan(Bytes), &Err, DecodeOptions{});
    }
    std::unique_ptr<PreparedModule> PM;
    if (U) {
      Scope S(T, kSpanPrepare, SF, I);
      PM = prepareModule(*U->Module);
    }
    ExecResult ER;
    std::string Output;
    if (PM) {
      Scope S(T, kSpanFirstRun, SF, I);
      Runtime RT(*U->Table, kRunFuel);
      TSAExec X(*PM, RT);
      ER = X.runMain();
      Output = RT.getOutput();
    }
    int64_t E = nowNs();
    T.close(SF, E);
    if (!PM) {
      Rep.fail(In.Name + ": fetch/decode/prepare: " + Err);
      continue;
    }
    if (!matches(In.Want, ER.Err, Output)) {
      Rep.fail(In.Name + ": output differs from the tree-walk oracle");
      continue;
    }
    PubMs.push_back(msOf(B - A));
    FirstMs.push_back(msOf(E - C));
    Ops.push_back(opSample(Start + Paused, E - (B - A) - (E - C), E));
    WireBytes += static_cast<double>(Wire.size());
    if (Cfg.Traced) {
      Counts.Tokens += NumTokens;
      Counts.InstsRemoved += In.TsaInsts - P->TSA->countInstructions();
      Counts.ChecksRemoved += OS.CSERemovedNullChecks +
                              OS.CSERemovedIndexChecks + OS.TransportedChecks;
      Counts.Prepared += PM->totalCode();
    }
  }
  Rep.set("input.modules", static_cast<double>(Inputs.size()));
  reportSkips(Rep, Stream.Skipped, Inputs.size());

  ServeStats St;
  if (readStats(*Fetch, St, Rep)) {
    if (St.VerifyFailures != 0 || St.DuplicatePublishes != 0)
      Rep.violate("server saw verify failures or duplicate publishes");
    Rep.set("serve.verify_failures", static_cast<double>(St.VerifyFailures));
    Rep.set("serve.duplicate_publishes",
            static_cast<double>(St.DuplicatePublishes));
  }
  Rep.set("wire_bytes", WireBytes);
  Rep.set("peak_rss_mb", peakRssMb());
  Rep.set("gc.cycles",
          static_cast<double>(gcCounters().Cycles.sum() - GcCycles0));
  Rep.set("gc.pause_us",
          static_cast<double>(gcCounters().PauseNs.sum() - GcPause0) / 1e3);
  reportOps(Rep, Ops, Cfg.Traced, 1000);
  std::fprintf(stderr, "publish p50 %.4f ms p99 %.4f; first_result p50 %.4f "
                       "ms p99 %.4f\n",
               percentile(PubMs, 50), percentile(PubMs, 99),
               percentile(FirstMs, 50), percentile(FirstMs, 99));
  if (!Cfg.Traced)
    return 0;

  Rep.set("publish_ms.p50", percentile(PubMs, 50));
  Rep.set("publish_ms.p99", percentile(PubMs, 99));
  Rep.set("first_result_ms.p50", percentile(FirstMs, 50));
  Rep.set("first_result_ms.p99", percentile(FirstMs, 99));
  const std::pair<const char *, uint16_t> Stages[] = {
      {"lexer.us.p50", kSpanLexer},
      {"parser.us.p50", kSpanParser},
      {"sema.us.p50", kSpanSema},
      {"ssagen.us.p50", kSpanSsagen},
      {"opt.us.p50", kSpanOpt},
      {"codec.encode_us.p50", kSpanEncode},
      {"serve.publish_rtt_us.p50", kSpanPublishRtt},
      {"serve.fetch_rtt_us.p50", kSpanFetchRtt},
      {"codec.decode_us.p50", kSpanDecode},
      {"exec.prepare_us.p50", kSpanPrepare},
      {"exec.first_run_us.p50", kSpanFirstRun}};
  for (auto [Name, Span] : Stages)
    Rep.set(Name, percentile(spanDurations(Ts, Span), 50) / 1e3);
  uint64_t TsaInsts = 0;
  for (const Input &In : Inputs)
    TsaInsts += In.TsaInsts;
  Rep.set("lexer.tokens", static_cast<double>(Counts.Tokens));
  Rep.set("tsa.insts", static_cast<double>(TsaInsts));
  Rep.set("opt.insts_removed", static_cast<double>(Counts.InstsRemoved));
  Rep.set("opt.checks_removed", static_cast<double>(Counts.ChecksRemoved));
  Rep.set("exec.prepared_insts", static_cast<double>(Counts.Prepared));
  checkCoverage(Rep, coverages(Ts, {kSpanPublish, kSpanFirstResult}), true);
  finishTrace(Cfg, Ts, Rep);
  return 0;
}

//===----------------------------------------------------------------------===//
// warm-long
//===----------------------------------------------------------------------===//

/// A warm workload's state once set up: its modules, the last set-up's
/// service, a control connection, and the STATS read before the window.
struct Warm {
  std::vector<WarmModule> Ms;
  std::unique_ptr<Service> Svc;
  CodeClient *Ctl = nullptr;
  ServeStats Before;
};

/// Encodes \p Inputs optimized (wire_bytes, input.modules) and runs the
/// repeated warm set-up (setup_s).
bool setUpWarmWorkload(const std::vector<Input> &Inputs, Warm &W,
                       Report &Rep) {
  W.Ms.resize(Inputs.size());
  double WireBytes = 0;
  for (size_t I = 0; I != Inputs.size(); ++I) {
    if (!encodeOptimized(Inputs[I], W.Ms[I])) {
      Rep.violate("cannot compile " + Inputs[I].Name);
      return false;
    }
    WireBytes += static_cast<double>(W.Ms[I].Wire.size());
  }
  Rep.set("wire_bytes", WireBytes);
  Rep.set("input.modules", static_cast<double>(W.Ms.size()));
  settle();
  if (!repeatedSetUp(Rep, kWarmSetupReps, [&] {
        W.Svc.reset();
        return setUpWarm(W.Ms, W.Svc, Rep);
      }))
    return false;
  W.Ctl = W.Svc->connect();
  if (!W.Ctl) {
    Rep.violate("loopback TCP unavailable");
    return false;
  }
  return readStats(*W.Ctl, W.Before, Rep);
}

/// Leave-one-out tier-1 ablation over the profiled tier-0 modules: each
/// variant re-prepares them with one layer masked; rounds interleave the
/// variants in rotating order, and each round's ratio is variant sweep
/// time over full tier-1 sweep time.
void ablate(const RunConfig &Cfg, CodeServer &S,
            const std::vector<WarmModule> &Ms, Report &Rep) {
  struct Variant {
    const char *Name;
    std::vector<std::shared_ptr<const PreparedModule>> PMs;
  };
  std::vector<Variant> Vs = {{"full", {}},
                             {kAblations[0], {}},
                             {kAblations[1], {}},
                             {kAblations[2], {}},
                             {kAblations[3], {}},
                             {"tier0", {}}};
  for (const WarmModule &M : Ms) {
    std::string Err;
    auto T0 = S.loadPrepared(M.D, /*MaxTier=*/0, &Err);
    if (!T0 || T0->Tier != 0 || !T0->Profile) {
      Rep.violate("no profiled tier-0 form of " + M.Name);
      return;
    }
    for (size_t V = 0; V != Vs.size(); ++V) {
      if (V + 1 == Vs.size()) {
        Vs[V].PMs.push_back(T0);
        continue;
      }
      PrepareOptions PO;
      PO.NoInlineCaches = V == 1;
      PO.NoFusion = V == 2;
      PO.NoFusionGuard = V == 3;
      PO.NoInlining = V == 4;
      std::unique_ptr<PreparedModule> T1 = reprepareModule(*T0, PO);
      if (!T1) {
        Rep.violate("reprepareModule failed for " + M.Name);
        return;
      }
      // The tier-1 form points into the tier-0 module's decoded IR.
      Vs[V].PMs.push_back(std::shared_ptr<const PreparedModule>(
          T1.release(), [Keep = T0](const PreparedModule *P) { delete P; }));
    }
  }
  unsigned Rounds = std::max(11u, 3 * Cfg.Seconds);
  std::vector<std::vector<double>> VariantMs(Vs.size());
  SplitMix64 R(streamSeed(Cfg.Seed, kStreamOrder) ^ 0xab1a7e);
  std::vector<size_t> Order(Ms.size());
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    shuffle(Order, R);
    for (size_t K = 0; K != Vs.size(); ++K) {
      size_t V = (K + Round) % Vs.size();
      int64_t A = nowNs();
      for (size_t I : Order) {
        const PreparedModule &PM = *Vs[V].PMs[I];
        Runtime RT(*PM.Module->Table, kRunFuel);
        TSAExec X(PM, RT);
        ExecResult ER = X.runMain();
        ++Rep.Attempted;
        if (!matches(Ms[I].Want, ER.Err, RT.getOutput()))
          Rep.fail(Ms[I].Name + " under ablation " + Vs[V].Name);
      }
      VariantMs[V].push_back(msOf(nowNs() - A));
    }
  }
  std::fprintf(stderr, "tier-1 leave-one-out (%u rounds, ratio = variant / "
                       "full tier-1 sweep time):\n",
               Rounds);
  for (size_t V = 1; V != Vs.size(); ++V) {
    std::vector<double> Ratio;
    for (unsigned Round = 0; Round != Rounds; ++Round)
      Ratio.push_back(VariantMs[V][Round] / VariantMs[0][Round]);
    double Q1 = percentile(Ratio, 25), Med = percentile(Ratio, 50),
           Q3 = percentile(Ratio, 75);
    bool Resolved = !(Q1 <= 1.0 && 1.0 <= Q3);
    std::string Base = V + 1 == Vs.size()
                           ? std::string("exec.tier1.vs_tier0")
                           : std::string("exec.tier1.ablation.") + Vs[V].Name;
    Rep.set(Base, Med);
    Rep.set(Base + ".iqr", Q3 - Q1);
    if (V + 1 != Vs.size())
      Rep.set(Base + ".resolved", Resolved ? 1 : 0);
    std::fprintf(stderr, "  %-18s %.4f  [q1 %.4f, q3 %.4f]  %s\n",
                 Vs[V].Name, Med, Q1, Q3,
                 Resolved ? "resolved" : "unresolved");
  }
}

int runWarmLong(const RunConfig &Cfg, Report &Rep) {
  std::vector<Input> Inputs;
  if (!corpusInputs(/*Long=*/true, Inputs))
    return 1;
  Warm W;
  if (!setUpWarmWorkload(Inputs, W, Rep))
    return 1;
  const std::vector<WarmModule> &Ms = W.Ms;
  CodeServer &S = W.Svc->server();
  ServeStats After;

  std::vector<Tracer> Ts;
  Ts.emplace_back(Cfg.Traced, 64 * 1024);
  Tracer &T = Ts[0];
  std::vector<OpSample> Ops;
  std::vector<double> SweepMs;
  std::vector<uint64_t> Dispatches(Ms.size(), 0);
  std::vector<size_t> Order(Ms.size());
  SplitMix64 R(streamSeed(Cfg.Seed, kStreamOrder));
  uint64_t GcCycles0 = gcCounters().Cycles.sum();
  uint64_t GcPause0 = gcCounters().PauseNs.sum();
  uint64_t Id = 0;
  int64_t Start = nowNs();
  int64_t Deadline = Start + int64_t(Cfg.Seconds) * 1000000000;
  while (nowNs() < Deadline || SweepMs.size() < 100) {
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    shuffle(Order, R);
    int64_t A = nowNs();
    uint32_t SW = T.open(kSpanSweep, kNoSpan, SweepMs.size(), A);
    RequestResult Res[kNumLong];
    for (size_t I : Order)
      Res[I] = request(S, Ms[I], static_cast<uint16_t>(I), T, SW, Id++);
    int64_t B = nowNs();
    T.close(SW, B);
    SweepMs.push_back(msOf(B - A));
    Ops.push_back(opSample(Start, A, B));
    for (size_t I = 0; I != Ms.size(); ++I) {
      ++Rep.Attempted;
      if (!Res[I].Ok)
        Rep.fail(Ms[I].Name + ": output differs from the tree-walk oracle");
      if (Res[I].Tier != 1)
        Rep.violate(Ms[I].Name + " left tier 1 after warm-up");
      if (Dispatches[I] && Dispatches[I] != Res[I].Dispatches)
        Rep.violate(Ms[I].Name + " dispatch count changed between runs");
      Dispatches[I] = Res[I].Dispatches;
    }
  }
  if (!readStats(*W.Ctl, After, Rep))
    return 1;

  Rep.set("peak_rss_mb", peakRssMb());
  Rep.set("gc.cycles",
          static_cast<double>(gcCounters().Cycles.sum() - GcCycles0));
  Rep.set("gc.pause_us",
          static_cast<double>(gcCounters().PauseNs.sum() - GcPause0) / 1e3);
  reportOps(Rep, Ops, Cfg.Traced, 100);
  if (After.CacheReprepares != W.Before.CacheReprepares)
    Rep.violate("tier-1 re-preparation continued into the timed window");
  if (!Cfg.Traced)
    return 0;

  Rep.set("sweep_ms.p50", percentile(SweepMs, 50));
  Rep.set("sweep_ms.p90", percentile(SweepMs, 90));
  for (size_t I = 0; I != Ms.size(); ++I) {
    Rep.set(std::string("exec.run_us.") + kLongPrograms[I] + ".p50",
            percentile(spanDurations(Ts, kSpanRun, int(I)), 50) / 1e3);
    Rep.set(std::string("exec.dispatches.") + kLongPrograms[I],
            static_cast<double>(Dispatches[I]));
  }
  Rep.set("exec.runtime_new_us.p50",
          percentile(spanDurations(Ts, kSpanRuntimeNew), 50) / 1e3);
  Rep.set("exec.release_us.p50",
          percentile(spanDurations(Ts, kSpanRelease), 50) / 1e3);
  Rep.set("serve.load_prepared_ns.p50",
          percentile(spanDurations(Ts, kSpanLoadPrepared), 50));
  double Sweeps = static_cast<double>(SweepMs.size());
  Rep.set("serve.reprepares", static_cast<double>(After.CacheReprepares));
  Rep.set("exec.tier1.inlined_sites",
          static_cast<double>(After.CacheInlinedSites));
  Rep.set("exec.tier1.ic_hits",
          static_cast<double>(After.CacheICHits - W.Before.CacheICHits) /
              Sweeps);
  Rep.set("exec.tier1.ic_misses",
          static_cast<double>(After.CacheICMisses - W.Before.CacheICMisses) /
              Sweeps);
  Rep.set("exec.tier1.inline_guard_misses",
          static_cast<double>(After.CacheInlineGuardMisses -
                              W.Before.CacheInlineGuardMisses) /
              Sweeps);
  checkCoverage(Rep, coverages(Ts, {kSpanSweep}), true);
  finishTrace(Cfg, Ts, Rep);
  ablate(Cfg, S, Ms, Rep);
  return 0;
}

//===----------------------------------------------------------------------===//
// warm-short
//===----------------------------------------------------------------------===//

int runWarmShort(const RunConfig &Cfg, Report &Rep) {
  std::vector<Input> Inputs;
  SeedStream Generated(kShortPoolSeed, kStreamShort);
  if (!Generated.take(kShortGenerated, Inputs))
    return 1;
  reportSkips(Rep, Generated.Skipped, Inputs.size());
  if (!corpusInputs(/*Long=*/false, Inputs))
    return 1;
  Warm W;
  if (!setUpWarmWorkload(Inputs, W, Rep))
    return 1;
  const std::vector<WarmModule> &Ms = W.Ms;
  CodeServer &S = W.Svc->server();
  ServeStats After;

  // Zipf(1) popularity, most popular first in order of the oracle's
  // instruction count: the hottest modules are the smallest handlers. A
  // seeded ranking would let one expensive module at rank 1 (16% of the
  // draws) set the workload's cost. Each client thread cycles through its
  // own seeded draw sequence.
  unsigned Threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<size_t> Rank(Ms.size());
  for (size_t I = 0; I != Rank.size(); ++I)
    Rank[I] = I;
  std::stable_sort(Rank.begin(), Rank.end(), [&](size_t A, size_t B) {
    return Inputs[A].OracleSteps < Inputs[B].OracleSteps;
  });
  std::vector<double> Cdf(Ms.size());
  double Sum = 0;
  for (size_t K = 0; K != Ms.size(); ++K)
    Cdf[K] = Sum += 1.0 / static_cast<double>(K + 1);
  constexpr size_t kDraws = 1 << 16;
  std::vector<std::vector<uint16_t>> Draws(Threads);
  for (unsigned T = 0; T != Threads; ++T) {
    SplitMix64 R(streamSeed(Cfg.Seed, kStreamOrder) + 1 + T);
    for (size_t K = 0; K != kDraws; ++K) {
      double U = R.unit() * Sum;
      size_t Pos = std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin();
      Draws[T].push_back(
          static_cast<uint16_t>(Rank[std::min(Pos, Ms.size() - 1)]));
    }
  }

  size_t TraceCap = kMaxTracedRequests / Threads;
  std::vector<Tracer> Ts, Off;
  for (unsigned T = 0; T != Threads; ++T) {
    Ts.emplace_back(Cfg.Traced, 5 * TraceCap);
    Off.emplace_back(false, 0);
  }
  std::vector<std::vector<OpSample>> Ops(Threads);
  std::vector<uint64_t> Done(Threads, 0), Fails(Threads, 0),
      Tier1(Threads, 0);
  uint64_t GcCycles0 = gcCounters().Cycles.sum();
  std::latch Go(Threads + 1);
  std::atomic<int64_t> StartAt{0};
  const size_t MinPerThread = 1000;
  std::vector<std::thread> Pool;
  const std::vector<int> &Cpus = allowedCpus();
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      if (!Cpus.empty())
        pinTo({Cpus[T % Cpus.size()]}); // One client thread per CPU.
      Ops[T].reserve(1 << 18);
      Go.arrive_and_wait();
      int64_t Begin = StartAt.load();
      int64_t End = Begin + int64_t(Cfg.Seconds) * 1000000000;
      uint64_t Id = uint64_t(T) << 40;
      uint64_t NumDone = 0, NumFailed = 0, NumTier1 = 0, NumTraced = 0;
      for (size_t K = 0;; ++K) {
        if ((K & 15) == 0 && nowNs() >= End &&
            Ops[T].size() >= MinPerThread / kShortSampleEvery)
          break;
        size_t M = Draws[T][K % kDraws];
        bool Trace = K % kShortTraceEvery == 0 && NumTraced < TraceCap;
        NumTraced += Trace;
        RequestResult R = request(S, Ms[M], static_cast<uint16_t>(M),
                                  Trace ? Ts[T] : Off[T], kNoSpan, Id++);
        if (K % kShortSampleEvery == 0)
          Ops[T].push_back(opSample(Begin, R.Start, R.End));
        ++NumDone;
        NumFailed += !R.Ok;
        NumTier1 += R.Tier == 1;
      }
      Done[T] = NumDone;
      Fails[T] = NumFailed;
      Tier1[T] = NumTier1;
    });
  StartAt.store(nowNs());
  Go.arrive_and_wait();
  for (std::thread &T : Pool)
    T.join();
  if (!readStats(*W.Ctl, After, Rep))
    return 1;

  std::vector<OpSample> All;
  std::vector<double> OpMs;
  uint64_t Tier1Requests = 0, Requests = 0;
  for (unsigned T = 0; T != Threads; ++T) {
    All.insert(All.end(), Ops[T].begin(), Ops[T].end());
    if (Cfg.Traced)
      for (const OpSample &O : Ops[T])
        OpMs.push_back(O.LatNs / 1e6);
    Rep.Attempted += Done[T];
    Requests += Done[T];
    std::vector<OpSample>().swap(Ops[T]);
    Tier1Requests += Tier1[T];
    for (uint64_t F = 0; F != Fails[T]; ++F)
      Rep.fail("warm-short request: output differs from the tree-walk "
               "oracle or load failed");
  }
  Rep.set("peak_rss_mb", peakRssMb());
  Rep.set("gc.cycles",
          static_cast<double>(gcCounters().Cycles.sum() - GcCycles0));
  double Wall = 0;
  for (const OpSample &O : All)
    Wall = std::max(Wall, O.EndUs / 1e6);
  reportOps(Rep, std::move(All), Cfg.Traced,
            Threads * MinPerThread / kShortSampleEvery, kShortSampleEvery);
  std::fprintf(stderr, "warm-short: %u client threads\n", Threads);
  if (!Cfg.Traced)
    return 0;

  Rep.set("request_us.p50", percentile(OpMs, 50) * 1e3);
  Rep.set("request_us.p99", percentile(OpMs, 99) * 1e3);
  Rep.set("requests_per_s", static_cast<double>(Requests) / Wall);
  std::vector<double> Load = spanDurations(Ts, kSpanLoadPrepared);
  Rep.set("serve.load_prepared_ns.p50", percentile(Load, 50));
  Rep.set("serve.load_prepared_ns.p99", percentile(Load, 99));
  Rep.set("exec.runtime_new_us.p50",
          percentile(spanDurations(Ts, kSpanRuntimeNew), 50) / 1e3);
  Rep.set("exec.release_us.p50",
          percentile(spanDurations(Ts, kSpanRelease), 50) / 1e3);
  Rep.set("exec.run_us.p50", percentile(spanDurations(Ts, kSpanRun), 50) / 1e3);
  Rep.set("exec.tier1_request_share",
          static_cast<double>(Tier1Requests) / static_cast<double>(Requests));
  double Hits = static_cast<double>(After.CacheHits - W.Before.CacheHits);
  double Lookups = Hits + static_cast<double>(
                              (After.CacheMisses - W.Before.CacheMisses) +
                              (After.CacheCoalesced - W.Before.CacheCoalesced));
  Rep.set("serve.cache.hit_ratio", Lookups > 0 ? Hits / Lookups : 0);
  checkCoverage(Rep, coverages(Ts, {kSpanRequest}), false);
  finishTrace(Cfg, Ts, Rep);
  return 0;
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

/// --list-inputs: one line per module the workload would publish (name and
/// source digest), so a test can compare module sets across seeds.
int listInputs(const RunConfig &Cfg) {
  std::vector<Input> Inputs;
  bool Cold = Cfg.Workload == "cold";
  SeedStream Stream(Cold ? Cfg.Seed : kShortPoolSeed,
                    Cold ? kStreamCold : kStreamShort);
  bool Ok;
  if (Cold)
    Ok = Stream.take(coldModules(Cfg), Inputs);
  else if (Cfg.Workload == "warm-long")
    Ok = corpusInputs(true, Inputs);
  else
    Ok = Stream.take(kShortGenerated, Inputs) && corpusInputs(false, Inputs);
  if (!Ok)
    return 1;
  for (const Input &In : Inputs) {
    std::string Src = In.Source;
    std::printf("%s\t%s\n", In.Name.c_str(),
                digestOf(ByteSpan(reinterpret_cast<const uint8_t *>(
                                      Src.data()),
                                  Src.size()))
                    .hex()
                    .c_str());
  }
  std::printf("skipped\t%llu fuel-bound\t%llu heap-bound\n",
              static_cast<unsigned long long>(Stream.Skipped.Fuel),
              static_cast<unsigned long long>(Stream.Skipped.Heap));
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold|warm-long|warm-short "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR] "
               "[--list-inputs]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  bool List = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--list-inputs") {
      List = true;
      continue;
    }
    if (!(V = Value()))
      return usage();
    if (A == "--workload")
      Cfg.Workload = V;
    else if (A == "--seed")
      Cfg.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      Cfg.Seconds = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else if (A == "--trace")
      Cfg.Traced = std::strcmp(V, "0") != 0;
    else if (A == "--trace-dir")
      Cfg.TraceDir = V;
    else
      return usage();
  }
  if (Cfg.Seconds == 0 || (Cfg.Workload != "cold" &&
                           Cfg.Workload != "warm-long" &&
                           Cfg.Workload != "warm-short"))
    return usage();
  if (List)
    return listInputs(Cfg);

  std::fprintf(stderr, "perfbench: workload %s, seed %llu, %u s, trace %d\n",
               Cfg.Workload.c_str(), static_cast<unsigned long long>(Cfg.Seed),
               Cfg.Seconds, Cfg.Traced ? 1 : 0);
  allowedCpus(); // Before anything pins a thread.
  Report Rep;
  int Rc = Cfg.Workload == "cold"        ? runCold(Cfg, Rep)
           : Cfg.Workload == "warm-long" ? runWarmLong(Cfg, Rep)
                                         : runWarmShort(Cfg, Rep);
  if (Rc != 0)
    return Rc;
  return Rep.print(Cfg.Traced);
}
