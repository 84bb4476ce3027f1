//===- tests/serve_test.cpp - Distribution subsystem tests ----*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// src/serve end to end: the content-addressed store, the sharded
/// verified-module cache (eviction + single-flight), the framed
/// PUBLISH/FETCH protocol over pipe and socket transports (including
/// hostile framing), and the BatchCompiler integration. The whole file
/// also runs under ThreadSanitizer via the serve_tsan ctest entry.
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "driver/BatchCompiler.h"
#include "exec/ExecUnit.h"
#include "exec/TSAInterp.h"
#include "serve/CodeClient.h"
#include "serve/CodeServer.h"
#include "serve/ModuleCache.h"
#include "serve/ModuleStore.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

using namespace safetsa;

namespace {

std::vector<uint8_t> encodeProgram(const char *Name, const char *Source) {
  auto P = compileMJ(Name, Source);
  EXPECT_TRUE(P->ok()) << P->renderDiagnostics();
  return encodeModule(*P->TSA);
}

std::string runUnit(const DecodedUnit &Unit) {
  Runtime RT(*Unit.Table);
  TSAInterpreter I(*Unit.Module, RT);
  ExecResult E = I.runMain();
  EXPECT_EQ(E.Err, RuntimeError::None) << runtimeErrorName(E.Err);
  return RT.getOutput();
}

/// One protocol session: a pipe pair with a dedicated thread running the
/// server side until the client hangs up.
struct Session {
  TransportPair Pair;
  std::thread ServerThread;

  explicit Session(CodeServer &Server) : Pair(makePipePair()) {
    ServerThread =
        std::thread([&Server, this] { Server.serveConnection(*Pair.Server); });
  }
  ~Session() {
    Pair.Client->closeSend();
    ServerThread.join();
  }
  Transport &clientEnd() { return *Pair.Client; }
};

//===----------------------------------------------------------------------===//
// Round-trip property (acceptance criterion)
//===----------------------------------------------------------------------===//

// For every corpus program: PUBLISH then FETCH returns byte-identical
// encoded modules, the fetched module fused-decodes, and interpreting it
// produces the same output as the locally compiled module.
TEST(Serve, RoundTripCorpus) {
  CodeServer Server;
  Session S(Server);
  CodeClient Client(S.clientEnd());

  for (const CorpusProgram &P : getCorpus()) {
    SCOPED_TRACE(P.Name);
    auto Local = compileMJ(P.Name, P.Source);
    ASSERT_TRUE(Local->ok()) << Local->renderDiagnostics();
    std::vector<uint8_t> Wire = encodeModule(*Local->TSA);

    Digest D;
    std::string Err;
    ASSERT_TRUE(Client.publish(ByteSpan(Wire), D, &Err)) << Err;
    EXPECT_EQ(D, digestOf(ByteSpan(Wire)));

    std::vector<uint8_t> Fetched;
    ASSERT_TRUE(Client.fetch(D, Fetched, &Err)) << Err;
    EXPECT_EQ(Fetched, Wire); // Byte-identical round trip.

    auto Unit = Client.fetchAndLoad(D, &Err);
    ASSERT_TRUE(Unit) << Err; // Fused decode+verify succeeded.

    // Same observable behaviour as the locally compiled module.
    Runtime LocalRT(*Local->Table);
    TSAInterpreter LocalI(*Local->TSA, LocalRT);
    ASSERT_EQ(LocalI.runMain().Err, RuntimeError::None);
    EXPECT_EQ(runUnit(*Unit), LocalRT.getOutput());
  }
}

TEST(Serve, PublishIsIdempotent) {
  CodeServer Server;
  std::vector<uint8_t> Wire = encodeProgram(
      "idem.mj", "class Main { static void main() { IO.printInt(7); } }");
  std::string Err;
  Digest D1 = Server.publish(ByteSpan(Wire), &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  Digest D2 = Server.publish(ByteSpan(Wire), &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(D1, D2);
  EXPECT_EQ(Server.getStore().size(), 1u);
  EXPECT_EQ(Server.getStore().getDuplicatePublishes(), 1u);
  // The duplicate publish hit the cached verification verdict: one
  // decode for two publishes.
  EXPECT_EQ(Server.stats().CacheDecodes, 1u);
}

TEST(Serve, FetchUnknownDigestIsNotFound) {
  CodeServer Server;
  Session S(Server);
  CodeClient Client(S.clientEnd());
  std::vector<uint8_t> Out;
  std::string Err;
  EXPECT_FALSE(Client.fetch(Digest{1, 2}, Out, &Err));
  EXPECT_NE(Err.find("not found"), std::string::npos) << Err;
  EXPECT_EQ(Server.stats().FetchNotFound, 1u);
}

// A module whose bytes fail fused decode+verify must be refused at
// PUBLISH: the store never serves unverifiable bytes.
TEST(Serve, PublishRejectsUnverifiableBytes) {
  std::vector<uint8_t> Wire = encodeProgram(
      "tamper.mj", "class Main { static void main() { IO.printInt(1); } }");
  // Find a mutation the decoder rejects (most are; scan to be sure).
  std::vector<uint8_t> Bad;
  for (size_t I = 0; I != Wire.size() && Bad.empty(); ++I) {
    std::vector<uint8_t> M = Wire;
    M[I] ^= 0x40;
    std::string DecErr;
    if (!decodeModule(ByteSpan(M), &DecErr, DecodeOptions{}))
      Bad = std::move(M);
  }
  ASSERT_FALSE(Bad.empty()) << "no rejectable mutation found";

  CodeServer Server;
  std::string Err;
  Digest D = Server.publish(ByteSpan(Bad), &Err);
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(Server.getStore().contains(D));
  EXPECT_EQ(Server.stats().VerifyFailures, 1u);
  // A later publish of the same digest retries (failures are not
  // cached as verdicts) and fails again.
  Err.clear();
  Server.publish(ByteSpan(Bad), &Err);
  EXPECT_FALSE(Err.empty());
  EXPECT_EQ(Server.stats().VerifyFailures, 2u);
}

// A server handing back bytes that do not hash to the requested digest
// is caught by the client (content addressing end to end).
TEST(Serve, ClientRejectsSubstitutedBytes) {
  TransportPair Pair = makePipePair();
  std::thread Liar([&] {
    Frame F;
    ASSERT_EQ(readFrame(*Pair.Server, F), FrameError::None);
    ASSERT_EQ(F.Type, MsgType::Fetch);
    const uint8_t Other[] = {1, 2, 3, 4};
    writeFrame(*Pair.Server, MsgType::FetchOk, ByteSpan(Other, 4));
  });
  CodeClient Client(*Pair.Client);
  std::string Err;
  auto Unit = Client.fetchAndLoad(Digest{42, 42}, &Err);
  EXPECT_EQ(Unit, nullptr);
  EXPECT_NE(Err.find("digest"), std::string::npos) << Err;
  Liar.join();
}

//===----------------------------------------------------------------------===//
// Transports
//===----------------------------------------------------------------------===//

void roundTripOver(TransportPair Pair) {
  if (!Pair.Client || !Pair.Server)
    GTEST_SKIP() << "transport unavailable in this sandbox";
  CodeServer Server;
  std::thread ServerThread(
      [&] { Server.serveConnection(*Pair.Server); });
  {
    CodeClient Client(*Pair.Client);
    std::vector<uint8_t> Wire = encodeProgram(
        "sock.mj",
        "class Main { static void main() { IO.printInt(123); } }");
    Digest D;
    std::string Err;
    ASSERT_TRUE(Client.publish(ByteSpan(Wire), D, &Err)) << Err;
    std::vector<uint8_t> Fetched;
    ASSERT_TRUE(Client.fetch(D, Fetched, &Err)) << Err;
    EXPECT_EQ(Fetched, Wire);
    ServeStats Stats;
    ASSERT_TRUE(Client.stats(Stats, &Err)) << Err;
    EXPECT_EQ(Stats.StoreModules, 1u);
    EXPECT_EQ(Stats.Fetches, 1u);
    Client.close();
  }
  ServerThread.join();
}

TEST(Serve, UnixSocketRoundTrip) { roundTripOver(makeSocketPair()); }

TEST(Serve, TcpLoopbackRoundTrip) { roundTripOver(makeLoopbackTcpPair()); }

//===----------------------------------------------------------------------===//
// Hostile framing
//===----------------------------------------------------------------------===//

TEST(Frame, DecodeTypedErrors) {
  Frame F;
  size_t Consumed = 0;
  // Clean empty buffer = session boundary.
  EXPECT_EQ(decodeFrame(ByteSpan(), F, &Consumed), FrameError::Closed);
  // Short header.
  const uint8_t Short[] = {1, 0, 0};
  EXPECT_EQ(decodeFrame(ByteSpan(Short, 3), F, &Consumed),
            FrameError::Truncated);
  // Oversized length prefix: rejected before any allocation.
  const uint8_t Huge[] = {0xff, 0xff, 0xff, 0xff,
                          static_cast<uint8_t>(MsgType::Publish)};
  EXPECT_EQ(decodeFrame(ByteSpan(Huge, 5), F, &Consumed),
            FrameError::Oversized);
  // Unknown type byte.
  const uint8_t BadType[] = {0, 0, 0, 0, 0x7f};
  EXPECT_EQ(decodeFrame(ByteSpan(BadType, 5), F, &Consumed),
            FrameError::BadType);
  // Payload shorter than the prefix claims.
  const uint8_t Cut[] = {4, 0, 0, 0, static_cast<uint8_t>(MsgType::Fetch),
                         9, 9};
  EXPECT_EQ(decodeFrame(ByteSpan(Cut, 7), F, &Consumed),
            FrameError::Truncated);
  // A well-formed frame still decodes.
  const uint8_t Good[] = {2, 0, 0, 0, static_cast<uint8_t>(MsgType::Stats),
                          7, 8};
  ASSERT_EQ(decodeFrame(ByteSpan(Good, 7), F, &Consumed), FrameError::None);
  EXPECT_EQ(Consumed, 7u);
  EXPECT_EQ(F.Type, MsgType::Stats);
  EXPECT_EQ(F.Payload, (std::vector<uint8_t>{7, 8}));
}

/// Feeds raw corrupt bytes to a live server connection and expects a
/// typed Error response followed by connection shutdown — never a crash,
/// never an allocation driven by the hostile length.
void expectServerRejects(const std::vector<uint8_t> &Raw,
                         FrameError Expected) {
  CodeServer Server;
  TransportPair Pair = makePipePair();
  std::thread ServerThread(
      [&] { Server.serveConnection(*Pair.Server); });
  ASSERT_TRUE(Pair.Client->writeAll(Raw.data(), Raw.size()));
  Pair.Client->closeSend();
  Frame F;
  FrameError E = readFrame(*Pair.Client, F);
  ASSERT_EQ(E, FrameError::None);
  EXPECT_EQ(F.Type, MsgType::Error);
  std::string Msg(F.Payload.begin(), F.Payload.end());
  EXPECT_EQ(Msg, frameErrorName(Expected));
  // Server closed after the error: next read is EOF.
  EXPECT_EQ(readFrame(*Pair.Client, F), FrameError::Closed);
  ServerThread.join();
}

TEST(Frame, ServerRejectsOversizedFrame) {
  // 4 GiB length prefix; payload never sent.
  expectServerRejects({0xff, 0xff, 0xff, 0xff, 0x01}, FrameError::Oversized);
}

TEST(Frame, ServerRejectsBadTypeByte) {
  expectServerRejects({0, 0, 0, 0, 0x6e}, FrameError::BadType);
}

TEST(Frame, ServerRejectsTruncatedPayload) {
  // Claims 100 payload bytes, delivers 3, then EOF.
  expectServerRejects({100, 0, 0, 0, 0x01, 1, 2, 3}, FrameError::Truncated);
}

TEST(Frame, ServerRejectsTruncatedHeader) {
  expectServerRejects({1, 0}, FrameError::Truncated);
}

TEST(Frame, ServerSurvivesErrorAndServesNextConnection) {
  CodeServer Server;
  {
    TransportPair Pair = makePipePair();
    std::thread T([&] { Server.serveConnection(*Pair.Server); });
    std::vector<uint8_t> Junk = {0xff, 0xff, 0xff, 0xff, 0x01};
    Pair.Client->writeAll(Junk.data(), Junk.size());
    Pair.Client->closeSend();
    T.join();
  }
  // The server object is unharmed; a fresh connection works.
  Session S(Server);
  CodeClient Client(S.clientEnd());
  ServeStats Stats;
  std::string Err;
  EXPECT_TRUE(Client.stats(Stats, &Err)) << Err;
}

//===----------------------------------------------------------------------===//
// Cache: eviction, single-flight, warm serving
//===----------------------------------------------------------------------===//

TEST(ModuleCacheTest, EvictsLruByBytes) {
  // One shard so the LRU order is globally observable.
  ModuleCache Cache(/*CapacityBytes=*/100, /*NumShards=*/1);
  auto DecodeStub = [](std::string *) {
    // Eviction is policy over charges; the decoded value is irrelevant,
    // so an empty unit keeps the test focused.
    return std::make_unique<DecodedUnit>();
  };
  auto Get = [&](uint64_t Key) {
    std::string Err;
    return Cache.get(Digest{Key, Key}, /*Charge=*/40, DecodeStub, &Err);
  };
  ASSERT_TRUE(Get(1)); // bytes=40
  ASSERT_TRUE(Get(2)); // bytes=80
  ASSERT_TRUE(Get(1)); // touch 1: LRU order now 1,2
  ASSERT_TRUE(Get(3)); // bytes=120 > 100: evicts 2 (LRU), keeps 1,3
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Entries, 2u);
  EXPECT_EQ(S.Bytes, 80u);
  EXPECT_EQ(S.Decodes, 3u);
  // 1 and 3 are warm; 2 decodes again.
  ASSERT_TRUE(Get(1));
  ASSERT_TRUE(Get(3));
  EXPECT_EQ(Cache.stats().Decodes, 3u);
  ASSERT_TRUE(Get(2));
  EXPECT_EQ(Cache.stats().Decodes, 4u);
}

TEST(ModuleCacheTest, OversizedSingleEntryStillServes) {
  ModuleCache Cache(/*CapacityBytes=*/10, /*NumShards=*/1);
  std::string Err;
  auto Unit = Cache.get(
      Digest{9, 9}, /*Charge=*/1000,
      [](std::string *) { return std::make_unique<DecodedUnit>(); }, &Err);
  ASSERT_TRUE(Unit);
  EXPECT_EQ(Cache.stats().Entries, 1u);
  // Warm in spite of exceeding the budget alone.
  ASSERT_TRUE(Cache.get(
      Digest{9, 9}, 1000,
      [](std::string *) { return std::make_unique<DecodedUnit>(); }, &Err));
  EXPECT_EQ(Cache.stats().Decodes, 1u);
}

// The single-flight acceptance test: a concurrent FETCH storm of one
// digest decodes exactly once, counter-asserted. The decode holds until
// every thread has entered get(), so the coalescing window is forced
// open deterministically.
TEST(ModuleCacheTest, SingleFlightStormDecodesOnce) {
  constexpr unsigned kThreads = 8;
  ModuleCache Cache(/*CapacityBytes=*/1 << 20, /*NumShards=*/4);
  std::atomic<unsigned> Entered{0};
  const Digest D{7, 7};

  auto SlowDecode = [&](std::string *) {
    // Run by exactly one thread; wait for the whole storm to arrive.
    while (Entered.load() != kThreads)
      std::this_thread::yield();
    return std::make_unique<DecodedUnit>();
  };

  std::vector<std::thread> Threads;
  std::atomic<unsigned> Successes{0};
  for (unsigned I = 0; I != kThreads; ++I)
    Threads.emplace_back([&] {
      ++Entered;
      std::string Err;
      if (Cache.get(D, 64, SlowDecode, &Err))
        ++Successes;
    });
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(Successes.load(), kThreads);
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Decodes, 1u); // The storm decoded exactly once.
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits + S.Coalesced, kThreads - 1);
}

TEST(ModuleCacheTest, FailedDecodeIsNotCachedAndWaitersSeeError) {
  ModuleCache Cache(1 << 20, 2);
  const Digest D{3, 3};
  std::string Err;
  auto Fail = [](std::string *E) -> std::unique_ptr<DecodedUnit> {
    *E = "synthetic failure";
    return nullptr;
  };
  EXPECT_EQ(Cache.get(D, 8, Fail, &Err), nullptr);
  EXPECT_EQ(Err, "synthetic failure");
  EXPECT_EQ(Cache.stats().DecodeFailures, 1u);
  EXPECT_EQ(Cache.stats().Entries, 0u);
  // The digest is retried, not poisoned.
  auto Ok = Cache.get(
      D, 8, [](std::string *) { return std::make_unique<DecodedUnit>(); },
      &Err);
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Cache.stats().Decodes, 2u);
}

// Mixed-digest storm under the pool: mostly exercises the shard locking
// under TSan via the serve_tsan entry.
TEST(ModuleCacheTest, ConcurrentMixedDigests) {
  constexpr unsigned kThreads = 8;
  ModuleCache Cache(/*CapacityBytes=*/512, /*NumShards=*/4);
  std::vector<std::thread> Threads;
  std::atomic<unsigned> Failures{0};
  for (unsigned T = 0; T != kThreads; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != 200; ++I) {
        uint64_t Key = (T + I) % 16;
        std::string Err;
        if (!Cache.get(
                Digest{Key, Key * 31}, 64,
                [](std::string *) { return std::make_unique<DecodedUnit>(); },
                &Err))
          ++Failures;
        if (I % 64 == 0 && T == 0)
          Cache.clear();
      }
    });
  for (auto &Thr : Threads)
    Thr.join();
  EXPECT_EQ(Failures.load(), 0u);
}

// Counter exactness under concurrency (acceptance criterion): the
// striped counters lose nothing, so with N threads each performing M
// gets, stats() must satisfy Hits + Misses + Coalesced == N*M exactly —
// every get() increments exactly one of the three — and each decode run
// was a counted miss.
TEST(ModuleCacheTest, CountersAreExactUnderConcurrency) {
  constexpr unsigned kThreads = 8, kItersPerThread = 300, kDigests = 12;
  // Capacity far above kDigests * charge: no eviction, so each distinct
  // digest decodes exactly once across the whole storm.
  ModuleCache Cache(/*CapacityBytes=*/1 << 20, /*NumShards=*/4);
  std::vector<std::thread> Threads;
  std::atomic<unsigned> Failures{0};
  for (unsigned T = 0; T != kThreads; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != kItersPerThread; ++I) {
        uint64_t Key = (T * 7 + I) % kDigests;
        std::string Err;
        if (!Cache.get(
                Digest{Key, Key * 131}, /*Charge=*/64,
                [](std::string *) { return std::make_unique<DecodedUnit>(); },
                &Err))
          ++Failures;
      }
    });
  for (auto &Thr : Threads)
    Thr.join();
  ASSERT_EQ(Failures.load(), 0u);
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits + S.Misses + S.Coalesced,
            uint64_t(kThreads) * kItersPerThread);
  EXPECT_EQ(S.Misses, S.Decodes);
  EXPECT_EQ(S.Decodes, kDigests);
  EXPECT_EQ(S.DecodeFailures, 0u);
  EXPECT_EQ(S.Entries, kDigests);
}

// Lock-free hits racing CLOCK eviction: half the threads hammer a hot
// working set through the snapshot fast path while the other half cycle
// cold digests through a tiny budget, forcing continuous eviction and
// snapshot republication underneath the readers. Primarily a TSan proof
// (runs under the serve_tsan entry); the exactness invariant is asserted
// here too since eviction must not perturb it.
TEST(ModuleCacheTest, LockFreeHitsRaceEvictionStorm) {
  constexpr unsigned kReaders = 4, kChurners = 4, kIters = 400;
  // Budget fits the two hot entries plus very little else.
  ModuleCache Cache(/*CapacityBytes=*/256, /*NumShards=*/2);
  auto DecodeStub = [](std::string *) {
    return std::make_unique<DecodedUnit>();
  };
  std::vector<std::thread> Threads;
  std::atomic<unsigned> Failures{0};
  for (unsigned T = 0; T != kReaders; ++T)
    Threads.emplace_back([&] {
      for (unsigned I = 0; I != kIters; ++I) {
        uint64_t Key = I % 2; // Hot pair: mostly snapshot hits.
        std::string Err;
        if (!Cache.get(Digest{Key, Key * 31}, 32, DecodeStub, &Err))
          ++Failures;
      }
    });
  for (unsigned T = 0; T != kChurners; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != kIters; ++I) {
        // Distinct cold keys (disjoint from the hot pair) overflow the
        // budget and keep the CLOCK hand sweeping.
        uint64_t Key = 100 + T * kIters + I;
        std::string Err;
        if (!Cache.get(Digest{Key, Key * 31}, 64, DecodeStub, &Err))
          ++Failures;
      }
    });
  for (auto &Thr : Threads)
    Thr.join();
  ASSERT_EQ(Failures.load(), 0u);
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits + S.Misses + S.Coalesced,
            uint64_t(kReaders + kChurners) * kIters);
  EXPECT_EQ(S.Misses, S.Decodes);
  EXPECT_GT(S.Evictions, 0u);
  EXPECT_LE(S.Bytes, 256u + 64u); // Oversize slack: one in-flight charge.
}

// Admission is amortized O(1): a stream of distinct admissions with no
// loads in between republishes each shard's index only when the
// unindexed backlog outgrows it (about log2 of the per-shard count), not
// once per admission. An admitted but unindexed entry is still a hit,
// its first hit indexes it, and an eviction republishes at once.
TEST(ModuleCacheTest, AdmissionIsAmortized) {
  constexpr unsigned kAdmissions = 1024;
  ModuleCache Cache(/*CapacityBytes=*/1 << 20, /*NumShards=*/8);
  // The last admission that did not republish: its entry is unindexed.
  Digest Unindexed{0, 0};
  std::shared_ptr<const DecodedUnit> UnindexedUnit;
  for (uint64_t K = 1; K <= kAdmissions; ++K) {
    // Real digests, so the admissions spread evenly over the shards.
    Digest D = digestOf(ByteSpan(reinterpret_cast<const uint8_t *>(&K),
                                 sizeof(K)));
    uint64_t Before = Cache.stats().IndexPublishes;
    std::string Err;
    auto U = Cache.get(
        D, /*Charge=*/64,
        [](std::string *) { return std::make_unique<DecodedUnit>(); }, &Err);
    ASSERT_TRUE(U);
    if (Cache.stats().IndexPublishes == Before) {
      Unindexed = D;
      UnindexedUnit = U;
    }
  }
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Decodes, kAdmissions);
  EXPECT_EQ(S.Entries, kAdmissions);
  EXPECT_LE(S.IndexPublishes, 64u);
  ASSERT_TRUE(UnindexedUnit);

  auto NoDecode = [](std::string *E) -> std::unique_ptr<DecodedUnit> {
    ADD_FAILURE() << "a resident digest was decoded again";
    return nullptr;
  };
  // First get of an unindexed digest: the locked path serves the same
  // unit as a hit, and indexes the shard.
  std::string Err;
  EXPECT_EQ(Cache.get(Unindexed, 64, NoDecode, &Err), UnindexedUnit);
  CacheStats After = Cache.stats();
  EXPECT_EQ(After.Decodes, S.Decodes);
  EXPECT_EQ(After.Misses, S.Misses);
  EXPECT_EQ(After.Hits, S.Hits + 1);
  EXPECT_EQ(After.IndexPublishes, S.IndexPublishes + 1);
  // Next get comes from the index: nothing is republished.
  EXPECT_EQ(Cache.get(Unindexed, 64, NoDecode, &Err), UnindexedUnit);
  EXPECT_EQ(Cache.stats().IndexPublishes, After.IndexPublishes);
  EXPECT_EQ(Cache.stats().Hits, After.Hits + 1);

  // Eviction: A's admission publishes, B's does not (backlog 1 is not
  // above 1) and B's first hit does. C's admission evicts A (untouched)
  // with a backlog of 1 against 2 indexed, so only the eviction can
  // republish — and must: A's next get is a miss, not a hit served from
  // the index A was in.
  ModuleCache Small(/*CapacityBytes=*/100, /*NumShards=*/1);
  auto Stub = [](std::string *) { return std::make_unique<DecodedUnit>(); };
  const Digest A{1, 1}, B{2, 2}, C{3, 3};
  ASSERT_TRUE(Small.get(A, 40, Stub, &Err));
  ASSERT_TRUE(Small.get(B, 40, Stub, &Err));
  EXPECT_EQ(Small.stats().IndexPublishes, 1u);
  ASSERT_TRUE(Small.get(B, 40, Stub, &Err));
  EXPECT_EQ(Small.stats().IndexPublishes, 2u);
  ASSERT_TRUE(Small.get(C, 40, Stub, &Err));
  ASSERT_EQ(Small.stats().Evictions, 1u);
  EXPECT_EQ(Small.stats().IndexPublishes, 3u);
  uint64_t Misses = Small.stats().Misses;
  ASSERT_TRUE(Small.get(A, 40, Stub, &Err));
  EXPECT_EQ(Small.stats().Misses, Misses + 1);
  EXPECT_EQ(Small.stats().Decodes, 4u);
}

// Lock-free and locked-path hits racing a stream of lazy admissions:
// readers hammer an indexed hot set and chase the digests admitters
// have just admitted (unindexed, so served under the shard lock and
// indexed on first hit) while the admitters republish underneath them.
// Primarily a TSan proof (serve_tsan); with no eviction every digest
// decodes exactly once and every get is counted once.
TEST(ModuleCacheTest, AdmissionRacesHits) {
  constexpr unsigned kReaders = 4, kAdmitters = 4, kIters = 300, kHot = 8;
  ModuleCache Cache(/*CapacityBytes=*/1 << 20, /*NumShards=*/2);
  auto Stub = [](std::string *) { return std::make_unique<DecodedUnit>(); };
  auto Key = [](uint64_t K) { return Digest{K, K * 31}; };
  std::vector<std::shared_ptr<const DecodedUnit>> Hot;
  for (uint64_t K = 0; K != kHot; ++K) {
    std::string Err;
    Hot.push_back(Cache.get(Key(K), 16, Stub, &Err));
    ASSERT_TRUE(Hot.back());
  }
  uint64_t Setup = Cache.stats().Hits + Cache.stats().Misses +
                   Cache.stats().Coalesced;
  std::atomic<uint64_t> Latest[kAdmitters];
  for (auto &L : Latest)
    L.store(0);
  std::atomic<unsigned> Failures{0};
  std::atomic<uint64_t> Chased{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != kAdmitters; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != kIters; ++I) {
        uint64_t K = 1000 + T * kIters + I;
        std::string Err;
        if (!Cache.get(Key(K), 16, Stub, &Err))
          ++Failures;
        Latest[T].store(K, std::memory_order_release);
      }
    });
  for (unsigned T = 0; T != kReaders; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != kIters; ++I) {
        std::string Err;
        uint64_t H = (T + I) % kHot;
        if (Cache.get(Key(H), 16, Stub, &Err) != Hot[H])
          ++Failures;
        // A digest some admitter has finished admitting: a hit, never a
        // second decode.
        uint64_t K = Latest[I % kAdmitters].load(std::memory_order_acquire);
        if (K == 0)
          continue;
        ++Chased;
        if (!Cache.get(Key(K), 16, Stub, &Err))
          ++Failures;
      }
    });
  for (auto &Thr : Threads)
    Thr.join();
  ASSERT_EQ(Failures.load(), 0u);
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Decodes, kHot + kAdmitters * kIters);
  EXPECT_EQ(S.Misses, S.Decodes);
  EXPECT_EQ(S.Evictions, 0u);
  EXPECT_EQ(S.Entries, kHot + kAdmitters * kIters);
  // Every get counted exactly once.
  EXPECT_EQ(S.Hits + S.Misses + S.Coalesced,
            Setup + uint64_t(kAdmitters + kReaders) * kIters + Chased.load());
}

// Warm-cache serving through the real server: the second load of every
// corpus digest does no decoding at all (acceptance criterion).
TEST(Serve, WarmCacheServesWithoutRedecode) {
  CodeServer Server;
  std::vector<Digest> Digests;
  for (const CorpusProgram &P : getCorpus()) {
    std::string Err;
    Digests.push_back(
        Server.publish(ByteSpan(encodeProgram(P.Name, P.Source)), &Err));
    ASSERT_TRUE(Err.empty()) << Err;
  }
  uint64_t DecodesAfterPublish = Server.stats().CacheDecodes;
  EXPECT_EQ(DecodesAfterPublish, Digests.size());

  for (const Digest &D : Digests) {
    std::string Err;
    ASSERT_TRUE(Server.load(D, &Err)) << Err;
  }
  ServeStats S = Server.stats();
  EXPECT_EQ(S.CacheDecodes, DecodesAfterPublish); // Zero new decodes.
  EXPECT_GE(S.CacheHits, Digests.size());
}

// Preparation cost is amortized exactly like decoding: the first
// loadPrepared of a digest lowers the module once; every later one — from
// any thread — returns the same prepared unit with zero re-lowering.
TEST(Serve, WarmCacheServesPreparedWithoutRelowering) {
  CodeServer Server;
  std::vector<Digest> Digests;
  for (const CorpusProgram &P : getCorpus()) {
    std::string Err;
    Digests.push_back(
        Server.publish(ByteSpan(encodeProgram(P.Name, P.Source)), &Err));
    ASSERT_TRUE(Err.empty()) << Err;
  }
  EXPECT_EQ(Server.stats().CachePrepares, 0u); // Publish never lowers.

  std::vector<std::shared_ptr<const PreparedModule>> First;
  for (const Digest &D : Digests) {
    std::string Err;
    First.push_back(Server.loadPrepared(D, &Err));
    ASSERT_TRUE(First.back()) << Err;
  }
  EXPECT_EQ(Server.stats().CachePrepares, Digests.size());
  // Zero decodes either: the verdict cache was warm from publish.
  EXPECT_EQ(Server.stats().CacheDecodes, Digests.size());

  for (size_t I = 0; I != Digests.size(); ++I) {
    std::string Err;
    auto Again = Server.loadPrepared(Digests[I], &Err);
    ASSERT_TRUE(Again) << Err;
    EXPECT_EQ(Again.get(), First[I].get()) << "warm hit re-lowered";
  }
  EXPECT_EQ(Server.stats().CachePrepares, Digests.size());

  // A single-flight storm on one fresh server lowers exactly once.
  {
    CodeServer S2;
    std::string Err;
    Digest D = S2.publish(ByteSpan(encodeProgram(
                              "storm.mj", "class Main { static void main() { "
                                          "IO.printInt(1); } }")),
                          &Err);
    ASSERT_TRUE(Err.empty()) << Err;
    constexpr unsigned kThreads = 8;
    std::vector<std::thread> Threads;
    std::atomic<unsigned> Failures{0};
    for (unsigned T = 0; T != kThreads; ++T)
      Threads.emplace_back([&] {
        std::string E;
        if (!S2.loadPrepared(D, &E))
          ++Failures;
      });
    for (auto &T : Threads)
      T.join();
    EXPECT_EQ(Failures.load(), 0u);
    EXPECT_EQ(S2.stats().CachePrepares, 1u);
  }

  // The prepared form a server hands out actually runs, and matches the
  // tree-walked decoded module it was lowered from.
  std::string Err;
  auto Unit = Server.load(Digests.front(), &Err);
  ASSERT_TRUE(Unit) << Err;
  Runtime RTX(*Unit->Table);
  TSAExec X(*First.front(), RTX);
  ASSERT_EQ(X.runMain().Err, RuntimeError::None);
  EXPECT_EQ(RTX.getOutput(), runUnit(*Unit));
}

// The prepared unit must stay valid even after the cache entry it was
// lowered from is evicted (the keep-alive deleter owns the decoded unit).
TEST(Serve, PreparedUnitSurvivesCacheEviction) {
  CodeServerOptions Opts;
  Opts.CacheBytes = 1; // Every admission evicts the previous entry.
  Opts.CacheShards = 1;
  CodeServer Server(Opts);
  std::string Err;
  Digest A = Server.publish(
      ByteSpan(encodeProgram(
          "evict_a.mj",
          "class Main { static void main() { IO.printInt(11); } }")),
      &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  auto PA = Server.loadPrepared(A, &Err);
  ASSERT_TRUE(PA) << Err;

  // Push A out of the cache.
  Digest B = Server.publish(
      ByteSpan(encodeProgram(
          "evict_b.mj",
          "class Main { static void main() { IO.printInt(22); } }")),
      &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  ASSERT_TRUE(Server.loadPrepared(B, &Err)) << Err;

  Runtime RT(*PA->Module->Table);
  TSAExec X(*PA, RT);
  ASSERT_EQ(X.runMain().Err, RuntimeError::None);
  EXPECT_EQ(RT.getOutput(), "11");

  // A cold loadPrepared of the evicted digest decodes and lowers anew.
  auto PA2 = Server.loadPrepared(A, &Err);
  ASSERT_TRUE(PA2) << Err;
  EXPECT_NE(PA2.get(), PA.get());
}

//===----------------------------------------------------------------------===//
// Execution tiers through the server: re-preparation + STATS counters
//===----------------------------------------------------------------------===//

// Every field — including the tier counters added for the profiling
// tier — survives the fixed-width LE wire encoding bit-exactly.
TEST(Serve, StatsWireFormatRoundTripsTierCounters) {
  ServeStats In;
  In.StoreModules = 1;
  In.StoreBytes = 2;
  In.DuplicatePublishes = 3;
  In.Publishes = 4;
  In.Fetches = 5;
  In.FetchNotFound = 6;
  In.VerifyFailures = 7;
  In.CacheHits = 8;
  In.CacheMisses = 9;
  In.CacheCoalesced = 10;
  In.CacheEvictions = 11;
  In.CacheDecodes = 12;
  In.CacheDecodeFailures = 13;
  In.CacheEntries = 14;
  In.CacheBytes = 15;
  In.CachePrepares = 16;
  In.CacheReprepares = 0x1122334455667788ull;
  In.CacheICHits = 17;
  In.CacheICMisses = 18;
  In.GcCycles = 19;
  In.GcCellsReclaimed = 20;
  In.GcPauseNs = 0x8877665544332211ull;
  In.CacheInlinedSites = 21;
  In.CacheInlineGuardMisses = 0x0102030405060708ull;

  std::vector<uint8_t> Bytes = encodeStats(In);
  EXPECT_EQ(Bytes.size(), kServeStatsFields * 8);
  ServeStats Out;
  ASSERT_TRUE(decodeStats(ByteSpan(Bytes), Out));
  EXPECT_EQ(Out.CachePrepares, 16u);
  EXPECT_EQ(Out.CacheReprepares, 0x1122334455667788ull);
  EXPECT_EQ(Out.CacheICHits, 17u);
  EXPECT_EQ(Out.CacheICMisses, 18u);
  EXPECT_EQ(Out.GcCycles, 19u);
  EXPECT_EQ(Out.GcCellsReclaimed, 20u);
  EXPECT_EQ(Out.GcPauseNs, 0x8877665544332211ull);
  EXPECT_EQ(Out.CacheInlinedSites, 21u);
  EXPECT_EQ(Out.CacheInlineGuardMisses, 0x0102030405060708ull);
  EXPECT_EQ(Out.StoreModules, 1u);
  EXPECT_EQ(Out.CacheBytes, 15u);

  // Frames from older protocol revisions (16 fields pre-tier, 19 fields
  // pre-GC, 22 fields pre-inlining) are rejected, not misparsed.
  Bytes.resize(22 * 8);
  EXPECT_FALSE(decodeStats(ByteSpan(Bytes), Out));
  Bytes.resize(19 * 8);
  EXPECT_FALSE(decodeStats(ByteSpan(Bytes), Out));
  Bytes.resize(16 * 8);
  EXPECT_FALSE(decodeStats(ByteSpan(Bytes), Out));
}

const char *kVirtualSrc =
    "class A { int f() { return 1; } } "
    "class B extends A { int f() { return 2; } } "
    "class Main { "
    "static int go(A a) { return a.f(); } "
    "static void main() { A x = new A(); int s = 0; int i = 0; "
    "while (i < 10) { s = s + go(x); i = i + 1; } IO.printInt(s); } }";

/// Like kVirtualSrc, but go() sees both receiver classes: its site
/// becomes a two-way inline cache, which inlining never splices, so
/// every execution tallies IC hits.
const char *kPolySrc =
    "class A { int f() { return 1; } } "
    "class B extends A { int f() { return 2; } } "
    "class Main { "
    "static int go(A a) { return a.f(); } "
    "static void main() { A x = new A(); A y = new B(); int s = 0; "
    "int i = 0; while (i < 10) { s = s + go(x) + go(y); i = i + 1; } "
    "IO.printInt(s); } }";

/// Runs \p T0's main until its profile is hot, checking each output.
/// Every run enters main once, so kHotThreshold runs always suffice.
void runUntilHot(const PreparedModule &T0, ClassTable &Table,
                 const std::string &Want) {
  for (unsigned Run = 0; !T0.Profile->anyHot(); ++Run) {
    ASSERT_LT(Run, ProfileData::kHotThreshold) << "module never got hot";
    Runtime RT(Table);
    TSAExec X(T0, RT);
    ASSERT_EQ(X.runMain().Err, RuntimeError::None);
    EXPECT_EQ(RT.getOutput(), Want);
  }
}

// A module that crosses the hot threshold is re-quickened exactly once,
// even under a concurrent loadPrepared storm: one thread runs the
// re-preparation while rivals are served the profiling tier without
// blocking. Afterwards everyone gets the cached tier-1 form, and the
// STATS reply carries the reprepare + inline-cache counters.
TEST(Serve, HotModuleIsRequickenedOnceUnderStorm) {
  CodeServer Server;
  std::string Err;
  Digest D = Server.publish(ByteSpan(encodeProgram("hot.mj", kPolySrc)), &Err);
  ASSERT_TRUE(Err.empty()) << Err;

  auto Unit = Server.load(D, &Err);
  ASSERT_TRUE(Unit) << Err;

  // Cold load serves the profiling tier.
  auto T0 = Server.loadPrepared(D, &Err);
  ASSERT_TRUE(T0) << Err;
  EXPECT_EQ(T0->Tier, 0u);
  EXPECT_EQ(Server.stats().CacheReprepares, 0u);

  // Profiling runs make the module hot and seed the receiver profile.
  ASSERT_NO_FATAL_FAILURE(runUntilHot(*T0, *Unit->Table, "30"));

  constexpr unsigned kThreads = 8;
  std::vector<std::thread> Threads;
  std::atomic<unsigned> Failures{0};
  for (unsigned T = 0; T != kThreads; ++T)
    Threads.emplace_back([&] {
      std::string E;
      auto P = Server.loadPrepared(D, &E);
      // Rivals may legitimately see tier 0 (non-blocking single-flight)
      // but never a failure.
      if (!P || P->Tier > 1)
        ++Failures;
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Server.stats().CacheReprepares, 1u);

  // The storm has settled: tier 1 is cached and served to everyone.
  auto T1 = Server.loadPrepared(D, &Err);
  ASSERT_TRUE(T1) << Err;
  EXPECT_EQ(T1->Tier, 1u);
  EXPECT_NE(T1.get(), T0.get());
  EXPECT_EQ(Server.loadPrepared(D, &Err).get(), T1.get());
  EXPECT_EQ(Server.stats().CacheReprepares, 1u);

  // A caller that pins the profiling tier still gets it.
  auto Pinned = Server.loadPrepared(D, /*MaxTier=*/0, &Err);
  ASSERT_TRUE(Pinned) << Err;
  EXPECT_EQ(Pinned->Tier, 0u);
  EXPECT_EQ(Pinned.get(), T0.get());

  // Running the re-quickened form hits its inline caches; stats() sums
  // the tallies over resident tier-1 modules.
  {
    Runtime RT(*Unit->Table);
    TSAExec X(*T1, RT);
    ASSERT_EQ(X.runMain().Err, RuntimeError::None);
    EXPECT_EQ(RT.getOutput(), "30");
  }
  ServeStats S = Server.stats();
  EXPECT_GE(S.CacheICHits, 20u);
  EXPECT_EQ(S.CacheICMisses, 0u);

  // And over the wire: the STATS frame carries the tier counters.
  Session Sess(Server);
  CodeClient Client(Sess.clientEnd());
  ServeStats WireStats;
  ASSERT_TRUE(Client.stats(WireStats, &Err)) << Err;
  EXPECT_EQ(WireStats.CacheReprepares, 1u);
  EXPECT_EQ(WireStats.CacheICHits, S.CacheICHits);
  EXPECT_EQ(WireStats.CacheICMisses, 0u);
}

// Default options speculatively inline the hot monomorphic site at
// re-preparation: the spliced-site and guard-miss tallies must flow from
// the resident tier-1 module through stats() and the STATS frame (the
// two fields appended for DESIGN.md §14).
TEST(Serve, InlinedTierCountersFlowThroughStats) {
  CodeServer Server;
  std::string Err;
  Digest D =
      Server.publish(ByteSpan(encodeProgram("inl.mj", kVirtualSrc)), &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  auto Unit = Server.load(D, &Err);
  ASSERT_TRUE(Unit) << Err;

  auto T0 = Server.loadPrepared(D, &Err);
  ASSERT_TRUE(T0) << Err;
  ASSERT_NO_FATAL_FAILURE(runUntilHot(*T0, *Unit->Table, "10"));
  auto T1 = Server.loadPrepared(D, &Err);
  ASSERT_TRUE(T1) << Err;
  ASSERT_EQ(T1->Tier, 1u);

  // The mono site was spliced; its all-A workload never misses the
  // receiver guard, and splice hits do not tally as IC hits.
  {
    Runtime RT(*Unit->Table);
    TSAExec X(*T1, RT);
    ASSERT_EQ(X.runMain().Err, RuntimeError::None);
    EXPECT_EQ(RT.getOutput(), "10");
  }
  ServeStats S = Server.stats();
  EXPECT_GE(S.CacheInlinedSites, 1u);
  EXPECT_EQ(S.CacheInlineGuardMisses, 0u);
  EXPECT_EQ(S.CacheICHits, 0u);

  Session Sess(Server);
  CodeClient Client(Sess.clientEnd());
  ServeStats WireStats;
  ASSERT_TRUE(Client.stats(WireStats, &Err)) << Err;
  EXPECT_EQ(WireStats.CacheInlinedSites, S.CacheInlinedSites);
  EXPECT_EQ(WireStats.CacheInlineGuardMisses, 0u);
}

// A caller that caps loads at tier 0 never gets a re-quickened module, no
// matter how hot the module runs.
TEST(Serve, ServerTierCapPinsProfilingTier) {
  CodeServer Server;
  std::string Err;
  Digest D =
      Server.publish(ByteSpan(encodeProgram("cap.mj", kVirtualSrc)), &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  auto Unit = Server.load(D, &Err);
  ASSERT_TRUE(Unit) << Err;
  auto T0 = Server.loadPrepared(D, /*MaxTier=*/0, &Err);
  ASSERT_TRUE(T0) << Err;
  ASSERT_NO_FATAL_FAILURE(runUntilHot(*T0, *Unit->Table, "10"));
  auto Again = Server.loadPrepared(D, /*MaxTier=*/0, &Err);
  ASSERT_TRUE(Again) << Err;
  EXPECT_EQ(Again->Tier, 0u);
  EXPECT_EQ(Again.get(), T0.get());
  EXPECT_EQ(Server.stats().CacheReprepares, 0u);
}

//===----------------------------------------------------------------------===//
// Store persistence
//===----------------------------------------------------------------------===//

TEST(ModuleStoreTest, DirectoryPersistenceRoundTrip) {
  std::string Dir = ::testing::TempDir() + "safetsa_store_test";
  std::filesystem::remove_all(Dir);
  std::vector<uint8_t> Wire = encodeProgram(
      "persist.mj", "class Main { static void main() { IO.printInt(9); } }");
  Digest D;
  {
    ModuleStore Store(Dir);
    D = digestOf(ByteSpan(Wire));
    Store.publish(D, ByteSpan(Wire));
    // Laid out as <dir>/<hh>/<rest>.stsa.
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(Dir) / ModuleStore::relativePath(D)));
  }
  // A fresh store over the same directory re-serves the exact bytes.
  ModuleStore Reopened(Dir);
  EXPECT_EQ(Reopened.size(), 1u);
  auto Fetched = Reopened.fetch(D);
  ASSERT_TRUE(Fetched);
  EXPECT_EQ(*Fetched, Wire);
  std::filesystem::remove_all(Dir);
}

TEST(ModuleStoreTest, ReopenedStoreKeysByContentNotFileName) {
  std::string Dir = ::testing::TempDir() + "safetsa_store_rename";
  std::filesystem::remove_all(Dir);
  std::vector<uint8_t> Wire = encodeProgram(
      "rekey.mj", "class Main { static void main() { IO.printInt(2); } }");
  Digest Real;
  {
    ModuleStore Store(Dir);
    Real = digestOf(ByteSpan(Wire));
    Store.publish(Real, ByteSpan(Wire));
  }
  // An attacker renames the file to claim a different digest.
  Digest Claimed{0xdead, 0xbeef};
  std::filesystem::path From =
      std::filesystem::path(Dir) / ModuleStore::relativePath(Real);
  std::filesystem::path To =
      std::filesystem::path(Dir) / ModuleStore::relativePath(Claimed);
  std::filesystem::create_directories(To.parent_path());
  std::filesystem::rename(From, To);

  ModuleStore Reopened(Dir);
  // The claimed name is not honoured; the content digest is.
  EXPECT_FALSE(Reopened.contains(Claimed));
  auto Fetched = Reopened.fetch(Real);
  ASSERT_TRUE(Fetched);
  EXPECT_EQ(*Fetched, Wire);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// BatchCompiler integration
//===----------------------------------------------------------------------===//

TEST(Serve, BatchPublishAfterEncodeAndCachedLoad) {
  CodeServer Server;
  BatchOptions Opts;
  Opts.Threads = 4;
  Opts.PublishTo = &Server;
  Opts.PrepareExec = true;
  BatchCompiler BC(Opts);

  std::vector<BatchJob> Jobs;
  for (const CorpusProgram &P : getCorpus())
    Jobs.push_back({P.Name, P.Source});
  std::vector<BatchResult> Results = BC.run(Jobs);

  std::vector<Digest> Digests;
  for (const BatchResult &R : Results) {
    ASSERT_TRUE(R.ok()) << R.Name << ": " << R.Error;
    ASSERT_TRUE(R.Published) << R.Name;
    EXPECT_EQ(R.Dig, digestOf(ByteSpan(R.Wire)));
    EXPECT_TRUE(Server.getStore().contains(R.Dig));
    Digests.push_back(R.Dig);
  }
  EXPECT_EQ(Server.getStore().size(), Jobs.size());
  uint64_t DecodesAfterPublish = Server.stats().CacheDecodes;

  // Duplicate every digest: single-flight + warm cache mean the whole
  // batch is served with no additional decodes.
  std::vector<Digest> Doubled = Digests;
  Doubled.insert(Doubled.end(), Digests.begin(), Digests.end());
  std::vector<BatchServeLoadResult> Loads = BC.loadCached(Doubled, Server);
  ASSERT_EQ(Loads.size(), Doubled.size());
  for (size_t I = 0; I != Loads.size(); ++I) {
    ASSERT_TRUE(Loads[I].ok()) << Loads[I].Error;
    ASSERT_TRUE(Loads[I].Unit);
    // Duplicates share the identical decoded module AND prepared form.
    EXPECT_EQ(Loads[I].Unit.get(),
              Loads[I % Digests.size()].Unit.get());
    ASSERT_TRUE(Loads[I].Prepared);
    EXPECT_EQ(Loads[I].Prepared.get(),
              Loads[I % Digests.size()].Prepared.get());
    EXPECT_EQ(Loads[I].Prepared->Module, Loads[I].Unit->Module.get());
  }
  EXPECT_EQ(Server.stats().CacheDecodes, DecodesAfterPublish);
  // One lowering per distinct digest, despite duplicates racing across
  // four workers (single-flight on the prepare path too).
  EXPECT_EQ(Server.stats().CachePrepares, Digests.size());

  // The decoded modules really are the published programs.
  std::string Err;
  auto Unit = Server.load(Digests.front(), &Err);
  ASSERT_TRUE(Unit) << Err;
  auto Local = compileMJ(Jobs.front().Name, Jobs.front().Source);
  Runtime RT(*Local->Table);
  TSAInterpreter I(*Local->TSA, RT);
  ASSERT_EQ(I.runMain().Err, RuntimeError::None);
  EXPECT_EQ(runUnit(*Unit), RT.getOutput());
}

// Parallel sessions against one server: protocol + store + cache under
// real concurrency (the serve_tsan entry races this file under TSan).
TEST(Serve, ParallelClientSessions) {
  CodeServer Server(CodeServerOptions{/*CacheBytes=*/1u << 20,
                                      /*CacheShards=*/4, /*Threads=*/4,
                                      /*VerifyOnPublish=*/true,
                                      /*StoreDir=*/""});
  std::vector<uint8_t> Wire = encodeProgram(
      "par.mj", "class Main { static void main() { IO.printInt(5); } }");
  const Digest D = digestOf(ByteSpan(Wire));

  constexpr unsigned kClients = 6;
  std::vector<TransportPair> Pairs;
  for (unsigned I = 0; I != kClients; ++I) {
    Pairs.push_back(makePipePair());
    Server.attach(std::move(Pairs.back().Server));
  }
  std::vector<std::thread> Clients;
  std::atomic<unsigned> Failures{0};
  for (unsigned I = 0; I != kClients; ++I)
    Clients.emplace_back([&, I] {
      CodeClient Client(*Pairs[I].Client);
      for (unsigned Round = 0; Round != 20; ++Round) {
        Digest Out;
        std::string Err;
        std::vector<uint8_t> Fetched;
        if (!Client.publish(ByteSpan(Wire), Out, &Err) || Out != D ||
            !Client.fetch(D, Fetched, &Err) || Fetched != Wire)
          ++Failures;
      }
      Client.close();
    });
  for (auto &C : Clients)
    C.join();
  Server.wait();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Server.getStore().size(), 1u);
  // One decode total: every publish after the first hit the verdict
  // cache, across all sessions.
  EXPECT_EQ(Server.stats().CacheDecodes, 1u);
}

} // namespace
