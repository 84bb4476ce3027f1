//===- serve/CodeServer.h - PUBLISH/FETCH code distribution ---*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The distribution service tying the three layers together: a
/// content-addressed ModuleStore for encoded bytes, a sharded ModuleCache
/// of decoded+verified modules, and the framed protocol served over any
/// Transport, with connections dispatched onto a support/ThreadPool.
///
/// Trust model (paper + "The Meaning of Memory Safety"): the channel is
/// untrusted, the bytes are the unit of identity. PUBLISH verifies the
/// module by fused-decoding it once (through the cache, so the verdict is
/// remembered per digest) and refuses storage on failure — the store
/// never serves bytes that do not decode to a verified module. FETCH
/// returns the exact stored bytes; a consumer re-verifies for free by
/// fused-decoding them, or calls load() in-process to share the server's
/// cached decoded module without paying any decode at all on a warm hit.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_SERVE_CODESERVER_H
#define SAFETSA_SERVE_CODESERVER_H

#include "gc/GC.h"
#include "serve/ModuleCache.h"
#include "serve/ModuleStore.h"
#include "serve/Protocol.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <memory>
#include <vector>

namespace safetsa {

/// Server-wide counters, also the STATS response payload (fixed array of
/// little-endian u64 in field order).
struct ServeStats {
  uint64_t StoreModules = 0;
  uint64_t StoreBytes = 0;
  uint64_t DuplicatePublishes = 0;
  uint64_t Publishes = 0;
  uint64_t Fetches = 0;
  uint64_t FetchNotFound = 0;
  uint64_t VerifyFailures = 0; ///< PUBLISH payloads that failed decode.
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheCoalesced = 0;
  uint64_t CacheEvictions = 0;
  uint64_t CacheDecodes = 0;
  uint64_t CacheDecodeFailures = 0;
  uint64_t CacheEntries = 0;
  uint64_t CacheBytes = 0;
  uint64_t CachePrepares = 0; ///< Execution-prep lowerings actually run.
  uint64_t CacheReprepares = 0; ///< Tier-1 re-quickenings actually run.
  uint64_t CacheICHits = 0;     ///< IC guard hits, resident tier-1 modules.
  uint64_t CacheICMisses = 0;   ///< IC guard misses (vtable fallbacks).
  /// Process-wide GC telemetry (gc/GC.h gcCounters(), striped like the
  /// profile counters): collections, cells reclaimed, and total
  /// stop-the-world pause time across every Runtime this process ran.
  uint64_t GcCycles = 0;
  uint64_t GcCellsReclaimed = 0;
  uint64_t GcPauseNs = 0;
  /// Speculative-inlining telemetry over resident tier-1 modules
  /// (DESIGN.md §14): call sites spliced at re-preparation, and
  /// GuardInline receiver misses that took the out-of-line fallback.
  uint64_t CacheInlinedSites = 0;
  uint64_t CacheInlineGuardMisses = 0;
};

/// Number of u64 fields in the STATS payload.
constexpr size_t kServeStatsFields = 24;

std::vector<uint8_t> encodeStats(const ServeStats &S);
bool decodeStats(ByteSpan Bytes, ServeStats &Out);

struct CodeServerOptions {
  /// Decoded-module cache budget, charged at wire size per module.
  size_t CacheBytes = 64u << 20;
  unsigned CacheShards = 8;
  /// Connection-dispatch pool size; 0 = hardware concurrency. Each
  /// attached connection occupies one worker for its lifetime.
  unsigned Threads = 0;
  /// Verify (fused-decode) modules at PUBLISH time and reject failures.
  /// Off, hostile publishes park in the store until first load.
  bool VerifyOnPublish = true;
  /// Directory for persistent storage; empty = in-memory only.
  std::string StoreDir;
  /// Heap-collection policy for executions this server's modules feed:
  /// workers executing a loaded module construct their Runtime with
  /// these knobs (see gc/GC.h). The default keeps long-running servers
  /// bounded at ~64 MiB of live cells per runtime.
  GcOptions Gc = {};
};

class CodeServer {
public:
  explicit CodeServer(CodeServerOptions Opts = {});
  ~CodeServer();

  //===------------------------------------------------------------------===//
  // In-process entry points (what the protocol handlers call; also the
  // integration surface for BatchCompiler and benches).
  //===------------------------------------------------------------------===//

  /// Verifies (when configured) and stores \p Bytes; returns their
  /// digest. On verification failure nothing is stored, \p Err is set,
  /// and the returned digest is still the content digest (callers may
  /// log it).
  Digest publish(ByteSpan Bytes, std::string *Err);

  /// The exact published bytes, or null when unknown.
  std::shared_ptr<const std::vector<uint8_t>> fetchBytes(const Digest &D);

  /// Cache-backed consumer load: the decoded+verified module for \p D.
  /// A warm hit does no decoding (asserted by tests via getStats). Null
  /// with \p Err set when the digest is unknown or its bytes fail decode.
  std::shared_ptr<const DecodedUnit> load(const Digest &D, std::string *Err);

  /// Cache-backed *executable* load: the prepared (quickened) form of the
  /// module for \p D, lowered once per resident cache entry. A warm hit
  /// does no decoding and no re-lowering — it returns directly executable
  /// code (stats().CachePrepares counts lowerings actually run). The
  /// returned module keeps its decoded unit alive internally. Once the
  /// module's tier-0 profile is hot (ProfileData::kHotThreshold), the
  /// cache re-quickens it (once, single-flight; stats().CacheReprepares)
  /// and serves the tier-1 form thereafter.
  std::shared_ptr<const PreparedModule> loadPrepared(const Digest &D,
                                                     std::string *Err);

  /// Like loadPrepared but with an explicit tier ceiling: 0 pins the
  /// profiling tier (the benches use it to time tier 0 alone).
  std::shared_ptr<const PreparedModule>
  loadPrepared(const Digest &D, uint32_t MaxTier, std::string *Err);

  ServeStats stats() const;

  ModuleStore &getStore() { return Store; }
  ModuleCache &getCache() { return Cache; }

  //===------------------------------------------------------------------===//
  // Protocol service
  //===------------------------------------------------------------------===//

  /// Serves one connection until clean EOF or a fatal framing error;
  /// blocking, callable from any thread.
  void serveConnection(Transport &T);

  /// Hands the connection to the dispatch pool and returns immediately.
  void attach(std::unique_ptr<Transport> T);

  /// Blocks until every attached connection has finished.
  void wait();

private:
  bool handleFrame(Transport &T, const Frame &F);

  CodeServerOptions Opts;
  ModuleStore Store;
  ModuleCache Cache;
  ThreadPool Pool;
  std::atomic<uint64_t> Publishes{0};
  std::atomic<uint64_t> Fetches{0};
  std::atomic<uint64_t> FetchNotFound{0};
  std::atomic<uint64_t> VerifyFailures{0};
};

} // namespace safetsa

#endif // SAFETSA_SERVE_CODESERVER_H
