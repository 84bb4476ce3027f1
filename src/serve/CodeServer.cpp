//===- serve/CodeServer.cpp -----------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/CodeServer.h"

using namespace safetsa;

std::vector<uint8_t> safetsa::encodeStats(const ServeStats &S) {
  const uint64_t Fields[kServeStatsFields] = {
      S.StoreModules,   S.StoreBytes,    S.DuplicatePublishes,
      S.Publishes,      S.Fetches,       S.FetchNotFound,
      S.VerifyFailures, S.CacheHits,     S.CacheMisses,
      S.CacheCoalesced, S.CacheEvictions, S.CacheDecodes,
      S.CacheDecodeFailures, S.CacheEntries, S.CacheBytes,
      S.CachePrepares, S.CacheReprepares, S.CacheICHits,
      S.CacheICMisses, S.GcCycles, S.GcCellsReclaimed,
      S.GcPauseNs, S.CacheInlinedSites, S.CacheInlineGuardMisses};
  std::vector<uint8_t> Out;
  Out.reserve(kServeStatsFields * 8);
  for (uint64_t F : Fields)
    for (unsigned I = 0; I != 8; ++I)
      Out.push_back(static_cast<uint8_t>(F >> (8 * I)));
  return Out;
}

bool safetsa::decodeStats(ByteSpan Bytes, ServeStats &Out) {
  if (Bytes.Size != kServeStatsFields * 8)
    return false;
  uint64_t Fields[kServeStatsFields];
  for (size_t F = 0; F != kServeStatsFields; ++F) {
    Fields[F] = 0;
    for (unsigned I = 0; I != 8; ++I)
      Fields[F] |= static_cast<uint64_t>(Bytes.Data[F * 8 + I]) << (8 * I);
  }
  Out.StoreModules = Fields[0];
  Out.StoreBytes = Fields[1];
  Out.DuplicatePublishes = Fields[2];
  Out.Publishes = Fields[3];
  Out.Fetches = Fields[4];
  Out.FetchNotFound = Fields[5];
  Out.VerifyFailures = Fields[6];
  Out.CacheHits = Fields[7];
  Out.CacheMisses = Fields[8];
  Out.CacheCoalesced = Fields[9];
  Out.CacheEvictions = Fields[10];
  Out.CacheDecodes = Fields[11];
  Out.CacheDecodeFailures = Fields[12];
  Out.CacheEntries = Fields[13];
  Out.CacheBytes = Fields[14];
  Out.CachePrepares = Fields[15];
  Out.CacheReprepares = Fields[16];
  Out.CacheICHits = Fields[17];
  Out.CacheICMisses = Fields[18];
  Out.GcCycles = Fields[19];
  Out.GcCellsReclaimed = Fields[20];
  Out.GcPauseNs = Fields[21];
  Out.CacheInlinedSites = Fields[22];
  Out.CacheInlineGuardMisses = Fields[23];
  return true;
}

CodeServer::CodeServer(CodeServerOptions Opts)
    : Opts(Opts), Store(Opts.StoreDir),
      Cache(Opts.CacheBytes, Opts.CacheShards),
      Pool(Opts.Threads == 0 ? ThreadPool::defaultThreadCount()
                             : Opts.Threads) {}

CodeServer::~CodeServer() { Pool.wait(); }

Digest CodeServer::publish(ByteSpan Bytes, std::string *Err) {
  Digest D = digestOf(Bytes);
  if (Opts.VerifyOnPublish) {
    // Verification = fused decode, paid once per digest: the verdict (and
    // the decoded module) lands in the cache, so the first consumer load
    // of a fresh publish is already warm.
    std::string DecErr;
    auto Unit = Cache.get(
        D, Bytes.Size,
        [&](std::string *E) { return decodeModule(Bytes, E, DecodeOptions{}); },
        &DecErr);
    if (!Unit) {
      ++VerifyFailures;
      if (Err)
        *Err = "module rejected: " + DecErr;
      return D;
    }
  }
  ++Publishes;
  Store.publish(D, Bytes);
  return D;
}

std::shared_ptr<const std::vector<uint8_t>>
CodeServer::fetchBytes(const Digest &D) {
  ++Fetches;
  auto Bytes = Store.fetch(D);
  if (!Bytes)
    ++FetchNotFound;
  return Bytes;
}

std::shared_ptr<const DecodedUnit> CodeServer::load(const Digest &D,
                                                    std::string *Err) {
  auto Bytes = Store.fetch(D);
  if (!Bytes) {
    if (Err)
      *Err = "unknown digest " + D.hex();
    return nullptr;
  }
  return Cache.get(
      D, Bytes->size(),
      [&](std::string *E) {
        return decodeModule(ByteSpan(*Bytes), E, DecodeOptions{});
      },
      Err);
}

std::shared_ptr<const PreparedModule>
CodeServer::loadPrepared(const Digest &D, std::string *Err) {
  return loadPrepared(D, /*MaxTier=*/1, Err);
}

std::shared_ptr<const PreparedModule>
CodeServer::loadPrepared(const Digest &D, uint32_t MaxTier, std::string *Err) {
  auto Bytes = Store.fetch(D);
  if (!Bytes) {
    if (Err)
      *Err = "unknown digest " + D.hex();
    return nullptr;
  }
  return Cache.getPrepared(
      D, Bytes->size(),
      [&](std::string *E) {
        return decodeModule(ByteSpan(*Bytes), E, DecodeOptions{});
      },
      MaxTier, Err);
}

ServeStats CodeServer::stats() const {
  ServeStats S;
  S.StoreModules = Store.size();
  S.StoreBytes = Store.totalBytes();
  S.DuplicatePublishes = Store.getDuplicatePublishes();
  S.Publishes = Publishes.load();
  S.Fetches = Fetches.load();
  S.FetchNotFound = FetchNotFound.load();
  S.VerifyFailures = VerifyFailures.load();
  CacheStats C = Cache.stats();
  S.CacheHits = C.Hits;
  S.CacheMisses = C.Misses;
  S.CacheCoalesced = C.Coalesced;
  S.CacheEvictions = C.Evictions;
  S.CacheDecodes = C.Decodes;
  S.CacheDecodeFailures = C.DecodeFailures;
  S.CacheEntries = C.Entries;
  S.CacheBytes = C.Bytes;
  S.CachePrepares = C.Prepares;
  S.CacheReprepares = C.Reprepares;
  S.CacheICHits = C.ICHits;
  S.CacheICMisses = C.ICMisses;
  S.CacheInlinedSites = C.InlinedSites;
  S.CacheInlineGuardMisses = C.InlineGuardMisses;
  // Process-wide striped aggregates; exact once collectors are quiescent
  // (same contract as the cache's counters).
  GcCounters &G = gcCounters();
  S.GcCycles = G.Cycles.sum();
  S.GcCellsReclaimed = G.CellsReclaimed.sum();
  S.GcPauseNs = G.PauseNs.sum();
  return S;
}

/// Handles one decoded request frame; false when the response could not
/// be written (connection gone).
bool CodeServer::handleFrame(Transport &T, const Frame &F) {
  switch (F.Type) {
  case MsgType::Publish: {
    std::string Err;
    Digest D = publish(ByteSpan(F.Payload), &Err);
    if (!Err.empty())
      return writeFrame(T, MsgType::Error, ByteSpan(
          reinterpret_cast<const uint8_t *>(Err.data()), Err.size()));
    std::vector<uint8_t> Payload;
    appendDigest(Payload, D);
    return writeFrame(T, MsgType::PublishOk, ByteSpan(Payload));
  }
  case MsgType::Fetch: {
    Digest D;
    if (!readDigest(ByteSpan(F.Payload), D)) {
      static const char Msg[] = "FETCH payload must be a 16-byte digest";
      return writeFrame(T, MsgType::Error,
                        ByteSpan(reinterpret_cast<const uint8_t *>(Msg),
                                 sizeof(Msg) - 1));
    }
    auto Bytes = fetchBytes(D);
    if (!Bytes)
      return writeFrame(T, MsgType::NotFound, ByteSpan());
    return writeFrame(T, MsgType::FetchOk, ByteSpan(*Bytes));
  }
  case MsgType::Stats: {
    std::vector<uint8_t> Payload = encodeStats(stats());
    return writeFrame(T, MsgType::StatsOk, ByteSpan(Payload));
  }
  default: {
    // A response type as a request: framing is still synced, so answer
    // with a typed error and keep the session.
    static const char Msg[] = "unexpected frame type";
    return writeFrame(T, MsgType::Error,
                      ByteSpan(reinterpret_cast<const uint8_t *>(Msg),
                               sizeof(Msg) - 1));
  }
  }
}

void CodeServer::serveConnection(Transport &T) {
  for (;;) {
    Frame F;
    FrameError E = readFrame(T, F);
    if (E == FrameError::Closed)
      return; // Normal end of session.
    if (E != FrameError::None) {
      // Corrupt framing desyncs the stream: report (best effort) and
      // drop the connection rather than guess at a resync point.
      const char *Msg = frameErrorName(E);
      writeFrame(T, MsgType::Error,
                 ByteSpan(reinterpret_cast<const uint8_t *>(Msg),
                          std::char_traits<char>::length(Msg)));
      T.closeSend();
      return;
    }
    if (!handleFrame(T, F))
      return;
  }
}

void CodeServer::attach(std::unique_ptr<Transport> T) {
  std::shared_ptr<Transport> Shared(std::move(T));
  Pool.submit([this, Shared] { serveConnection(*Shared); });
}

void CodeServer::wait() { Pool.wait(); }
