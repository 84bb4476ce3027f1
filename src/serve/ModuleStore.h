//===- serve/ModuleStore.h - Content-addressed module bytes ---*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed storage of encoded `.stsa` byte vectors. A module's
/// name IS the digest of its exact bytes — publishing is therefore
/// idempotent (re-publishing identical bytes is a no-op yielding the same
/// digest) and a fetched buffer is bit-for-bit what some producer
/// published; there is no claimed-identity path by which a stream could
/// be substituted.
///
/// Optional directory persistence lays modules out as
/// `<dir>/<hh>/<rest-of-digest>.stsa` (first digest byte as a fan-out
/// subdirectory). On open, existing files are re-read and re-digested:
/// the index key is always the digest of the bytes actually on disk, so a
/// renamed or bit-rotted file can never impersonate another module — at
/// worst it appears under its own (new) digest and is never requested.
///
/// Thread-safe; fetched buffers are shared_ptr snapshots so readers are
/// immune to concurrent publishes.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_SERVE_MODULESTORE_H
#define SAFETSA_SERVE_MODULESTORE_H

#include "support/BitStream.h"
#include "support/Digest.h"

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace safetsa {

class ModuleStore {
public:
  /// In-memory store; pass \p Dir to persist (created if absent, existing
  /// `.stsa` files loaded and re-keyed by their actual content digest).
  explicit ModuleStore(std::string Dir = "");

  /// Stores \p Bytes under \p D, which must be digestOf(\p Bytes): the
  /// caller digests each payload once, for the cache and the store alike.
  /// Idempotent: publishing bytes already present touches nothing and
  /// bumps the duplicate counter.
  void publish(const Digest &D, ByteSpan Bytes);

  /// The exact published bytes, or null for an unknown digest.
  std::shared_ptr<const std::vector<uint8_t>> fetch(const Digest &D) const;

  bool contains(const Digest &D) const;

  /// Number of distinct modules.
  size_t size() const;

  /// Sum of stored byte lengths.
  size_t totalBytes() const;

  /// Publishes that found their digest already present.
  uint64_t getDuplicatePublishes() const;

  /// Relative file path (subdir + name) a digest persists under.
  static std::string relativePath(const Digest &D);

private:
  void persist(const Digest &D,
               const std::shared_ptr<const std::vector<uint8_t>> &Bytes);
  void loadDir();

  mutable std::mutex M;
  std::unordered_map<Digest, std::shared_ptr<const std::vector<uint8_t>>,
                     DigestHash>
      Map;
  size_t Bytes = 0;
  uint64_t DuplicatePublishes = 0;
  std::string Dir; ///< Empty = no persistence.
};

} // namespace safetsa

#endif // SAFETSA_SERVE_MODULESTORE_H
