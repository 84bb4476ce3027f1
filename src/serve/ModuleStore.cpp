//===- serve/ModuleStore.cpp ----------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/ModuleStore.h"

#include <cassert>
#include <filesystem>
#include <fstream>

using namespace safetsa;
namespace fs = std::filesystem;

ModuleStore::ModuleStore(std::string Dir) : Dir(std::move(Dir)) {
  if (!this->Dir.empty())
    loadDir();
}

std::string ModuleStore::relativePath(const Digest &D) {
  std::string Hex = D.hex();
  return Hex.substr(0, 2) + "/" + Hex.substr(2) + ".stsa";
}

void ModuleStore::publish(const Digest &D, ByteSpan Bytes) {
  assert(D == digestOf(Bytes) && "digest does not name these bytes");
  auto Copy = std::make_shared<const std::vector<uint8_t>>(
      Bytes.Data, Bytes.Data + Bytes.Size);
  bool Fresh;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto [It, Inserted] = Map.try_emplace(D);
    Fresh = Inserted;
    if (Inserted) {
      It->second = Copy;
      this->Bytes += Copy->size();
    } else {
      ++DuplicatePublishes;
    }
  }
  if (Fresh && !Dir.empty())
    persist(D, Copy);
}

std::shared_ptr<const std::vector<uint8_t>>
ModuleStore::fetch(const Digest &D) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Map.find(D);
  return It == Map.end() ? nullptr : It->second;
}

bool ModuleStore::contains(const Digest &D) const {
  std::lock_guard<std::mutex> Lock(M);
  return Map.count(D) != 0;
}

size_t ModuleStore::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Map.size();
}

size_t ModuleStore::totalBytes() const {
  std::lock_guard<std::mutex> Lock(M);
  return Bytes;
}

uint64_t ModuleStore::getDuplicatePublishes() const {
  std::lock_guard<std::mutex> Lock(M);
  return DuplicatePublishes;
}

void ModuleStore::persist(
    const Digest &D,
    const std::shared_ptr<const std::vector<uint8_t>> &Bytes) {
  std::error_code EC; // Persistence is best-effort: failures degrade to
                      // an in-memory store, they never fail a publish.
  fs::path Path = fs::path(Dir) / relativePath(D);
  fs::create_directories(Path.parent_path(), EC);
  if (EC)
    return;
  // Write to a temp name then rename, so a torn write can never leave a
  // file whose name claims a digest its bytes don't have.
  fs::path Tmp = Path;
  Tmp += ".tmp";
  {
    std::ofstream OS(Tmp, std::ios::binary | std::ios::trunc);
    if (!OS)
      return;
    OS.write(reinterpret_cast<const char *>(Bytes->data()),
             static_cast<std::streamsize>(Bytes->size()));
    if (!OS) {
      OS.close();
      fs::remove(Tmp, EC);
      return;
    }
  }
  fs::rename(Tmp, Path, EC);
  if (EC)
    fs::remove(Tmp, EC);
}

void ModuleStore::loadDir() {
  std::error_code EC;
  fs::create_directories(Dir, EC);
  if (EC)
    return;
  for (const auto &Entry : fs::recursive_directory_iterator(Dir, EC)) {
    if (EC)
      break;
    if (!Entry.is_regular_file() || Entry.path().extension() != ".stsa")
      continue;
    std::ifstream IS(Entry.path(), std::ios::binary);
    if (!IS)
      continue;
    std::vector<uint8_t> Data((std::istreambuf_iterator<char>(IS)),
                              std::istreambuf_iterator<char>());
    // Re-key by actual content: the file name is a hint, never trusted.
    Digest D = digestOf(ByteSpan(Data));
    std::lock_guard<std::mutex> Lock(M);
    auto [It, Inserted] = Map.try_emplace(D);
    if (Inserted) {
      It->second =
          std::make_shared<const std::vector<uint8_t>>(std::move(Data));
      Bytes += It->second->size();
    }
  }
}
