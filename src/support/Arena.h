//===- support/Arena.h - Bump-pointer arena allocation --------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena for the SafeTSA IR (Instruction, BasicBlock,
/// CSTNode). The consumer load path allocates tens of thousands of IR
/// nodes per module; per-node `new` was the dominant allocator traffic.
/// The arena hands out objects from fixed-size slabs, so allocation is a
/// pointer bump and teardown is one pass over the slab chain instead of
/// one `free` per node.
///
/// One arena serves a whole module: TSAModule owns it and every method
/// of the module allocates its nodes there (DESIGN.md §8). Slabs are all
/// SlabSize bytes and are not zero-filled, so a module's slack — bytes
/// reserved but never handed out — is the unused rest of its current
/// slab plus, per filled slab, the slab header and a tail shorter than
/// the node that did not fit: about one slab per module, whatever its
/// number of methods.
///
/// Objects are never individually freed: passes that unlink nodes (DCE,
/// CSE) simply drop the pointers and the memory is reclaimed when the
/// owning module dies. Destructors of non-trivially-destructible types
/// are recorded in a header allocated just before the object (an
/// intrusive list, so recording never reallocates) and run at arena
/// teardown, newest first.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_SUPPORT_ARENA_H
#define SAFETSA_SUPPORT_ARENA_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace safetsa {

/// Monotonic slab allocator. Not thread-safe; each owner (one TSAModule)
/// is confined to one thread at a time by the batch pipeline's design.
/// Neither copyable nor movable: the methods of a module hold references
/// to it.
class BumpArena {
public:
  /// Size of every slab, header included.
  static constexpr size_t SlabSize = 16 * 1024;

  BumpArena() = default;
  BumpArena(const BumpArena &) = delete;
  BumpArena &operator=(const BumpArena &) = delete;

  ~BumpArena() { reset(); }

  /// Constructs a T in the arena. The object lives until reset() or the
  /// arena is destroyed; there is no per-object destroy.
  template <typename T, typename... Args> T *create(Args &&...A) {
    static_assert(alignof(T) <= alignof(std::max_align_t));
    if constexpr (std::is_trivially_destructible_v<T>) {
      static_assert(Header + sizeof(T) <= SlabSize);
      return new (allocate(sizeof(T), alignof(T)))
          T(std::forward<Args>(A)...);
    } else {
      // [DtorRecord][pad][T]: the record sits at a fixed offset before
      // the object, so its destroy thunk needs no stored object pointer.
      constexpr size_t Off = alignUp(sizeof(DtorRecord), alignof(T));
      constexpr size_t Align = std::max(alignof(T), alignof(DtorRecord));
      static_assert(Header + Off + sizeof(T) <= SlabSize);
      char *Mem = static_cast<char *>(allocate(Off + sizeof(T), Align));
      T *Obj = new (Mem + Off) T(std::forward<Args>(A)...);
      Dtors = new (Mem) DtorRecord{Dtors, [](DtorRecord *R) {
        reinterpret_cast<T *>(reinterpret_cast<char *>(R) + Off)->~T();
      }};
      return Obj;
    }
  }

  /// Runs pending destructors (newest first) and releases every slab.
  void reset() {
    while (Dtors) {
      DtorRecord *R = Dtors;
      Dtors = R->Next;
      R->Destroy(R);
    }
    while (Slabs) {
      SlabHeader *S = Slabs;
      Slabs = S->Next;
      ::operator delete(S);
    }
    Cur = End = nullptr;
    Reserved = Used = 0;
  }

  /// Total bytes obtained from the system allocator, slab headers
  /// included (capacity, not live objects).
  size_t bytesReserved() const { return Reserved; }

  /// Bytes handed out: the sizes of every object created, destructor
  /// records included. bytesReserved() - bytesUsed() is the arena's
  /// slack (slab headers, alignment padding, abandoned slab tails and
  /// the unused rest of the current slab).
  size_t bytesUsed() const { return Used; }

private:
  /// Padded so the first node after it is max_align_t-aligned.
  struct alignas(std::max_align_t) SlabHeader {
    SlabHeader *Next;
  };
  static constexpr size_t Header = sizeof(SlabHeader);
  struct DtorRecord {
    DtorRecord *Next;
    void (*Destroy)(DtorRecord *);
  };

  static constexpr size_t alignUp(size_t V, size_t Align) {
    return (V + Align - 1) & ~(Align - 1);
  }

  /// Allocates \p Size bytes aligned to \p Align from the current slab,
  /// starting a new slab when they do not fit (create() guarantees they
  /// fit an empty one).
  void *allocate(size_t Size, size_t Align) {
    Used += Size;
    uintptr_t P = alignUp(reinterpret_cast<uintptr_t>(Cur), Align);
    if (P + Size > reinterpret_cast<uintptr_t>(End)) {
      // The old slab's tail is abandoned. Slabs are raw `operator new`
      // memory, deliberately not zero-filled, so a fresh slab faults in
      // only the pages its nodes touch.
      auto *S = static_cast<SlabHeader *>(::operator new(SlabSize));
      S->Next = Slabs;
      Slabs = S;
      Reserved += SlabSize;
      P = reinterpret_cast<uintptr_t>(S) + Header;
      End = reinterpret_cast<char *>(S) + SlabSize;
    }
    Cur = reinterpret_cast<char *>(P + Size);
    return reinterpret_cast<void *>(P);
  }

  SlabHeader *Slabs = nullptr; ///< Newest first.
  DtorRecord *Dtors = nullptr; ///< Newest first.
  char *Cur = nullptr;
  char *End = nullptr;
  size_t Reserved = 0;
  size_t Used = 0;
};

} // namespace safetsa

#endif // SAFETSA_SUPPORT_ARENA_H
