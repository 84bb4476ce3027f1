//===- tests/support_test.cpp - Support library tests ---------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/BitStream.h"
#include "support/Diagnostics.h"
#include "support/ShardedCounter.h"
#include "support/SourceLoc.h"

#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

using namespace safetsa;

namespace {

//===----------------------------------------------------------------------===//
// BitStream
//===----------------------------------------------------------------------===//

TEST(BitStream, SingleBits) {
  BitWriter W;
  bool Pattern[] = {true, false, true, true, false, false, true, false,
                    true, true, true};
  for (bool B : Pattern)
    W.writeBit(B);
  std::vector<uint8_t> Bytes = W.take();
  BitReader R(Bytes);
  for (bool B : Pattern)
    EXPECT_EQ(R.readBit(), B);
  EXPECT_FALSE(R.hasOverrun());
}

TEST(BitStream, FixedFields) {
  BitWriter W;
  W.writeFixed(0xdeadbeefcafe1234ull, 64);
  W.writeFixed(0x2a, 7);
  W.writeFixed(1, 1);
  std::vector<uint8_t> Bytes = W.take();
  BitReader R(Bytes);
  EXPECT_EQ(R.readFixed(64), 0xdeadbeefcafe1234ull);
  EXPECT_EQ(R.readFixed(7), 0x2au);
  EXPECT_EQ(R.readFixed(1), 1u);
}

TEST(BitStream, BoundedIsPrefixFreeAndExact) {
  // Exhaustive check for small alphabets: every symbol round-trips, and
  // symbol sizes match the truncated-binary code lengths.
  for (uint64_t Bound = 1; Bound <= 40; ++Bound) {
    BitWriter W;
    for (uint64_t V = 0; V < Bound; ++V)
      W.writeBounded(V, Bound);
    std::vector<uint8_t> Bytes = W.take();
    BitReader R(Bytes);
    for (uint64_t V = 0; V < Bound; ++V)
      EXPECT_EQ(R.readBounded(Bound), V) << "bound " << Bound;
    EXPECT_FALSE(R.hasOverrun());
  }
}

TEST(BitStream, BoundedOneSymbolAlphabetIsFree) {
  BitWriter W;
  for (int I = 0; I < 1000; ++I)
    W.writeBounded(0, 1);
  EXPECT_EQ(W.getBitCount(), 0u);
}

TEST(BitStream, BoundedUsesFloorLog2Bits) {
  // A power-of-two alphabet uses exactly log2(N) bits per symbol.
  BitWriter W;
  for (uint64_t V = 0; V < 16; ++V)
    W.writeBounded(V, 16);
  EXPECT_EQ(W.getBitCount(), 16 * 4u);
}

TEST(BitStream, VarUintRoundTrip) {
  uint64_t Cases[] = {0,    1,    127,        128,
                      255,  300,  (1u << 14), (1ull << 35),
                      ~0ull};
  BitWriter W;
  for (uint64_t V : Cases)
    W.writeVarUint(V);
  std::vector<uint8_t> Bytes = W.take();
  BitReader R(Bytes);
  for (uint64_t V : Cases)
    EXPECT_EQ(R.readVarUint(), V);
}

TEST(BitStream, StringRoundTrip) {
  BitWriter W;
  W.writeString("hello");
  W.writeString("");
  W.writeString(std::string("emb\0edded", 9));
  std::vector<uint8_t> Bytes = W.take();
  BitReader R(Bytes);
  EXPECT_EQ(R.readString(), "hello");
  EXPECT_EQ(R.readString(), "");
  EXPECT_EQ(R.readString(), std::string("emb\0edded", 9));
}

TEST(BitStream, OverrunIsStickyAndSafe) {
  std::vector<uint8_t> Bytes = {0xff};
  BitReader R(Bytes);
  R.readFixed(8);
  EXPECT_FALSE(R.hasOverrun());
  R.readBit();
  EXPECT_TRUE(R.hasOverrun());
  // Further reads keep returning zeros without crashing.
  EXPECT_EQ(R.readFixed(64), 0u);
  EXPECT_TRUE(R.hasOverrun());
}

TEST(BitStream, HostileStringLengthDoesNotAllocate) {
  // A declared length far beyond the buffer must set overrun, not OOM.
  BitWriter W;
  W.writeVarUint(~0ull >> 8);
  std::vector<uint8_t> Bytes = W.take();
  BitReader R(Bytes);
  std::string S = R.readString();
  EXPECT_TRUE(R.hasOverrun());
  EXPECT_TRUE(S.empty());
}

/// Property sweep: random (value, bound) sequences round-trip.
class BitStreamFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitStreamFuzz, RandomBoundedSequenceRoundTrips) {
  std::mt19937_64 Rng(GetParam());
  std::vector<std::pair<uint64_t, uint64_t>> Seq;
  BitWriter W;
  for (int I = 0; I < 500; ++I) {
    uint64_t Bound = 1 + Rng() % 1000;
    uint64_t V = Rng() % Bound;
    Seq.push_back({V, Bound});
    W.writeBounded(V, Bound);
  }
  std::vector<uint8_t> Bytes = W.take();
  BitReader R(Bytes);
  for (auto [V, Bound] : Seq)
    ASSERT_EQ(R.readBounded(Bound), V);
  EXPECT_FALSE(R.hasOverrun());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitStreamFuzz,
                         ::testing::Range(1u, 21u));

TEST(BitStream, FloorLog2) {
  EXPECT_EQ(floorLog2(1), 0u);
  EXPECT_EQ(floorLog2(2), 1u);
  EXPECT_EQ(floorLog2(3), 1u);
  EXPECT_EQ(floorLog2(4), 2u);
  EXPECT_EQ(floorLog2(1023), 9u);
  EXPECT_EQ(floorLog2(1024), 10u);
  EXPECT_EQ(floorLog2(~0ull), 63u);
}

//===----------------------------------------------------------------------===//
// SourceManager
//===----------------------------------------------------------------------===//

TEST(SourceManager, LineAndColumn) {
  SourceManager SM("test.mj", "abc\ndef\n\nxy");
  EXPECT_EQ(SM.getLine(SourceLoc(0)), 1u);
  EXPECT_EQ(SM.getColumn(SourceLoc(0)), 1u);
  EXPECT_EQ(SM.getLine(SourceLoc(2)), 1u);
  EXPECT_EQ(SM.getColumn(SourceLoc(2)), 3u);
  EXPECT_EQ(SM.getLine(SourceLoc(4)), 2u); // 'd'
  EXPECT_EQ(SM.getColumn(SourceLoc(4)), 1u);
  EXPECT_EQ(SM.getLine(SourceLoc(8)), 3u); // empty line position
  EXPECT_EQ(SM.getLine(SourceLoc(9)), 4u); // 'x'
  EXPECT_EQ(SM.getColumn(SourceLoc(10)), 2u);
}

TEST(SourceManager, LineText) {
  SourceManager SM("t", "first\nsecond\nlast");
  EXPECT_EQ(SM.getLineText(1), "first");
  EXPECT_EQ(SM.getLineText(2), "second");
  EXPECT_EQ(SM.getLineText(3), "last");
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(Diagnostics, CountsAndSeverities) {
  DiagnosticEngine D;
  EXPECT_FALSE(D.hasErrors());
  D.warning(SourceLoc(0), "watch out");
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLoc(1), "boom");
  D.note(SourceLoc(2), "related");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.getNumErrors(), 1u);
  EXPECT_EQ(D.getDiagnostics().size(), 3u);
  EXPECT_TRUE(D.containsMessage("boom"));
  EXPECT_FALSE(D.containsMessage("quiet"));
}

TEST(Diagnostics, RenderWithCaret) {
  SourceManager SM("file.mj", "int x = ;\n");
  DiagnosticEngine D;
  D.error(SourceLoc(8), "expected expression");
  std::string Out = D.render(&SM);
  EXPECT_NE(Out.find("file.mj:1:9: error: expected expression"),
            std::string::npos);
  EXPECT_NE(Out.find("^"), std::string::npos);
}

TEST(Diagnostics, RenderWithoutLocation) {
  DiagnosticEngine D;
  D.error(SourceLoc(), "global problem");
  std::string Out = D.render(nullptr);
  EXPECT_EQ(Out, "error: global problem\n");
}

TEST(ShardedCounter, SingleThreadedSumIsExact) {
  ShardedCounter C;
  EXPECT_EQ(C.sum(), 0u);
  for (unsigned I = 0; I != 1000; ++I)
    C.add();
  C.add(42);
  EXPECT_EQ(C.sum(), 1042u);
}

// The exactness contract the STATS wire relies on: N threads x M adds
// (with varying deltas) sum to exactly the arithmetic total once the
// writers are joined — striping spreads contention but never loses or
// double-counts an increment.
TEST(ShardedCounter, ConcurrentAddsSumExactly) {
  constexpr unsigned kThreads = 8, kAdds = 10000;
  ShardedCounter C;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != kThreads; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != kAdds; ++I)
        C.add(1 + (T + I) % 3);
    });
  for (auto &Thr : Threads)
    Thr.join();
  uint64_t Expected = 0;
  for (unsigned T = 0; T != kThreads; ++T)
    for (unsigned I = 0; I != kAdds; ++I)
      Expected += 1 + (T + I) % 3;
  EXPECT_EQ(C.sum(), Expected);
}

// Thread ordinals are stable within a thread and distinct enough that a
// fresh thread gets a fresh ordinal (the property Profile's stripe
// assignment shares).
TEST(ShardedCounter, ThreadStripeIsStablePerThread) {
  unsigned Here1 = ShardedCounter::threadStripe();
  unsigned Here2 = ShardedCounter::threadStripe();
  EXPECT_EQ(Here1, Here2);
  unsigned There = 0;
  std::thread([&] { There = ShardedCounter::threadStripe(); }).join();
  EXPECT_NE(Here1, There);
}

//===----------------------------------------------------------------------===//
// BumpArena
//===----------------------------------------------------------------------===//

struct Tracked {
  std::vector<int> &Log;
  int Id;
  Tracked(std::vector<int> &Log, int Id) : Log(Log), Id(Id) {}
  ~Tracked() { Log.push_back(Id); }
};

// Destructors run once each at teardown, newest first; trivially
// destructible objects need no record.
TEST(BumpArena, RunsDestructorsNewestFirst) {
  std::vector<int> Log;
  {
    BumpArena A;
    for (int I = 0; I != 1000; ++I) // Spans several slabs.
      A.create<Tracked>(Log, I);
    int *P = A.create<int>(7);
    EXPECT_EQ(*P, 7);
    EXPECT_TRUE(Log.empty());
  }
  ASSERT_EQ(Log.size(), 1000u);
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(Log[I], 999 - I);
}

// Fixed-size slabs, accounted exactly: 1,000 nodes of 48 bytes plus
// their 16-byte destructor records fill four 16 KiB slabs.
TEST(BumpArena, SlabsAreFixedSizeAndAccounted) {
  std::vector<int> Log;
  BumpArena A;
  EXPECT_EQ(A.bytesReserved(), 0u);
  struct Node : Tracked {
    using Tracked::Tracked;
    char Payload[32];
  };
  static_assert(sizeof(Node) == 48);
  Node *First = A.create<Node>(Log, 0);
  EXPECT_EQ(A.bytesReserved(), BumpArena::SlabSize);
  // Same slab, next bump: the second node's record follows the first.
  EXPECT_EQ(reinterpret_cast<char *>(A.create<Node>(Log, 1)),
            reinterpret_cast<char *>(First) + sizeof(Node) + 16);
  for (int I = 2; I != 1000; ++I)
    A.create<Node>(Log, I);
  EXPECT_EQ(A.bytesUsed(), 1000u * 64);
  EXPECT_EQ(A.bytesReserved(), 4 * BumpArena::SlabSize);
  A.reset();
  EXPECT_EQ(Log.size(), 1000u);
  EXPECT_EQ(A.bytesReserved(), 0u);
  EXPECT_EQ(A.bytesUsed(), 0u);
}

} // namespace
