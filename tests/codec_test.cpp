//===- tests/codec_test.cpp - Wire-format tests ---------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encode/decode round trips, structural fidelity, and hostile-input
/// robustness: random mutations and truncations of wire images must never
/// crash the decoder and never produce an unverifiable module.
///
//===----------------------------------------------------------------------===//

#include "codec/Codec.h"
#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "exec/TSAInterp.h"
#include "opt/Optimizer.h"
#include "testgen/Generator.h"
#include "tsa/Verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace safetsa;

namespace {

std::unique_ptr<CompiledProgram> compile(const std::string &Src) {
  auto P = compileMJ("codec.mj", Src);
  EXPECT_TRUE(P->ok()) << P->renderDiagnostics();
  return P;
}

std::string runDecoded(const DecodedUnit &Unit) {
  Runtime RT(*Unit.Table);
  TSAInterpreter I(*Unit.Module, RT);
  ExecResult R = I.runMain();
  EXPECT_EQ(R.Err, RuntimeError::None) << runtimeErrorName(R.Err);
  return RT.getOutput();
}

const char *DemoSrc =
    "class Pair { int a; int b; Pair(int x, int y) { a = x; b = y; } "
    "  int sum() { return a + b; } } "
    "class Main { static double half = 0.5; "
    "  static void main() { Pair p = new Pair(3, 4); "
    "    int[] xs = new int[4]; "
    "    for (int i = 0; i < xs.length; i++) xs[i] = p.sum() * i; "
    "    IO.printInt(xs[3]); IO.printDouble(half); "
    "    IO.printStr(\"ok\"); } }";

TEST(Codec, RoundTripPreservesStructureAndBehaviour) {
  auto P = compile(DemoSrc);
  unsigned Insts = P->TSA->countInstructions();
  unsigned Phis = P->TSA->countOpcode(Opcode::Phi);
  unsigned Checks = P->TSA->countOpcode(Opcode::NullCheck);

  std::vector<uint8_t> Wire = encodeModule(*P->TSA);
  std::string Err;
  auto Unit = decodeModule(Wire, &Err);
  ASSERT_TRUE(Unit) << Err;

  EXPECT_EQ(Unit->Module->countInstructions(), Insts);
  EXPECT_EQ(Unit->Module->countOpcode(Opcode::Phi), Phis);
  EXPECT_EQ(Unit->Module->countOpcode(Opcode::NullCheck), Checks);
  EXPECT_EQ(Unit->Module->Methods.size(), P->TSA->Methods.size());

  TSAVerifier V(*Unit->Module);
  EXPECT_TRUE(V.verify());
  EXPECT_EQ(runDecoded(*Unit), "210.5ok");
}

TEST(Codec, EncodingIsDeterministic) {
  auto P1 = compile(DemoSrc);
  auto P2 = compile(DemoSrc);
  EXPECT_EQ(encodeModule(*P1->TSA), encodeModule(*P2->TSA));
}

TEST(Codec, ReEncodingDecodedModuleIsStable) {
  auto P = compile(DemoSrc);
  std::vector<uint8_t> Wire1 = encodeModule(*P->TSA);
  std::string Err;
  auto Unit = decodeModule(Wire1, &Err);
  ASSERT_TRUE(Unit) << Err;
  std::vector<uint8_t> Wire2 = encodeModule(*Unit->Module);
  EXPECT_EQ(Wire1, Wire2) << "decode/encode must be a fixpoint";
}

TEST(Codec, DecodedTableRebuildsLayoutsAndVTables) {
  auto P = compile(
      "class A { int x; int f() { return 1; } } "
      "class B extends A { int y; int f() { return 2; } "
      "int g() { return 3; } } "
      "class Main { static void main() { A a = new B(); "
      "IO.printInt(a.f()); } }");
  std::vector<uint8_t> Wire = encodeModule(*P->TSA);
  std::string Err;
  auto Unit = decodeModule(Wire, &Err);
  ASSERT_TRUE(Unit) << Err;
  ClassSymbol *B = Unit->Table->lookup("B");
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(B->InstanceLayout.size(), 2u);
  EXPECT_EQ(B->VTable.size(), 2u);
  EXPECT_EQ(B->VTable[0]->Owner, B) << "override installed in slot 0";
  EXPECT_EQ(runDecoded(*Unit), "2");
}

TEST(Codec, StaticInitsSurviveTheTrip) {
  auto P = compile(
      "class K { static int a = 41; static char c = 'z'; "
      "static double d = 1.25; static boolean b = true; } "
      "class Main { static void main() { IO.printInt(K.a); "
      "IO.printChar(K.c); IO.printDouble(K.d); IO.printBool(K.b); } }");
  auto Unit = decodeModule(encodeModule(*P->TSA), nullptr);
  ASSERT_TRUE(Unit);
  EXPECT_EQ(runDecoded(*Unit), "41z1.25true");
}

TEST(Codec, OptimizedModulesRoundTrip) {
  for (const CorpusProgram &Prog :
       {*findCorpusProgram("BitSieve"), *findCorpusProgram("Parser")}) {
    auto P = compile(Prog.Source);
    optimizeModule(*P->TSA);
    std::string Err;
    auto Unit = decodeModule(encodeModule(*P->TSA), &Err);
    ASSERT_TRUE(Unit) << Err;
    TSAVerifier V(*Unit->Module);
    EXPECT_TRUE(V.verify());
  }
}

// Footprint pin: a module's IR nodes come from one arena of fixed-size,
// unzeroed slabs, so what it reserves beyond what its nodes use is the
// rest of its current slab plus, per filled slab, the slab header and a
// tail too short for the next node — for the producer's optimized module
// and for the consumer's decoded one alike, however many methods they
// have.
TEST(Codec, ModuleArenaReservesAtMostOneSpareSlab) {
  constexpr size_t kNodeBytes =
      std::max({sizeof(Instruction), sizeof(BasicBlock), sizeof(CSTNode)});
  // Slab header plus a destructor record and the largest node.
  constexpr size_t kPerSlabLoss = 16 + 16 + kNodeBytes;
  std::vector<std::pair<std::string, std::string>> Programs;
  for (const CorpusProgram &P : getCorpus())
    Programs.push_back({P.Name, P.Source});
  for (uint64_t S = 1; S <= 200; ++S)
    Programs.push_back(
        {"seed " + std::to_string(S), testgen::generateProgram(S)});
  for (const auto &[Name, Source] : Programs) {
    SCOPED_TRACE(Name);
    auto P = compile(Source);
    optimizeModule(*P->TSA);
    std::string Err;
    auto Unit = decodeModule(encodeModule(*P->TSA), &Err);
    ASSERT_TRUE(Unit) << Err;
    for (const TSAModule *M : {P->TSA.get(), Unit->Module.get()}) {
      const BumpArena &A = M->Arena;
      ASSERT_GT(A.bytesUsed(), 0u);
      ASSERT_EQ(A.bytesReserved() % BumpArena::SlabSize, 0u);
      size_t FullSlabs = A.bytesReserved() / BumpArena::SlabSize - 1;
      EXPECT_LE(A.bytesReserved() - A.bytesUsed(),
                BumpArena::SlabSize + FullSlabs * kPerSlabLoss)
          << A.bytesReserved() << " reserved, " << A.bytesUsed() << " used";
    }
  }
}

TEST(Codec, PrefixModeIsSmallerThanNaive) {
  auto P = compile(DemoSrc);
  size_t Prefix = encodeModule(*P->TSA, CodecMode::Prefix).size();
  size_t Naive = encodeModule(*P->TSA, CodecMode::Naive).size();
  EXPECT_LT(Prefix, Naive);
}

//===----------------------------------------------------------------------===//
// Hostile inputs
//===----------------------------------------------------------------------===//

TEST(Codec, RejectsGarbageAndEmpty) {
  std::string Err;
  EXPECT_EQ(decodeModule({}, &Err), nullptr);
  EXPECT_EQ(decodeModule({0x00}, &Err), nullptr);
  std::vector<uint8_t> Junk(256, 0xA5);
  EXPECT_EQ(decodeModule(Junk, &Err), nullptr);
}

TEST(Codec, RejectsWrongMagicOrVersion) {
  auto P = compile(DemoSrc);
  std::vector<uint8_t> Wire = encodeModule(*P->TSA);
  {
    std::vector<uint8_t> Bad = Wire;
    Bad[0] ^= 0xff;
    std::string Err;
    EXPECT_EQ(decodeModule(Bad, &Err), nullptr);
    EXPECT_EQ(Err, "bad magic");
  }
  {
    std::vector<uint8_t> Bad = Wire;
    Bad[4] ^= 0xff; // Version field (little-end bit order in stream).
    std::string Err;
    EXPECT_EQ(decodeModule(Bad, &Err), nullptr);
  }
}

TEST(Codec, TruncationAtEveryLengthIsHandled) {
  auto P = compile(DemoSrc);
  std::vector<uint8_t> Wire = encodeModule(*P->TSA);
  for (size_t Len = 0; Len < Wire.size(); ++Len) {
    std::vector<uint8_t> Cut(Wire.begin(), Wire.begin() + Len);
    std::string Err;
    auto Unit = decodeModule(Cut, &Err);
    if (Unit) {
      // Decoding may succeed if the tail was padding; the module must
      // still verify.
      TSAVerifier V(*Unit->Module);
      EXPECT_TRUE(V.verify()) << "truncated-at-" << Len;
    }
  }
}

// Negative-path table: every hostile stream shape must be rejected
// *cleanly* — a typed (non-empty, human-readable) error, identical
// verdicts from the table-driven and scalar bit readers, and no
// allocation sized by attacker-controlled length fields. The last
// property is what the _asan variant of this test proves: a decoder
// that reserved `claimed count` elements up front would trip the
// sanitizer allocator long before the plausibility check fired.
TEST(CodecNegative, HostileStreamTableFailsCleanly) {
  auto P = compile(DemoSrc);
  std::vector<uint8_t> Wire = encodeModule(*P->TSA);
  ASSERT_GT(Wire.size(), 16u);

  struct Case {
    std::string Name;
    std::vector<uint8_t> Bytes;
  };
  std::vector<Case> Cases;

  // Truncations at structurally interesting lengths: inside the magic,
  // right after the 6-byte header, mid-class-section, mid-bodies, and
  // one byte short of complete.
  for (size_t Len : {size_t(3), size_t(6), size_t(7), Wire.size() / 4,
                     Wire.size() / 2, Wire.size() - 1})
    Cases.push_back({"truncated-at-" + std::to_string(Len),
                     {Wire.begin(), Wire.begin() + long(Len)}});

  // Oversized length fields: stomp the bytes right after the header
  // (where the class-section counts live) with 0xFF so every varuint
  // reads as an enormous claimed count.
  for (size_t Stomp : {size_t(1), size_t(4), size_t(8)}) {
    Case C{"oversized-counts-" + std::to_string(Stomp), Wire};
    for (size_t I = 0; I != Stomp && 6 + I < C.Bytes.size(); ++I)
      C.Bytes[6 + I] = 0xFF;
    Cases.push_back(std::move(C));
  }
  // A header followed by nothing but 0xFF: maximal counts everywhere,
  // at every nesting level the decoder reaches.
  {
    Case C{"header-plus-ff", {Wire.begin(), Wire.begin() + 6}};
    C.Bytes.insert(C.Bytes.end(), 64, 0xFF);
    Cases.push_back(std::move(C));
  }

  for (const Case &C : Cases) {
    for (bool Table : {true, false}) {
      DecodeOptions DO;
      DO.TableDecode = Table;
      std::string Err;
      auto Unit = decodeModule(ByteSpan(C.Bytes), &Err, DO);
      if (Unit) {
        // A tail-only stomp can land in padding; the module must then be
        // fully intact (fused decode == verified) and re-encode stably.
        EXPECT_EQ(encodeModule(*Unit->Module),
                  encodeModule(*Unit->Module))
            << C.Name;
        continue;
      }
      EXPECT_FALSE(Err.empty())
          << C.Name << ": rejected without a typed error";
    }
    // Both readers must agree on the verdict (accept xor typed reject).
    std::string E1, E2;
    DecodeOptions Scalar;
    Scalar.TableDecode = false;
    bool A1 = decodeModule(ByteSpan(C.Bytes), &E1, DecodeOptions{}) != nullptr;
    bool A2 = decodeModule(ByteSpan(C.Bytes), &E2, Scalar) != nullptr;
    EXPECT_EQ(A1, A2) << C.Name << ": table=" << A1 << " scalar=" << A2;
  }
}

// Trailing garbage after a complete module: the decoder stops at the
// end of the symbol stream, so appended bytes either land in ignored
// padding (the module must be byte-identical on re-encode) or break
// framing with a typed error. Never a crash, never a different module.
TEST(CodecNegative, TrailingGarbageNeverChangesTheModule) {
  auto P = compile(DemoSrc);
  std::vector<uint8_t> Wire = encodeModule(*P->TSA);
  std::mt19937 Rng(424242);
  for (unsigned N : {1u, 2u, 8u, 64u, 4096u}) {
    std::vector<uint8_t> M = Wire;
    for (unsigned I = 0; I != N; ++I)
      M.push_back(static_cast<uint8_t>(Rng()));
    std::string Err;
    auto Unit = decodeModule(ByteSpan(M), &Err, DecodeOptions{});
    if (!Unit) {
      EXPECT_FALSE(Err.empty()) << "garbage+" << N;
      continue;
    }
    EXPECT_EQ(encodeModule(*Unit->Module), Wire)
        << "garbage+" << N << ": trailing bytes leaked into the module";
  }
}

/// Random multi-byte corruption; parameterized by seed.
class CodecFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(CodecFuzz, MutatedImagesNeverYieldUnsafeModules) {
  auto P = compile(DemoSrc);
  std::vector<uint8_t> Wire = encodeModule(*P->TSA);
  std::mt19937 Rng(GetParam());
  for (int Round = 0; Round < 300; ++Round) {
    std::vector<uint8_t> Evil = Wire;
    unsigned Mutations = 1 + Rng() % 8;
    for (unsigned I = 0; I != Mutations; ++I) {
      size_t Pos = Rng() % Evil.size();
      Evil[Pos] = static_cast<uint8_t>(Rng());
    }
    std::string Err;
    auto Unit = decodeModule(Evil, &Err);
    if (!Unit)
      continue; // Rejected: fine.
    TSAVerifier V(*Unit->Module);
    EXPECT_TRUE(V.verify())
        << "decoder accepted a module the verifier rejects (seed "
        << GetParam() << ", round " << Round << "): "
        << (V.getErrors().empty() ? "" : V.getErrors().front());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Range(100u, 112u));

} // namespace
