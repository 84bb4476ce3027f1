//===- tests/opt_test.cpp - Optimizer unit tests --------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Targeted checks for each pass: constant folding results, the
/// dominator-scoped CSE with the Mem variable (what may and may not be
/// unified across stores/calls/joins), check elimination, and DCE — plus
/// semantics preservation on every mutation (the differential suite
/// covers whole programs; these pin down pass-level behaviour).
///
//===----------------------------------------------------------------------===//

#include "codec/Codec.h"
#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "exec/TSAInterp.h"
#include "opt/Optimizer.h"
#include "support/Digest.h"
#include "testgen/Generator.h"
#include "tsa/Verifier.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace safetsa;

namespace {

struct Opt {
  std::unique_ptr<CompiledProgram> P;
  OptStats Stats;
  std::string OutputBefore, OutputAfter;

  unsigned count(Opcode Op) const { return P->TSA->countOpcode(Op); }
};

std::string run(CompiledProgram &P) {
  Runtime RT(*P.Table);
  TSAInterpreter I(*P.TSA, RT);
  ExecResult R = I.runMain();
  EXPECT_EQ(R.Err, RuntimeError::None) << runtimeErrorName(R.Err);
  return RT.getOutput();
}

Opt optimize(const std::string &Src, OptOptions Options = {}) {
  Opt O;
  O.P = compileMJ("opt.mj", Src);
  EXPECT_TRUE(O.P->ok()) << O.P->renderDiagnostics();
  O.OutputBefore = run(*O.P);
  O.Stats = optimizeModule(*O.P->TSA, Options);
  TSAVerifier V(*O.P->TSA);
  EXPECT_TRUE(V.verify()) << (V.getErrors().empty()
                                  ? ""
                                  : V.getErrors().front());
  O.OutputAfter = run(*O.P);
  EXPECT_EQ(O.OutputBefore, O.OutputAfter) << "optimization changed output";
  return O;
}

//===----------------------------------------------------------------------===//
// Constant propagation
//===----------------------------------------------------------------------===//

TEST(Opt, FoldsConstantArithmetic) {
  Opt O = optimize("class Main { static void main() { "
                   "IO.printInt(2 * 3 + 4 * 5 - 1); } }");
  EXPECT_GE(O.Stats.FoldedConstants, 3u);
  // Only the call remains (plus preloads).
  EXPECT_EQ(O.count(Opcode::Primitive), 0u);
}

TEST(Opt, FoldsTransitively) {
  // a and b fold, enabling a+b to fold too.
  Opt O = optimize("class Main { static void main() { "
                   "int a = 1 + 2; int b = a * 4; IO.printInt(a + b); } }");
  EXPECT_EQ(O.count(Opcode::Primitive), 0u);
}

TEST(Opt, FoldsComparisonsAndBooleans) {
  Opt O = optimize("class Main { static void main() { "
                   "IO.printBool(3 < 4); IO.printBool(!(2 == 2)); } }");
  EXPECT_EQ(O.count(Opcode::Primitive), 0u);
}

TEST(Opt, DoesNotFoldDivisionByZero) {
  // The runtime exception must be preserved, not folded away.
  auto P = compileMJ("opt.mj", "class Main { static void main() { "
                               "IO.printInt(1 / 0); } }");
  ASSERT_TRUE(P->ok());
  optimizeModule(*P->TSA);
  EXPECT_EQ(P->TSA->countOpcode(Opcode::XPrimitive), 1u);
  Runtime RT(*P->Table);
  TSAInterpreter I(*P->TSA, RT);
  EXPECT_EQ(I.runMain().Err, RuntimeError::DivisionByZero);
}

TEST(Opt, FoldsDoubleMath) {
  Opt O = optimize("class Main { static void main() { "
                   "IO.printDouble(0.5 * 4.0 + 1.0); } }");
  EXPECT_EQ(O.count(Opcode::Primitive), 0u);
  EXPECT_EQ(O.OutputAfter, "3");
}

//===----------------------------------------------------------------------===//
// CSE
//===----------------------------------------------------------------------===//

// Parameters keep the operands opaque so constant propagation does not
// pre-empt CSE in these tests.
TEST(Opt, UnifiesPureExpressions) {
  Opt O = optimize("class Main { static void f(int a, int b) { "
                   "IO.printInt(a * b); IO.printInt(a * b); } "
                   "static void main() { f(6, 7); } }");
  EXPECT_GE(O.Stats.CSERemoved, 1u);
  unsigned Muls = 0;
  for (const auto &M : O.P->TSA->Methods)
    M->forEachInstruction([&](const Instruction &I) {
      if (I.Op == Opcode::Primitive && I.Prim == PrimOp::MulI)
        ++Muls;
    });
  EXPECT_EQ(Muls, 1u);
}

TEST(Opt, UnifiesAcrossDominators) {
  // The computation in the if-arm reuses the one before the branch.
  Opt O = optimize(
      "class Main { static void f(int a, int b) { "
      "int x = a * b; if (x > 0) { IO.printInt(a * b); } } "
      "static void main() { f(6, 7); } }");
  unsigned Muls = 0;
  for (const auto &M : O.P->TSA->Methods)
    M->forEachInstruction([&](const Instruction &I) {
      if (I.Op == Opcode::Primitive && I.Prim == PrimOp::MulI)
        ++Muls;
    });
  EXPECT_EQ(Muls, 1u);
}

TEST(Opt, DoesNotUnifyAcrossBranches) {
  // Sibling arms do not dominate each other; both multiplies stay.
  Opt O = optimize(
      "class Main { static void f(int a, int b) { "
      "if (a < b) { IO.printInt(a * b); } else { IO.printInt(a * b); } } "
      "static void main() { f(6, 7); } }");
  unsigned Muls = 0;
  for (const auto &M : O.P->TSA->Methods)
    M->forEachInstruction([&](const Instruction &I) {
      if (I.Op == Opcode::Primitive && I.Prim == PrimOp::MulI)
        ++Muls;
    });
  EXPECT_EQ(Muls, 2u);
}

TEST(Opt, RedundantLoadsUnifiedUntilStore) {
  Opt O = optimize(
      "class C { int v; } class Main { static void main() { "
      "C c = new C(); c.v = 3; int a = c.v; int b = c.v; "
      "c.v = 4; int d = c.v; IO.printInt(a + b + d); } }");
  // Loads before the second store unify; the post-store load must remain.
  unsigned Loads = 0;
  for (const auto &M : O.P->TSA->Methods)
    Loads += M->countOpcode(Opcode::GetField);
  EXPECT_EQ(Loads, 2u);
  EXPECT_EQ(O.OutputAfter, "10");
}

TEST(Opt, CallsClobberMemory) {
  Opt O = optimize(
      "class C { static int g; static void poke() { g = g + 1; } } "
      "class Main { static void main() { C.g = 5; int a = C.g; "
      "C.poke(); int b = C.g; IO.printInt(a + b); } }");
  unsigned Loads = 0;
  for (const auto &M : O.P->TSA->Methods)
    if (M->Symbol->Name == "main")
      Loads = M->countOpcode(Opcode::GetStatic);
  EXPECT_EQ(Loads, 2u) << "load across a call must not be unified";
  EXPECT_EQ(O.OutputAfter, "11");
}

TEST(Opt, ArrayLengthIsImmutableAcrossStores) {
  // a.length is CSE-able even across element stores.
  Opt O = optimize(
      "class Main { static void main() { int[] a = new int[5]; "
      "int x = a.length; a[0] = 9; int y = a.length; "
      "IO.printInt(x + y); } }");
  unsigned Lens = 0;
  for (const auto &M : O.P->TSA->Methods)
    Lens += M->countOpcode(Opcode::ArrayLength);
  EXPECT_EQ(Lens, 1u);
}

TEST(Opt, FieldSensitiveMemKeepsUnrelatedLoads) {
  const char *Src =
      "class C { int v; int w; } class Main { static void main() { "
      "C c = new C(); c.v = 1; int a = c.w; c.v = 2; int b = c.w; "
      "IO.printInt(a + b + c.v); } }";
  // Insensitive: the store to v kills the load of w.
  Opt Coarse = optimize(Src);
  unsigned CoarseLoads = 0;
  for (const auto &M : Coarse.P->TSA->Methods)
    CoarseLoads += M->countOpcode(Opcode::GetField);
  // Field-sensitive (§8 outlook): loads of w unify across stores to v.
  OptOptions FS;
  FS.FieldSensitiveMem = true;
  Opt Fine = optimize(Src, FS);
  unsigned FineLoads = 0;
  for (const auto &M : Fine.P->TSA->Methods)
    FineLoads += M->countOpcode(Opcode::GetField);
  EXPECT_LT(FineLoads, CoarseLoads);
}

TEST(Opt, FieldSensitiveMemSameFieldStoreStillClobbers) {
  // Sensitivity is per field, not per object: a store to v must still
  // kill earlier loads of v.
  OptOptions FS;
  FS.FieldSensitiveMem = true;
  Opt O = optimize(
      "class C { int v; } class Main { static void main() { "
      "C c = new C(); c.v = 1; int a = c.v; c.v = 2; int b = c.v; "
      "IO.printInt(a + b); } }",
      FS);
  unsigned Loads = 0;
  for (const auto &M : O.P->TSA->Methods)
    Loads += M->countOpcode(Opcode::GetField);
  EXPECT_EQ(Loads, 2u) << "load of v across a store to v must survive";
  EXPECT_EQ(O.OutputAfter, "3");
}

TEST(Opt, FieldSensitiveMemIsConservativeAcrossObjects) {
  // The partition key is the FieldSymbol alone (no points-to analysis),
  // so a store to d.v must clobber a pending load of c.v — c and d may
  // alias for all the pass knows.
  OptOptions FS;
  FS.FieldSensitiveMem = true;
  Opt O = optimize(
      "class C { int v; } class Main { static void main() { "
      "C c = new C(); C d = new C(); c.v = 7; int a = c.v; "
      "d.v = 9; int b = c.v; IO.printInt(a + b); } }",
      FS);
  unsigned Loads = 0;
  for (const auto &M : O.P->TSA->Methods)
    Loads += M->countOpcode(Opcode::GetField);
  EXPECT_EQ(Loads, 2u) << "possible alias: second load of v must survive";
  EXPECT_EQ(O.OutputAfter, "14");
}

TEST(Opt, FieldSensitiveMemPreservesCorpusSemantics) {
  // Whole-corpus differential: optimizing with the finer memory
  // partition never changes observable behaviour (output or trap).
  OptOptions FS;
  FS.FieldSensitiveMem = true;
  for (const CorpusProgram &P : getCorpus()) {
    SCOPED_TRACE(P.Name);
    auto Before = compileMJ(P.Name, P.Source);
    ASSERT_TRUE(Before->ok()) << Before->renderDiagnostics();
    Runtime RTB(*Before->Table);
    TSAInterpreter IB(*Before->TSA, RTB);
    ExecResult RB = IB.runMain();

    auto After = compileMJ(P.Name, P.Source);
    ASSERT_TRUE(After->ok());
    optimizeModule(*After->TSA, FS);
    TSAVerifier V(*After->TSA);
    ASSERT_TRUE(V.verify())
        << (V.getErrors().empty() ? "" : V.getErrors().front());
    Runtime RTA(*After->Table);
    TSAInterpreter IA(*After->TSA, RTA);
    ExecResult RA = IA.runMain();

    EXPECT_EQ(RA.Err, RB.Err) << runtimeErrorName(RA.Err);
    EXPECT_EQ(RTA.getOutput(), RTB.getOutput());
  }
}

//===----------------------------------------------------------------------===//
// Check elimination (the Figure 6 mechanism)
//===----------------------------------------------------------------------===//

TEST(Opt, RedundantNullChecksEliminated) {
  Opt O = optimize(
      "class C { int a; int b; int c; } class Main { static void main() { "
      "C x = new C(); x.a = 1; x.b = 2; x.c = 3; "
      "IO.printInt(x.a + x.b + x.c); } }");
  EXPECT_GE(O.Stats.CSERemovedNullChecks, 4u);
  unsigned Checks = 0;
  for (const auto &M : O.P->TSA->Methods)
    if (M->Symbol->Name == "main")
      Checks = M->countOpcode(Opcode::NullCheck);
  EXPECT_EQ(Checks, 1u) << "one certificate should serve all six accesses";
}

TEST(Opt, RedundantIndexChecksEliminated) {
  Opt O = optimize(
      "class Main { static void main() { int[] a = new int[4]; int i = 2; "
      "a[i] = 5; IO.printInt(a[i] + a[i]); } }");
  unsigned Checks = 0;
  for (const auto &M : O.P->TSA->Methods)
    Checks += M->countOpcode(Opcode::IndexCheck);
  EXPECT_EQ(Checks, 1u);
  EXPECT_GE(O.Stats.CSERemovedIndexChecks, 2u);
}

TEST(Opt, DifferentIndicesKeepTheirChecks) {
  Opt O = optimize(
      "class Main { static void main() { int[] a = new int[4]; "
      "a[1] = 5; a[2] = 6; IO.printInt(a[1] + a[2]); } }");
  unsigned Checks = 0;
  for (const auto &M : O.P->TSA->Methods)
    Checks += M->countOpcode(Opcode::IndexCheck);
  EXPECT_EQ(Checks, 2u) << "distinct index values need distinct checks";
}

TEST(Opt, ChecksOnDistinctArraysKept) {
  Opt O = optimize(
      "class Main { static void main() { int[] a = new int[2]; "
      "int[] b = new int[2]; a[0] = 1; b[0] = 2; "
      "IO.printInt(a[0] + b[0]); } }");
  unsigned Null = 0;
  for (const auto &M : O.P->TSA->Methods)
    Null += M->countOpcode(Opcode::NullCheck);
  EXPECT_EQ(Null, 2u);
}

TEST(Opt, LiveChecksNeverRemoved) {
  // A single out-of-bounds access: its check must survive optimization.
  auto P = compileMJ("opt.mj",
                     "class Main { static void main() { int[] a = "
                     "new int[1]; int i = 5; IO.printInt(a[i]); } }");
  ASSERT_TRUE(P->ok());
  optimizeModule(*P->TSA);
  EXPECT_EQ(P->TSA->countOpcode(Opcode::IndexCheck), 1u);
  Runtime RT(*P->Table);
  TSAInterpreter I(*P->TSA, RT);
  EXPECT_EQ(I.runMain().Err, RuntimeError::IndexOutOfBounds);
}

//===----------------------------------------------------------------------===//
// DCE
//===----------------------------------------------------------------------===//

TEST(Opt, RemovesUnusedPureValues) {
  Opt O = optimize("class Main { static void main() { int a = 6 & 2; "
                   "int unused = a * a + 3; IO.printInt(1); } }");
  EXPECT_EQ(O.count(Opcode::Primitive), 0u);
  EXPECT_GE(O.Stats.DCERemoved + O.Stats.FoldedConstants, 2u);
}

TEST(Opt, CollapsesTrivialPhis) {
  // `k` is merged but never modified: its header phi is trivial.
  Opt O = optimize(
      "class Main { static void main() { int k = 3; int s = 0; "
      "for (int i = 0; i < 4; i++) { s = s + k; } "
      "IO.printInt(s); } }");
  EXPECT_GE(O.Stats.DCERemovedPhis, 1u);
  // Only s and i still need header phis.
  unsigned Phis = 0;
  for (const auto &M : O.P->TSA->Methods)
    Phis += M->countOpcode(Opcode::Phi);
  EXPECT_EQ(Phis, 2u);
}

TEST(Opt, KeepsSideEffectsAndIO) {
  Opt O = optimize("class C { static int g; } "
                   "class Main { static void main() { C.g = 42; "
                   "IO.printInt(C.g); } }");
  unsigned Stores = 0;
  for (const auto &M : O.P->TSA->Methods)
    Stores += M->countOpcode(Opcode::SetStatic);
  EXPECT_EQ(Stores, 1u);
  EXPECT_EQ(O.OutputAfter, "42");
}

TEST(Opt, UnusedParamAndConstPreloadsRemoved) {
  Opt O = optimize("class Main { static int f(int used, int unused) "
                   "{ return used; } "
                   "static void main() { IO.printInt(f(1, 2)); } }");
  for (const auto &M : O.P->TSA->Methods) {
    if (M->Symbol->Name != "f")
      continue;
    unsigned Params = 0;
    M->forEachInstruction([&](const Instruction &I) {
      if (I.Op == Opcode::Param)
        ++Params;
    });
    EXPECT_EQ(Params, 1u);
  }
}

TEST(Opt, IdempotentOnSecondRun) {
  const CorpusProgram *Scanner = findCorpusProgram("Scanner");
  ASSERT_NE(Scanner, nullptr);
  Opt O = optimize(Scanner->Source);
  unsigned After1 = O.P->TSA->countInstructions();
  OptStats S2 = optimizeModule(*O.P->TSA);
  EXPECT_EQ(O.P->TSA->countInstructions(), After1);
  EXPECT_EQ(S2.CSERemoved, 0u);
  EXPECT_EQ(S2.DCERemoved, 0u);
}

//===----------------------------------------------------------------------===//
// Golden output
//===----------------------------------------------------------------------===//

// The optimizer keeps its per-method instruction id in padding: decoded
// modules stay resident in the server cache, so Instruction must not grow.
static_assert(sizeof(void *) != 8 || sizeof(Instruction) <= 176,
              "Instruction grew");

// The optimizer's output is pinned byte for byte: for each input set and
// memory mode, the digest over every program's optimized wire bytes plus
// the summed OptStats. Any change to what the passes produce, including
// the order of materialized constants or safe phis, moves the digest.
// After an intended output change, regenerate the table with
//   build/tests/opt_test --gtest_also_run_disabled_tests --gtest_filter=OptGolden.DISABLED_PrintExpected
// and paste its output over the rows of kGolden.

struct GoldenRow {
  /// "corpus" (14 programs), "testgen" (seeds 1-200) or "transport" (two
  /// programs where check transport fires; it never does on the others).
  const char *Set;
  bool FieldSensitive;
  const char *Digest;
  unsigned Stats[7]; ///< OptStats fields in declaration order.
};

const GoldenRow kGolden[] = {
    {"corpus", false, "6503893dbc03e148daa81a1ec3e3759b",
     {47, 687, 493, 52, 721, 681, 0}},
    {"corpus", true, "c9e96c50f8f0a261add9deb892816bee",
     {47, 702, 496, 52, 721, 681, 0}},
    {"testgen", false, "d5b0167c1c33e656ed918d68e30b1cd6",
     {2957, 14730, 12440, 1094, 10772, 5279, 0}},
    {"testgen", true, "743e7f0196c95a75ec2d8b49bafc3a53",
     {2957, 15188, 12449, 1094, 10772, 5279, 0}},
    {"transport", false, "3b3b02c946476d958e2a6ac3b1a6e830",
     {0, 2, 2, 0, 12, 11, 2}},
    {"transport", true, "3b3b02c946476d958e2a6ac3b1a6e830",
     {0, 2, 2, 0, 12, 11, 2}},
};

std::vector<std::string> goldenSources(const std::string &Set) {
  std::vector<std::string> Out;
  if (Set == "corpus") {
    for (const CorpusProgram &P : getCorpus())
      Out.push_back(P.Source);
  } else if (Set == "testgen") {
    for (uint64_t S = 1; S <= 200; ++S)
      Out.push_back(testgen::generateProgram(S));
  } else {
    // A diamond and a loop-carried certificate (tests/transport_test.cpp).
    Out.push_back(
        "class C { int v; } "
        "class Main { static int f(C a, C b, boolean c) { C x = null; "
        "if (c) { x = a; IO.printInt(x.v); } "
        "else { x = b; IO.printInt(x.v); } return x.v; } "
        "static void main() { IO.printInt(f(new C(), new C(), true)); } }");
    Out.push_back(
        "class Node { int v; Node next; } "
        "class Main { static int sum(Node head, int n) { Node p = head; "
        "IO.printInt(p.v); int s = 0; "
        "for (int i = 0; i < n; i++) { s = s + p.v; Node q = p.next; "
        "if (q == null) break; IO.printInt(q.v); p = q; } return s; } "
        "static void main() { Node a = new Node(); Node b = new Node(); "
        "a.v = 1; b.v = 2; a.next = b; IO.printInt(sum(a, 5)); } }");
  }
  return Out;
}

GoldenRow computeGolden(const char *Set, bool FieldSensitive,
                        std::string &DigestHex) {
  OptOptions Options;
  Options.FieldSensitiveMem = FieldSensitive;
  OptStats Total;
  std::string Chain;
  for (const std::string &Src : goldenSources(Set)) {
    auto P = compileMJ("golden.mj", Src);
    EXPECT_TRUE(P->ok()) << P->renderDiagnostics();
    if (!P->ok())
      continue;
    Total += optimizeModule(*P->TSA, Options);
    Chain += digestOf(ByteSpan(encodeModule(*P->TSA))).hex();
  }
  DigestHex = digestOf(ByteSpan(reinterpret_cast<const uint8_t *>(
                                    Chain.data()),
                                Chain.size()))
                  .hex();
  return {Set,
          FieldSensitive,
          DigestHex.c_str(),
          {Total.FoldedConstants, Total.CSERemoved,
           Total.CSERemovedNullChecks, Total.CSERemovedIndexChecks,
           Total.DCERemoved, Total.DCERemovedPhis, Total.TransportedChecks}};
}

TEST(OptGolden, WireBytesAndStatsUnchanged) {
  ASSERT_EQ(std::size(kGolden), 6u);
  for (const GoldenRow &Want : kGolden) {
    SCOPED_TRACE(std::string(Want.Set) +
                 (Want.FieldSensitive ? " field-sensitive" : ""));
    std::string Hex;
    GoldenRow Got = computeGolden(Want.Set, Want.FieldSensitive, Hex);
    EXPECT_EQ(Hex, Want.Digest);
    for (unsigned K = 0; K != 7; ++K)
      EXPECT_EQ(Got.Stats[K], Want.Stats[K]) << "OptStats field " << K;
  }
}

TEST(OptGolden, DISABLED_PrintExpected) {
  for (const char *Set : {"corpus", "testgen", "transport"})
    for (bool FS : {false, true}) {
      std::string Hex;
      GoldenRow R = computeGolden(Set, FS, Hex);
      std::printf("    {\"%s\", %s, \"%s\",\n     {", Set,
                  FS ? "true" : "false", Hex.c_str());
      for (unsigned K = 0; K != 7; ++K)
        std::printf("%s%u", K ? ", " : "", R.Stats[K]);
      std::printf("}},\n");
    }
}

} // namespace
