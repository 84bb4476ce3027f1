//===- tests/exec_tier_test.cpp - Two-tier execution tests ----*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profile-guided execution tier (DESIGN.md §11), proved four ways:
///
///  1. Differential parity: tier-1 streams (inline caches, closed-world
///     devirtualization, superinstruction fusion) behave identically to
///     tier 0 and to the definitional tree-walker on the full corpus,
///     including trap points and try/catch — with fusion on, off, and
///     with inline caches masked.
///  2. Deterministic replay: profile + re-preparation is a pure function
///     — two independent profile/reprepare cycles over the same workload
///     yield byte-identical tier-1 streams (unit pointers compared
///     through their stable indices).
///  3. The IC state machine: profiled-monomorphic sites become guarded
///     direct calls (and count hits), guard misses fall back to the
///     vtable (and count misses), 2..4 receiver classes form a bounded
///     PIC, and overflow demotes the site back to the plain vtable path.
///  4. Structure: fusion preserves stream length (shadow slots), so no
///     branch target or handler index ever needs re-patching.
///
/// Registered under `ctest -L exec` with _asan/_tsan variants.
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "exec/ExecUnit.h"
#include "exec/TSAInterp.h"
#include "support/Digest.h"
#include "testgen/Generator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

using namespace safetsa;

namespace {

struct Outcome {
  RuntimeError Err = RuntimeError::None;
  std::string Output;
};

Outcome runTreeWalk(const TSAModule &M, ClassTable &Table) {
  Runtime RT(Table);
  TSAInterpreter I(M, RT);
  ExecResult R = I.runMain();
  return {R.Err, RT.getOutput()};
}

Outcome runModule(const PreparedModule &PM, ClassTable &Table) {
  Runtime RT(Table);
  TSAExec X(PM, RT);
  ExecResult R = X.runMain();
  return {R.Err, RT.getOutput()};
}

/// One profile/re-quicken cycle that does not wait for the module to get
/// hot: a fresh tier-0 preparation, one profiling run of main, then tier
/// 1 from the gathered profile.
std::unique_ptr<PreparedModule> tier1AfterOneRun(const TSAModule &M,
                                                 ClassTable &Table,
                                                 PrepareOptions Opts = {}) {
  auto T0 = prepareModule(M);
  EXPECT_TRUE(T0);
  if (!T0)
    return nullptr;
  runModule(*T0, Table);
  return reprepareModule(*T0, Opts);
}

/// Tier parity on one module: tree-walk == tier 0 == tier 1 (fusion on),
/// == tier 1 (fusion off) == tier 1 (ICs masked). Trap kind and full
/// printed output must all agree.
void expectTierParity(const TSAModule &M, ClassTable &Table,
                      const char *Label) {
  Outcome Ref = runTreeWalk(M, Table);
  auto T0 = prepareModule(M);
  ASSERT_TRUE(T0) << Label;
  Outcome O0 = runModule(*T0, Table);
  EXPECT_EQ(O0.Err, Ref.Err) << Label << ": tier-0 trap diverged";
  EXPECT_EQ(O0.Output, Ref.Output) << Label << ": tier-0 output diverged";

  struct Variant {
    const char *Name;
    PrepareOptions Opts;
  };
  PrepareOptions NoFuse;
  NoFuse.NoFusion = true;
  PrepareOptions NoIC;
  NoIC.NoInlineCaches = true;
  const Variant Variants[] = {
      {"tier-1", {}}, {"tier-1/nofusion", NoFuse}, {"tier-1/noic", NoIC}};
  for (const Variant &V : Variants) {
    auto T1 = reprepareModule(*T0, V.Opts);
    ASSERT_TRUE(T1) << Label << " " << V.Name;
    EXPECT_EQ(T1->Tier, 1u);
    Outcome O1 = runModule(*T1, Table);
    EXPECT_EQ(O1.Err, Ref.Err)
        << Label << " " << V.Name << ": trapped " << runtimeErrorName(O1.Err)
        << ", oracle " << runtimeErrorName(Ref.Err);
    EXPECT_EQ(O1.Output, Ref.Output)
        << Label << " " << V.Name << ": output diverged";
  }
}

void expectSourceTierParity(const std::string &Src) {
  auto C = compileMJ("tier.mj", Src);
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  expectTierParity(*C->TSA, *C->Table, "tier");
}

/// Renders one prepared instruction's pointer operand by what it points
/// at, so the rendering is stable across processes.
std::string stableP(const ExecInst &In) {
  if (!In.P)
    return "-";
  switch (In.Op) {
  case XOp::CallUnit:
    return "u" + std::to_string(static_cast<const ExecUnit *>(In.P)->Index);
  case XOp::CallNative:
  case XOp::Dispatch:
  case XOp::DispatchMono:
  case XOp::DispatchIC:
    return "m" +
           std::to_string(static_cast<const MethodSymbol *>(In.P)->GlobalId);
  case XOp::New:
  case XOp::GuardInline:
    return "c" + std::to_string(static_cast<const ClassSymbol *>(In.P)->Id);
  case XOp::InstanceOf:
  case XOp::Upcast:
  case XOp::NewArray:
    return "t" + static_cast<const Type *>(In.P)->getName();
  default:
    return "?";
  }
}

/// Structural identity of a prepared module: every unit's stream, side
/// tables and IC entries as text, with pointers rendered through stable
/// ids (unit Index, MethodSymbol GlobalId, ClassSymbol Id, type name), so
/// the text is comparable across preparations and across processes.
std::string renderModule(const PreparedModule &PM) {
  std::string S;
  char Buf[160];
  for (const auto &U : PM.Units) {
    std::snprintf(Buf, sizeof(Buf), "unit %u slots=%u args=%u refargs=%u\n",
                  U->Index, U->NumSlots, U->NumArgs, U->NumRefArgs);
    S += Buf;
    for (const ExecInst &In : U->Code) {
      std::snprintf(Buf, sizeof(Buf), " %s n%u a%u b%u c%u d%u x%d h%d s%d ",
                    xopName(In.Op), In.N, In.A, In.B, In.C, In.Dst, In.X,
                    In.Handler, In.S);
      S += Buf;
      S += stableP(In);
      S += '\n';
    }
    S += " args";
    for (uint16_t A : U->ArgPool)
      S += " " + std::to_string(A);
    S += "\n refs";
    for (uint16_t R : U->RefSlots)
      S += " " + std::to_string(R);
    S += '\n';
    for (const ICEntry &E : U->ICs) {
      S += " ic m" + std::to_string(E.Method->GlobalId);
      for (unsigned W = 0; W != E.Ways; ++W)
        S += " c" + std::to_string(E.Classes[W]->Id) + "->u" +
             std::to_string(E.Targets[W]->Index);
      S += '\n';
    }
  }
  return S;
}

const MethodSymbol *findMethod(const ClassTable &Table, const char *Class,
                               const char *Name) {
  for (const auto &C : Table.getClasses())
    if (C->Name == Class)
      for (const auto &M : C->Methods)
        if (M->Name == Name)
          return M.get();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Corpus differential: every tier agrees with the oracle everywhere.
//===----------------------------------------------------------------------===//

class TierCorpusTest : public ::testing::TestWithParam<CorpusProgram> {};

TEST_P(TierCorpusTest, AllTiersMatchTreeWalk) {
  expectSourceTierParity(GetParam().Source);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, TierCorpusTest, ::testing::ValuesIn(getCorpus()),
    [](const ::testing::TestParamInfo<CorpusProgram> &Info) {
      return std::string(Info.param.Name);
    });

//===----------------------------------------------------------------------===//
// Trap points and try/catch at tier 1.
//===----------------------------------------------------------------------===//

TEST(TierTraps, NullPointerAcrossTiers) {
  expectSourceTierParity(
      "class C { int x; } class Main { static void main() { "
      "IO.printInt(3); C c = null; IO.printInt(c.x); } }");
}

TEST(TierTraps, IndexOutOfBoundsInLoopKeepsPartialOutput) {
  // The a[i] below fuses to IdxGetElt at tier 1; the trap point and the
  // output printed before it must survive fusion.
  expectSourceTierParity(
      "class Main { static void main() { int[] a = new int[4]; "
      "int i = 0; while (i < 10) { IO.printInt(a[i]); i = i + 1; } } }");
}

TEST(TierTraps, CalleeTrapUnwindsThroughVirtualCall) {
  expectSourceTierParity(
      "class A { int f(int[] a, int i) { return a[i]; } } "
      "class B extends A { int f(int[] a, int i) { return a[i] + 1; } } "
      "class Main { static void main() { A x = new B(); "
      "int[] a = new int[2]; IO.printInt(x.f(a, 1)); "
      "IO.printInt(x.f(a, 5)); } }");
}

TEST(TierTryCatch, CatchAcrossTiers) {
  expectSourceTierParity(
      "class Main { static void main() { int z = 0; int r; "
      "try { r = 10 / z; } catch { r = -1; } IO.printInt(r); } }");
}

TEST(TierTryCatch, CaughtIndexTrapInsideFusedAccess) {
  expectSourceTierParity(
      "class Main { static void main() { int[] a = new int[3]; int s = 0; "
      "int i = 0; while (i < 6) { try { s = s + a[i]; } "
      "catch { s = s + 100; } i = i + 1; } IO.printInt(s); } }");
}

TEST(TierTryCatch, CaughtTrapInsideHotVirtualCallee) {
  expectSourceTierParity(
      "class A { int f(int z) { return 10 / z; } } "
      "class B extends A { int f(int z) { return 20 / z; } } "
      "class Main { static void main() { A x = new B(); int s = 0; "
      "int i = 0 - 2; while (i < 3) { try { s = s + x.f(i); } "
      "catch { s = s + 1000; } i = i + 1; } IO.printInt(s); } }");
}

//===----------------------------------------------------------------------===//
// Deterministic replay: profile -> reprepare is a pure function.
//===----------------------------------------------------------------------===//

void expectDeterministicReplay(const std::string &Src) {
  auto C = compileMJ("replay.mj", Src);
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  // Two fully independent cycles over the same workload (one profiling
  // run each).
  auto A = tier1AfterOneRun(*C->TSA, *C->Table);
  auto B = tier1AfterOneRun(*C->TSA, *C->Table);
  ASSERT_TRUE(A && B);
  EXPECT_EQ(renderModule(*A), renderModule(*B))
      << "tier-1 streams diverged across identical profile cycles";
  // And the replayed tier-1 module still matches tier 0 / the oracle.
  Outcome Ref = runTreeWalk(*C->TSA, *C->Table);
  Outcome O1 = runModule(*A, *C->Table);
  EXPECT_EQ(O1.Err, Ref.Err);
  EXPECT_EQ(O1.Output, Ref.Output);
}

TEST(TierReplay, CorpusPrograms) {
  for (const CorpusProgram &P : getCorpus()) {
    SCOPED_TRACE(P.Name);
    expectDeterministicReplay(P.Source);
  }
}

TEST(TierReplay, TrapProgram) {
  expectDeterministicReplay(
      "class Main { static void main() { int[] a = new int[3]; "
      "IO.printInt(a.length); IO.printInt(a[7]); } }");
}

TEST(TierReplay, TryCatchProgram) {
  expectDeterministicReplay(
      "class Main { static void main() { int z = 0; int r = 0; "
      "try { try { r = 10 / z; } catch { r = 1; } "
      "r = r + 10 / z; } catch { r = r + 10; } IO.printInt(r); } }");
}

TEST(TierReplay, PolymorphicProgram) {
  expectDeterministicReplay(
      "class A { int f() { return 1; } } "
      "class B extends A { int f() { return 2; } } "
      "class C extends A { int f() { return 3; } } "
      "class Main { static void main() { int s = 0; int i = 0; "
      "while (i < 9) { A x; if (i % 3 == 0) { x = new A(); } else { "
      "if (i % 3 == 1) { x = new B(); } else { x = new C(); } } "
      "s = s + x.f(); i = i + 1; } IO.printInt(s); } }");
}

//===----------------------------------------------------------------------===//
// The IC state machine: mono -> poly -> megamorphic.
//===----------------------------------------------------------------------===//

/// Two classes overriding f (so closed-world devirt cannot fire), but a
/// profile that only ever saw A: the site becomes DispatchMono.
const char *kMonoSrc =
    "class A { int f() { return 1; } } "
    "class B extends A { int f() { return 2; } } "
    "class Main { "
    "static int go(A a) { return a.f(); } "
    "static void main() { A x = new A(); int s = 0; int i = 0; "
    "while (i < 10) { s = s + go(x); i = i + 1; } IO.printInt(s); } }";

TEST(TierIC, MonomorphicSiteGetsGuardedDirectCall) {
  auto C = compileMJ("mono.mj", kMonoSrc);
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);
  EXPECT_EQ(T0->Tier, 0u);
  ASSERT_TRUE(T0->Profile);
  EXPECT_EQ(T0->countOp(XOp::DispatchMono), 0u);
  Outcome O0 = runModule(*T0, *C->Table);
  EXPECT_EQ(O0.Output, "10");
  EXPECT_GT(T0->Profile->totalDispatchSamples(), 0u);

  // Inlining off: this test pins the bare DispatchMono state machine and
  // its exact ICHits tallies (a spliced site guards via GuardInline and
  // does not tally hits; exec_inline_test covers that shape).
  PrepareOptions NoInline;
  NoInline.NoInlining = true;
  auto T1 = reprepareModule(*T0, NoInline);
  ASSERT_TRUE(T1);
  EXPECT_EQ(T1->countOp(XOp::DispatchMono), 1u);
  EXPECT_EQ(T1->countOp(XOp::Dispatch), 0u);
  // The lowering-time tallies agree: one profiled-monomorphic site,
  // lowered to a one-guard direct call (a mono IC), nothing devirted.
  EXPECT_EQ(T1->Tiering.ProfiledMono, 1u);
  EXPECT_EQ(T1->Tiering.MonoICs, 1u);
  EXPECT_EQ(T1->Tiering.MonoLoweredDirect, 1u);
  EXPECT_EQ(T1->Tiering.DevirtCalls, 0u);
  EXPECT_EQ(T1->Tiering.PolyICs, 0u);
  EXPECT_EQ(T1->Tiering.Megamorphic, 0u);
  // Guard always hits on the same workload: all hits, no misses.
  Outcome O1 = runModule(*T1, *C->Table);
  EXPECT_EQ(O1.Output, "10");
  EXPECT_EQ(T1->ICHits.load(), 10u);
  EXPECT_EQ(T1->ICMisses.load(), 0u);
}

// The "tier1_mono_sites == 0" artifact, pinned: on a closed-world corpus
// a profiled-monomorphic site is usually subsumed by devirtualization
// (single receiver class implies single implementation), so it never
// emits DispatchMono — classification must happen at lowering time, not
// by counting opcodes. The site still counts as profiled-mono AND as
// lowered-direct.
TEST(TierIC, DevirtSubsumesProfiledMonoSiteInStats) {
  auto C = compileMJ("devstat.mj",
                     "class A { int f() { return 7; } } "
                     "class B extends A { } "
                     "class Main { static void main() { A x = new B(); "
                     "int s = 0; int i = 0; while (i < 4) { "
                     "s = s + x.f(); i = i + 1; } IO.printInt(s); } }");
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);
  runModule(*T0, *C->Table); // Profile records only B receivers.
  auto T1 = reprepareModule(*T0);
  ASSERT_TRUE(T1);
  // Opcode census alone would report zero mono sites...
  EXPECT_EQ(T1->countOp(XOp::DispatchMono), 0u);
  EXPECT_EQ(T1->countOp(XOp::Dispatch), 0u);
  // ...but the site was profiled-mono and lowered direct via devirt.
  EXPECT_EQ(T1->Tiering.ProfiledMono, 1u);
  EXPECT_EQ(T1->Tiering.DevirtCalls, 1u);
  EXPECT_EQ(T1->Tiering.MonoLoweredDirect, 1u);
  EXPECT_EQ(T1->Tiering.MonoICs, 0u);
  EXPECT_EQ(runModule(*T1, *C->Table).Output, "28");
}

TEST(TierIC, GuardMissFallsBackToVtableAndCounts) {
  auto C = compileMJ("miss.mj", kMonoSrc);
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);
  runModule(*T0, *C->Table); // Profile records only A receivers.
  auto T1 = reprepareModule(*T0);
  ASSERT_TRUE(T1);
  ASSERT_EQ(T1->countOp(XOp::DispatchMono), 1u);

  // Now feed go() a B: the mono guard (A) misses, the vtable fallback
  // must still reach B.f, and the miss must be counted.
  const MethodSymbol *Go = findMethod(*C->Table, "Main", "go");
  const ClassSymbol *B = nullptr;
  for (const auto &Cl : C->Table->getClasses())
    if (Cl->Name == "B")
      B = Cl.get();
  ASSERT_TRUE(Go && B);
  Runtime RT(*C->Table);
  TSAExec X(*T1, RT);
  ExecResult R = X.call(Go, {Value::makeRef(RT.allocObject(B))});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ret.I, 2); // B.f, not the cached A.f.
  EXPECT_EQ(T1->ICMisses.load(), 1u);
  EXPECT_EQ(T1->ICHits.load(), 0u);
  // Default options inline this mono site, so the B receiver first
  // missed the splice's GuardInline, then the out-of-line DispatchMono
  // fallback (tallied above) reached the vtable.
  EXPECT_EQ(T1->Tiering.InlinedSites, 1u);
  EXPECT_EQ(T1->InlineGuardMisses.load(), 1u);
}

TEST(TierIC, PolymorphicSiteGetsBoundedPIC) {
  auto C = compileMJ(
      "poly.mj",
      "class A { int f() { return 1; } } "
      "class B extends A { int f() { return 2; } } "
      "class C extends A { int f() { return 3; } } "
      "class Main { static int go(A a) { return a.f(); } "
      "static void main() { int s = 0; int i = 0; while (i < 12) { "
      "A x; if (i % 3 == 0) { x = new A(); } else { "
      "if (i % 3 == 1) { x = new B(); } else { x = new C(); } } "
      "s = s + go(x); i = i + 1; } IO.printInt(s); } }");
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);
  Outcome O0 = runModule(*T0, *C->Table);
  auto T1 = reprepareModule(*T0);
  ASSERT_TRUE(T1);
  EXPECT_EQ(T1->countOp(XOp::DispatchIC), 1u);
  EXPECT_EQ(T1->countOp(XOp::Dispatch), 0u);
  Outcome O1 = runModule(*T1, *C->Table);
  EXPECT_EQ(O1.Output, O0.Output);
  EXPECT_EQ(T1->ICHits.load(), 12u); // All three ways resident.
  EXPECT_EQ(T1->ICMisses.load(), 0u);
}

TEST(TierIC, MegamorphicSiteDemotesToVtable) {
  // Five receiver classes at one site overflow the 4-way profile: the
  // site must stay a plain vtable Dispatch at tier 1 (and still agree).
  auto C = compileMJ(
      "mega.mj",
      "class A { int f() { return 1; } } "
      "class B extends A { int f() { return 2; } } "
      "class C extends A { int f() { return 3; } } "
      "class D extends A { int f() { return 4; } } "
      "class E extends A { int f() { return 5; } } "
      "class Main { static int go(A a) { return a.f(); } "
      "static void main() { int s = 0; int i = 0; while (i < 10) { "
      "A x; int k = i % 5; if (k == 0) { x = new A(); } else { "
      "if (k == 1) { x = new B(); } else { if (k == 2) { x = new C(); } "
      "else { if (k == 3) { x = new D(); } else { x = new E(); } } } } "
      "s = s + go(x); i = i + 1; } IO.printInt(s); } }");
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);
  Outcome O0 = runModule(*T0, *C->Table);
  EXPECT_EQ(O0.Output, "30");
  auto T1 = reprepareModule(*T0);
  ASSERT_TRUE(T1);
  EXPECT_EQ(T1->countOp(XOp::DispatchMono), 0u);
  EXPECT_EQ(T1->countOp(XOp::DispatchIC), 0u);
  EXPECT_EQ(T1->countOp(XOp::Dispatch), 1u);
  Outcome O1 = runModule(*T1, *C->Table);
  EXPECT_EQ(O1.Output, "30");
  EXPECT_EQ(T1->ICHits.load(), 0u); // No caches formed, none counted.
}

TEST(TierIC, ClosedWorldMonomorphicDevirtualizesWithoutGuard) {
  // No override anywhere: every possible receiver resolves the slot to
  // A.f, so the site needs no guard at all — a plain direct call, even
  // with an empty profile.
  auto C = compileMJ("devirt.mj",
                     "class A { int f() { return 7; } } "
                     "class B extends A { } "
                     "class Main { static void main() { A x = new B(); "
                     "IO.printInt(x.f()); } }");
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);
  ASSERT_EQ(T0->countOp(XOp::Dispatch), 1u);
  auto T1 = reprepareModule(*T0); // Note: no profiling run needed.
  ASSERT_TRUE(T1);
  EXPECT_EQ(T1->countOp(XOp::Dispatch), 0u);
  EXPECT_EQ(T1->countOp(XOp::DispatchMono), 0u);
  Outcome O1 = runModule(*T1, *C->Table);
  EXPECT_EQ(O1.Output, "7");
  EXPECT_EQ(T1->ICHits.load(), 0u); // Direct call: no guard, no tally.
}

//===----------------------------------------------------------------------===//
// Superinstruction fusion structure.
//===----------------------------------------------------------------------===//

TEST(TierFusion, FusesPairsAndPreservesStreamLength) {
  // Stores assign from locals so the check and the access stay adjacent
  // (the RHS is generated between lvalue checks and the store otherwise).
  auto C = compileMJ(
      "fuse.mj",
      "class P { int v; } "
      "class Main { static void main() { int[] a = new int[8]; "
      "P p = new P(); int t = 3; p.v = t; int i = 0; "
      "while (i < 8) { int w = i + p.v; a[i] = w; i = i + 1; } "
      "int s = 0; i = 0; while (i < 8) { s = s + a[i]; i = i + 1; } "
      "double d = 0.5; while (d < 4.0) { d = d + 1.0; } "
      "IO.printInt(s); IO.printInt(p.v); IO.printDouble(d); } }");
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);
  auto T1 = reprepareModule(*T0);
  ASSERT_TRUE(T1);

  // Every fusion family fires at least once on this program.
  size_t BrCmps = 0;
  for (XOp Op : {XOp::BrCmpLtI, XOp::BrCmpLeI, XOp::BrCmpGtI, XOp::BrCmpGeI,
                 XOp::BrCmpEqI, XOp::BrCmpNeI})
    BrCmps += T1->countOp(Op);
  EXPECT_GT(BrCmps, 0u);
  size_t BrCmpDs = 0;
  for (XOp Op : {XOp::BrCmpLtD, XOp::BrCmpLeD, XOp::BrCmpGtD, XOp::BrCmpGeD,
                 XOp::BrCmpEqD, XOp::BrCmpNeD})
    BrCmpDs += T1->countOp(Op);
  EXPECT_GT(BrCmpDs, 0u);
  EXPECT_GT(T1->countOp(XOp::IdxGetElt), 0u);
  EXPECT_GT(T1->countOp(XOp::IdxSetElt), 0u);
  EXPECT_GT(T1->countOp(XOp::NullGetField), 0u);
  EXPECT_GT(T1->countOp(XOp::NullSetField), 0u);
  // The loop back edges carry phi copies: the move fusions fire too.
  EXPECT_GT(T1->countOp(XOp::Move2) + T1->countOp(XOp::MoveJmp), 0u);

  // Fusion never moves code: same stream length per unit (shadow slots).
  ASSERT_EQ(T1->Units.size(), T0->Units.size());
  for (size_t I = 0; I != T0->Units.size(); ++I)
    EXPECT_EQ(T1->Units[I]->Code.size(), T0->Units[I]->Code.size());

  // And the NoFusion mask really masks.
  PrepareOptions NoFuse;
  NoFuse.NoFusion = true;
  auto T1NF = reprepareModule(*T0, NoFuse);
  ASSERT_TRUE(T1NF);
  for (XOp Op : {XOp::BrCmpLtI, XOp::BrCmpLtD, XOp::NullGetField,
                 XOp::NullSetField, XOp::IdxGetElt, XOp::IdxSetElt,
                 XOp::Move2, XOp::MoveJmp})
    EXPECT_EQ(T1NF->countOp(Op), 0u) << xopName(Op);

  Outcome Ref = runTreeWalk(*C->TSA, *C->Table);
  EXPECT_EQ(runModule(*T1, *C->Table).Output, Ref.Output);
  EXPECT_EQ(runModule(*T1NF, *C->Table).Output, Ref.Output);
}

// The per-unit fusion guard: when a unit's only fusable pairs are
// compare+conditional-branch (the one family with a measured-regression
// history) and it has no ICs or devirted calls to gain from re-lowering,
// tier 1 keeps the tier-0 stream for that unit. NoFusionGuard forces the
// old behavior; semantics agree either way.
TEST(TierFusion, CompareBranchOnlyUnitKeepsTier0Stream) {
  auto C = compileMJ(
      "guard.mj",
      "class Main { "
      "static int clamp(int x) { if (x < 0) { return 0; } return x; } "
      "static void main() { IO.printInt(clamp(0 - 5)); "
      "IO.printInt(clamp(7)); } }");
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);
  runModule(*T0, *C->Table);
  const MethodSymbol *Clamp = findMethod(*C->Table, "Main", "clamp");
  ASSERT_TRUE(Clamp);
  auto BrCmpsIn = [&](const PreparedModule &PM) {
    size_t N = 0;
    for (const auto &U : PM.Units) {
      if (U->Symbol != Clamp)
        continue;
      for (const ExecInst &In : U->Code)
        for (XOp Op : {XOp::BrCmpLtI, XOp::BrCmpLeI, XOp::BrCmpGtI,
                       XOp::BrCmpGeI, XOp::BrCmpEqI, XOp::BrCmpNeI})
          if (In.Op == Op)
            ++N;
    }
    return N;
  };

  auto T1 = reprepareModule(*T0);
  ASSERT_TRUE(T1);
  EXPECT_GE(T1->Tiering.FusionGuardedUnits, 1u);
  EXPECT_EQ(BrCmpsIn(*T1), 0u) << "guarded unit was fused anyway";

  PrepareOptions Force;
  Force.NoFusionGuard = true;
  auto T1F = reprepareModule(*T0, Force);
  ASSERT_TRUE(T1F);
  EXPECT_EQ(T1F->Tiering.FusionGuardedUnits, 0u);
  EXPECT_GT(BrCmpsIn(*T1F), 0u) << "unguarded compare+branch not fused";

  Outcome Ref = runTreeWalk(*C->TSA, *C->Table);
  EXPECT_EQ(runModule(*T1, *C->Table).Output, Ref.Output);
  EXPECT_EQ(runModule(*T1F, *C->Table).Output, Ref.Output);
}

TEST(TierFusion, TreeWalkOracleAgreesOnTier1) {
  auto C = compileMJ("oracle1.mj",
                     "class Main { static int fib(int n) { "
                     "if (n < 2) { return n; } "
                     "return fib(n - 1) + fib(n - 2); } "
                     "static void main() { IO.printInt(fib(15)); } }");
  ASSERT_TRUE(C->ok());
  auto T1 = tier1AfterOneRun(*C->TSA, *C->Table);
  ASSERT_TRUE(T1);
  Runtime RT(*C->Table);
  ExecOptions Opts;
  Opts.TreeWalkOracle = true;
  TSAExec X(*T1, RT, Opts);
  ExecResult R = X.runMain();
  EXPECT_EQ(R.Err, RuntimeError::None);
  EXPECT_FALSE(X.oracleDiverged());
  EXPECT_EQ(RT.getOutput(), "610");
}

//===----------------------------------------------------------------------===//
// Concurrency: tier-0 profiling and tier-1 IC tallies are TSan-clean.
//===----------------------------------------------------------------------===//

TEST(TierConcurrency, ConcurrentProfilingAndTier1Execution) {
  auto C = compileMJ("conc.mj", kMonoSrc);
  ASSERT_TRUE(C->ok());
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);

  // Phase 1: many threads profile one tier-0 module concurrently.
  constexpr unsigned NumThreads = 8;
  {
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&] {
        Runtime RT(*C->Table);
        TSAExec X(*T0, RT);
        X.runMain();
      });
    for (auto &Th : Threads)
      Th.join();
  }
  // Relaxed counters may drop no increments here: every activation of
  // main was counted.
  EXPECT_EQ(T0->Profile->invocations(T0->MainUnit->Index), NumThreads);

  // Phase 2: many threads execute the re-quickened tier 1 concurrently;
  // the per-call IC flushes must add up exactly. Inlining off so every
  // guard hit lands in ICHits (spliced guards tally only misses).
  PrepareOptions NoInline;
  NoInline.NoInlining = true;
  auto T1 = reprepareModule(*T0, NoInline);
  ASSERT_TRUE(T1);
  {
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&] {
        Runtime RT(*C->Table);
        TSAExec X(*T1, RT);
        X.runMain();
      });
    for (auto &Th : Threads)
      Th.join();
  }
  EXPECT_EQ(T1->ICHits.load(), 10u * NumThreads);
  EXPECT_EQ(T1->ICMisses.load(), 0u);
}

//===----------------------------------------------------------------------===//
// Golden output: the tier-1 streams of the corpus and generated programs.
//===----------------------------------------------------------------------===//

// Tier-1 lowering is pinned instruction for instruction: for each corpus
// program, and for each block of ten testgen seeds (1-200), the digest
// over every unit's tier-1 stream plus the summed TierStats, after one
// profiling run of main under default PrepareOptions (the
// DifferentialRunner protocol). Pointers are rendered through stable ids
// (unit Index, MethodSymbol GlobalId, ClassSymbol Id, type name), so the
// digest is the same in every process. After an intended output change,
// regenerate the table with
//   build/tests/exec_tier_test --gtest_also_run_disabled_tests --gtest_filter=Tier1Golden.DISABLED_PrintExpected
// and paste its output over the rows of kTier1Golden.

constexpr unsigned kTierStatsFields = 11;

struct Tier1GoldenRow {
  const char *Name; ///< Corpus program, or "seeds A-B".
  const char *Digest;
  uint64_t Stats[kTierStatsFields]; ///< TierStats in declaration order.
};

const Tier1GoldenRow kTier1Golden[] = {
    {"BigInteger", "ec00ae0f86a74fe43ab414720b8fe110",
     {10, 0, 0, 10, 0, 0, 0, 10, 0, 5, 625}},
    {"MutableBigInteger", "95aaabb040352cf2bd2177907ceb2518",
     {28, 0, 0, 30, 0, 0, 0, 28, 0, 16, 1116}},
    {"BigDecimal", "61bb95c25798505b94041431631f7b1e",
     {7, 0, 0, 7, 0, 0, 0, 7, 0, 8, 4472}},
    {"BitSieve", "5b8df63a87127080b5cebda92006fd8a",
     {9, 0, 0, 9, 0, 0, 0, 9, 0, 7, 454252}},
    {"Linpack", "fd6a722312deaaac732a0440f5f72647",
     {0, 0, 0, 0, 0, 0, 0, 0, 1, 4, 4177}},
    {"Scanner", "9f48a9fe5b666e1db416546a0b93d86e",
     {3, 0, 0, 3, 0, 0, 0, 3, 1, 5, 159}},
    {"BinaryCode", "66bd972a35963dda3212c85086e3405d",
     {5, 0, 0, 5, 0, 0, 0, 5, 0, 5, 85}},
    {"Parser", "39f1e2a95cc772e26048aecb527c8747",
     {23, 0, 0, 23, 0, 0, 0, 23, 0, 17, 2268}},
    {"Sorter", "1bb4db26c83a123e9b959ba417a2dfc6",
     {3, 0, 0, 3, 0, 0, 0, 3, 0, 5, 7502}},
    {"BatchEnvironment", "aa302ae28c16ef0e9d6f58e7a4b9d0fc",
     {7, 0, 0, 7, 0, 0, 0, 7, 0, 4, 28804}},
    {"SourceClass", "376a002f486e9537eaa251282a2b8ae6",
     {1, 3, 0, 1, 0, 3, 0, 1, 0, 5, 27}},
    {"BatchParser", "21dcafdcc626b0872d28ccdafc2c3b1e",
     {10, 0, 0, 10, 0, 0, 0, 10, 0, 3, 1556}},
    {"Main", "f0e7cc3ffe56a0f0aac75b8fcf8b3013",
     {16, 0, 0, 16, 0, 0, 0, 16, 0, 12, 73852}},
    {"Assembler", "3b080f8c1368154996b6d3e9f80e28a3",
     {10, 3, 0, 8, 2, 3, 0, 10, 0, 15, 506173}},
    {"seeds 1-10", "90e9b983e24052633223f0fc42e4c4d2",
     {12, 13, 0, 14, 6, 7, 0, 12, 0, 17, 847}},
    {"seeds 11-20", "5af249a88e08a1c29c69fdea6c6f2ab5",
     {20, 14, 0, 24, 6, 8, 6, 20, 0, 34, 399}},
    {"seeds 21-30", "6d51c7073888486116afe3e372f03f86",
     {7, 12, 0, 14, 2, 10, 3, 7, 0, 16, 73}},
    {"seeds 31-40", "c2904eca913eca48acbd31a7308ff96e",
     {13, 10, 0, 14, 5, 7, 5, 13, 0, 22, 70}},
    {"seeds 41-50", "d34cf7e8a8e9e0a8c6d5138cb5d98225",
     {15, 11, 0, 23, 4, 9, 9, 15, 0, 10, 61}},
    {"seeds 51-60", "bc94bf642cc84392ecc5e45084c33d06",
     {18, 9, 0, 15, 9, 6, 3, 18, 0, 27, 131}},
    {"seeds 61-70", "b6707ecbae9d1fc8a02582c155727dc0",
     {9, 12, 0, 9, 6, 8, 6, 9, 0, 23, 628}},
    {"seeds 71-80", "6a994082c69515f6547aba480d71776c",
     {15, 15, 0, 17, 6, 11, 8, 15, 0, 22, 144}},
    {"seeds 81-90", "a2efb37d2a3761de15581cc4ecaab1b0",
     {15, 13, 0, 14, 7, 11, 7, 15, 0, 14, 22}},
    {"seeds 91-100", "d9f97e108d67ab9b02c7118d03bffd13",
     {19, 14, 0, 28, 6, 6, 7, 19, 0, 29, 130}},
    {"seeds 101-110", "2c36946c522d03ec12a77705970c0e77",
     {11, 12, 0, 15, 5, 9, 12, 11, 0, 10, 17}},
    {"seeds 111-120", "914b1a8e4046d18d228ffd895ab0d810",
     {11, 15, 0, 17, 3, 9, 4, 11, 0, 10, 82}},
    {"seeds 121-130", "4eefefffe49ed31ae0c8498cd4f4ec6a",
     {7, 11, 0, 14, 1, 6, 3, 7, 0, 25, 93}},
    {"seeds 131-140", "df6ef815d23b866f77a96f0229406e23",
     {15, 11, 0, 22, 3, 6, 5, 15, 0, 30, 277}},
    {"seeds 141-150", "72d86c12bd99743c82b25c765d4b8008",
     {9, 11, 0, 15, 2, 8, 7, 9, 0, 15, 30}},
    {"seeds 151-160", "cccbcbf4ce3237b83ecc3b3d5c9363da",
     {11, 9, 0, 16, 4, 6, 6, 11, 0, 24, 303}},
    {"seeds 161-170", "464202e0e9e11bad5654a39fbcdb58e8",
     {6, 11, 0, 11, 4, 11, 6, 6, 0, 19, 101}},
    {"seeds 171-180", "0839d5892e10d80da534e91a5ee3f303",
     {12, 12, 0, 14, 4, 8, 3, 12, 0, 12, 404}},
    {"seeds 181-190", "f9fbfe0b298a8a7033fe3e57c3a2f996",
     {9, 11, 0, 11, 5, 8, 5, 9, 0, 19, 208}},
    {"seeds 191-200", "da5d2bcd0224efc51318ba6e3a78c3f2",
     {14, 11, 0, 23, 4, 7, 8, 14, 0, 26, 196}},
};

std::vector<std::pair<std::string, std::vector<std::string>>>
tier1GoldenSets() {
  std::vector<std::pair<std::string, std::vector<std::string>>> Sets;
  for (const CorpusProgram &P : getCorpus())
    Sets.push_back({P.Name, {P.Source}});
  for (uint64_t First = 1; First <= 200; First += 10) {
    std::vector<std::string> Srcs;
    for (uint64_t S = First; S != First + 10; ++S)
      Srcs.push_back(testgen::generateProgram(S));
    Sets.push_back({"seeds " + std::to_string(First) + "-" +
                        std::to_string(First + 9),
                    std::move(Srcs)});
  }
  return Sets;
}

void computeTier1Golden(const std::vector<std::string> &Srcs,
                        std::string &DigestHex,
                        uint64_t (&Stats)[kTierStatsFields]) {
  std::string Chain;
  for (uint64_t &F : Stats)
    F = 0;
  for (const std::string &Src : Srcs) {
    auto C = compileMJ("golden.mj", Src);
    EXPECT_TRUE(C->ok()) << C->renderDiagnostics();
    if (!C->ok())
      continue;
    auto T0 = prepareModule(*C->TSA);
    ASSERT_TRUE(T0);
    {
      // The DifferentialRunner's default fuel: generated programs that
      // would run longer stop deterministically.
      Runtime RT(*C->Table, 20'000'000);
      TSAExec X(*T0, RT);
      X.runMain();
    }
    auto T1 = reprepareModule(*T0);
    ASSERT_TRUE(T1);
    std::string Text = renderModule(*T1);
    Chain += digestOf(ByteSpan(reinterpret_cast<const uint8_t *>(Text.data()),
                               Text.size()))
                 .hex();
    const PreparedModule::TierStats &T = T1->Tiering;
    const uint64_t Row[kTierStatsFields] = {
        T.ProfiledMono, T.ProfiledPoly, T.Megamorphic,
        T.DevirtCalls,  T.MonoICs,      T.PolyICs,
        T.VtableSites,  T.MonoLoweredDirect, T.FusionGuardedUnits,
        T.InlinedSites, T.InlinedHeat};
    for (unsigned K = 0; K != kTierStatsFields; ++K)
      Stats[K] += Row[K];
  }
  DigestHex = digestOf(ByteSpan(reinterpret_cast<const uint8_t *>(
                                    Chain.data()),
                                Chain.size()))
                  .hex();
}

TEST(Tier1Golden, StreamsAndTierStatsUnchanged) {
  auto Sets = tier1GoldenSets();
  ASSERT_EQ(std::size(kTier1Golden), Sets.size());
  for (size_t I = 0; I != Sets.size(); ++I) {
    const Tier1GoldenRow &Want = kTier1Golden[I];
    SCOPED_TRACE(Sets[I].first);
    EXPECT_EQ(Sets[I].first, Want.Name);
    std::string Hex;
    uint64_t Got[kTierStatsFields];
    computeTier1Golden(Sets[I].second, Hex, Got);
    EXPECT_EQ(Hex, Want.Digest);
    for (unsigned K = 0; K != kTierStatsFields; ++K)
      EXPECT_EQ(Got[K], Want.Stats[K]) << "TierStats field " << K;
  }
}

TEST(Tier1Golden, DISABLED_PrintExpected) {
  for (const auto &[Name, Srcs] : tier1GoldenSets()) {
    std::string Hex;
    uint64_t Stats[kTierStatsFields];
    computeTier1Golden(Srcs, Hex, Stats);
    std::printf("    {\"%s\", \"%s\",\n     {", Name.c_str(), Hex.c_str());
    for (unsigned K = 0; K != kTierStatsFields; ++K)
      std::printf("%s%llu", K ? ", " : "",
                  static_cast<unsigned long long>(Stats[K]));
    std::printf("}},\n");
  }
}

} // namespace
