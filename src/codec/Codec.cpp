//===- codec/Codec.cpp ----------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "codec/Codec.h"

#include "support/BitStream.h"
#include "tsa/Signature.h"
#include "tsa/Verifier.h"

#include <cstring>
#include <unordered_map>
#include <unordered_set>

using namespace safetsa;

namespace {

constexpr uint32_t Magic = 0x53545341; // "STSA"
constexpr uint16_t Version = 1;
constexpr uint64_t NumOpcodes = static_cast<uint64_t>(Opcode::Dispatch) + 1;
constexpr uint64_t NumPrimOps = static_cast<uint64_t>(PrimOp::InstanceOf) + 1;
constexpr uint64_t NumConstKinds =
    static_cast<uint64_t>(ConstantValue::Kind::String) + 1;

// Hostile-input resource caps.
constexpr uint64_t MaxClasses = 4096;
constexpr uint64_t MaxMembers = 1 << 16;
constexpr uint64_t MaxInstsPerBlock = 1 << 20;
constexpr unsigned MaxCSTDepth = 512;

// CST production symbols (phase 1 alphabet).
enum CSTSym : uint64_t {
  SymBasic = 0,
  SymIf,
  SymLoop,
  SymReturn,
  SymBreak,
  SymContinue,
  SymTry,
  SymEnd,
  NumCSTSyms
};

uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^ static_cast<uint64_t>(V >> 63);
}
int64_t unzigzag(uint64_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
}

/// Symbol emitter abstracting Prefix vs Naive packing.
class SymSink {
public:
  explicit SymSink(CodecMode Mode) : Mode(Mode) {}

  void sym(uint64_t V, uint64_t Bound) {
    assert(Bound >= 1 && V < Bound && "symbol outside its alphabet");
    if (Mode == CodecMode::Prefix)
      W.writeBounded(V, Bound);
    else
      W.writeVarUint(V);
  }
  void bit(bool B) {
    if (Mode == CodecMode::Prefix)
      W.writeBit(B);
    else
      W.writeVarUint(B);
  }
  void reserve(size_t NumBytes) { W.reserve(NumBytes); }
  void varuint(uint64_t V) { W.writeVarUint(V); }
  void varint(int64_t V) { W.writeVarUint(zigzag(V)); }
  void bits64(uint64_t V) { W.writeFixed(V, 64); }
  void bits(uint64_t V, unsigned N) { W.writeFixed(V, N); }
  void str(const std::string &S) { W.writeString(S); }

  std::vector<uint8_t> take() { return W.take(); }

private:
  CodecMode Mode;
  BitWriter W;
};

/// Symbol reader with a sticky failure flag.
class SymSource {
public:
  SymSource(ByteSpan Bytes, CodecMode Mode, bool TableDecode)
      : Mode(Mode), R(Bytes, TableDecode) {}

  bool failed() const { return Failed || R.hasOverrun(); }
  void fail(const char *Why) {
    if (!Failed)
      Reason = Why;
    Failed = true;
  }
  const char *reason() const { return Reason; }

  uint64_t sym(uint64_t Bound) {
    if (Bound == 0) {
      // An empty alphabet means the producer could not have emitted any
      // symbol here: the reference is inexpressible.
      fail("reference into an empty register plane");
      return 0;
    }
    if (Mode == CodecMode::Prefix)
      return R.readBounded(Bound);
    uint64_t V = R.readVarUint();
    if (V >= Bound) {
      fail("symbol outside its alphabet");
      return 0;
    }
    return V;
  }
  bool bit() {
    if (Mode == CodecMode::Prefix)
      return R.readBit();
    return R.readVarUint() != 0;
  }
  uint64_t varuint() { return R.readVarUint(); }
  int64_t varint() { return unzigzag(R.readVarUint()); }
  uint64_t bits64() { return R.readFixed(64); }
  uint64_t bits(unsigned N) { return R.readFixed(N); }
  std::string str() { return R.readString(); }

private:
  CodecMode Mode;
  BitReader R;
  bool Failed = false;
  const char *Reason = "truncated stream";
};

//===----------------------------------------------------------------------===//
// Encoder
//===----------------------------------------------------------------------===//

class Encoder {
public:
  Encoder(TSAModule &Module, CodecMode Mode)
      : Module(Module), Table(*Module.Table), Types(*Module.Types),
        Ctx{Types, Table}, S(Mode) {}

  std::vector<uint8_t> encode() {
    for (const auto &C : Table.getClasses()) {
      ClassIdx[C.get()] = static_cast<unsigned>(AllClasses.size());
      AllClasses.push_back(C.get());
    }
    // Per-class member-index maps, built once so wire references are O(1)
    // instead of a linear member scan per reference.
    for (ClassSymbol *C : AllClasses) {
      unsigned MIdx = 0;
      for (const auto &M : C->Methods)
        MethodIdx[M.get()] = MIdx++;
      unsigned SIdx = 0;
      for (const auto &F : C->Fields)
        if (F->IsStatic)
          StaticFieldIdx[F.get()] = SIdx++;
      NumStatics[C] = SIdx;
    }

    // Capacity hint: symbols are a handful of bits each; preloads, types,
    // and strings push the per-instruction average to a few bytes.
    size_t NumInsts = 0;
    for (const auto &M : Module.Methods)
      for (const auto &BB : M->Blocks)
        NumInsts += BB->Insts.size();
    S.reserve(NumInsts * 3 + AllClasses.size() * 32 + 64);

    S.bits(Magic, 32);
    S.bits(Version, 16);

    encodeClassSection();
    encodeStaticInits();

    S.varuint(Module.Methods.size());
    for (auto &M : Module.Methods) {
      M->deriveCFG();
      M->finalize(Ctx);
      encodeMethodRef(M->Symbol);
      encodeBody(*M);
    }
    return S.take();
  }

private:
  TSAModule &Module;
  ClassTable &Table;
  TypeContext &Types;
  PlaneContext Ctx;
  SymSink S;
  std::vector<ClassSymbol *> AllClasses;
  std::unordered_map<const ClassSymbol *, unsigned> ClassIdx;
  std::unordered_map<const MethodSymbol *, unsigned> MethodIdx;
  std::unordered_map<const FieldSymbol *, unsigned> StaticFieldIdx;
  std::unordered_map<const ClassSymbol *, unsigned> NumStatics;

  uint64_t numClasses() const { return AllClasses.size(); }

  void encodeTypeRef(Type *T) {
    unsigned Depth = 0;
    while (T->isArray()) {
      T = T->getElemType();
      ++Depth;
    }
    S.varuint(Depth);
    if (T->isPrim()) {
      S.bit(false);
      S.sym(static_cast<uint64_t>(T->getPrimKind()), 4);
    } else {
      assert(T->isClass() && "unexpected type in wire format");
      S.bit(true);
      S.sym(ClassIdx.at(T->getClassSymbol()), numClasses());
    }
  }

  void encodeMethodRef(const MethodSymbol *M) {
    S.sym(ClassIdx.at(M->Owner), numClasses());
    S.sym(MethodIdx.at(M), M->Owner->Methods.size());
  }

  void encodeConstant(const ConstantValue &C, Type *OpType) {
    S.sym(static_cast<uint64_t>(C.K), NumConstKinds);
    switch (C.K) {
    case ConstantValue::Kind::Int:
      S.varint(C.IntVal);
      break;
    case ConstantValue::Kind::Double: {
      uint64_t Bits;
      static_assert(sizeof(Bits) == sizeof(C.DblVal));
      std::memcpy(&Bits, &C.DblVal, sizeof(Bits));
      S.bits64(Bits);
      break;
    }
    case ConstantValue::Kind::Bool:
      S.bit(C.IntVal != 0);
      break;
    case ConstantValue::Kind::Char:
      S.bits(static_cast<uint64_t>(C.IntVal) & 0xff, 8);
      break;
    case ConstantValue::Kind::Null:
      encodeTypeRef(OpType); // Null constants carry their plane type.
      break;
    case ConstantValue::Kind::String:
      S.str(C.StrVal);
      break;
    }
  }

  void encodeClassSection() {
    std::vector<ClassSymbol *> Users;
    for (ClassSymbol *C : AllClasses)
      if (!C->IsBuiltin)
        Users.push_back(C);
    S.varuint(Users.size());
    for (ClassSymbol *C : Users)
      S.str(C->Name);
    for (ClassSymbol *C : Users) {
      S.sym(ClassIdx.at(C->Super), numClasses());
      unsigned NumFields = static_cast<unsigned>(C->Fields.size());
      S.varuint(NumFields);
      for (const auto &F : C->Fields) {
        S.str(F->Name);
        S.bit(F->IsStatic);
        S.bit(F->IsFinal);
        encodeTypeRef(F->Ty);
      }
      S.varuint(C->Methods.size());
      for (const auto &M : C->Methods) {
        S.str(M->Name);
        S.bit(M->IsStatic);
        S.bit(M->IsConstructor);
        bool IsVoid = M->RetTy->isVoid();
        S.bit(IsVoid);
        if (!IsVoid)
          encodeTypeRef(M->RetTy);
        S.varuint(M->ParamTys.size());
        for (Type *P : M->ParamTys)
          encodeTypeRef(P);
      }
    }
  }

  void encodeStaticInits() {
    S.varuint(Module.StaticInits.size());
    for (const auto &[F, C] : Module.StaticInits) {
      S.sym(ClassIdx.at(F->Owner), numClasses());
      // Index within the owner's own static fields.
      S.sym(StaticFieldIdx.at(F), NumStatics.at(F->Owner));
      encodeConstant(C, F->Ty);
    }
  }

  //===--------------------------------------------------------------------===//
  // Phase 1: CST productions
  //===--------------------------------------------------------------------===//

  /// \p TryDepth counts enclosing try bodies; inside one, every Basic
  /// node carries its exception-edge flag so producer and consumer derive
  /// identical CFGs (the flag is part of the CST grammar).
  void encodeSeq(const CSTSeq &Seq, unsigned TryDepth) {
    for (const auto &Node : Seq) {
      switch (Node->K) {
      case CSTNode::Kind::Basic:
        S.sym(SymBasic, NumCSTSyms);
        if (TryDepth > 0)
          S.bit(Node->RaisesToCatch);
        break;
      case CSTNode::Kind::If:
        S.sym(SymIf, NumCSTSyms);
        S.bit(!Node->Else.empty());
        encodeSeq(Node->Then, TryDepth);
        if (!Node->Else.empty())
          encodeSeq(Node->Else, TryDepth);
        break;
      case CSTNode::Kind::Try:
        S.sym(SymTry, NumCSTSyms);
        encodeSeq(Node->Then, TryDepth + 1); // Protected body.
        encodeSeq(Node->Else, TryDepth);     // Handler raises outward.
        break;
      case CSTNode::Kind::Loop:
        S.sym(SymLoop, NumCSTSyms);
        encodeSeq(Node->Header, TryDepth);
        encodeSeq(Node->Body, TryDepth);
        break;
      case CSTNode::Kind::Return:
        S.sym(SymReturn, NumCSTSyms);
        S.bit(Node->RetVal != nullptr);
        break;
      case CSTNode::Kind::Break:
        S.sym(SymBreak, NumCSTSyms);
        break;
      case CSTNode::Kind::Continue:
        S.sym(SymContinue, NumCSTSyms);
        break;
      }
    }
    S.sym(SymEnd, NumCSTSyms);
  }

  //===--------------------------------------------------------------------===//
  // Phase 2: blocks, instructions, non-phi operands
  //===--------------------------------------------------------------------===//

  /// Emits the (l, r) reference for \p Def used from \p UseBlock. The
  /// reference plane is Def's result plane (the module is verified, so
  /// operand and result planes agree); its interned id indexes the flat
  /// per-block counters directly. \p Running gives same-block bounds in
  /// phase 2 (values emitted so far); null => final counts (phase 3).
  void encodeRef(const Instruction *Def, const BasicBlock *UseBlock,
                 const std::vector<unsigned> *Running) {
    const BasicBlock *D = Def->Parent;
    assert(UseBlock->DomDepth >= D->DomDepth && "operand does not dominate");
    uint64_t L = UseBlock->DomDepth - D->DomDepth;
    S.sym(L, UseBlock->DomDepth + 1);
    uint32_t Plane = Def->PlaneId;
    assert(Plane != PlaneInterner::None && "reference to a value-less def");
    uint64_t Bound;
    if (Running && D == UseBlock)
      Bound = Plane < Running->size() ? (*Running)[Plane] : 0;
    else
      Bound = D->planeCount(Plane);
    assert(Def->PlaneIndex < Bound && "register number out of range");
    S.sym(Def->PlaneIndex, Bound);
  }

  void encodeBody(TSAMethod &M) {
    encodeSeq(M.Root, 0);

    std::vector<unsigned> Running;
    for (const auto &BB : M.Blocks) {
      S.varuint(BB->Insts.size());
      Running.assign(M.Planes.size(), 0);
      for (const auto &I : BB->Insts) {
        encodeInstruction(M, *BB, *I, Running);
        if (I->PlaneId != PlaneInterner::None)
          ++Running[I->PlaneId];
      }
    }

    encodePhase3(M);
  }

  void encodeInstruction(TSAMethod &M, const BasicBlock &BB,
                         const Instruction &I,
                         const std::vector<unsigned> &Running) {
    S.sym(static_cast<uint64_t>(I.Op), NumOpcodes);
    switch (I.Op) {
    case Opcode::Const:
      encodeConstant(I.C, I.OpType);
      break;
    case Opcode::Param: {
      unsigned Shift = M.Symbol->IsStatic ? 0 : 1;
      S.sym(I.ParamIndex, M.Symbol->ParamTys.size() + Shift);
      break;
    }
    case Opcode::Phi:
      encodeTypeRef(I.OpType);
      S.bit(I.DstSafe);
      return; // Operands follow in phase 3.
    case Opcode::Primitive:
    case Opcode::XPrimitive:
      S.sym(static_cast<uint64_t>(I.Prim), NumPrimOps);
      if (I.Prim == PrimOp::InstanceOf)
        encodeTypeRef(I.AuxType);
      break;
    case Opcode::NullCheck:
    case Opcode::IndexCheck:
    case Opcode::Upcast:
    case Opcode::ArrayLength:
    case Opcode::NewArray:
    case Opcode::GetElt:
    case Opcode::SetElt:
      encodeTypeRef(I.OpType);
      break;
    case Opcode::Downcast:
      encodeTypeRef(I.AuxType);
      S.bit(I.SrcSafe);
      encodeTypeRef(I.OpType);
      S.bit(I.DstSafe);
      break;
    case Opcode::GetField:
    case Opcode::SetField: {
      encodeTypeRef(I.OpType);
      // The field is named by its slot in the accessed class's layout —
      // bounded, so a field outside the class is inexpressible.
      ClassSymbol *C = I.OpType->getClassSymbol();
      S.sym(I.Field->Slot, C->InstanceLayout.size());
      break;
    }
    case Opcode::GetStatic:
    case Opcode::SetStatic:
      S.sym(ClassIdx.at(I.Field->Owner), numClasses());
      S.sym(StaticFieldIdx.at(I.Field), NumStatics.at(I.Field->Owner));
      break;
    case Opcode::New:
      S.sym(ClassIdx.at(I.OpType->getClassSymbol()), numClasses());
      break;
    case Opcode::Call:
    case Opcode::Dispatch:
      encodeMethodRef(I.Method);
      break;
    }

    for (unsigned K = 0; K != I.Operands.size(); ++K) {
#ifndef NDEBUG
      std::optional<PlaneKey> Plane = operandPlane(I, K, Ctx, nullptr);
      assert(Plane && "encoding an ill-typed instruction");
      assert(M.Planes.find(*Plane) == I.Operands[K]->PlaneId &&
             "operand plane disagrees with its definition");
#endif
      encodeRef(I.Operands[K], &BB, &Running);
    }
  }

  //===--------------------------------------------------------------------===//
  // Phase 3: phi operands and CST value references
  //===--------------------------------------------------------------------===//

  void encodePhase3(TSAMethod &M) {
    for (const auto &BB : M.Blocks) {
      for (const auto &I : BB->Insts) {
        if (!I->isPhi())
          continue;
        assert(I->Operands.size() == BB->Preds.size());
        for (size_t K = 0; K != I->Operands.size(); ++K)
          encodeRef(I->Operands[K], BB->Preds[K], nullptr);
      }
    }
    encodeCSTRefs(M, M.Root, nullptr);
  }

  const BasicBlock *encodeCSTRefs(TSAMethod &M, const CSTSeq &Seq,
                                  const BasicBlock *Cur) {
    for (const auto &Node : Seq) {
      switch (Node->K) {
      case CSTNode::Kind::Basic:
        Cur = Node->BB;
        break;
      case CSTNode::Kind::If:
        encodeRef(Node->Cond, Cur, nullptr);
        encodeCSTRefs(M, Node->Then, Cur);
        if (!Node->Else.empty())
          encodeCSTRefs(M, Node->Else, Cur);
        Cur = nullptr;
        break;
      case CSTNode::Kind::Loop: {
        const BasicBlock *Decision = encodeCSTRefs(M, Node->Header, Cur);
        encodeRef(Node->Cond, Decision, nullptr);
        encodeCSTRefs(M, Node->Body, Decision);
        Cur = nullptr;
        break;
      }
      case CSTNode::Kind::Try:
        encodeCSTRefs(M, Node->Then, Cur);
        encodeCSTRefs(M, Node->Else, nullptr);
        Cur = nullptr;
        break;
      case CSTNode::Kind::Return:
        if (Node->RetVal)
          encodeRef(Node->RetVal, Cur, nullptr);
        break;
      case CSTNode::Kind::Break:
      case CSTNode::Kind::Continue:
        break;
      }
    }
    return Cur;
  }
};

//===----------------------------------------------------------------------===//
// Decoder
//===----------------------------------------------------------------------===//

class Decoder {
public:
  Decoder(ByteSpan Bytes, const DecodeOptions &Opts)
      : S(Bytes, Opts.Mode, Opts.TableDecode), Fused(Opts.FusedVerify) {}

  std::unique_ptr<DecodedUnit> decode(std::string *Err) {
    auto Fail = [&](const char *Why) -> std::unique_ptr<DecodedUnit> {
      if (Err)
        *Err = Why;
      return nullptr;
    };

    if (S.bits(32) != Magic)
      return Fail("bad magic");
    if (S.bits(16) != Version)
      return Fail("unsupported version");

    auto Unit = std::make_unique<DecodedUnit>();
    Unit->Types = std::make_unique<TypeContext>();
    Types = Unit->Types.get();
    Unit->Table = std::make_unique<ClassTable>(*Types);
    Table = Unit->Table.get();
    Unit->Module = std::make_unique<TSAModule>();
    Unit->Module->Types = Types;
    Unit->Module->Table = Table;
    Ctx = std::make_unique<PlaneContext>(PlaneContext{*Types, *Table});

    if (!decodeClassSection())
      return Fail(S.reason());
    if (!decodeStaticInits(*Unit->Module))
      return Fail(S.reason());

    uint64_t NumBodies = S.varuint();
    if (NumBodies > MaxMembers || S.failed())
      return Fail("implausible body count");
    std::unordered_set<const MethodSymbol *> Seen;
    for (uint64_t I = 0; I != NumBodies; ++I) {
      MethodSymbol *M = decodeMethodRef();
      if (!M || M->isNative() || M->Owner->IsBuiltin) {
        S.fail("body for a builtin or native method");
        return Fail(S.reason());
      }
      if (!Seen.insert(M).second) {
        S.fail("duplicate method body");
        return Fail(S.reason());
      }
      auto Body = decodeBody(*Unit->Module, M);
      if (!Body)
        return Fail(S.reason());
      Unit->Module->Methods.push_back(std::move(Body));
    }
    if (S.failed())
      return Fail(S.reason());

    // Completeness: every declared non-native user method has a body, so
    // dispatch can never land in a missing implementation.
    for (ClassSymbol *C : AllClasses) {
      if (C->IsBuiltin)
        continue;
      for (const auto &M : C->Methods)
        if (!Seen.count(M.get())) {
          if (Err)
            *Err = "method declared without a body";
          return nullptr;
        }
    }
    return Unit;
  }

private:
  SymSource S;
  /// Fused decode+verify: enforce the residual verifier-only rules
  /// (downcast legality, return-value presence) during decoding, making a
  /// successful decode equivalent to decode + TSAVerifier.
  bool Fused;
  TypeContext *Types = nullptr;
  ClassTable *Table = nullptr;
  std::unique_ptr<PlaneContext> Ctx;
  std::vector<ClassSymbol *> AllClasses;
  /// Static fields per class, aligned with AllClasses; precomputed once
  /// so static-field wire references are O(1), not a member scan.
  std::vector<std::vector<FieldSymbol *>> StaticsByClass;
  DiagnosticEngine ScratchDiags;

  uint64_t numClasses() const { return AllClasses.size(); }

  Type *decodeTypeRef() {
    uint64_t Depth = S.varuint();
    if (Depth > 32) {
      S.fail("implausible array depth");
      return nullptr;
    }
    Type *T;
    if (!S.bit()) {
      T = Types->getPrim(static_cast<PrimTypeKind>(S.sym(4)));
    } else {
      uint64_t Idx = S.sym(numClasses());
      if (S.failed())
        return nullptr;
      T = Types->getClass(AllClasses[Idx]);
    }
    for (uint64_t I = 0; I != Depth && T; ++I)
      T = Types->getArray(T);
    return S.failed() ? nullptr : T;
  }

  MethodSymbol *decodeMethodRef() {
    uint64_t CIdx = S.sym(numClasses());
    if (S.failed())
      return nullptr;
    ClassSymbol *C = AllClasses[CIdx];
    if (C->Methods.empty()) {
      S.fail("method reference into a class with no methods");
      return nullptr;
    }
    uint64_t MIdx = S.sym(C->Methods.size());
    if (S.failed())
      return nullptr;
    return C->Methods[MIdx].get();
  }

  bool decodeConstant(ConstantValue &C, Type *&OpType) {
    uint64_t Kind = S.sym(NumConstKinds);
    if (S.failed())
      return false;
    C.K = static_cast<ConstantValue::Kind>(Kind);
    OpType = nullptr;
    switch (C.K) {
    case ConstantValue::Kind::Int:
      C.IntVal = S.varint();
      OpType = Types->getInt();
      break;
    case ConstantValue::Kind::Double: {
      uint64_t Bits = S.bits64();
      std::memcpy(&C.DblVal, &Bits, sizeof(C.DblVal));
      OpType = Types->getDouble();
      break;
    }
    case ConstantValue::Kind::Bool:
      C.IntVal = S.bit();
      OpType = Types->getBoolean();
      break;
    case ConstantValue::Kind::Char:
      C.IntVal = static_cast<int64_t>(S.bits(8));
      OpType = Types->getChar();
      break;
    case ConstantValue::Kind::Null:
      OpType = decodeTypeRef();
      if (OpType && !(OpType->isClass() || OpType->isArray())) {
        S.fail("null constant with a non-reference type");
        return false;
      }
      break;
    case ConstantValue::Kind::String:
      C.StrVal = S.str();
      OpType = Types->getArray(Types->getChar());
      break;
    }
    return !S.failed();
  }

  bool decodeClassSection() {
    // Builtins are implicit: they were created by the ClassTable
    // constructor and can never be redefined from the wire.
    for (const auto &C : Table->getClasses())
      AllClasses.push_back(C.get());

    uint64_t NumUsers = S.varuint();
    if (NumUsers > MaxClasses || S.failed()) {
      S.fail("implausible class count");
      return false;
    }
    std::vector<ClassSymbol *> Users;
    for (uint64_t I = 0; I != NumUsers; ++I) {
      std::string Name = S.str();
      if (S.failed())
        return false;
      ClassSymbol *C = Table->declareClass(Name, nullptr, ScratchDiags);
      if (!C) {
        S.fail("duplicate or reserved class name");
        return false;
      }
      Users.push_back(C);
      AllClasses.push_back(C);
    }

    for (ClassSymbol *C : Users) {
      uint64_t SuperIdx = S.sym(numClasses());
      if (S.failed())
        return false;
      ClassSymbol *Super = AllClasses[SuperIdx];
      if (Super == C || (Super->IsBuiltin && Super != Table->getObjectClass())) {
        S.fail("illegal superclass");
        return false;
      }
      C->Super = Super;

      uint64_t NumFields = S.varuint();
      if (NumFields > MaxMembers || S.failed()) {
        S.fail("implausible field count");
        return false;
      }
      for (uint64_t I = 0; I != NumFields; ++I) {
        auto F = std::make_unique<FieldSymbol>();
        F->Name = S.str();
        F->IsStatic = S.bit();
        F->IsFinal = S.bit();
        F->Ty = decodeTypeRef();
        F->Owner = C;
        if (!F->Ty || F->Ty->isVoid())
          return false;
        if (F->IsStatic)
          F->Slot = Table->allocateStaticSlot();
        C->Fields.push_back(std::move(F));
      }

      uint64_t NumMethods = S.varuint();
      if (NumMethods > MaxMembers || S.failed()) {
        S.fail("implausible method count");
        return false;
      }
      for (uint64_t I = 0; I != NumMethods; ++I) {
        auto M = std::make_unique<MethodSymbol>();
        M->Name = S.str();
        M->IsStatic = S.bit();
        M->IsConstructor = S.bit();
        bool IsVoid = S.bit();
        M->RetTy = IsVoid ? Types->getVoid() : decodeTypeRef();
        M->Owner = C;
        if (!M->RetTy)
          return false;
        if (M->IsConstructor && (M->IsStatic || !M->RetTy->isVoid())) {
          S.fail("malformed constructor declaration");
          return false;
        }
        uint64_t NumParams = S.varuint();
        if (NumParams > 255 || S.failed()) {
          S.fail("implausible parameter count");
          return false;
        }
        for (uint64_t P = 0; P != NumParams; ++P) {
          Type *T = decodeTypeRef();
          if (!T || T->isVoid())
            return false;
          M->ParamTys.push_back(T);
        }
        Table->registerMethod(M.get());
        C->Methods.push_back(std::move(M));
      }
    }

    // Superclass cycles would hang layout computation; every chain must
    // reach Object within the class count.
    for (ClassSymbol *C : Users) {
      unsigned Steps = 0;
      for (ClassSymbol *W = C; W; W = W->Super)
        if (++Steps > AllClasses.size() + 1) {
          S.fail("inheritance cycle");
          return false;
        }
    }

    std::string LayoutErr;
    for (ClassSymbol *C : Users)
      if (!ClassTable::computeClassLayout(C, &LayoutErr)) {
        S.fail("illegal override in class declarations");
        return false;
      }

    StaticsByClass.resize(AllClasses.size());
    for (size_t I = 0; I != AllClasses.size(); ++I)
      for (const auto &F : AllClasses[I]->Fields)
        if (F->IsStatic)
          StaticsByClass[I].push_back(F.get());
    return true;
  }

  bool decodeStaticInits(TSAModule &Module) {
    uint64_t Num = S.varuint();
    if (Num > MaxMembers || S.failed()) {
      S.fail("implausible static-initializer count");
      return false;
    }
    for (uint64_t I = 0; I != Num; ++I) {
      uint64_t CIdx = S.sym(numClasses());
      if (S.failed())
        return false;
      const std::vector<FieldSymbol *> &Statics = StaticsByClass[CIdx];
      uint64_t FIdx = S.sym(Statics.size());
      ConstantValue Val;
      Type *ConstTy = nullptr;
      if (S.failed() || !decodeConstant(Val, ConstTy))
        return false;
      Module.StaticInits.push_back({Statics[FIdx], Val});
    }
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Phase 1 decode: CST + blocks
  //===--------------------------------------------------------------------===//

  /// Decodes one CST sequence; returns false on malformed structure.
  /// \p CanFall reports whether control may fall out of the sequence.
  bool decodeSeq(TSAMethod &M, CSTSeq &Seq, bool InLoopBody, bool InHeader,
                 unsigned Depth, unsigned TryDepth, unsigned *Edges,
                 bool &CanFall) {
    if (Depth > MaxCSTDepth) {
      S.fail("CST nesting too deep");
      return false;
    }
    bool First = true;
    bool Reach = true;
    while (true) {
      uint64_t Sym = S.sym(NumCSTSyms);
      if (S.failed())
        return false;
      if (Sym == SymEnd)
        break;
      if (!Reach) {
        S.fail("unreachable CST node");
        return false;
      }
      if (First && Sym != SymBasic) {
        S.fail("CST sequence does not start with a basic block");
        return false;
      }
      First = false;

      CSTNode *Node = M.createNode();
      switch (Sym) {
      case SymBasic:
        Node->K = CSTNode::Kind::Basic;
        Node->BB = M.createBlock();
        if (TryDepth > 0) {
          Node->RaisesToCatch = S.bit();
          if (Node->RaisesToCatch && Edges)
            ++*Edges;
        }
        break;
      case SymTry: {
        if (InHeader) {
          S.fail("try inside a loop header");
          return false;
        }
        Node->K = CSTNode::Kind::Try;
        bool BodyFall = false, HandlerFall = false;
        unsigned BodyEdges = 0;
        if (!decodeSeq(M, Node->Then, InLoopBody, InHeader, Depth + 1,
                       TryDepth + 1, &BodyEdges, BodyFall))
          return false;
        if (BodyEdges == 0) {
          S.fail("try handler is unreachable");
          return false;
        }
        if (!decodeSeq(M, Node->Else, InLoopBody, InHeader, Depth + 1,
                       TryDepth, Edges, HandlerFall))
          return false;
        Reach = BodyFall || HandlerFall;
        break;
      }
      case SymIf: {
        Node->K = CSTNode::Kind::If;
        bool HasElse = S.bit();
        bool ThenFall = false, ElseFall = true;
        if (!decodeSeq(M, Node->Then, InLoopBody, InHeader, Depth + 1,
                       TryDepth, Edges, ThenFall))
          return false;
        if (HasElse && !decodeSeq(M, Node->Else, InLoopBody, InHeader,
                                  Depth + 1, TryDepth, Edges, ElseFall))
          return false;
        Reach = ThenFall || ElseFall;
        break;
      }
      case SymLoop: {
        if (InHeader) {
          S.fail("loop inside a loop header");
          return false;
        }
        Node->K = CSTNode::Kind::Loop;
        bool HeaderFall = false, BodyFall = false;
        if (!decodeSeq(M, Node->Header, false, /*InHeader=*/true, Depth + 1,
                       TryDepth, Edges, HeaderFall))
          return false;
        if (!HeaderFall) {
          S.fail("loop header cannot fall through");
          return false;
        }
        if (!decodeSeq(M, Node->Body, /*InLoopBody=*/true, false, Depth + 1,
                       TryDepth, Edges, BodyFall))
          return false;
        Reach = true; // The decision block's false edge always exists.
        break;
      }
      case SymReturn:
        if (InHeader) {
          S.fail("return inside a loop header");
          return false;
        }
        Node->K = CSTNode::Kind::Return;
        Node->RetVal = S.bit()
                           ? reinterpret_cast<Instruction *>(1) // Placeholder
                           : nullptr;
        Reach = false;
        break;
      case SymBreak:
      case SymContinue:
        if (!InLoopBody) {
          S.fail("break/continue outside of a loop body");
          return false;
        }
        Node->K = Sym == SymBreak ? CSTNode::Kind::Break
                                  : CSTNode::Kind::Continue;
        Reach = false;
        break;
      default:
        S.fail("bad CST production");
        return false;
      }
      Seq.push_back(Node);
    }
    if (First) {
      S.fail("empty CST sequence");
      return false;
    }
    CanFall = Reach;
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Reference decoding
  //===--------------------------------------------------------------------===//

  /// Per-block registers: the decoded value list of every plane, in
  /// definition order, indexed [block id][interned plane id]. Grown
  /// during phase 2; read by all phases. Plane ids come from the
  /// decoder's own interner (reset per method body); they are assigned in
  /// decode order, never read from the wire. Inline capacities cover the
  /// typical handful of planes and values per block without touching the
  /// heap.
  std::vector<SmallVector<SmallVector<Instruction *, 4>, 8>> Registers;
  PlaneInterner DecPlanes;

  void recordRegister(BasicBlock *BB, const PlaneKey &Plane,
                      Instruction *Def) {
    uint32_t Id = DecPlanes.intern(Plane);
    auto &Block = Registers[BB->Id];
    if (Id >= Block.size())
      Block.resize(Id + 1);
    // The phase-2 walk visits blocks and instructions in exactly
    // finalize()'s order, so the interned ids and per-plane indices match
    // what finalize() would assign; writing them here lets the fused path
    // skip that whole second pass over the method.
    Def->PlaneId = Id;
    Def->PlaneIndex = static_cast<unsigned>(Block[Id].size());
    if (Id >= BB->PlaneCounts.size())
      BB->PlaneCounts.resize(Id + 1, 0);
    ++BB->PlaneCounts[Id];
    Block[Id].push_back(Def);
  }

  Instruction *decodeRef(const BasicBlock *UseBlock, const PlaneKey &Plane) {
    return decodeRefById(UseBlock, DecPlanes.find(Plane));
  }

  /// Variant for callers that already know the interned plane id (phi
  /// operand decoding reuses the id recorded on the phi in phase 2),
  /// skipping the plane-table probe per operand.
  Instruction *decodeRefById(const BasicBlock *UseBlock, uint32_t Id) {
    if (!UseBlock) {
      S.fail("value reference with no context block");
      return nullptr;
    }
    uint64_t L = S.sym(UseBlock->DomDepth + 1);
    if (S.failed())
      return nullptr;
    const BasicBlock *D = UseBlock;
    for (uint64_t I = 0; I != L; ++I)
      D = D->IDom;
    auto &Block = Registers[D->Id];
    uint64_t Bound = Id < Block.size() ? Block[Id].size() : 0;
    uint64_t R = S.sym(Bound);
    if (S.failed())
      return nullptr;
    return Block[Id][R];
  }

  //===--------------------------------------------------------------------===//
  // Method bodies
  //===--------------------------------------------------------------------===//

  std::unique_ptr<TSAMethod> decodeBody(TSAModule &Module,
                                        MethodSymbol *Symbol) {
    auto M = std::make_unique<TSAMethod>(Module.Arena);
    M->Symbol = Symbol;

    bool CanFall = false;
    if (!decodeSeq(*M, M->Root, false, false, 0, 0, nullptr, CanFall))
      return nullptr;
    if (CanFall) {
      S.fail("control falls off the end of a method");
      return nullptr;
    }

    M->deriveCFG();

    // Reuse the register storage across the module's methods: clear the
    // per-plane value lists but keep their buffers, so steady-state
    // decoding allocates nothing here. Stale lists beyond this method's
    // block count are unreachable (block ids are dense from zero).
    if (Registers.size() < M->Blocks.size())
      Registers.resize(M->Blocks.size());
    for (size_t I = 0, E = M->Blocks.size(); I != E; ++I)
      for (auto &PlaneVals : Registers[I])
        PlaneVals.clear();
    DecPlanes.clear();

    // Phase 2.
    for (BasicBlock *BB : M->Blocks) {
      uint64_t NumInsts = S.varuint();
      if (NumInsts > MaxInstsPerBlock || S.failed()) {
        S.fail("implausible instruction count");
        return nullptr;
      }
      BB->Insts.reserve(NumInsts <= 1024 ? NumInsts : 1024);
      bool SeenNonPhi = false;
      for (uint64_t I = 0; I != NumInsts; ++I) {
        Instruction *Inst = decodeInstruction(*M, *BB, SeenNonPhi);
        if (!Inst)
          return nullptr;
        BB->append(Inst);
        if (auto Plane = resultPlane(*Inst, *Ctx))
          recordRegister(BB, *Plane, Inst);
      }
    }

    // The exception-edge discipline couples phase-1 flags with phase-2
    // instruction contents; reject mismatches before trusting the edges.
    std::string EdgeErr;
    if (!checkExceptionDiscipline(*M, &EdgeErr)) {
      S.fail("exception-edge discipline violation");
      return nullptr;
    }

    // Phase 3: phi operands. Phase 2 recorded each phi's interned plane
    // id, so the operand alphabet needs no plane recomputation here.
    // Phase 2 also rejected any phi after a non-phi, so phis form a
    // prefix of each block's instruction list.
    for (auto &BB : M->Blocks) {
      for (auto &I : BB->Insts) {
        if (!I->isPhi())
          break;
        for (BasicBlock *Pred : BB->Preds) {
          Instruction *Op = decodeRefById(Pred, I->PlaneId);
          if (!Op)
            return nullptr;
          I->Operands.push_back(Op);
        }
      }
    }

    // Phase 3: CST condition / return references.
    if (!decodeCSTRefs(*M, M->Root, nullptr).second)
      return nullptr;

    if (Fused) {
      // recordRegister already assigned PlaneId/PlaneIndex/PlaneCounts in
      // finalize()'s first-touch order; adopt the interner instead of
      // recomputing every instruction's result plane in a second pass.
      M->Planes = std::move(DecPlanes);
    } else {
      M->finalize(*Ctx);
    }
    return S.failed() ? nullptr : std::move(M);
  }

  std::pair<const BasicBlock *, bool>
  decodeCSTRefs(TSAMethod &M, CSTSeq &Seq, const BasicBlock *Cur) {
    for (auto &Node : Seq) {
      switch (Node->K) {
      case CSTNode::Kind::Basic:
        Cur = Node->BB;
        break;
      case CSTNode::Kind::If: {
        Node->Cond = decodeRef(Cur, PlaneKey::base(Types->getBoolean()));
        if (!Node->Cond)
          return {nullptr, false};
        if (!decodeCSTRefs(M, Node->Then, Cur).second)
          return {nullptr, false};
        if (!Node->Else.empty() &&
            !decodeCSTRefs(M, Node->Else, Cur).second)
          return {nullptr, false};
        Cur = nullptr;
        break;
      }
      case CSTNode::Kind::Loop: {
        auto [Decision, Ok] = decodeCSTRefs(M, Node->Header, Cur);
        if (!Ok)
          return {nullptr, false};
        Node->Cond = decodeRef(Decision, PlaneKey::base(Types->getBoolean()));
        if (!Node->Cond)
          return {nullptr, false};
        if (!decodeCSTRefs(M, Node->Body, Decision).second)
          return {nullptr, false};
        Cur = nullptr;
        break;
      }
      case CSTNode::Kind::Try:
        if (!decodeCSTRefs(M, Node->Then, Cur).second)
          return {nullptr, false};
        if (!decodeCSTRefs(M, Node->Else, nullptr).second)
          return {nullptr, false};
        Cur = nullptr;
        break;
      case CSTNode::Kind::Return:
        if (Node->RetVal) { // Placeholder set during phase 1.
          if (M.Symbol->RetTy->isVoid()) {
            S.fail("value returned from a void method");
            return {nullptr, false};
          }
          Node->RetVal = decodeRef(Cur, PlaneKey::base(M.Symbol->RetTy));
          if (!Node->RetVal)
            return {nullptr, false};
        } else if (Fused && !M.Symbol->RetTy->isVoid()) {
          S.fail("non-void method returns without a value");
          return {nullptr, false};
        }
        break;
      case CSTNode::Kind::Break:
      case CSTNode::Kind::Continue:
        break;
      }
    }
    return {Cur, true};
  }

  Instruction *decodeInstruction(TSAMethod &M, const BasicBlock &BB,
                                 bool &SeenNonPhi) {
    uint64_t OpSym = S.sym(NumOpcodes);
    if (S.failed())
      return nullptr;
    Instruction *I = M.createInst(static_cast<Opcode>(OpSym));
    I->Parent = const_cast<BasicBlock *>(&BB);

    if (I->isPreload() && &BB != M.getEntry()) {
      S.fail("preload outside of the entry block");
      return nullptr;
    }
    if (I->isPhi()) {
      if (SeenNonPhi) {
        S.fail("phi after non-phi instruction");
        return nullptr;
      }
    } else {
      SeenNonPhi = true;
    }

    switch (I->Op) {
    case Opcode::Const: {
      Type *Ty = nullptr;
      if (!decodeConstant(I->C, Ty))
        return nullptr;
      I->OpType = Ty;
      break;
    }
    case Opcode::Param: {
      unsigned Shift = M.Symbol->IsStatic ? 0 : 1;
      I->ParamIndex = static_cast<unsigned>(
          S.sym(M.Symbol->ParamTys.size() + Shift));
      if (S.failed())
        return nullptr;
      if (Shift && I->ParamIndex == 0)
        I->OpType = Types->getClass(M.Symbol->Owner);
      else
        I->OpType = M.Symbol->ParamTys[I->ParamIndex - Shift];
      break;
    }
    case Opcode::Phi:
      I->OpType = decodeTypeRef();
      if (!I->OpType)
        return nullptr;
      I->DstSafe = S.bit();
      if (I->DstSafe && !(I->OpType->isClass() || I->OpType->isArray())) {
        S.fail("safe-ref phi of a non-reference type");
        return nullptr;
      }
      return I; // Operands arrive in phase 3.
    case Opcode::Primitive:
    case Opcode::XPrimitive: {
      I->Prim = static_cast<PrimOp>(S.sym(NumPrimOps));
      if (S.failed())
        return nullptr;
      bool Raises = primOpMayRaise(I->Prim);
      if (Raises != (I->Op == Opcode::XPrimitive)) {
        S.fail("operation under the wrong primitive/xprimitive opcode");
        return nullptr;
      }
      if (I->Prim == PrimOp::InstanceOf) {
        I->AuxType = decodeTypeRef();
        if (!I->AuxType ||
            !(I->AuxType->isClass() || I->AuxType->isArray())) {
          S.fail("instanceof of a non-reference type");
          return nullptr;
        }
      }
      I->OpType = primOpOperandType(I->Prim, *Ctx);
      break;
    }
    case Opcode::NullCheck:
    case Opcode::Upcast:
      I->OpType = decodeTypeRef();
      if (!I->OpType || !(I->OpType->isClass() || I->OpType->isArray())) {
        S.fail("check/cast requires a reference type");
        return nullptr;
      }
      if (I->Op == Opcode::Upcast)
        I->AuxType = Ctx->objectType();
      break;
    case Opcode::IndexCheck:
    case Opcode::ArrayLength:
    case Opcode::GetElt:
    case Opcode::SetElt:
    case Opcode::NewArray:
      I->OpType = decodeTypeRef();
      if (!I->OpType || !I->OpType->isArray()) {
        S.fail("array operation on a non-array type");
        return nullptr;
      }
      break;
    case Opcode::Downcast: {
      I->AuxType = decodeTypeRef();
      I->SrcSafe = S.bit();
      I->OpType = decodeTypeRef();
      I->DstSafe = S.bit();
      if (!I->AuxType || !I->OpType)
        return nullptr;
      if (!(I->AuxType->isClass() || I->AuxType->isArray()) ||
          !(I->OpType->isClass() || I->OpType->isArray())) {
        S.fail("downcast of non-reference types");
        return nullptr;
      }
      // Full legality, mirroring TSAVerifier::checkDowncast: widening
      // along the class hierarchy only (arrays widen only to Object), and
      // safety may be erased or preserved but never introduced — that is
      // nullcheck's exclusive privilege.
      if (Fused) {
        Type *Src = I->AuxType, *Dst = I->OpType;
        bool Widens = false;
        if (Src == Dst)
          Widens = true;
        else if (Dst->isClass() && Src->isClass())
          Widens =
              Src->getClassSymbol()->isSubclassOf(Dst->getClassSymbol());
        else if (Dst->isClass() && Src->isArray())
          Widens = Dst->getClassSymbol()->Super == nullptr; // Object only.
        if (!Widens) {
          S.fail("downcast does not widen");
          return nullptr;
        }
        if (I->DstSafe && !I->SrcSafe) {
          S.fail("downcast cannot introduce safety");
          return nullptr;
        }
      }
      break;
    }
    case Opcode::GetField:
    case Opcode::SetField: {
      I->OpType = decodeTypeRef();
      if (!I->OpType || !I->OpType->isClass()) {
        S.fail("field access on a non-class type");
        return nullptr;
      }
      ClassSymbol *C = I->OpType->getClassSymbol();
      uint64_t Slot = S.sym(C->InstanceLayout.size());
      if (S.failed())
        return nullptr;
      I->Field = C->InstanceLayout[Slot];
      break;
    }
    case Opcode::GetStatic:
    case Opcode::SetStatic: {
      uint64_t CIdx = S.sym(numClasses());
      if (S.failed())
        return nullptr;
      const std::vector<FieldSymbol *> &Statics = StaticsByClass[CIdx];
      uint64_t Idx = S.sym(Statics.size());
      if (S.failed())
        return nullptr;
      I->Field = Statics[Idx];
      I->OpType = Types->getClass(AllClasses[CIdx]);
      break;
    }
    case Opcode::New: {
      uint64_t CIdx = S.sym(numClasses());
      if (S.failed())
        return nullptr;
      ClassSymbol *C = AllClasses[CIdx];
      if (C->IsBuiltin) {
        S.fail("new of a builtin class");
        return nullptr;
      }
      I->OpType = Types->getClass(C);
      break;
    }
    case Opcode::Call:
    case Opcode::Dispatch: {
      I->Method = decodeMethodRef();
      if (!I->Method)
        return nullptr;
      break;
    }
    }

    unsigned NumOps = expectedOperandCount(*I);
    for (unsigned K = 0; K != NumOps; ++K) {
      std::optional<PlaneKey> Plane = operandPlane(*I, K, *Ctx, nullptr);
      if (!Plane) {
        S.fail("ill-typed instruction");
        return nullptr;
      }
      Instruction *Op = decodeRef(&BB, *Plane);
      if (!Op)
        return nullptr;
      I->Operands.push_back(Op);
    }
    return I;
  }
};

} // namespace

std::vector<uint8_t> safetsa::encodeModule(TSAModule &Module,
                                           CodecMode Mode) {
  return Encoder(Module, Mode).encode();
}

std::unique_ptr<DecodedUnit> safetsa::decodeModule(ByteSpan Bytes,
                                                   std::string *Err,
                                                   const DecodeOptions &Opts) {
  return Decoder(Bytes, Opts).decode(Err);
}
