//===- tsa/Instruction.h - SafeTSA instructions ---------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SafeTSA instruction set and its register-plane model.
///
/// SafeTSA's "implied machine model" (paper §3) has a separate register
/// plane for every type and a complete set of planes per basic block.
/// Every instruction implicitly selects the planes of its operands and
/// result from its opcode and type parameters, so type safety is a
/// well-formedness property: a malicious encoder cannot make integer
/// addition consume a reference. In addition to the base plane of every
/// source type there is a safe-ref plane per reference type, populated
/// only by nullcheck (§4), and a safe-index plane per array *value*
/// (Appendix A), populated only by indexcheck. All memory operations
/// consume safe planes exclusively.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_TSA_INSTRUCTION_H
#define SAFETSA_TSA_INSTRUCTION_H

#include "sema/Symbols.h"
#include "support/SmallVector.h"

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <algorithm>
#include <vector>

namespace safetsa {

class Instruction;
class BasicBlock;

/// Identifies one register plane of the machine model.
///
/// Base planes exist for every source type; SafeRef planes for every
/// reference type; SafeIndex planes are anchored to the specific array
/// SSA value they certify an index for (Appendix A of the paper: "safe-
/// index types are actually bound to array values rather than to their
/// static types").
struct PlaneKey {
  enum class Kind : uint8_t { Base, SafeRef, SafeIndex };

  Kind K = Kind::Base;
  Type *Ty = nullptr;                  // Underlying type (array type for
                                       // SafeIndex, for diagnostics).
  const Instruction *Anchor = nullptr; // SafeIndex only: the array value.

  static PlaneKey base(Type *Ty) { return {Kind::Base, Ty, nullptr}; }
  static PlaneKey safeRef(Type *Ty) { return {Kind::SafeRef, Ty, nullptr}; }
  static PlaneKey safeIndex(Type *ArrayTy, const Instruction *Anchor) {
    return {Kind::SafeIndex, ArrayTy, Anchor};
  }

  friend bool operator==(const PlaneKey &A, const PlaneKey &B) {
    return A.K == B.K && A.Ty == B.Ty && A.Anchor == B.Anchor;
  }
  friend bool operator<(const PlaneKey &A, const PlaneKey &B) {
    return std::tie(A.K, A.Ty, A.Anchor) < std::tie(B.K, B.Ty, B.Anchor);
  }

  std::string str() const;
};

struct PlaneKeyHash {
  size_t operator()(const PlaneKey &K) const {
    size_t H = std::hash<const void *>()(K.Ty);
    H ^= std::hash<const void *>()(K.Anchor) + 0x9e3779b97f4a7c15ull +
         (H << 6) + (H >> 2);
    return H ^ (static_cast<size_t>(K.K) << 1);
  }
};

/// Interns PlaneKeys into dense uint32_t ids so per-operand plane
/// accounting is one array index instead of an ordered-map walk. Ids are
/// assigned in first-touch order (block order x instruction order), which
/// is deterministic; they never appear on the wire, so producer and
/// consumer interners need not agree.
///
/// Lookups sit on the per-operand decode/encode hot path, so the table is
/// a flat open-addressing probe array (no per-node allocation, one cache
/// line for the common hit) rather than a node-based hash map; clear()
/// keeps the storage so a reused interner allocates nothing in steady
/// state.
class PlaneInterner {
public:
  static constexpr uint32_t None = ~0u;

  uint32_t intern(const PlaneKey &K) {
    if ((Keys.size() + 1) * 4 > Slots.size() * 3)
      grow();
    size_t I = probeStart(K);
    size_t Mask = Slots.size() - 1;
    while (true) {
      uint32_t Id = Slots[I];
      if (Id == None) {
        Id = static_cast<uint32_t>(Keys.size());
        Slots[I] = Id;
        Keys.push_back(K);
        return Id;
      }
      if (Keys[Id] == K)
        return Id;
      I = (I + 1) & Mask;
    }
  }
  /// Id of \p K, or None when the plane holds no values in this method.
  uint32_t find(const PlaneKey &K) const {
    if (Slots.empty())
      return None;
    size_t I = probeStart(K);
    size_t Mask = Slots.size() - 1;
    while (true) {
      uint32_t Id = Slots[I];
      if (Id == None || Keys[Id] == K)
        return Id;
      I = (I + 1) & Mask;
    }
  }
  const PlaneKey &key(uint32_t Id) const { return Keys[Id]; }
  uint32_t size() const { return static_cast<uint32_t>(Keys.size()); }
  void clear() {
    std::fill(Slots.begin(), Slots.end(), None);
    Keys.clear();
  }

private:
  size_t probeStart(const PlaneKey &K) const {
    // Fibonacci scatter: Ty/Anchor are aligned pointers whose low bits
    // are mostly zero, so take the mixed high bits for the mask index.
    uint64_t H = PlaneKeyHash()(K) * 0x9e3779b97f4a7c15ull;
    return (H >> 32) & (Slots.size() - 1);
  }

  void grow() {
    size_t NewSize = Slots.empty() ? 16 : Slots.size() * 2;
    Slots.assign(NewSize, None);
    for (uint32_t Id = 0; Id != Keys.size(); ++Id) {
      size_t I = probeStart(Keys[Id]);
      while (Slots[I] != None)
        I = (I + 1) & (NewSize - 1);
      Slots[I] = Id;
    }
  }

  std::vector<uint32_t> Slots; ///< Probe table of ids; None = empty slot.
  std::vector<PlaneKey> Keys;  ///< Id -> key, in first-touch order.
};

/// SafeTSA opcodes. `primitive`/`xprimitive` carry a PrimOp selecting the
/// type-subordinate operation (paper §5); memory and call opcodes follow
/// §4 and §6. GetStatic/SetStatic extend the paper's getfield/setfield to
/// MJ's static fields (the paper routes globals through getfield/setfield
/// as well).
enum class Opcode : uint8_t {
  Const,      ///< Entry-block preloaded constant (not a "real" instruction).
  Param,      ///< Entry-block preloaded parameter.
  Phi,        ///< Merge; strictly type-separated (one plane in and out).
  Primitive,  ///< Non-raising type-subordinate operation.
  XPrimitive, ///< Raising type-subordinate operation (e.g. integer divide).
  NullCheck,  ///< ref -> safe-ref, with a runtime null test.
  IndexCheck, ///< (safe-ref array, int) -> safe-index, with a bounds test.
  Upcast,     ///< Checked cast (dynamic test; raises on failure).
  Downcast,   ///< Statically-safe cast; free at runtime (modeling only).
  GetField,   ///< (safe-ref) -> field value.
  SetField,   ///< (safe-ref, value); the only heap writers are SetField /
              ///< SetElt / SetStatic, constrained by the type table.
  GetElt,     ///< (safe-ref array, safe-index) -> element.
  SetElt,     ///< (safe-ref array, safe-index, value).
  GetStatic,  ///< () -> static field value.
  SetStatic,  ///< (value).
  ArrayLength,///< (safe-ref array) -> int.
  New,        ///< () -> fresh instance (fields zeroed).
  NewArray,   ///< (int length) -> fresh array; raises on negative length.
  Call,       ///< Statically-bound invocation (paper: xcall).
  Dispatch    ///< Vtable-dispatched invocation (paper: xdispatch).
};

/// Type-subordinate primitive operations. The suffix letter names the
/// owning type's plane: I = int, D = double, B = boolean, R = reference
/// (operations on the Object plane; operands of other static types reach
/// it via free downcasts). Conversions are operations of the source type.
enum class PrimOp : uint8_t {
  // int
  AddI,
  SubI,
  MulI,
  DivI, // xprimitive
  RemI, // xprimitive
  NegI,
  AndI,
  OrI,
  XorI,
  ShlI,
  ShrI,
  NotI,
  CmpLtI,
  CmpLeI,
  CmpGtI,
  CmpGeI,
  CmpEqI,
  CmpNeI,
  IntToDouble,
  IntToChar,
  // double
  AddD,
  SubD,
  MulD,
  DivD,
  NegD,
  CmpLtD,
  CmpLeD,
  CmpGtD,
  CmpGeD,
  CmpEqD,
  CmpNeD,
  DoubleToInt,
  // char
  CharToInt,
  // boolean
  NotB,
  CmpEqB,
  CmpNeB,
  // reference (Object plane)
  CmpEqR,
  CmpNeR,
  InstanceOf // AuxType = tested type.
};

const char *primOpName(PrimOp Op);
/// Number of value operands the primitive consumes.
unsigned primOpArity(PrimOp Op);
/// True when the op may raise and must be wrapped in xprimitive.
bool primOpMayRaise(PrimOp Op);

/// A literal preloaded into the entry block (the paper's constant pool).
struct ConstantValue {
  enum class Kind : uint8_t { Int, Double, Bool, Char, Null, String };
  Kind K = Kind::Int;
  int64_t IntVal = 0;
  double DblVal = 0.0;
  std::string StrVal; // String constants have MJ type char[].

  static ConstantValue makeInt(int64_t V) {
    ConstantValue C;
    C.K = Kind::Int;
    C.IntVal = V;
    return C;
  }
  static ConstantValue makeDouble(double V) {
    ConstantValue C;
    C.K = Kind::Double;
    C.DblVal = V;
    return C;
  }
  static ConstantValue makeBool(bool V) {
    ConstantValue C;
    C.K = Kind::Bool;
    C.IntVal = V;
    return C;
  }
  static ConstantValue makeChar(char V) {
    ConstantValue C;
    C.K = Kind::Char;
    C.IntVal = static_cast<unsigned char>(V);
    return C;
  }
  static ConstantValue makeNull() {
    ConstantValue C;
    C.K = Kind::Null;
    return C;
  }
  static ConstantValue makeString(std::string V) {
    ConstantValue C;
    C.K = Kind::String;
    C.StrVal = std::move(V);
    return C;
  }

  friend bool operator==(const ConstantValue &A, const ConstantValue &B) {
    if (A.K != B.K)
      return false;
    switch (A.K) {
    case Kind::Int:
    case Kind::Bool:
    case Kind::Char:
      return A.IntVal == B.IntVal;
    case Kind::Double:
      // Bit comparison: constants fold deterministically, and -0.0 != 0.0
      // as pool entries.
      return A.DblVal == B.DblVal &&
             std::signbit(A.DblVal) == std::signbit(B.DblVal);
    case Kind::Null:
      return true;
    case Kind::String:
      return A.StrVal == B.StrVal;
    }
    return false;
  }
};

/// One SafeTSA instruction; also the SSA value it produces (if any).
///
/// Operands hold direct Instruction pointers in memory; the (l, r)
/// dominator-relative encoding of the paper (§2) is computed during
/// externalization and regenerated during decoding, so referential
/// integrity is a property of the wire format while the in-memory form
/// stays convenient for optimization.
class Instruction {
public:
  Opcode Op = Opcode::Const;
  /// Primary type parameter; meaning depends on the opcode (constant type,
  /// primitive's owning type, checked type, class of field access, ...).
  Type *OpType = nullptr;
  /// Secondary type parameter: source type of casts, tested type of
  /// InstanceOf.
  Type *AuxType = nullptr;
  /// Source plane safety for Downcast (safe-ref -> ref erasure) and result
  /// safety for Downcast / Phi on safe-ref planes.
  bool SrcSafe = false;
  bool DstSafe = false;

  PrimOp Prim = PrimOp::AddI;       // Primitive / XPrimitive.
  /// Dense per-method number the producer optimizer assigns on entry to a
  /// method and uses to index its flat tables; meaningless elsewhere. It
  /// sits in the padding after Prim, so it costs no space.
  uint32_t Id = 0;
  ConstantValue C;                  // Const.
  unsigned ParamIndex = 0;          // Param.
  FieldSymbol *Field = nullptr;     // Get/SetField, Get/SetStatic.
  MethodSymbol *Method = nullptr;   // Call / Dispatch.

  /// Three inline slots cover every fixed-arity opcode (SetElt is the
  /// widest); only calls with several arguments spill to the heap.
  SmallVector<Instruction *, 3> Operands;

  BasicBlock *Parent = nullptr;
  /// Register number (r) on the result plane within the parent block;
  /// assigned by TSAMethod::finalize().
  unsigned PlaneIndex = 0;
  /// Interned id of the result plane in the owning method's interner
  /// (TSAMethod::Planes); PlaneInterner::None when the instruction
  /// produces no value. Assigned by TSAMethod::finalize().
  uint32_t PlaneId = ~0u;

  bool isPhi() const { return Op == Opcode::Phi; }
  bool isPreload() const {
    return Op == Opcode::Const || Op == Opcode::Param;
  }
  /// True when this instruction may raise a runtime exception.
  bool mayRaise() const;
  /// True when the instruction produces an SSA value.
  bool hasResult() const;
  /// True when the instruction writes memory or performs IO (and thus must
  /// not be removed by DCE even if unused).
  bool hasSideEffects() const;
};

} // namespace safetsa

#endif // SAFETSA_TSA_INSTRUCTION_H
