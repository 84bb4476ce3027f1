//===- opt/Optimizer.cpp --------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every pass is linear in the size of the method. On entry to a method
/// each instruction gets a dense id (Instruction::Id), and every table a
/// pass keeps is a flat vector indexed by that id or by BasicBlock::Id.
/// Replacing a value only records Old -> New in a forwarding table; a pass
/// reads the operands it inspects through that table, and one sweep at the
/// end of the pass rewrites all operands and CST references and drops the
/// dead instructions.
///
//===----------------------------------------------------------------------===//

#include "opt/Optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

using namespace safetsa;

namespace {

//===----------------------------------------------------------------------===//
// Constant propagation / folding
//===----------------------------------------------------------------------===//

bool foldPrim(PrimOp Op, const ConstantValue &A, const ConstantValue *B,
              ConstantValue &Out) {
  auto I32 = [](const ConstantValue &V) {
    return static_cast<int32_t>(V.IntVal);
  };
  switch (Op) {
  case PrimOp::AddI:
    Out = ConstantValue::makeInt(
        static_cast<int32_t>(int64_t(I32(A)) + I32(*B)));
    return true;
  case PrimOp::SubI:
    Out = ConstantValue::makeInt(
        static_cast<int32_t>(int64_t(I32(A)) - I32(*B)));
    return true;
  case PrimOp::MulI:
    Out = ConstantValue::makeInt(
        static_cast<int32_t>(int64_t(I32(A)) * I32(*B)));
    return true;
  case PrimOp::DivI:
    if (I32(*B) == 0)
      return false; // Preserve the runtime exception.
    if (I32(A) == INT32_MIN && I32(*B) == -1) {
      Out = ConstantValue::makeInt(I32(A));
      return true;
    }
    Out = ConstantValue::makeInt(I32(A) / I32(*B));
    return true;
  case PrimOp::RemI:
    if (I32(*B) == 0)
      return false;
    if (I32(A) == INT32_MIN && I32(*B) == -1) {
      Out = ConstantValue::makeInt(0);
      return true;
    }
    Out = ConstantValue::makeInt(I32(A) % I32(*B));
    return true;
  case PrimOp::NegI:
    Out = ConstantValue::makeInt(static_cast<int32_t>(-int64_t(I32(A))));
    return true;
  case PrimOp::AndI:
    Out = ConstantValue::makeInt(I32(A) & I32(*B));
    return true;
  case PrimOp::OrI:
    Out = ConstantValue::makeInt(I32(A) | I32(*B));
    return true;
  case PrimOp::XorI:
    Out = ConstantValue::makeInt(I32(A) ^ I32(*B));
    return true;
  case PrimOp::ShlI:
    Out = ConstantValue::makeInt(
        static_cast<int32_t>(int64_t(I32(A)) << (I32(*B) & 31)));
    return true;
  case PrimOp::ShrI:
    Out = ConstantValue::makeInt(I32(A) >> (I32(*B) & 31));
    return true;
  case PrimOp::NotI:
    Out = ConstantValue::makeInt(~I32(A));
    return true;
  case PrimOp::CmpLtI:
    Out = ConstantValue::makeBool(I32(A) < I32(*B));
    return true;
  case PrimOp::CmpLeI:
    Out = ConstantValue::makeBool(I32(A) <= I32(*B));
    return true;
  case PrimOp::CmpGtI:
    Out = ConstantValue::makeBool(I32(A) > I32(*B));
    return true;
  case PrimOp::CmpGeI:
    Out = ConstantValue::makeBool(I32(A) >= I32(*B));
    return true;
  case PrimOp::CmpEqI:
    Out = ConstantValue::makeBool(I32(A) == I32(*B));
    return true;
  case PrimOp::CmpNeI:
    Out = ConstantValue::makeBool(I32(A) != I32(*B));
    return true;
  case PrimOp::IntToDouble:
    Out = ConstantValue::makeDouble(static_cast<double>(I32(A)));
    return true;
  case PrimOp::IntToChar:
    Out = ConstantValue::makeChar(static_cast<char>(I32(A) & 0xff));
    return true;
  case PrimOp::AddD:
    Out = ConstantValue::makeDouble(A.DblVal + B->DblVal);
    return true;
  case PrimOp::SubD:
    Out = ConstantValue::makeDouble(A.DblVal - B->DblVal);
    return true;
  case PrimOp::MulD:
    Out = ConstantValue::makeDouble(A.DblVal * B->DblVal);
    return true;
  case PrimOp::DivD:
    Out = ConstantValue::makeDouble(A.DblVal / B->DblVal);
    return true;
  case PrimOp::NegD:
    Out = ConstantValue::makeDouble(-A.DblVal);
    return true;
  case PrimOp::CmpLtD:
    Out = ConstantValue::makeBool(A.DblVal < B->DblVal);
    return true;
  case PrimOp::CmpLeD:
    Out = ConstantValue::makeBool(A.DblVal <= B->DblVal);
    return true;
  case PrimOp::CmpGtD:
    Out = ConstantValue::makeBool(A.DblVal > B->DblVal);
    return true;
  case PrimOp::CmpGeD:
    Out = ConstantValue::makeBool(A.DblVal >= B->DblVal);
    return true;
  case PrimOp::CmpEqD:
    Out = ConstantValue::makeBool(A.DblVal == B->DblVal);
    return true;
  case PrimOp::CmpNeD:
    Out = ConstantValue::makeBool(A.DblVal != B->DblVal);
    return true;
  case PrimOp::DoubleToInt: {
    double D = A.DblVal;
    int32_t R;
    if (D != D)
      R = 0;
    else if (D >= 2147483647.0)
      R = INT32_MAX;
    else if (D <= -2147483648.0)
      R = INT32_MIN;
    else
      R = static_cast<int32_t>(D);
    Out = ConstantValue::makeInt(R);
    return true;
  }
  case PrimOp::CharToInt:
    Out = ConstantValue::makeInt(I32(A));
    return true;
  case PrimOp::NotB:
    Out = ConstantValue::makeBool(A.IntVal == 0);
    return true;
  case PrimOp::CmpEqB:
    Out = ConstantValue::makeBool((A.IntVal != 0) == (B->IntVal != 0));
    return true;
  case PrimOp::CmpNeB:
    Out = ConstantValue::makeBool((A.IntVal != 0) != (B->IntVal != 0));
    return true;
  default:
    return false; // Reference operations are not folded.
  }
}

//===----------------------------------------------------------------------===//
// Dominator-scoped CSE keys
//===----------------------------------------------------------------------===//

struct CSEKey {
  uint8_t Op = 0;
  uint8_t Prim = 0;
  uint8_t Flags = 0;
  const void *Sym = nullptr; // Type / field / nothing.
  const Instruction *A = nullptr;
  const Instruction *B = nullptr;
  uint64_t Mem = 0;

  friend bool operator==(const CSEKey &X, const CSEKey &Y) = default;

  uint64_t hash() const {
    uint64_t H = Op | uint64_t(Prim) << 8 | uint64_t(Flags) << 16;
    for (uint64_t V : {uint64_t(reinterpret_cast<uintptr_t>(Sym)),
                       uint64_t(reinterpret_cast<uintptr_t>(A)),
                       uint64_t(reinterpret_cast<uintptr_t>(B)), Mem}) {
      H = (H ^ V) * 0x9e3779b97f4a7c15ull;
      H ^= H >> 32;
    }
    return H;
  }
};

/// A map from CSEKey to instruction: the expressions available along the
/// current dominator-tree path, or the constant pool. Open addressing;
/// entries leave only in exact reverse order of insertion, which under
/// linear probing lets removal simply clear the slot, since only entries
/// inserted later can have probed past it, and those are already gone.
class ExprTable {
public:
  /// Empties the table, sized for at most \p MaxEntries live entries.
  void reset(size_t MaxEntries) {
    size_t Size = 16;
    while (Size < 2 * MaxEntries)
      Size *= 2;
    Slots.assign(Size, Empty);
    Entries.clear();
  }

  /// The instruction available for \p Key, or null; then \p Slot is where
  /// insert() must place the key.
  Instruction *find(const CSEKey &Key, size_t &Slot) const {
    size_t Mask = Slots.size() - 1;
    for (Slot = Key.hash() & Mask; Slots[Slot] != Empty;
         Slot = (Slot + 1) & Mask)
      if (Entries[Slots[Slot]].Key == Key)
        return Entries[Slots[Slot]].Value;
    return nullptr;
  }

  void insert(size_t Slot, const CSEKey &Key, Instruction *Value) {
    Slots[Slot] = static_cast<uint32_t>(Entries.size());
    Entries.push_back({Key, Value, Slot});
  }

  size_t size() const { return Entries.size(); }

  /// Removes the entries inserted after size() was \p Size.
  void popTo(size_t Size) {
    for (; Entries.size() > Size; Entries.pop_back())
      Slots[Entries.back().Slot] = Empty;
  }

private:
  static constexpr uint32_t Empty = ~0u;
  struct Entry {
    CSEKey Key;
    Instruction *Value;
    size_t Slot;
  };
  std::vector<uint32_t> Slots; ///< Index into Entries, or Empty.
  std::vector<Entry> Entries;  ///< In insertion order.
};

/// Memory partition keys when field-sensitive: a FieldSymbol, or this
/// marker for "all array elements".
const void *arraysKey() {
  static const char Marker = 0;
  return &Marker;
}

//===----------------------------------------------------------------------===//
// The optimizer
//===----------------------------------------------------------------------===//

/// Runs the passes over the methods of one module. The tables are
/// members so that their storage is reused from method to method.
class Optimizer {
public:
  Optimizer(PlaneContext &Ctx, const OptOptions &Options)
      : Ctx(Ctx), Options(Options) {}

  OptStats run(TSAMethod &Method) {
    M = &Method;
    Stats = OptStats();
    // CSE and the fold/DCE bookkeeping rely on fresh dominator info. The
    // passes change no block or CST edge, so it stays valid throughout.
    M->deriveCFG();
    uint32_t N = 0;
    for (BasicBlock *BB : M->Blocks)
      for (Instruction *I : BB->Insts)
        I->Id = N++;
    Fwd.assign(N, nullptr);
    Dead.assign(N, 0);
    Replaced = false;
    InTry.assign(M->Blocks.size(), 0);
    markTryBodies(M->Root, false);

    if (Options.ConstantPropagation)
      runConstantPropagation();
    if (Options.DCE) {
      // Collapse the construction's superfluous phis first: values hidden
      // behind trivial phis would otherwise defeat CSE's value matching.
      runDCE();
    }
    if (Options.CSE)
      runCSE();
    if (Options.CheckTransport)
      runCheckTransport();
    if (Options.DCE)
      runDCE();
    M->finalize(Ctx);
    return Stats;
  }

private:
  //===--------------------------------------------------------------------===//
  // Ids, forwarding and the end-of-pass sweep
  //===--------------------------------------------------------------------===//

  /// Creates a detached instruction with the next free id.
  Instruction *newInst(Opcode Op) {
    Instruction *I = M->createInst(Op);
    I->Id = static_cast<uint32_t>(Fwd.size());
    Fwd.push_back(nullptr);
    Dead.push_back(0);
    return I;
  }

  /// The value \p I stands for after this pass's replacements.
  Instruction *resolve(Instruction *I) const {
    while (Instruction *Next = Fwd[I->Id])
      I = Next;
    return I;
  }

  /// Replaces every use of \p Old with \p New (applied by finishPass) and
  /// removes \p Old.
  void replace(Instruction *Old, Instruction *New) {
    Fwd[Old->Id] = New;
    Dead[Old->Id] = 1;
    Replaced = true;
  }

  /// Ends a pass: drops its dead instructions and applies its
  /// replacements to every operand and CST reference, in one walk.
  void finishPass() {
    if (Replaced)
      sweep([&](const Instruction *I) { return !Dead[I->Id]; });
  }

  /// Unlinks every instruction \p Keep rejects (the arena reclaims it with
  /// the method) and resolves the operands of the rest and the CST
  /// references.
  template <typename KeepFn> void sweep(KeepFn Keep) {
    for (BasicBlock *BB : M->Blocks) {
      auto Out = BB->Insts.begin();
      for (Instruction *I : BB->Insts) {
        if (!Keep(I))
          continue;
        if (Replaced)
          for (Instruction *&Op : I->Operands)
            Op = resolve(Op);
        *Out++ = I;
      }
      BB->Insts.erase(Out, BB->Insts.end());
    }
    if (Replaced)
      resolveCST(M->Root);
    Replaced = false;
  }

  void resolveCST(const CSTSeq &Seq) {
    for (CSTNode *Node : Seq) {
      if (Node->Cond)
        Node->Cond = resolve(Node->Cond);
      if (Node->RetVal)
        Node->RetVal = resolve(Node->RetVal);
      resolveCST(Node->Then);
      resolveCST(Node->Else);
      resolveCST(Node->Header);
      resolveCST(Node->Body);
    }
  }

  /// Blocks inside a try body: removing a raising instruction there would
  /// delete its exception edge and desynchronize the handler's phis, so
  /// the passes leave such instructions in place (their *uses* may still
  /// be replaced). Handlers and code outside try regions are unrestricted.
  void markTryBodies(const CSTSeq &Seq, bool Inside) {
    for (CSTNode *Node : Seq) {
      switch (Node->K) {
      case CSTNode::Kind::Basic:
        if (Inside)
          InTry[Node->BB->Id] = 1;
        break;
      case CSTNode::Kind::Try:
        markTryBodies(Node->Then, true);
        markTryBodies(Node->Else, Inside);
        break;
      default:
        markTryBodies(Node->Then, Inside);
        markTryBodies(Node->Else, Inside);
        markTryBodies(Node->Header, Inside);
        markTryBodies(Node->Body, Inside);
        break;
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Constant propagation / folding
  //===--------------------------------------------------------------------===//

  /// The pool key of constant \p C of type \p Ty; false for values that
  /// folding never produces (strings, null) or that equal nothing (NaN:
  /// pool constants compare doubles with ==). For a non-NaN double, equal
  /// bits is exactly the pool's test of == plus equal sign bits.
  static bool constKey(const ConstantValue &C, Type *Ty, CSEKey &Key) {
    Key.Op = static_cast<uint8_t>(Opcode::Const);
    Key.Prim = static_cast<uint8_t>(C.K);
    Key.Sym = Ty;
    switch (C.K) {
    case ConstantValue::Kind::Int:
    case ConstantValue::Kind::Bool:
    case ConstantValue::Kind::Char:
      Key.Mem = static_cast<uint64_t>(C.IntVal);
      return true;
    case ConstantValue::Kind::Double:
      if (std::isnan(C.DblVal))
        return false;
      std::memcpy(&Key.Mem, &C.DblVal, sizeof(double));
      return true;
    default:
      return false;
    }
  }

  /// The first entry-block constant equal to \p C, or a new one appended
  /// there.
  Instruction *findOrCreateConst(const ConstantValue &C, Type *Ty) {
    BasicBlock *Entry = M->getEntry();
    size_t Slot = 0;
    if (!ConstPoolReady) {
      // Each fold adds at most one constant to the pool.
      ConstPool.reset(Entry->Insts.size() + Candidates.size());
      for (Instruction *I : Entry->Insts) {
        CSEKey PoolKey;
        if (I->Op == Opcode::Const && constKey(I->C, I->OpType, PoolKey) &&
            !ConstPool.find(PoolKey, Slot))
          ConstPool.insert(Slot, PoolKey, I);
      }
      ConstPoolReady = true;
    }
    CSEKey Key;
    bool Keyed = constKey(C, Ty, Key);
    if (Keyed)
      if (Instruction *I = ConstPool.find(Key, Slot))
        return I;
    Instruction *I = newInst(Opcode::Const);
    I->C = C;
    I->OpType = Ty;
    if (Keyed)
      ConstPool.insert(Slot, Key, I);
    return Entry->append(I);
  }

  void runConstantPropagation() {
    // Sweeps visit the foldable primitives in block order until one folds
    // nothing.
    Candidates.clear();
    for (BasicBlock *BB : M->Blocks)
      for (Instruction *I : BB->Insts)
        if ((I->Op == Opcode::Primitive || I->Op == Opcode::XPrimitive) &&
            !I->Operands.empty() &&
            !(I->mayRaise() && InTry[BB->Id])) // Keep exception edges.
          Candidates.push_back(I);
    ConstPoolReady = false; // Built on the first fold.
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (Instruction *I : Candidates) {
        if (Dead[I->Id])
          continue;
        bool AllConst = true;
        for (Instruction *&Op : I->Operands) {
          Op = resolve(Op);
          if (Op->Op != Opcode::Const)
            AllConst = false;
        }
        if (!AllConst)
          continue;
        ConstantValue Out;
        const ConstantValue *B =
            I->Operands.size() > 1 ? &I->Operands[1]->C : nullptr;
        if (!foldPrim(I->Prim, I->Operands[0]->C, B, Out))
          continue;
        replace(I, findOrCreateConst(Out, primOpResultType(I->Prim, Ctx)));
        ++Stats.FoldedConstants;
        Changed = true;
      }
    }
    finishPass();
  }

  //===--------------------------------------------------------------------===//
  // DCE (liveness-based, Briggs-style phi pruning)
  //===--------------------------------------------------------------------===//

  void runDCE() {
    // Phase 1: collapse trivial phis (all operands the same value, possibly
    // including the phi itself) to fixpoint. Phis form a prefix of each
    // block (a verifier rule).
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (BasicBlock *BB : M->Blocks) {
        for (Instruction *I : BB->Insts) {
          if (!I->isPhi())
            break;
          if (Dead[I->Id])
            continue;
          Instruction *Unique = nullptr;
          bool Trivial = true;
          for (Instruction *&Op : I->Operands) {
            Op = resolve(Op);
            if (Op == I)
              continue;
            if (Unique && Op != Unique) {
              Trivial = false;
              break;
            }
            Unique = Op;
          }
          if (!Trivial || !Unique)
            continue;
          replace(I, Unique);
          ++Stats.DCERemoved;
          ++Stats.DCERemovedPhis;
          Changed = true;
        }
      }
    }

    // Phase 2: mark from roots (side effects, potential exceptions, CST
    // references), then sweep everything unmarked — this removes the
    // superfluous phis the single-pass construction inserts (paper §7:
    // "dead code elimination … leading to a reduction of 31% on average in
    // the number of phi instructions") plus unused pure values.
    Live.assign(Fwd.size(), 0);
    for (BasicBlock *BB : M->Blocks)
      for (Instruction *I : BB->Insts)
        if (!Dead[I->Id] && (I->hasSideEffects() || I->mayRaise()))
          markLive(I);
    markCSTLive(M->Root);
    while (!Worklist.empty()) {
      Instruction *I = Worklist.back();
      Worklist.pop_back();
      for (Instruction *Op : I->Operands)
        markLive(resolve(Op));
    }

    sweep([&](const Instruction *I) {
      if (Live[I->Id])
        return true;
      if (!Dead[I->Id]) {
        ++Stats.DCERemoved;
        if (I->isPhi())
          ++Stats.DCERemovedPhis;
      }
      return false;
    });
  }

  void markLive(Instruction *I) {
    if (!Live[I->Id]) {
      Live[I->Id] = 1;
      Worklist.push_back(I);
    }
  }

  void markCSTLive(const CSTSeq &Seq) {
    for (CSTNode *Node : Seq) {
      if (Node->Cond)
        markLive(resolve(Node->Cond));
      if (Node->RetVal)
        markLive(resolve(Node->RetVal));
      markCSTLive(Node->Then);
      markCSTLive(Node->Else);
      markCSTLive(Node->Header);
      markCSTLive(Node->Body);
    }
  }

  //===--------------------------------------------------------------------===//
  // Memory-state analysis (the paper's Mem variable)
  //===--------------------------------------------------------------------===//

  /// Assigns each load a memory-state id (LoadStates, by instruction id)
  /// such that two loads with equal (key, id) observe the same memory.
  /// Joins and unprocessed predecessors (loop back edges) conservatively
  /// start a fresh state, mirroring the paper's "if the current value of
  /// Mem is different on two incoming edges … a phi node must be inserted"
  /// without materializing Mem phis.
  ///
  /// A state is an epoch plus one version counter per memory partition:
  /// a single partition, or, when field-sensitive, one per field the
  /// method stores to plus one for all array elements. A load of a field
  /// the method never stores always sees version 0. Block exit states are
  /// kept in one flat blocks x partitions table.
  void computeLoadStates() {
    const bool FieldSensitive = Options.FieldSensitiveMem;
    auto KeyOf = [](const Instruction *I) -> const void * {
      if (I->Op == Opcode::GetElt || I->Op == Opcode::SetElt)
        return arraysKey();
      return I->Field;
    };
    MemKeys.clear();
    if (FieldSensitive) {
      M->forEachInstruction([&](const Instruction &I) {
        if (I.Op == Opcode::SetField || I.Op == Opcode::SetStatic ||
            I.Op == Opcode::SetElt)
          MemKeys.push_back(KeyOf(&I));
      });
      std::sort(MemKeys.begin(), MemKeys.end(), std::less<>());
      MemKeys.erase(std::unique(MemKeys.begin(), MemKeys.end()),
                    MemKeys.end());
    } else {
      MemKeys.push_back(nullptr); // One partition for all of memory.
    }
    const size_t NumKeys = MemKeys.size();
    static constexpr size_t NoKey = ~size_t(0);
    auto Partition = [&](const Instruction *I) {
      if (!FieldSensitive)
        return size_t(0);
      const void *Key = KeyOf(I);
      auto It = std::lower_bound(MemKeys.begin(), MemKeys.end(), Key,
                                 std::less<>());
      return It != MemKeys.end() && *It == Key
                 ? static_cast<size_t>(It - MemKeys.begin())
                 : NoKey;
    };

    const size_t NumBlocks = M->Blocks.size();
    BlockEpoch.assign(NumBlocks, 0); // 0: block not processed yet.
    BlockVersions.assign(NumBlocks * NumKeys, 0);
    Versions.assign(NumKeys, 0);
    LoadStates.assign(Fwd.size(), 0);
    uint64_t NextEpoch = 1;
    uint64_t Epoch = 0;

    for (BasicBlock *BB : M->Blocks) {
      bool AllSame = !BB->Preds.empty();
      for (size_t K = 0; K < BB->Preds.size(); ++K) {
        unsigned P = BB->Preds[K]->Id;
        if (!BlockEpoch[P]) {
          AllSame = false;
          break;
        }
        const uint64_t *PV = BlockVersions.data() + P * NumKeys;
        if (K == 0) {
          Epoch = BlockEpoch[P];
          std::copy(PV, PV + NumKeys, Versions.begin());
        } else if (BlockEpoch[P] != Epoch ||
                   !std::equal(PV, PV + NumKeys, Versions.begin())) {
          AllSame = false;
        }
      }
      if (!AllSame) {
        Epoch = NextEpoch++;
        std::fill(Versions.begin(), Versions.end(), 0);
      }

      for (Instruction *I : BB->Insts) {
        switch (I->Op) {
        case Opcode::GetField:
        case Opcode::GetStatic:
        case Opcode::GetElt: {
          size_t Key = Partition(I);
          uint64_t Version = Key == NoKey ? 0 : Versions[Key];
          LoadStates[I->Id] = (Epoch << 20) | Version;
          break;
        }
        case Opcode::SetField:
        case Opcode::SetStatic:
        case Opcode::SetElt:
          ++Versions[Partition(I)];
          break;
        case Opcode::Call:
        case Opcode::Dispatch:
          // No interprocedural information: calls clobber all memory
          // ("each function call return[s] an updated value of Mem").
          Epoch = NextEpoch++;
          std::fill(Versions.begin(), Versions.end(), 0);
          break;
        default:
          break;
        }
      }
      BlockEpoch[BB->Id] = Epoch;
      std::copy(Versions.begin(), Versions.end(),
                BlockVersions.begin() + BB->Id * NumKeys);
    }
  }

  //===--------------------------------------------------------------------===//
  // Dominator-scoped CSE
  //===--------------------------------------------------------------------===//

  void runCSE() {
    if (M->Blocks.empty())
      return;
    computeLoadStates();
    // Dominator-tree children, each list in block order.
    const size_t NumBlocks = M->Blocks.size();
    FirstChild.assign(NumBlocks, NoBlock);
    NextSibling.assign(NumBlocks, NoBlock);
    for (size_t B = NumBlocks; B-- > 0;)
      if (BasicBlock *IDom = M->Blocks[B]->IDom) {
        NextSibling[B] = FirstChild[IDom->Id];
        FirstChild[IDom->Id] = static_cast<uint32_t>(B);
      }
    Available.reset(Fwd.size());
    cseBlock(M->getEntry());
    finishPass();
  }

  /// Builds the value-number key for \p I; returns false for instructions
  /// that must not be unified (stores, calls, allocations, phis, preloads
  /// — the constant pool already unifies Consts).
  bool keyFor(const Instruction &I, CSEKey &Key) const {
    Key.Op = static_cast<uint8_t>(I.Op);
    switch (I.Op) {
    case Opcode::Primitive:
    case Opcode::XPrimitive:
      // Integer divide / remainder raise on identical operands
      // identically, so unifying them is sound.
      Key.Prim = static_cast<uint8_t>(I.Prim);
      Key.Sym = I.AuxType; // InstanceOf target.
      Key.A = resolve(I.Operands[0]);
      Key.B = I.Operands.size() > 1 ? resolve(I.Operands[1]) : nullptr;
      return true;
    case Opcode::NullCheck:
      // Null-ness of an SSA value never changes: a dominating check
      // certifies all later uses (Figure 6's null-check column).
      Key.Sym = I.OpType;
      Key.A = resolve(I.Operands[0]);
      return true;
    case Opcode::IndexCheck:
      // Arrays cannot be resized, so (array value, index value) is enough
      // (Appendix A; Figure 6's array-check column).
      Key.Sym = I.OpType;
      Key.A = resolve(I.Operands[0]);
      Key.B = resolve(I.Operands[1]);
      return true;
    case Opcode::Upcast:
    case Opcode::Downcast:
      Key.Sym = I.OpType;
      Key.Flags = static_cast<uint8_t>((I.SrcSafe ? 1 : 0) |
                                       (I.DstSafe ? 2 : 0));
      Key.A = resolve(I.Operands[0]);
      Key.B = reinterpret_cast<const Instruction *>(I.AuxType);
      return true;
    case Opcode::ArrayLength:
      // Array lengths are immutable; no Mem component needed.
      Key.A = resolve(I.Operands[0]);
      return true;
    case Opcode::GetField:
      Key.Sym = I.Field;
      Key.A = resolve(I.Operands[0]);
      Key.Mem = LoadStates[I.Id];
      return true;
    case Opcode::GetStatic:
      Key.Sym = I.Field;
      Key.Mem = LoadStates[I.Id];
      return true;
    case Opcode::GetElt:
      Key.A = resolve(I.Operands[0]);
      Key.B = resolve(I.Operands[1]);
      Key.Mem = LoadStates[I.Id];
      return true;
    default:
      return false;
    }
  }

  void cseBlock(BasicBlock *BB) {
    size_t Scope = Available.size();
    for (Instruction *I : BB->Insts) {
      CSEKey Key;
      if (!keyFor(*I, Key))
        continue;
      size_t Slot;
      Instruction *Prev = Available.find(Key, Slot);
      // Raising instructions inside try bodies anchor exception edges and
      // stay; they may still *provide* a value for later instructions.
      bool PinnedRaiser = I->mayRaise() && InTry[BB->Id];
      if (Prev && !PinnedRaiser) {
        replace(I, Prev);
        ++Stats.CSERemoved;
        if (I->Op == Opcode::NullCheck)
          ++Stats.CSERemovedNullChecks;
        if (I->Op == Opcode::IndexCheck)
          ++Stats.CSERemovedIndexChecks;
        continue;
      }
      if (!Prev)
        Available.insert(Slot, Key, I);
    }
    for (uint32_t C = FirstChild[BB->Id]; C != NoBlock; C = NextSibling[C])
      cseBlock(M->Blocks[C]);
    Available.popTo(Scope);
  }

  //===--------------------------------------------------------------------===//
  // Check transport across phi-joins (paper §4)
  //===--------------------------------------------------------------------===//

  /// The nullchecks of \p V in block order (as of the start of the pass).
  std::span<Instruction *const> checksOf(const Instruction *V) const {
    if (V->Id + 1 >= CheckStart.size())
      return {};
    return {ByValue.data() + CheckStart[V->Id],
            ByValue.data() + CheckStart[V->Id + 1]};
  }

  static bool isRefPhi(const Instruction *P) {
    return !P->DstSafe && P->OpType &&
           (P->OpType->isClass() || P->OpType->isArray());
  }

  /// For a reference phi whose every incoming value carries an available
  /// nullcheck certificate, materializes a phi ON THE SAFE-REF PLANE of the
  /// certificates and replaces dominated rechecks of the merged value. This
  /// is the mechanism the paper §4 highlights: "it enables the transport of
  /// null-checked and index-checked values across phi-joins" — check
  /// removal that plain dominance-scoped CSE cannot see. Loop-carried
  /// certificates work too: when a phi operand is the phi itself, the safe
  /// phi references itself along the back edge.
  void runCheckTransport() {
    // Phis form a prefix of each block (a verifier rule).
    bool AnyRefPhi = false;
    for (BasicBlock *BB : M->Blocks)
      for (Instruction *I : BB->Insts) {
        if (!I->isPhi())
          break;
        AnyRefPhi |= isRefPhi(I);
      }
    if (!AnyRefPhi)
      return;

    // All nullchecks, grouped by checked value (counting sort by id).
    const size_t N = Fwd.size();
    CheckStart.assign(N + 1, 0);
    Checks.clear();
    for (BasicBlock *BB : M->Blocks)
      for (Instruction *I : BB->Insts)
        if (I->Op == Opcode::NullCheck) {
          ++CheckStart[I->Operands[0]->Id + 1];
          Checks.push_back(I);
        }
    for (size_t V = 0; V != N; ++V)
      CheckStart[V + 1] += CheckStart[V];
    CheckFill.assign(CheckStart.begin(), CheckStart.end() - 1);
    ByValue.resize(Checks.size());
    for (Instruction *I : Checks)
      ByValue[CheckFill[I->Operands[0]->Id]++] = I;

    for (BasicBlock *BB : M->Blocks) {
      SafePhis.clear();
      for (size_t PI = 0; PI != BB->Insts.size(); ++PI) {
        Instruction *P = BB->Insts[PI];
        if (!P->isPhi())
          break;
        if (!isRefPhi(P))
          continue;

        // Rechecks of the merged value that the safe phi would replace
        // (skipping pinned in-try checks, whose edges must stay).
        Rechecks.clear();
        for (Instruction *D : checksOf(P))
          if (!Dead[D->Id] && D->OpType == P->OpType &&
              BasicBlock::dominates(BB, D->Parent) && !InTry[D->Parent->Id])
            Rechecks.push_back(D);
        if (Rechecks.empty())
          continue;

        // A certificate for each incoming value, available at the end of
        // the corresponding predecessor.
        Certs.assign(P->Operands.size(), nullptr);
        bool AllCovered = true;
        for (size_t K = 0; K != P->Operands.size() && AllCovered; ++K) {
          Instruction *V = resolve(P->Operands[K]);
          if (V == P)
            continue; // Back edge: the safe phi certifies itself.
          BasicBlock *Pred = BB->Preds[K];
          for (Instruction *C : checksOf(V)) {
            if (!Dead[C->Id] && C->OpType == P->OpType &&
                BasicBlock::dominates(C->Parent, Pred)) {
              Certs[K] = C;
              break;
            }
          }
          if (!Certs[K])
            AllCovered = false;
        }
        if (!AllCovered)
          continue;

        Instruction *Safe = newInst(Opcode::Phi);
        Safe->OpType = P->OpType;
        Safe->DstSafe = true;
        for (size_t K = 0; K != P->Operands.size(); ++K)
          Safe->Operands.push_back(resolve(P->Operands[K]) == P ? Safe
                                                                : Certs[K]);
        Safe->Parent = BB;
        SafePhis.push_back({PI, Safe});
        for (Instruction *D : Rechecks)
          replace(D, Safe);
        Stats.TransportedChecks += static_cast<unsigned>(Rechecks.size());
      }
      if (!SafePhis.empty()) {
        // Each safe phi goes right after its phi, so the phi prefix stays
        // contiguous.
        Merged.clear();
        auto Next = SafePhis.begin();
        for (size_t K = 0; K != BB->Insts.size(); ++K) {
          Merged.push_back(BB->Insts[K]);
          if (Next != SafePhis.end() && Next->first == K)
            Merged.push_back((Next++)->second);
        }
        BB->Insts.assign(Merged.begin(), Merged.end());
      }
    }
    finishPass();
  }

  static constexpr uint32_t NoBlock = ~0u;

  PlaneContext &Ctx;
  const OptOptions &Options;
  TSAMethod *M = nullptr;
  OptStats Stats;

  // Per instruction id.
  std::vector<Instruction *> Fwd; ///< Replacement, or null.
  std::vector<uint8_t> Dead;      ///< Removed; unlinked by the sweep.
  bool Replaced = false;          ///< The current pass called replace().
  std::vector<uint8_t> Live;      ///< DCE mark bits.
  std::vector<uint64_t> LoadStates; ///< Memory-state id of each load.
  std::vector<uint32_t> CheckStart; ///< Offsets of each value's checks.
  std::vector<uint32_t> CheckFill;

  // Per block id.
  std::vector<uint8_t> InTry;
  std::vector<uint32_t> FirstChild, NextSibling; ///< Dominator tree.
  std::vector<uint64_t> BlockEpoch; ///< Exit memory epoch; 0 = pending.
  std::vector<uint64_t> BlockVersions; ///< Exit versions, blocks x keys.

  // Scratch.
  std::vector<Instruction *> Worklist;
  std::vector<const void *> MemKeys;
  std::vector<uint64_t> Versions;
  ExprTable Available;
  ExprTable ConstPool;
  bool ConstPoolReady = false;
  std::vector<Instruction *> Candidates;
  std::vector<Instruction *> Checks, ByValue;
  std::vector<Instruction *> Rechecks, Certs, Merged;
  std::vector<std::pair<size_t, Instruction *>> SafePhis;
};

} // namespace

OptStats safetsa::optimizeModule(TSAModule &Module,
                                 const OptOptions &Options) {
  OptStats Stats;
  PlaneContext Ctx{*Module.Types, *Module.Table};
  Optimizer Opt(Ctx, Options);
  for (auto &M : Module.Methods)
    Stats += Opt.run(*M);
  return Stats;
}
