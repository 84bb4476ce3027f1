//===- ssagen/TSAGen.cpp - AST to SafeTSA ---------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ssagen/TSAGen.h"

#include <algorithm>
#include <functional>
#include <set>

using namespace safetsa;

//===----------------------------------------------------------------------===//
// Constant folding (static field initializers)
//===----------------------------------------------------------------------===//

ConstantValue safetsa::foldConstantExpr(const Expr &E) {
  switch (E.Kind) {
  case ExprKind::IntLiteral:
    return ConstantValue::makeInt(
        static_cast<const IntLiteralExpr &>(E).Value);
  case ExprKind::DoubleLiteral:
    return ConstantValue::makeDouble(
        static_cast<const DoubleLiteralExpr &>(E).Value);
  case ExprKind::BoolLiteral:
    return ConstantValue::makeBool(
        static_cast<const BoolLiteralExpr &>(E).Value);
  case ExprKind::CharLiteral:
    return ConstantValue::makeChar(
        static_cast<const CharLiteralExpr &>(E).Value);
  case ExprKind::NullLiteral:
    return ConstantValue::makeNull();
  case ExprKind::StringLiteral:
    return ConstantValue::makeString(
        static_cast<const StringLiteralExpr &>(E).Value);
  case ExprKind::Unary: {
    const auto &U = static_cast<const UnaryExpr &>(E);
    ConstantValue V = foldConstantExpr(*U.Operand);
    switch (U.Op) {
    case UnaryOp::Neg:
      if (V.K == ConstantValue::Kind::Double)
        return ConstantValue::makeDouble(-V.DblVal);
      return ConstantValue::makeInt(
          -static_cast<int32_t>(V.IntVal));
    case UnaryOp::Not:
      return ConstantValue::makeBool(!V.IntVal);
    case UnaryOp::BitNot:
      return ConstantValue::makeInt(~static_cast<int32_t>(V.IntVal));
    default:
      break;
    }
    return V;
  }
  case ExprKind::Binary: {
    const auto &B = static_cast<const BinaryExpr &>(E);
    ConstantValue L = foldConstantExpr(*B.Lhs);
    ConstantValue R = foldConstantExpr(*B.Rhs);
    bool IsDouble = E.Ty && E.Ty->isDouble();
    if (IsDouble) {
      double X = L.K == ConstantValue::Kind::Double
                     ? L.DblVal
                     : static_cast<double>(L.IntVal);
      double Y = R.K == ConstantValue::Kind::Double
                     ? R.DblVal
                     : static_cast<double>(R.IntVal);
      switch (B.Op) {
      case BinaryOp::Add:
        return ConstantValue::makeDouble(X + Y);
      case BinaryOp::Sub:
        return ConstantValue::makeDouble(X - Y);
      case BinaryOp::Mul:
        return ConstantValue::makeDouble(X * Y);
      case BinaryOp::Div:
        return ConstantValue::makeDouble(X / Y);
      default:
        break;
      }
      return ConstantValue::makeDouble(X);
    }
    int32_t X = static_cast<int32_t>(L.IntVal);
    int32_t Y = static_cast<int32_t>(R.IntVal);
    switch (B.Op) {
    case BinaryOp::Add:
      return ConstantValue::makeInt(X + Y);
    case BinaryOp::Sub:
      return ConstantValue::makeInt(X - Y);
    case BinaryOp::Mul:
      return ConstantValue::makeInt(X * Y);
    case BinaryOp::Div:
      return ConstantValue::makeInt(Y ? X / Y : 0);
    case BinaryOp::Rem:
      return ConstantValue::makeInt(Y ? X % Y : 0);
    case BinaryOp::BitAnd:
      return ConstantValue::makeInt(X & Y);
    case BinaryOp::BitOr:
      return ConstantValue::makeInt(X | Y);
    case BinaryOp::BitXor:
      return ConstantValue::makeInt(X ^ Y);
    case BinaryOp::Shl:
      return ConstantValue::makeInt(X << (Y & 31));
    case BinaryOp::Shr:
      return ConstantValue::makeInt(X >> (Y & 31));
    default:
      break;
    }
    return ConstantValue::makeInt(X);
  }
  case ExprKind::Cast:
    return foldConstantExpr(*static_cast<const CastExpr &>(E).Operand);
  default:
    assert(false && "not a constant expression");
    return ConstantValue::makeInt(0);
  }
}

//===----------------------------------------------------------------------===//
// Assigned-variable prescan (loop phi placement)
//===----------------------------------------------------------------------===//

namespace {

void collectAssignedExpr(const Expr &E, std::set<unsigned> &Out);

void collectAssignedStmt(const Stmt &S, std::set<unsigned> &Out) {
  switch (S.Kind) {
  case StmtKind::Block:
    for (const StmtPtr &C : static_cast<const BlockStmt &>(S).Stmts)
      collectAssignedStmt(*C, Out);
    break;
  case StmtKind::VarDecl: {
    const auto &V = static_cast<const VarDeclStmt &>(S);
    if (V.Symbol)
      Out.insert(V.Symbol->Index);
    if (V.Init)
      collectAssignedExpr(*V.Init, Out);
    break;
  }
  case StmtKind::Expr:
    collectAssignedExpr(*static_cast<const ExprStmt &>(S).E, Out);
    break;
  case StmtKind::If: {
    const auto &I = static_cast<const IfStmt &>(S);
    collectAssignedExpr(*I.Cond, Out);
    collectAssignedStmt(*I.Then, Out);
    if (I.Else)
      collectAssignedStmt(*I.Else, Out);
    break;
  }
  case StmtKind::While: {
    const auto &W = static_cast<const WhileStmt &>(S);
    collectAssignedExpr(*W.Cond, Out);
    collectAssignedStmt(*W.Body, Out);
    break;
  }
  case StmtKind::DoWhile: {
    const auto &W = static_cast<const DoWhileStmt &>(S);
    collectAssignedExpr(*W.Cond, Out);
    collectAssignedStmt(*W.Body, Out);
    break;
  }
  case StmtKind::For: {
    const auto &F = static_cast<const ForStmt &>(S);
    if (F.Init)
      collectAssignedStmt(*F.Init, Out);
    if (F.Cond)
      collectAssignedExpr(*F.Cond, Out);
    if (F.Update)
      collectAssignedExpr(*F.Update, Out);
    collectAssignedStmt(*F.Body, Out);
    break;
  }
  case StmtKind::Return: {
    const auto &R = static_cast<const ReturnStmt &>(S);
    if (R.Value)
      collectAssignedExpr(*R.Value, Out);
    break;
  }
  case StmtKind::Try: {
    const auto &T = static_cast<const TryStmt &>(S);
    collectAssignedStmt(*T.Body, Out);
    collectAssignedStmt(*T.Handler, Out);
    break;
  }
  default:
    break;
  }
}

/// Conservative syntactic test: could generating \p E emit an instruction
/// that may raise (calls, allocations, checks, integer division, checked
/// casts)?
bool exprMayRaise(const Expr &E) {
  switch (E.Kind) {
  case ExprKind::Call:
  case ExprKind::NewObject:
  case ExprKind::NewArray:
  case ExprKind::Index:
    return true;
  case ExprKind::FieldAccess: {
    const auto &F = static_cast<const FieldAccessExpr &>(E);
    if (F.ResolvedField && F.ResolvedField->IsStatic)
      return exprMayRaise(*F.Base);
    return true; // Instance field or array length: nullcheck.
  }
  case ExprKind::Name: {
    const auto &N = static_cast<const NameExpr &>(E);
    return N.Resolution == NameResolution::FieldOfThis; // nullcheck(this)
  }
  case ExprKind::Unary: {
    const auto &U = static_cast<const UnaryExpr &>(E);
    return exprMayRaise(*U.Operand);
  }
  case ExprKind::Binary: {
    const auto &B = static_cast<const BinaryExpr &>(E);
    if ((B.Op == BinaryOp::Div || B.Op == BinaryOp::Rem) &&
        !B.Lhs->Ty->isDouble())
      return true;
    return exprMayRaise(*B.Lhs) || exprMayRaise(*B.Rhs);
  }
  case ExprKind::Assign: {
    const auto &A = static_cast<const AssignExpr &>(E);
    if ((A.Op == AssignExpr::OpKind::Div ||
         A.Op == AssignExpr::OpKind::Rem) &&
        !A.Target->Ty->isDouble())
      return true;
    return exprMayRaise(*A.Target) || exprMayRaise(*A.Value);
  }
  case ExprKind::Cast: {
    const auto &C = static_cast<const CastExpr &>(E);
    return C.Lowering == CastLowering::RefNarrow ||
           exprMayRaise(*C.Operand);
  }
  case ExprKind::Instanceof:
    return exprMayRaise(
        *static_cast<const InstanceofExpr &>(E).Operand);
  default:
    return false;
  }
}

bool stmtMayRaise(const Stmt &S) {
  switch (S.Kind) {
  case StmtKind::Block:
    for (const StmtPtr &C : static_cast<const BlockStmt &>(S).Stmts)
      if (stmtMayRaise(*C))
        return true;
    return false;
  case StmtKind::VarDecl: {
    const auto &V = static_cast<const VarDeclStmt &>(S);
    return V.Init && exprMayRaise(*V.Init);
  }
  case StmtKind::Expr:
    return exprMayRaise(*static_cast<const ExprStmt &>(S).E);
  case StmtKind::If: {
    const auto &I = static_cast<const IfStmt &>(S);
    return exprMayRaise(*I.Cond) || stmtMayRaise(*I.Then) ||
           (I.Else && stmtMayRaise(*I.Else));
  }
  case StmtKind::While: {
    const auto &W = static_cast<const WhileStmt &>(S);
    return exprMayRaise(*W.Cond) || stmtMayRaise(*W.Body);
  }
  case StmtKind::DoWhile: {
    const auto &W = static_cast<const DoWhileStmt &>(S);
    return exprMayRaise(*W.Cond) || stmtMayRaise(*W.Body);
  }
  case StmtKind::For: {
    const auto &F = static_cast<const ForStmt &>(S);
    return (F.Init && stmtMayRaise(*F.Init)) ||
           (F.Cond && exprMayRaise(*F.Cond)) ||
           (F.Update && exprMayRaise(*F.Update)) || stmtMayRaise(*F.Body);
  }
  case StmtKind::Return: {
    const auto &R = static_cast<const ReturnStmt &>(S);
    return R.Value && exprMayRaise(*R.Value);
  }
  case StmtKind::Try:
    // Body exceptions are caught by the inner handler; only exceptions in
    // the handler itself escape to the enclosing context.
    return stmtMayRaise(*static_cast<const TryStmt &>(S).Handler);
  default:
    return false;
  }
}

void collectAssignedExpr(const Expr &E, std::set<unsigned> &Out) {
  switch (E.Kind) {
  case ExprKind::Assign: {
    const auto &A = static_cast<const AssignExpr &>(E);
    if (A.Target->Kind == ExprKind::Name) {
      const auto &N = static_cast<const NameExpr &>(*A.Target);
      if (N.Resolution == NameResolution::Local && N.ResolvedLocal)
        Out.insert(N.ResolvedLocal->Index);
    }
    collectAssignedExpr(*A.Target, Out);
    collectAssignedExpr(*A.Value, Out);
    break;
  }
  case ExprKind::Unary: {
    const auto &U = static_cast<const UnaryExpr &>(E);
    if (U.Op == UnaryOp::PreInc || U.Op == UnaryOp::PreDec ||
        U.Op == UnaryOp::PostInc || U.Op == UnaryOp::PostDec) {
      if (U.Operand->Kind == ExprKind::Name) {
        const auto &N = static_cast<const NameExpr &>(*U.Operand);
        if (N.Resolution == NameResolution::Local && N.ResolvedLocal)
          Out.insert(N.ResolvedLocal->Index);
      }
    }
    collectAssignedExpr(*U.Operand, Out);
    break;
  }
  case ExprKind::Binary: {
    const auto &B = static_cast<const BinaryExpr &>(E);
    collectAssignedExpr(*B.Lhs, Out);
    collectAssignedExpr(*B.Rhs, Out);
    break;
  }
  case ExprKind::FieldAccess:
    collectAssignedExpr(*static_cast<const FieldAccessExpr &>(E).Base, Out);
    break;
  case ExprKind::Index: {
    const auto &I = static_cast<const IndexExpr &>(E);
    collectAssignedExpr(*I.Base, Out);
    collectAssignedExpr(*I.Index, Out);
    break;
  }
  case ExprKind::Call: {
    const auto &C = static_cast<const CallExpr &>(E);
    if (C.Base)
      collectAssignedExpr(*C.Base, Out);
    for (const ExprPtr &A : C.Args)
      collectAssignedExpr(*A, Out);
    break;
  }
  case ExprKind::NewObject:
    for (const ExprPtr &A : static_cast<const NewObjectExpr &>(E).Args)
      collectAssignedExpr(*A, Out);
    break;
  case ExprKind::NewArray:
    collectAssignedExpr(*static_cast<const NewArrayExpr &>(E).Length, Out);
    break;
  case ExprKind::Cast:
    collectAssignedExpr(*static_cast<const CastExpr &>(E).Operand, Out);
    break;
  case ExprKind::Instanceof:
    collectAssignedExpr(*static_cast<const InstanceofExpr &>(E).Operand, Out);
    break;
  default:
    break;
  }
}

//===----------------------------------------------------------------------===//
// Per-method generator
//===----------------------------------------------------------------------===//

using VarMap = std::map<unsigned, Instruction *>;

struct LoopCtx {
  /// (local index, header phi) pairs, in local-index order.
  std::vector<std::pair<unsigned, Instruction *>> HeaderPhis;
  /// Reaching definitions at each break, in break order (== exit-block
  /// predecessor order after the decision block).
  std::vector<VarMap> BreakDefs;
  /// For-loop update expression: run before every back edge.
  const Expr *ForUpdate = nullptr;
  /// Do-while condition: test (and conditionally break) before continuing.
  const Expr *DoWhileCond = nullptr;
};

struct TryCtx {
  BasicBlock *CatchEntry = nullptr;
  /// (local index, catch-entry phi): one operand pushed per exception
  /// edge, mirroring the paper's "special exception-handling phi-node".
  std::vector<std::pair<unsigned, Instruction *>> CatchPhis;
  unsigned NumEdges = 0;
};

class MethodGen {
public:
  MethodGen(TypeContext &Types, ClassTable &Table, const MethodDecl &Decl,
            TSAModule &Module, const TSAGenOptions &Options)
      : Types(Types), Table(Table), Ctx{Types, Table}, Decl(Decl),
        Module(Module), Options(Options) {}

  std::unique_ptr<TSAMethod> run() {
    M = std::make_unique<TSAMethod>(Module.Arena);
    M->Symbol = Decl.Symbol;

    Entry = M->createBlock();
    M->Root.push_back(M->createBasicNode(Entry));

    // Preload `this` and the declared parameters (paper §5).
    bool IsInstance = !Decl.Symbol->IsStatic;
    if (IsInstance) {
      ThisVal = preloadParam(0, Types.getClass(Decl.Symbol->Owner));
      ThisType = Types.getClass(Decl.Symbol->Owner);
    }
    unsigned Shift = IsInstance ? 1 : 0;
    for (size_t I = 0; I != Decl.Params.size(); ++I) {
      Instruction *P = preloadParam(static_cast<unsigned>(I) + Shift,
                                    Decl.Symbol->ParamTys[I]);
      Defs[Decl.Params[I].Symbol->Index] = P;
    }

    CurSeq = &M->Root;
    Reach = true;
    startBlock();
    genStmts(Decl.Body->Stmts);

    if (Reach) {
      assert(Decl.Symbol->RetTy->isVoid() &&
             "sema guarantees non-void methods always return");
      CSTNode *Ret = M->createNode();
      Ret->K = CSTNode::Kind::Return;
      CurSeq->push_back(std::move(Ret));
    }
    return std::move(M);
  }

private:
  TypeContext &Types;
  ClassTable &Table;
  PlaneContext Ctx;
  const MethodDecl &Decl;
  TSAModule &Module;
  const TSAGenOptions &Options;

  std::unique_ptr<TSAMethod> M;
  BasicBlock *Entry = nullptr;
  CSTSeq *CurSeq = nullptr;
  BasicBlock *CurBlock = nullptr;
  bool Reach = true;

  Instruction *ThisVal = nullptr;
  Type *ThisType = nullptr;
  VarMap Defs;
  std::vector<LoopCtx *> Loops;
  std::vector<TryCtx *> Tries;
  /// The CST node of the current block (for RaisesToCatch flagging).
  CSTNode *CurBasicNode = nullptr;
  std::vector<std::pair<std::pair<ConstantValue, Type *>, Instruction *>>
      ConstPool;

  //===--------------------------------------------------------------------===//
  // Emission helpers
  //===--------------------------------------------------------------------===//

  Instruction *emit(Instruction *I) {
    assert(CurBlock && "no current block");
    Instruction *Raw = CurBlock->append(I);
    // The paper's exception translation (§7): inside a try region, every
    // potentially-raising instruction ends its subblock, the subblock is
    // flagged with an exception edge to the innermost handler, and the
    // handler's phis receive the reaching definitions at this point.
    if (Raw->mayRaise() && !Tries.empty()) {
      TryCtx &TC = *Tries.back();
      for (auto &[Idx, Phi] : TC.CatchPhis)
        Phi->Operands.push_back(Defs.at(Idx));
      ++TC.NumEdges;
      assert(CurBasicNode && CurBasicNode->BB == CurBlock &&
             "current CST node out of sync");
      CurBasicNode->RaisesToCatch = true;
      startBlock(); // Begin the next linked subblock.
    }
    return Raw;
  }

  Instruction *make(Opcode Op) { return M->createInst(Op); }

  Instruction *preloadParam(unsigned Index, Type *Ty) {
    auto I = make(Opcode::Param);
    I->ParamIndex = Index;
    I->OpType = Ty;
    return Entry->append(std::move(I));
  }

  /// Interns a constant in the entry block (the paper's constant pool).
  Instruction *getConst(ConstantValue C, Type *Ty) {
    for (auto &Slot : ConstPool)
      if (Slot.first.second == Ty && Slot.first.first == C)
        return Slot.second;
    auto I = make(Opcode::Const);
    I->C = C;
    I->OpType = Ty;
    Instruction *Raw = Entry->append(std::move(I));
    ConstPool.push_back({{std::move(C), Ty}, Raw});
    return Raw;
  }

  Instruction *getIntConst(int64_t V) {
    return getConst(ConstantValue::makeInt(V), Types.getInt());
  }
  Instruction *getBoolConst(bool V) {
    return getConst(ConstantValue::makeBool(V), Types.getBoolean());
  }
  Instruction *getNullConst(Type *RefTy) {
    return getConst(ConstantValue::makeNull(), RefTy);
  }

  Instruction *defaultValue(Type *Ty) {
    if (Ty->isInt())
      return getIntConst(0);
    if (Ty->isDouble())
      return getConst(ConstantValue::makeDouble(0.0), Types.getDouble());
    if (Ty->isBoolean())
      return getBoolConst(false);
    if (Ty->isChar())
      return getConst(ConstantValue::makeChar('\0'), Types.getChar());
    return getNullConst(Ty);
  }

  Instruction *prim(PrimOp Op, SmallVector<Instruction *, 3> Ops,
                    Type *Aux = nullptr) {
    auto I = make(primOpMayRaise(Op) ? Opcode::XPrimitive
                                     : Opcode::Primitive);
    I->Prim = Op;
    I->OpType = primOpOperandType(Op, Ctx);
    I->AuxType = Aux;
    I->Operands = std::move(Ops);
    return emit(std::move(I));
  }

  Instruction *nullCheck(Instruction *Ref, Type *RefTy) {
    auto I = make(Opcode::NullCheck);
    I->OpType = RefTy;
    I->Operands = {Ref};
    return emit(std::move(I));
  }

  /// Free plane conversion (downcast). No-op when source and target planes
  /// coincide.
  Instruction *downcast(Instruction *V, Type *From, bool FromSafe, Type *To,
                        bool ToSafe) {
    if (From == To && FromSafe == ToSafe)
      return V;
    auto I = make(Opcode::Downcast);
    I->OpType = To;
    I->AuxType = From;
    I->SrcSafe = FromSafe;
    I->DstSafe = ToSafe;
    I->Operands = {V};
    return emit(std::move(I));
  }

  Instruction *toObjectPlane(Instruction *V, Type *From) {
    return downcast(V, From, false, Ctx.objectType(), false);
  }

  Instruction *makePhi(Type *Ty, SmallVector<Instruction *, 3> Ops,
                       BasicBlock *Block) {
    auto I = make(Opcode::Phi);
    I->OpType = Ty;
    I->Operands = std::move(Ops);
    return Block->append(std::move(I));
  }

  void startBlock() {
    CurBlock = M->createBlock();
    auto Node = M->createBasicNode(CurBlock);
    CurBasicNode = Node;
    CurSeq->push_back(std::move(Node));
  }

  //===--------------------------------------------------------------------===//
  // Merging
  //===--------------------------------------------------------------------===//

  Type *localType(unsigned Index) const {
    return Decl.Locals[Index]->Ty;
  }

  /// Merges reaching definitions from several predecessors (in predecessor
  /// order) into the current (just-started) block. With eager phis
  /// (paper-faithful single-pass construction) every merged variable gets
  /// a phi; otherwise only variables whose paths disagree do.
  VarMap mergeDefs(const std::vector<const VarMap *> &Incoming) {
    assert(!Incoming.empty() && "merging zero paths");
    if (Incoming.size() == 1)
      return *Incoming[0];
    VarMap Out;
    for (const auto &[Idx, First] : *Incoming[0]) {
      bool InAll = true;
      bool Same = true;
      SmallVector<Instruction *, 3> Ops;
      Ops.push_back(First);
      for (size_t K = 1; K < Incoming.size() && InAll; ++K) {
        auto It = Incoming[K]->find(Idx);
        if (It == Incoming[K]->end()) {
          InAll = false;
          break;
        }
        Ops.push_back(It->second);
        if (It->second != First)
          Same = false;
      }
      if (!InAll)
        continue;
      if (Same && !Options.EagerPhis)
        Out[Idx] = First;
      else
        Out[Idx] = makePhi(localType(Idx), std::move(Ops), CurBlock);
    }
    return Out;
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  void genStmts(const std::vector<StmtPtr> &Stmts) {
    for (const StmtPtr &S : Stmts) {
      if (!Reach)
        return; // Unreachable code after return/break/continue is dropped.
      genStmt(*S);
    }
  }

  /// Generates \p Body into \p Seq as a fresh sub-sequence; returns true
  /// when control can fall out the end. Restores the surrounding sequence
  /// and block.
  template <typename Fn> bool genArm(CSTSeq &Seq, Fn &&Body) {
    CSTSeq *SavedSeq = CurSeq;
    BasicBlock *SavedBlock = CurBlock;
    CSTNode *SavedNode = CurBasicNode;
    bool SavedReach = Reach;
    CurSeq = &Seq;
    Reach = true;
    startBlock();
    Body();
    bool Fell = Reach;
    CurSeq = SavedSeq;
    CurBlock = SavedBlock;
    CurBasicNode = SavedNode;
    Reach = SavedReach;
    return Fell;
  }

  void genStmt(const Stmt &S) {
    switch (S.Kind) {
    case StmtKind::Block:
      genStmts(static_cast<const BlockStmt &>(S).Stmts);
      return;
    case StmtKind::Empty:
      return;
    case StmtKind::VarDecl: {
      const auto &V = static_cast<const VarDeclStmt &>(S);
      Instruction *Init =
          V.Init ? genExpr(*V.Init) : defaultValue(V.Symbol->Ty);
      Defs[V.Symbol->Index] = Init;
      return;
    }
    case StmtKind::Expr:
      genExpr(*static_cast<const ExprStmt &>(S).E);
      return;
    case StmtKind::If:
      genIf(static_cast<const IfStmt &>(S));
      return;
    case StmtKind::While: {
      const auto &W = static_cast<const WhileStmt &>(S);
      genLoop(W.Cond.get(), *W.Body, /*ForUpdate=*/nullptr,
              /*DoWhileCond=*/nullptr);
      return;
    }
    case StmtKind::For: {
      const auto &F = static_cast<const ForStmt &>(S);
      if (F.Init)
        genStmt(*F.Init);
      genLoop(F.Cond.get(), *F.Body, F.Update.get(), nullptr);
      return;
    }
    case StmtKind::DoWhile: {
      // do { B } while (c)  ==  while (true) { B; if (!c) break; }
      // with continue re-testing c first (handled in genContinue).
      const auto &W = static_cast<const DoWhileStmt &>(S);
      genLoop(nullptr, *W.Body, nullptr, W.Cond.get());
      return;
    }
    case StmtKind::Return: {
      const auto &R = static_cast<const ReturnStmt &>(S);
      CSTNode *Node = M->createNode();
      Node->K = CSTNode::Kind::Return;
      if (R.Value)
        Node->RetVal = genExpr(*R.Value);
      CurSeq->push_back(std::move(Node));
      Reach = false;
      return;
    }
    case StmtKind::Break: {
      assert(!Loops.empty() && "sema guarantees break inside a loop");
      Loops.back()->BreakDefs.push_back(Defs);
      CSTNode *Node = M->createNode();
      Node->K = CSTNode::Kind::Break;
      CurSeq->push_back(std::move(Node));
      Reach = false;
      return;
    }
    case StmtKind::Continue:
      genContinue();
      return;
    case StmtKind::Try:
      genTry(static_cast<const TryStmt &>(S));
      return;
    }
  }

  void genTry(const TryStmt &S) {
    // A try whose body cannot raise needs no handler at all.
    if (!stmtMayRaise(*S.Body)) {
      genStmt(*S.Body);
      return;
    }

    std::set<unsigned> Assigned;
    collectAssignedStmt(*S.Body, Assigned);

    TryCtx TC;
    TC.CatchEntry = M->createBlock();
    // The "special exception-handling phi-node[s]": one per variable that
    // is live at try entry and assigned in the body; each exception edge
    // contributes the definitions reaching its raise point.
    VarMap Base = Defs;
    for (auto &[Idx, Def] : Base)
      if (Assigned.count(Idx)) {
        Instruction *Phi = makePhi(localType(Idx), {}, TC.CatchEntry);
        TC.CatchPhis.push_back({Idx, Phi});
      }

    CSTNode *Node = M->createNode();
    Node->K = CSTNode::Kind::Try;

    Tries.push_back(&TC);
    bool BodyFell = genArm(Node->Then, [&] { genStmt(*S.Body); });
    Tries.pop_back();
    VarMap BodyDefs = Defs;

    if (TC.NumEdges == 0) {
      // All potential raisers turned out unreachable: drop the handler
      // and splice the body into the enclosing sequence.
      std::erase_if(M->Blocks,
                    [&](const BasicBlock *B) { return B == TC.CatchEntry; });
      for (auto &Child : Node->Then)
        CurSeq->push_back(std::move(Child));
      if (!Node->Then.empty()) {
        // Restore the current-block notion to the body's trailing block.
        for (auto It = CurSeq->rbegin(); It != CurSeq->rend(); ++It)
          if ((*It)->K == CSTNode::Kind::Basic) {
            CurBlock = (*It)->BB;
            CurBasicNode = *It;
            break;
          }
      }
      Reach = BodyFell;
      return;
    }

    // Handler: starts in the pre-created catch-entry block, with the
    // catch phis as the reaching definitions of body-assigned variables.
    Defs = Base;
    for (auto &[Idx, Phi] : TC.CatchPhis)
      Defs[Idx] = Phi;
    bool CatchFell;
    VarMap CatchDefs;
    {
      CSTSeq *SavedSeq = CurSeq;
      BasicBlock *SavedBlock = CurBlock;
      CSTNode *SavedNode = CurBasicNode;
      bool SavedReach = Reach;
      CurSeq = &Node->Else;
      Reach = true;
      auto EntryNode = M->createBasicNode(TC.CatchEntry);
      CurBasicNode = EntryNode;
      CurBlock = TC.CatchEntry;
      CurSeq->push_back(std::move(EntryNode));
      genStmt(*S.Handler);
      CatchFell = Reach;
      CatchDefs = Defs;
      CurSeq = SavedSeq;
      CurBlock = SavedBlock;
      CurBasicNode = SavedNode;
      Reach = SavedReach;
    }

    CurSeq->push_back(std::move(Node));

    if (!BodyFell && !CatchFell) {
      Reach = false;
      return;
    }
    startBlock(); // Join; predecessor order: body exit, then handler exit.
    std::vector<const VarMap *> Incoming;
    if (BodyFell)
      Incoming.push_back(&BodyDefs);
    if (CatchFell)
      Incoming.push_back(&CatchDefs);
    Defs = mergeDefs(Incoming);
  }

  void genIf(const IfStmt &S) {
    Instruction *CondV = genExpr(*S.Cond);
    CSTNode *Node = M->createNode();
    Node->K = CSTNode::Kind::If;
    Node->Cond = CondV;

    VarMap Base = Defs;
    bool ThenFell = genArm(Node->Then, [&] { genStmt(*S.Then); });
    VarMap ThenDefs = std::move(Defs);
    Defs = Base;

    bool ElseFell = true;
    VarMap ElseDefs = Base;
    if (S.Else) {
      ElseFell = genArm(Node->Else, [&] { genStmt(*S.Else); });
      ElseDefs = std::move(Defs);
      Defs = Base;
    }

    CurSeq->push_back(std::move(Node));

    if (!ThenFell && !ElseFell) {
      Reach = false;
      return;
    }
    startBlock(); // Join; predecessors: then-exit (if any), else-exit.
    std::vector<const VarMap *> Incoming;
    if (ThenFell)
      Incoming.push_back(&ThenDefs);
    if (ElseFell)
      Incoming.push_back(&ElseDefs);
    Defs = mergeDefs(Incoming);
  }

  /// Shared structured-loop generation. \p Cond may be null (infinite /
  /// do-while loop => constant true). \p ForUpdate runs before each back
  /// edge; \p DoWhileCond turns the body tail and continues into
  /// "if (!c) break".
  void genLoop(const Expr *Cond, const Stmt &Body, const Expr *ForUpdate,
               const Expr *DoWhileCond) {
    std::set<unsigned> Assigned;
    collectAssignedStmt(Body, Assigned);
    if (Cond)
      collectAssignedExpr(*Cond, Assigned);
    if (ForUpdate)
      collectAssignedExpr(*ForUpdate, Assigned);
    if (DoWhileCond)
      collectAssignedExpr(*DoWhileCond, Assigned);

    CSTNode *Node = M->createNode();
    Node->K = CSTNode::Kind::Loop;

    LoopCtx LC;
    LC.ForUpdate = ForUpdate;
    LC.DoWhileCond = DoWhileCond;

    // Header: create phis for live variables, with the preheader
    // definition as first operand. Eager mode (paper-faithful single-pass
    // construction) creates one for *every* live variable; the superfluous
    // ones become trivial and are exactly what the paper's DCE pass
    // removes. Pruned mode restricts to variables assigned in the loop.
    genArm(Node->Header, [&] {
      for (auto &[Idx, Def] : Defs) {
        if (!Options.EagerPhis && !Assigned.count(Idx))
          continue;
        Instruction *Phi = makePhi(localType(Idx), {Def}, CurBlock);
        Defs[Idx] = Phi;
        LC.HeaderPhis.push_back({Idx, Phi});
      }
      Node->Cond = Cond ? genExpr(*Cond) : getBoolConst(true);
    });
    // genArm restored Defs' *map object*? No: Defs was mutated in place.
    // That is intended: the header phis become the reaching definitions
    // both inside and after the loop.
    VarMap AtDecision = Defs;

    Loops.push_back(&LC);
    bool BodyFell = genArm(Node->Body, [&] {
      genStmt(Body);
      if (Reach && DoWhileCond)
        genCondBreak(*DoWhileCond);
      if (Reach && ForUpdate)
        genExpr(*ForUpdate);
    });
    if (BodyFell)
      for (auto &[Idx, Phi] : LC.HeaderPhis)
        Phi->Operands.push_back(Defs.at(Idx));
    Loops.pop_back();

    CurSeq->push_back(std::move(Node));

    // Exit block: predecessors are the decision block then each break.
    startBlock();
    std::vector<const VarMap *> Incoming;
    Incoming.push_back(&AtDecision);
    for (const VarMap &B : LC.BreakDefs)
      Incoming.push_back(&B);
    Defs = mergeDefs(Incoming);
  }

  /// Emits "if (!c) break;" — the do-while tail.
  void genCondBreak(const Expr &Cond) {
    Instruction *CondV = genExpr(Cond);
    Instruction *NotV = prim(PrimOp::NotB, {CondV});
    CSTNode *Node = M->createNode();
    Node->K = CSTNode::Kind::If;
    Node->Cond = NotV;
    genArm(Node->Then, [&] {
      assert(!Loops.empty());
      Loops.back()->BreakDefs.push_back(Defs);
      CSTNode *Brk = M->createNode();
      Brk->K = CSTNode::Kind::Break;
      CurSeq->push_back(std::move(Brk));
      Reach = false;
    });
    CurSeq->push_back(std::move(Node));
    startBlock(); // Join: single fall-through predecessor (the decision
                  // block); definitions are unchanged.
  }

  void genContinue() {
    assert(!Loops.empty() && "sema guarantees continue inside a loop");
    LoopCtx &LC = *Loops.back();
    // For-loops run their update before the back edge; do-whiles re-test
    // the condition (both may assign variables).
    if (LC.ForUpdate)
      genExpr(*LC.ForUpdate);
    if (LC.DoWhileCond)
      genCondBreak(*LC.DoWhileCond);
    if (!Reach)
      return;
    for (auto &[Idx, Phi] : LC.HeaderPhis)
      Phi->Operands.push_back(Defs.at(Idx));
    CSTNode *Node = M->createNode();
    Node->K = CSTNode::Kind::Continue;
    CurSeq->push_back(std::move(Node));
    Reach = false;
  }

  //===--------------------------------------------------------------------===//
  // L-values
  //===--------------------------------------------------------------------===//

  struct LValue {
    enum class Kind : uint8_t { Local, Field, Elt, Static } K;
    unsigned LocalIdx = 0;
    FieldSymbol *F = nullptr;
    Instruction *SafeObj = nullptr;
    Instruction *SafeIdx = nullptr;
    Type *ObjType = nullptr; // Static type used as the access OpType.
  };

  LValue genLValue(const Expr &Target) {
    LValue LV;
    switch (Target.Kind) {
    case ExprKind::Name: {
      const auto &N = static_cast<const NameExpr &>(Target);
      switch (N.Resolution) {
      case NameResolution::Local:
        LV.K = LValue::Kind::Local;
        LV.LocalIdx = N.ResolvedLocal->Index;
        return LV;
      case NameResolution::FieldOfThis:
        LV.K = LValue::Kind::Field;
        LV.F = N.ResolvedField;
        LV.ObjType = ThisType;
        LV.SafeObj = nullCheck(ThisVal, ThisType);
        return LV;
      case NameResolution::StaticField:
        LV.K = LValue::Kind::Static;
        LV.F = N.ResolvedField;
        return LV;
      default:
        break;
      }
      assert(false && "unresolved name in codegen");
      return LV;
    }
    case ExprKind::FieldAccess: {
      const auto &F = static_cast<const FieldAccessExpr &>(Target);
      assert(!F.IsArrayLength && "length is not assignable");
      if (F.ResolvedField->IsStatic) {
        LV.K = LValue::Kind::Static;
        LV.F = F.ResolvedField;
        return LV;
      }
      Instruction *Obj = genExpr(*F.Base);
      LV.K = LValue::Kind::Field;
      LV.F = F.ResolvedField;
      LV.ObjType = F.Base->Ty;
      LV.SafeObj = nullCheck(Obj, LV.ObjType);
      return LV;
    }
    case ExprKind::Index: {
      const auto &I = static_cast<const IndexExpr &>(Target);
      Instruction *Arr = genExpr(*I.Base);
      Type *ArrTy = I.Base->Ty;
      Instruction *SafeArr = nullCheck(Arr, ArrTy);
      Instruction *Idx = genExpr(*I.Index);
      auto Check = make(Opcode::IndexCheck);
      Check->OpType = ArrTy;
      Check->Operands = {SafeArr, Idx};
      LV.K = LValue::Kind::Elt;
      LV.ObjType = ArrTy;
      LV.SafeObj = SafeArr;
      LV.SafeIdx = emit(std::move(Check));
      return LV;
    }
    default:
      assert(false && "expression is not an l-value");
      return LV;
    }
  }

  Instruction *loadLValue(const LValue &LV) {
    switch (LV.K) {
    case LValue::Kind::Local: {
      auto It = Defs.find(LV.LocalIdx);
      assert(It != Defs.end() && "use of undefined local");
      return It->second;
    }
    case LValue::Kind::Field: {
      auto I = make(Opcode::GetField);
      I->OpType = LV.ObjType;
      I->Field = LV.F;
      I->Operands = {LV.SafeObj};
      return emit(std::move(I));
    }
    case LValue::Kind::Elt: {
      auto I = make(Opcode::GetElt);
      I->OpType = LV.ObjType;
      I->Operands = {LV.SafeObj, LV.SafeIdx};
      return emit(std::move(I));
    }
    case LValue::Kind::Static: {
      auto I = make(Opcode::GetStatic);
      I->OpType = Types.getClass(LV.F->Owner);
      I->Field = LV.F;
      return emit(std::move(I));
    }
    }
    return nullptr;
  }

  void storeLValue(const LValue &LV, Instruction *V) {
    switch (LV.K) {
    case LValue::Kind::Local:
      Defs[LV.LocalIdx] = V;
      return;
    case LValue::Kind::Field: {
      auto I = make(Opcode::SetField);
      I->OpType = LV.ObjType;
      I->Field = LV.F;
      I->Operands = {LV.SafeObj, V};
      emit(std::move(I));
      return;
    }
    case LValue::Kind::Elt: {
      auto I = make(Opcode::SetElt);
      I->OpType = LV.ObjType;
      I->Operands = {LV.SafeObj, LV.SafeIdx, V};
      emit(std::move(I));
      return;
    }
    case LValue::Kind::Static: {
      auto I = make(Opcode::SetStatic);
      I->OpType = Types.getClass(LV.F->Owner);
      I->Field = LV.F;
      I->Operands = {V};
      emit(std::move(I));
      return;
    }
    }
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  /// Generates a structured value merge: if (CondV) GenThen else GenElse,
  /// producing a phi of the two results in the join block. Used for the
  /// short-circuit lowering of && and || (paper footnote 3).
  Instruction *genIfValue(Instruction *CondV,
                          const std::function<Instruction *()> &GenThen,
                          const std::function<Instruction *()> &GenElse,
                          Type *Ty) {
    CSTNode *Node = M->createNode();
    Node->K = CSTNode::Kind::If;
    Node->Cond = CondV;

    VarMap Base = Defs;
    Instruction *ThenV = nullptr, *ElseV = nullptr;
    genArm(Node->Then, [&] { ThenV = GenThen(); });
    VarMap ThenDefs = std::move(Defs);
    Defs = Base;
    genArm(Node->Else, [&] { ElseV = GenElse(); });
    VarMap ElseDefs = std::move(Defs);
    Defs = Base;

    CurSeq->push_back(std::move(Node));
    startBlock();
    Defs = mergeDefs({&ThenDefs, &ElseDefs});
    if (ThenV == ElseV)
      return ThenV;
    return makePhi(Ty, {ThenV, ElseV}, CurBlock);
  }

  PrimOp arithOp(BinaryOp Op, bool IsDouble) {
    switch (Op) {
    case BinaryOp::Add:
      return IsDouble ? PrimOp::AddD : PrimOp::AddI;
    case BinaryOp::Sub:
      return IsDouble ? PrimOp::SubD : PrimOp::SubI;
    case BinaryOp::Mul:
      return IsDouble ? PrimOp::MulD : PrimOp::MulI;
    case BinaryOp::Div:
      return IsDouble ? PrimOp::DivD : PrimOp::DivI;
    case BinaryOp::Rem:
      assert(!IsDouble && "no double remainder in MJ");
      return PrimOp::RemI;
    case BinaryOp::BitAnd:
      return PrimOp::AndI;
    case BinaryOp::BitOr:
      return PrimOp::OrI;
    case BinaryOp::BitXor:
      return PrimOp::XorI;
    case BinaryOp::Shl:
      return PrimOp::ShlI;
    case BinaryOp::Shr:
      return PrimOp::ShrI;
    case BinaryOp::Lt:
      return IsDouble ? PrimOp::CmpLtD : PrimOp::CmpLtI;
    case BinaryOp::Le:
      return IsDouble ? PrimOp::CmpLeD : PrimOp::CmpLeI;
    case BinaryOp::Gt:
      return IsDouble ? PrimOp::CmpGtD : PrimOp::CmpGtI;
    case BinaryOp::Ge:
      return IsDouble ? PrimOp::CmpGeD : PrimOp::CmpGeI;
    case BinaryOp::Eq:
      return IsDouble ? PrimOp::CmpEqD : PrimOp::CmpEqI;
    case BinaryOp::Ne:
      return IsDouble ? PrimOp::CmpNeD : PrimOp::CmpNeI;
    default:
      assert(false && "not an arithmetic operator");
      return PrimOp::AddI;
    }
  }

  Instruction *genExpr(const Expr &E) {
    switch (E.Kind) {
    case ExprKind::IntLiteral:
      return getIntConst(static_cast<const IntLiteralExpr &>(E).Value);
    case ExprKind::DoubleLiteral:
      return getConst(ConstantValue::makeDouble(
                          static_cast<const DoubleLiteralExpr &>(E).Value),
                      Types.getDouble());
    case ExprKind::BoolLiteral:
      return getBoolConst(static_cast<const BoolLiteralExpr &>(E).Value);
    case ExprKind::CharLiteral:
      return getConst(ConstantValue::makeChar(
                          static_cast<const CharLiteralExpr &>(E).Value),
                      Types.getChar());
    case ExprKind::StringLiteral:
      return getConst(ConstantValue::makeString(
                          static_cast<const StringLiteralExpr &>(E).Value),
                      Types.getArray(Types.getChar()));
    case ExprKind::NullLiteral:
      return getNullConst(Ctx.objectType());
    case ExprKind::This:
      assert(ThisVal && "'this' in static context");
      return ThisVal;
    case ExprKind::Name:
    case ExprKind::FieldAccess: {
      // Array length is a read-only pseudo field.
      if (E.Kind == ExprKind::FieldAccess) {
        const auto &F = static_cast<const FieldAccessExpr &>(E);
        if (F.IsArrayLength) {
          Instruction *Arr = genExpr(*F.Base);
          Instruction *Safe = nullCheck(Arr, F.Base->Ty);
          auto I = make(Opcode::ArrayLength);
          I->OpType = F.Base->Ty;
          I->Operands = {Safe};
          return emit(std::move(I));
        }
      }
      LValue LV = genLValue(E);
      return loadLValue(LV);
    }
    case ExprKind::Index: {
      LValue LV = genLValue(E);
      return loadLValue(LV);
    }
    case ExprKind::Call:
      return genCall(static_cast<const CallExpr &>(E));
    case ExprKind::NewObject:
      return genNewObject(static_cast<const NewObjectExpr &>(E));
    case ExprKind::NewArray: {
      const auto &N = static_cast<const NewArrayExpr &>(E);
      Instruction *Len = genExpr(*N.Length);
      auto I = make(Opcode::NewArray);
      I->OpType = E.Ty;
      I->Operands = {Len};
      return emit(std::move(I));
    }
    case ExprKind::Unary:
      return genUnary(static_cast<const UnaryExpr &>(E));
    case ExprKind::Binary:
      return genBinary(static_cast<const BinaryExpr &>(E));
    case ExprKind::Assign:
      return genAssign(static_cast<const AssignExpr &>(E));
    case ExprKind::Cast:
      return genCast(static_cast<const CastExpr &>(E));
    case ExprKind::Instanceof: {
      const auto &I = static_cast<const InstanceofExpr &>(E);
      Instruction *V = genExpr(*I.Operand);
      V = toObjectPlane(V, valueType(*I.Operand));
      return prim(PrimOp::InstanceOf, {V}, I.ResolvedTarget);
    }
    }
    return nullptr;
  }

  /// The plane type a generated expression value lives on. Null literals
  /// are materialized on the Object plane.
  Type *valueType(const Expr &E) {
    if (E.Ty->isNull())
      return Ctx.objectType();
    return E.Ty;
  }

  Instruction *genUnary(const UnaryExpr &E) {
    switch (E.Op) {
    case UnaryOp::Neg: {
      Instruction *V = genExpr(*E.Operand);
      return prim(E.Operand->Ty->isDouble() ? PrimOp::NegD : PrimOp::NegI,
                  {V});
    }
    case UnaryOp::Not:
      return prim(PrimOp::NotB, {genExpr(*E.Operand)});
    case UnaryOp::BitNot:
      return prim(PrimOp::NotI, {genExpr(*E.Operand)});
    case UnaryOp::PreInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostInc:
    case UnaryOp::PostDec: {
      bool IsInc = E.Op == UnaryOp::PreInc || E.Op == UnaryOp::PostInc;
      bool IsPost = E.Op == UnaryOp::PostInc || E.Op == UnaryOp::PostDec;
      LValue LV = genLValue(*E.Operand);
      Instruction *Old = loadLValue(LV);
      Type *Ty = E.Operand->Ty;
      Instruction *NewV = nullptr;
      if (Ty->isDouble()) {
        Instruction *One =
            getConst(ConstantValue::makeDouble(1.0), Types.getDouble());
        NewV = prim(IsInc ? PrimOp::AddD : PrimOp::SubD, {Old, One});
      } else if (Ty->isChar()) {
        Instruction *AsInt = prim(PrimOp::CharToInt, {Old});
        Instruction *Stepped = prim(IsInc ? PrimOp::AddI : PrimOp::SubI,
                                    {AsInt, getIntConst(1)});
        NewV = prim(PrimOp::IntToChar, {Stepped});
      } else {
        NewV = prim(IsInc ? PrimOp::AddI : PrimOp::SubI,
                    {Old, getIntConst(1)});
      }
      storeLValue(LV, NewV);
      return IsPost ? Old : NewV;
    }
    }
    return nullptr;
  }

  Instruction *genBinary(const BinaryExpr &E) {
    switch (E.Op) {
    case BinaryOp::LAnd: {
      Instruction *L = genExpr(*E.Lhs);
      return genIfValue(
          L, [&] { return genExpr(*E.Rhs); },
          [&] { return getBoolConst(false); }, Types.getBoolean());
    }
    case BinaryOp::LOr: {
      Instruction *L = genExpr(*E.Lhs);
      return genIfValue(
          L, [&] { return getBoolConst(true); },
          [&] { return genExpr(*E.Rhs); }, Types.getBoolean());
    }
    case BinaryOp::Eq:
    case BinaryOp::Ne: {
      Type *LTy = E.Lhs->Ty;
      if (LTy->isRef() || E.Rhs->Ty->isRef()) {
        Instruction *L = toObjectPlane(genExpr(*E.Lhs), valueType(*E.Lhs));
        Instruction *R = toObjectPlane(genExpr(*E.Rhs), valueType(*E.Rhs));
        return prim(E.Op == BinaryOp::Eq ? PrimOp::CmpEqR : PrimOp::CmpNeR,
                    {L, R});
      }
      if (LTy->isBoolean()) {
        Instruction *L = genExpr(*E.Lhs);
        Instruction *R = genExpr(*E.Rhs);
        return prim(E.Op == BinaryOp::Eq ? PrimOp::CmpEqB : PrimOp::CmpNeB,
                    {L, R});
      }
      break; // Numeric: fall through to the arithmetic path.
    }
    default:
      break;
    }
    Instruction *L = genExpr(*E.Lhs);
    Instruction *R = genExpr(*E.Rhs);
    bool IsDouble = E.Lhs->Ty->isDouble();
    return prim(arithOp(E.Op, IsDouble), {L, R});
  }

  Instruction *genAssign(const AssignExpr &E) {
    LValue LV = genLValue(*E.Target);
    if (E.Op == AssignExpr::OpKind::None) {
      Instruction *V = genExpr(*E.Value);
      storeLValue(LV, V);
      return V;
    }
    Instruction *Old = loadLValue(LV);
    Instruction *Rhs = genExpr(*E.Value);
    bool IsDouble = E.Target->Ty->isDouble();
    BinaryOp Op;
    switch (E.Op) {
    case AssignExpr::OpKind::Add:
      Op = BinaryOp::Add;
      break;
    case AssignExpr::OpKind::Sub:
      Op = BinaryOp::Sub;
      break;
    case AssignExpr::OpKind::Mul:
      Op = BinaryOp::Mul;
      break;
    case AssignExpr::OpKind::Div:
      Op = BinaryOp::Div;
      break;
    default:
      Op = BinaryOp::Rem;
      break;
    }
    Instruction *NewV = prim(arithOp(Op, IsDouble), {Old, Rhs});
    storeLValue(LV, NewV);
    return NewV;
  }

  Instruction *genCast(const CastExpr &E) {
    switch (E.Lowering) {
    case CastLowering::Identity:
      return genExpr(*E.Operand);
    case CastLowering::IntToDouble: {
      Instruction *V = genExpr(*E.Operand);
      if (E.Operand->Ty->isChar())
        V = prim(PrimOp::CharToInt, {V});
      return prim(PrimOp::IntToDouble, {V});
    }
    case CastLowering::CharToInt: {
      Instruction *V = genExpr(*E.Operand);
      return E.Operand->Ty->isChar() ? prim(PrimOp::CharToInt, {V}) : V;
    }
    case CastLowering::DoubleToInt:
      return prim(PrimOp::DoubleToInt, {genExpr(*E.Operand)});
    case CastLowering::IntToChar: {
      Instruction *V = genExpr(*E.Operand);
      if (E.Operand->Ty->isChar())
        return V;
      return prim(PrimOp::IntToChar, {V});
    }
    case CastLowering::DoubleToChar: {
      Instruction *V = prim(PrimOp::DoubleToInt, {genExpr(*E.Operand)});
      return prim(PrimOp::IntToChar, {V});
    }
    case CastLowering::RefWiden: {
      // Null literals are materialized directly on the target plane.
      if (E.Operand->Ty->isNull())
        return getNullConst(E.Ty);
      Instruction *V = genExpr(*E.Operand);
      return downcast(V, E.Operand->Ty, false, E.Ty, false);
    }
    case CastLowering::RefNarrow: {
      Instruction *V = genExpr(*E.Operand);
      V = toObjectPlane(V, valueType(*E.Operand));
      auto I = make(Opcode::Upcast);
      I->OpType = E.Ty;
      I->AuxType = Ctx.objectType();
      I->Operands = {V};
      return emit(std::move(I));
    }
    }
    return nullptr;
  }

  Instruction *genCall(const CallExpr &E) {
    SmallVector<Instruction *, 3> Args;
    Args.reserve(E.Args.size());
    for (const ExprPtr &A : E.Args)
      Args.push_back(genExpr(*A));

    MethodSymbol *Callee = E.ResolvedMethod;
    assert(Callee && "unresolved call in codegen");

    if (E.Dispatch == DispatchKind::Static) {
      auto I = make(Opcode::Call);
      I->Method = Callee;
      I->Operands = std::move(Args);
      return emit(std::move(I));
    }

    // Virtual dispatch: null-check the receiver at its static type (so the
    // certificate is shared with field accesses via CSE), then erase to
    // the method owner's safe plane.
    Instruction *Recv;
    Type *RecvTy;
    if (E.Base) {
      Recv = genExpr(*E.Base);
      RecvTy = E.Base->Ty;
    } else {
      assert(E.ImplicitThis && ThisVal);
      Recv = ThisVal;
      RecvTy = ThisType;
    }
    Instruction *Safe = nullCheck(Recv, RecvTy);
    Type *OwnerTy = Types.getClass(Callee->Owner);
    Safe = downcast(Safe, RecvTy, true, OwnerTy, true);

    auto I = make(Opcode::Dispatch);
    I->Method = Callee;
    I->Operands.reserve(Args.size() + 1);
    I->Operands.push_back(Safe);
    for (Instruction *A : Args)
      I->Operands.push_back(A);
    return emit(std::move(I));
  }

  Instruction *genNewObject(const NewObjectExpr &E) {
    SmallVector<Instruction *, 3> Args;
    Args.reserve(E.Args.size());
    for (const ExprPtr &A : E.Args)
      Args.push_back(genExpr(*A));

    auto NewI = make(Opcode::New);
    NewI->OpType = E.Ty;
    Instruction *Obj = emit(std::move(NewI));

    // Run instance-field initializers, root class first. (MJ semantics:
    // field initializers run at allocation, before the constructor body;
    // there are no explicit super() calls.)
    std::vector<ClassSymbol *> Chain;
    for (ClassSymbol *C = E.ResolvedClass; C && !C->IsBuiltin; C = C->Super)
      Chain.push_back(C);
    std::reverse(Chain.begin(), Chain.end());

    Instruction *SavedThis = ThisVal;
    Type *SavedThisType = ThisType;
    ThisVal = Obj;
    ThisType = E.Ty;
    for (ClassSymbol *C : Chain) {
      if (!C->Decl)
        continue;
      for (const FieldDecl &F : C->Decl->Fields) {
        if (F.IsStatic || !F.Init)
          continue;
        Instruction *V = genExpr(*F.Init);
        Instruction *Safe = nullCheck(Obj, E.Ty);
        auto Store = make(Opcode::SetField);
        Store->OpType = E.Ty;
        Store->Field = F.Symbol;
        Store->Operands = {Safe, V};
        emit(std::move(Store));
      }
    }
    ThisVal = SavedThis;
    ThisType = SavedThisType;

    if (E.ResolvedCtor) {
      auto CallI = make(Opcode::Call);
      CallI->Method = E.ResolvedCtor;
      CallI->Operands.reserve(Args.size() + 1);
      CallI->Operands.push_back(Obj);
      for (Instruction *A : Args)
        CallI->Operands.push_back(A);
      emit(std::move(CallI));
    }
    return Obj;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Module generation
//===----------------------------------------------------------------------===//

std::unique_ptr<TSAModule> TSAGenerator::generate(const Program &P) {
  auto Module = std::make_unique<TSAModule>();
  Module->Table = &Table;
  Module->Types = &Types;

  size_t NumBodies = 0;
  for (const auto &Class : P.Classes)
    for (const auto &Method : Class->Methods)
      if (Method->Symbol && Method->Body)
        ++NumBodies;
  Module->Methods.reserve(NumBodies);

  for (const auto &Class : P.Classes) {
    if (!Class->Symbol)
      continue;
    for (const FieldDecl &F : Class->Fields)
      if (F.IsStatic && F.Init && F.Symbol)
        Module->StaticInits.push_back({F.Symbol, foldConstantExpr(*F.Init)});
    for (const auto &Method : Class->Methods) {
      if (!Method->Symbol || !Method->Body)
        continue;
      MethodGen Gen(Types, Table, *Method, *Module, Options);
      Module->Methods.push_back(Gen.run());
    }
  }

  PlaneContext Ctx{Types, Table};
  for (auto &M : Module->Methods) {
    M->deriveCFG();
    M->finalize(Ctx);
  }
  return Module;
}
