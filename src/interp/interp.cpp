#include "interp/interp.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <thread>

namespace c2h {

using namespace ast;

namespace {

struct RuntimeError {
  std::string message;
  SourceLoc loc;
};

[[noreturn]] void fail(SourceLoc loc, std::string message) {
  throw RuntimeError{std::move(message), loc};
}

// Number of scalar cells a value of `type` occupies when flattened.
std::uint64_t countScalars(const Type *type) {
  if (type->isArray())
    return type->arraySize() * countScalars(type->element());
  return 1;
}

// The scalar (or pointer) type at the leaves of a possibly-nested array.
const Type *leafType(const Type *type) {
  while (type->isArray())
    type = type->element();
  return type;
}

struct Pointer {
  unsigned object = 0;
  std::uint64_t index = 0;
};

struct Value {
  enum class Kind { Scalar, Ptr };
  Kind kind = Kind::Scalar;
  BitVector bits{1};
  Pointer ptr;

  static Value scalar(BitVector b) {
    Value v;
    v.bits = std::move(b);
    return v;
  }
  static Value pointer(unsigned object, std::uint64_t index) {
    Value v;
    v.kind = Kind::Ptr;
    v.ptr = {object, index};
    return v;
  }
};

struct Storage {
  std::vector<Value> cells;
};

struct Channel {
  std::optional<BitVector> slot;
  std::condition_variable_any cv;
};

// What a name is bound to: a storage object (with a base offset, for
// by-reference sub-array parameters) or a channel.
struct Binding {
  enum class Kind { Object, Chan };
  Kind kind = Kind::Object;
  unsigned id = 0;            // object or channel id
  std::uint64_t offset = 0;   // flattened base offset within the object
};

struct Frame {
  std::map<unsigned, Binding> bindings; // VarDecl::id -> binding
  BitVector returnValue{1};
  bool returned = false;
};

// A resolved storage location: `count` scalar cells starting at
// objects[object].cells[index], holding a value of `type`.
struct Location {
  unsigned object = 0;
  std::uint64_t index = 0;
  const Type *type = nullptr;
};

enum class Flow { Normal, Break, Continue, Return };

} // namespace

struct Interpreter::Impl {
  const ast::Program &program;
  InterpOptions options;

  std::mutex gil;
  std::vector<std::unique_ptr<Storage>> objects;
  std::vector<std::unique_ptr<Channel>> channels;
  std::map<unsigned, Binding> globalBindings; // VarDecl::id -> binding
  std::atomic<std::uint64_t> steps{0};

  // Per-thread execution context: a stack of non-owning frame pointers
  // (par branches alias their parent's frames) and the thread's GIL lock.
  struct Ctx {
    Impl *impl;
    std::vector<Frame *> frames;
    std::unique_lock<std::mutex> *lock = nullptr;
  };

  explicit Impl(const ast::Program &p, InterpOptions opts)
      : program(p), options(opts) {}

  void step(SourceLoc loc) {
    std::uint64_t n = ++steps;
    if (options.maxSteps != 0 && n > options.maxSteps) {
      guard::Verdict v;
      v.kind = guard::Kind::StepLimit;
      v.stage = "interp";
      v.site = loc.str();
      v.steps = n;
      throw guard::BudgetExceeded(std::move(v));
    }
    // Charge the shared budget in 4k batches so the hot path stays one
    // atomic increment; the deadline check rides the same cadence.
    if (options.budget && (n & 4095) == 0) {
      options.budget->chargeSteps(4096, "interp");
      options.budget->checkDeadline("interp");
    }
  }

  unsigned allocateObject(const Type *type) {
    auto storage = std::make_unique<Storage>();
    const Type *leaf = leafType(type);
    std::uint64_t count = countScalars(type);
    guard::noteAlloc(options.budget, count * sizeof(Value), "interp");
    Value zero;
    if (leaf->isPointer())
      zero = Value::pointer(0, 0);
    else
      zero = Value::scalar(BitVector(leaf->isScalar() ? leaf->bitWidth()
                                                      : Type::kPointerWidth));
    storage->cells.assign(count, zero);
    objects.push_back(std::move(storage));
    return static_cast<unsigned>(objects.size() - 1);
  }

  unsigned allocateChannel() {
    channels.push_back(std::make_unique<Channel>());
    return static_cast<unsigned>(channels.size() - 1);
  }

  const Binding &lookup(Ctx &ctx, const VarDecl *decl, SourceLoc loc) {
    if (!decl->isGlobal) {
      for (std::size_t i = ctx.frames.size(); i-- > 0;) {
        auto it = ctx.frames[i]->bindings.find(decl->id);
        if (it != ctx.frames[i]->bindings.end())
          return it->second;
      }
    }
    auto it = globalBindings.find(decl->id);
    if (it != globalBindings.end())
      return it->second;
    fail(loc, "variable '" + decl->name + "' is not bound");
  }

  // -- lvalues ------------------------------------------------------------

  Location evalLocation(Ctx &ctx, const Expr &expr) {
    switch (expr.kind) {
    case Expr::Kind::VarRef: {
      const auto &ref = static_cast<const VarRefExpr &>(expr);
      if (!ref.decl)
        fail(ref.loc, "unbound variable reference");
      const Binding &b = lookup(ctx, ref.decl, ref.loc);
      if (b.kind != Binding::Kind::Object)
        fail(ref.loc, "'" + ref.name + "' is a channel, not a variable");
      return {b.id, b.offset, ref.decl->type};
    }
    case Expr::Kind::Index: {
      const auto &idx = static_cast<const IndexExpr &>(expr);
      const Type *baseTy = idx.base->type;
      Value i = evalExpr(ctx, *idx.index);
      std::uint64_t offset = i.bits.toUint64();
      if (baseTy->isArray()) {
        Location base = evalLocation(ctx, *idx.base);
        if (offset >= baseTy->arraySize())
          fail(idx.loc, "array index " + std::to_string(offset) +
                            " out of bounds for " + baseTy->str());
        std::uint64_t stride = countScalars(baseTy->element());
        return {base.object, base.index + offset * stride,
                baseTy->element()};
      }
      // Pointer subscript.
      Value p = evalExpr(ctx, *idx.base);
      if (p.kind != Value::Kind::Ptr)
        fail(idx.loc, "subscript of non-pointer value");
      std::uint64_t stride = countScalars(baseTy->element());
      return {p.ptr.object, p.ptr.index + offset * stride,
              baseTy->element()};
    }
    case Expr::Kind::Unary: {
      const auto &u = static_cast<const UnaryExpr &>(expr);
      if (u.op == UnaryOp::Deref) {
        Value p = evalExpr(ctx, *u.operand);
        if (p.kind != Value::Kind::Ptr)
          fail(u.loc, "dereference of non-pointer value");
        return {p.ptr.object, p.ptr.index, u.operand->type->element()};
      }
      break;
    }
    default:
      break;
    }
    fail(expr.loc, "expression is not an lvalue");
  }

  Value loadLocation(Ctx &ctx, const Location &loc, SourceLoc at) {
    Storage &s = *objects.at(loc.object);
    if (loc.index >= s.cells.size())
      fail(at, "load out of bounds");
    (void)ctx;
    return s.cells[loc.index];
  }

  void storeLocation(Ctx &ctx, const Location &loc, Value value,
                     SourceLoc at) {
    Storage &s = *objects.at(loc.object);
    if (loc.index >= s.cells.size())
      fail(at, "store out of bounds");
    (void)ctx;
    // Scalar stores are resized to the declared cell width so storage stays
    // bit-precise (sema guarantees convertibility).
    if (value.kind == Value::Kind::Scalar && loc.type->isScalar())
      value.bits = value.bits.resize(loc.type->bitWidth(),
                                     loc.type->isSigned());
    s.cells[loc.index] = std::move(value);
  }

  // -- channels -------------------------------------------------------------

  Channel &evalChannel(Ctx &ctx, const Expr &expr) {
    if (expr.kind != Expr::Kind::VarRef)
      fail(expr.loc, "channel expression must be a channel name");
    const auto &ref = static_cast<const VarRefExpr &>(expr);
    const Binding &b = lookup(ctx, ref.decl, ref.loc);
    if (b.kind != Binding::Kind::Chan)
      fail(expr.loc, "'" + ref.name + "' is not a channel");
    return *channels.at(b.id);
  }

  void channelSend(Ctx &ctx, Channel &chan, BitVector value, SourceLoc loc) {
    auto timeout = std::chrono::milliseconds(options.deadlockTimeoutMs);
    // Wait for the slot to be free (a previous rendezvous fully finished).
    if (!chan.cv.wait_for(*ctx.lock, timeout,
                          [&] { return !chan.slot.has_value(); }))
      fail(loc, "channel deadlock: send never paired with a receive");
    chan.slot = std::move(value);
    chan.cv.notify_all();
    // Rendezvous: block until the receiver consumes the value.
    if (!chan.cv.wait_for(*ctx.lock, timeout,
                          [&] { return !chan.slot.has_value(); }))
      fail(loc, "channel deadlock: send never paired with a receive");
  }

  BitVector channelRecv(Ctx &ctx, Channel &chan, SourceLoc loc) {
    auto timeout = std::chrono::milliseconds(options.deadlockTimeoutMs);
    if (!chan.cv.wait_for(*ctx.lock, timeout,
                          [&] { return chan.slot.has_value(); }))
      fail(loc, "channel deadlock: receive never paired with a send");
    BitVector v = std::move(*chan.slot);
    chan.slot.reset();
    chan.cv.notify_all();
    return v;
  }

  // -- expressions ----------------------------------------------------------

  Value evalExpr(Ctx &ctx, const Expr &expr) {
    step(expr.loc);
    switch (expr.kind) {
    case Expr::Kind::IntLiteral:
      return Value::scalar(static_cast<const IntLiteralExpr &>(expr).value);
    case Expr::Kind::BoolLiteral:
      return Value::scalar(BitVector(
          1, static_cast<const BoolLiteralExpr &>(expr).value ? 1 : 0));
    case Expr::Kind::VarRef: {
      Location loc = evalLocation(ctx, expr);
      if (loc.type->isArray()) // array rvalue decays when consumed by a cast
        return Value::pointer(loc.object, loc.index);
      return loadLocation(ctx, loc, expr.loc);
    }
    case Expr::Kind::Index: {
      Location loc = evalLocation(ctx, expr);
      if (loc.type->isArray())
        return Value::pointer(loc.object, loc.index);
      return loadLocation(ctx, loc, expr.loc);
    }
    case Expr::Kind::Unary:
      return evalUnary(ctx, static_cast<const UnaryExpr &>(expr));
    case Expr::Kind::Binary:
      return evalBinary(ctx, static_cast<const BinaryExpr &>(expr));
    case Expr::Kind::Assign:
      return evalAssign(ctx, static_cast<const AssignExpr &>(expr));
    case Expr::Kind::Ternary: {
      const auto &t = static_cast<const TernaryExpr &>(expr);
      Value c = evalExpr(ctx, *t.cond);
      return evalExpr(ctx, c.bits.isZero() ? *t.elseExpr : *t.thenExpr);
    }
    case Expr::Kind::Call:
      return evalCall(ctx, static_cast<const CallExpr &>(expr));
    case Expr::Kind::Cast:
      return evalCast(ctx, static_cast<const CastExpr &>(expr));
    }
    fail(expr.loc, "unsupported expression");
  }

  Value evalCast(Ctx &ctx, const CastExpr &cast) {
    const Type *to = cast.type;
    const Type *from = cast.operand->type;
    // Array-to-pointer decay.
    if (from->isArray() && to->isPointer()) {
      Location loc = evalLocation(ctx, *cast.operand);
      return Value::pointer(loc.object, loc.index);
    }
    Value v = evalExpr(ctx, *cast.operand);
    if (to->isBool())
      return Value::scalar(BitVector(
          1, (v.kind == Value::Kind::Ptr ? (v.ptr.object || v.ptr.index)
                                         : !v.bits.isZero())
                 ? 1
                 : 0));
    if (to->isScalar()) {
      if (v.kind == Value::Kind::Ptr) {
        // Pointer-to-integer: a synthetic but deterministic encoding.
        BitVector enc(Type::kPointerWidth,
                      (static_cast<std::uint64_t>(v.ptr.object) << 20) |
                          (v.ptr.index & 0xfffff));
        return Value::scalar(enc.resize(to->bitWidth(), false));
      }
      return Value::scalar(
          v.bits.resize(to->bitWidth(), from->isScalar() && from->isSigned()));
    }
    if (to->isPointer()) {
      if (v.kind == Value::Kind::Ptr)
        return v;
      fail(cast.loc, "integer-to-pointer casts are not executable");
    }
    fail(cast.loc, "unsupported cast");
  }

  Value evalUnary(Ctx &ctx, const UnaryExpr &u) {
    switch (u.op) {
    case UnaryOp::Neg: {
      Value v = evalExpr(ctx, *u.operand);
      return Value::scalar(v.bits.neg());
    }
    case UnaryOp::Plus:
      return evalExpr(ctx, *u.operand);
    case UnaryOp::BitNot: {
      Value v = evalExpr(ctx, *u.operand);
      return Value::scalar(v.bits.bitNot());
    }
    case UnaryOp::Not: {
      Value v = evalExpr(ctx, *u.operand);
      return Value::scalar(BitVector(1, v.bits.isZero() ? 1 : 0));
    }
    case UnaryOp::Deref: {
      Location loc = evalLocation(ctx, u);
      if (loc.type->isArray())
        return Value::pointer(loc.object, loc.index);
      return loadLocation(ctx, loc, u.loc);
    }
    case UnaryOp::AddrOf: {
      Location loc = evalLocation(ctx, *u.operand);
      return Value::pointer(loc.object, loc.index);
    }
    case UnaryOp::PreInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostInc:
    case UnaryOp::PostDec: {
      Location loc = evalLocation(ctx, *u.operand);
      Value old = loadLocation(ctx, loc, u.loc);
      bool isInc = u.op == UnaryOp::PreInc || u.op == UnaryOp::PostInc;
      Value updated = old;
      if (old.kind == Value::Kind::Ptr) {
        std::uint64_t stride = countScalars(u.operand->type->element());
        updated.ptr.index =
            isInc ? old.ptr.index + stride : old.ptr.index - stride;
      } else {
        BitVector one(old.bits.width(), 1);
        updated.bits = isInc ? old.bits.add(one) : old.bits.sub(one);
      }
      storeLocation(ctx, loc, updated, u.loc);
      bool isPost = u.op == UnaryOp::PostInc || u.op == UnaryOp::PostDec;
      return isPost ? old : updated;
    }
    }
    fail(u.loc, "unsupported unary operator");
  }

  // Apply `op` to scalars at the type `common` (both operands already that
  // type).  Shared by BinaryExpr and compound assignment.
  static BitVector applyBinary(BinaryOp op, const BitVector &l,
                               const BitVector &r, bool isSigned,
                               SourceLoc loc) {
    switch (op) {
    case BinaryOp::Add: return l.add(r);
    case BinaryOp::Sub: return l.sub(r);
    case BinaryOp::Mul: return l.mul(r);
    case BinaryOp::Div: return isSigned ? l.sdiv(r) : l.udiv(r);
    case BinaryOp::Rem: return isSigned ? l.srem(r) : l.urem(r);
    case BinaryOp::And: return l.bitAnd(r);
    case BinaryOp::Or: return l.bitOr(r);
    case BinaryOp::Xor: return l.bitXor(r);
    case BinaryOp::Shl: {
      std::uint64_t amount = r.toUint64();
      return l.shl(amount >= l.width() ? l.width() : static_cast<unsigned>(amount));
    }
    case BinaryOp::Shr: {
      std::uint64_t amount = r.toUint64();
      unsigned a = amount >= l.width() ? l.width() : static_cast<unsigned>(amount);
      return isSigned ? l.ashr(a) : l.lshr(a);
    }
    case BinaryOp::Eq: return BitVector(1, l.eq(r) ? 1 : 0);
    case BinaryOp::Ne: return BitVector(1, l.eq(r) ? 0 : 1);
    case BinaryOp::Lt:
      return BitVector(1, (isSigned ? l.slt(r) : l.ult(r)) ? 1 : 0);
    case BinaryOp::Le:
      return BitVector(1, (isSigned ? l.sle(r) : l.ule(r)) ? 1 : 0);
    case BinaryOp::Gt:
      return BitVector(1, (isSigned ? r.slt(l) : r.ult(l)) ? 1 : 0);
    case BinaryOp::Ge:
      return BitVector(1, (isSigned ? r.sle(l) : r.ule(l)) ? 1 : 0);
    default:
      fail(loc, "operator cannot be applied here");
    }
  }

  Value evalBinary(Ctx &ctx, const BinaryExpr &b) {
    // Short-circuit logical operators.
    if (b.op == BinaryOp::LogicalAnd) {
      Value l = evalExpr(ctx, *b.lhs);
      if (l.bits.isZero())
        return Value::scalar(BitVector(1, 0));
      Value r = evalExpr(ctx, *b.rhs);
      return Value::scalar(BitVector(1, r.bits.isZero() ? 0 : 1));
    }
    if (b.op == BinaryOp::LogicalOr) {
      Value l = evalExpr(ctx, *b.lhs);
      if (!l.bits.isZero())
        return Value::scalar(BitVector(1, 1));
      Value r = evalExpr(ctx, *b.rhs);
      return Value::scalar(BitVector(1, r.bits.isZero() ? 0 : 1));
    }

    Value l = evalExpr(ctx, *b.lhs);
    Value r = evalExpr(ctx, *b.rhs);

    // Pointer arithmetic and comparison.
    if (l.kind == Value::Kind::Ptr || r.kind == Value::Kind::Ptr) {
      if (b.op == BinaryOp::Add || b.op == BinaryOp::Sub) {
        Value p = l.kind == Value::Kind::Ptr ? l : r;
        Value n = l.kind == Value::Kind::Ptr ? r : l;
        const Type *ptrTy =
            l.kind == Value::Kind::Ptr ? b.lhs->type : b.rhs->type;
        std::uint64_t stride = countScalars(ptrTy->element());
        std::int64_t delta = n.bits.toInt64() * static_cast<std::int64_t>(stride);
        if (b.op == BinaryOp::Sub)
          delta = -delta;
        Value out = p;
        out.ptr.index = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(p.ptr.index) + delta);
        return out;
      }
      if (b.op == BinaryOp::Eq || b.op == BinaryOp::Ne) {
        bool eq = l.kind == r.kind && l.ptr.object == r.ptr.object &&
                  l.ptr.index == r.ptr.index;
        return Value::scalar(BitVector(1, (b.op == BinaryOp::Eq) == eq));
      }
      fail(b.loc, "unsupported pointer operation");
    }

    bool isSigned = b.lhs->type->isScalar() && b.lhs->type->isSigned();
    return Value::scalar(applyBinary(b.op, l.bits, r.bits, isSigned, b.loc));
  }

  Value evalAssign(Ctx &ctx, const AssignExpr &a) {
    Location loc = evalLocation(ctx, *a.target);
    Value v = evalExpr(ctx, *a.value);
    if (a.isCompound) {
      Value old = loadLocation(ctx, loc, a.loc);
      if (old.kind == Value::Kind::Ptr) {
        fail(a.loc, "compound assignment to pointer is unsupported");
      }
      bool isSigned = loc.type->isScalar() && loc.type->isSigned();
      // Compute at the target's width: value was coerced by sema.
      BitVector rhs = v.bits.resize(old.bits.width(),
                                    a.value->type->isScalar() &&
                                        a.value->type->isSigned());
      v = Value::scalar(
          applyBinary(a.compoundOp, old.bits, rhs, isSigned, a.loc));
    }
    storeLocation(ctx, loc, v, a.loc);
    return loadLocation(ctx, loc, a.loc);
  }

  Value evalCall(Ctx &ctx, const CallExpr &call) {
    const FuncDecl *fn = call.decl;
    if (!fn)
      fail(call.loc, "call to unresolved function");
    Frame frame;
    // Bind parameters.
    for (std::size_t i = 0; i < fn->params.size(); ++i) {
      const VarDecl &param = *fn->params[i];
      const Expr &arg = *call.args[i];
      Binding b;
      if (param.type->isArray()) {
        Location loc = evalLocation(ctx, arg);
        b = {Binding::Kind::Object, loc.object, loc.index};
      } else if (param.type->isChan()) {
        if (arg.kind != Expr::Kind::VarRef)
          fail(arg.loc, "channel argument must be a channel name");
        const Binding &src = lookup(
            ctx, static_cast<const VarRefExpr &>(arg).decl, arg.loc);
        b = src;
      } else {
        Value v = evalExpr(ctx, arg);
        unsigned obj = allocateObject(param.type);
        objects[obj]->cells[0] = std::move(v);
        b = {Binding::Kind::Object, obj, 0};
      }
      frame.bindings.emplace(param.id, b);
    }

    // Fresh frame stack for the callee: globals plus this frame only, so
    // recursion sees its own locals.
    Ctx calleeCtx{this, {&frame}, ctx.lock};
    execStmt(calleeCtx, *fn->body);
    if (!fn->returnType->isVoid() && !frame.returned)
      fail(call.loc, "function '" + fn->name + "' finished without return");
    return Value::scalar(frame.returned ? frame.returnValue : BitVector(1));
  }

  // -- statements -----------------------------------------------------------

  Frame &topFrame(Ctx &ctx) {
    assert(!ctx.frames.empty());
    return *ctx.frames.back();
  }

  // The frame that owns `return` — the bottom-most, since par branches push
  // no frames and calls reset the stack.
  Frame &functionFrame(Ctx &ctx) { return *ctx.frames.front(); }

  Flow execStmt(Ctx &ctx, const Stmt &stmt) {
    step(stmt.loc);
    switch (stmt.kind) {
    case Stmt::Kind::Decl: {
      const auto &d = static_cast<const DeclStmt &>(stmt);
      declare(ctx, *d.decl);
      return Flow::Normal;
    }
    case Stmt::Kind::Expr: {
      const auto &e = static_cast<const ExprStmt &>(stmt);
      if (e.expr)
        evalExpr(ctx, *e.expr);
      return Flow::Normal;
    }
    case Stmt::Kind::Block: {
      const auto &b = static_cast<const BlockStmt &>(stmt);
      for (const auto &s : b.stmts) {
        Flow f = execStmt(ctx, *s);
        if (f != Flow::Normal)
          return f;
      }
      return Flow::Normal;
    }
    case Stmt::Kind::If: {
      const auto &i = static_cast<const IfStmt &>(stmt);
      Value c = evalExpr(ctx, *i.cond);
      if (!c.bits.isZero())
        return execStmt(ctx, *i.thenStmt);
      if (i.elseStmt)
        return execStmt(ctx, *i.elseStmt);
      return Flow::Normal;
    }
    case Stmt::Kind::While: {
      const auto &w = static_cast<const WhileStmt &>(stmt);
      while (!evalExpr(ctx, *w.cond).bits.isZero()) {
        Flow f = execStmt(ctx, *w.body);
        if (f == Flow::Break)
          break;
        if (f == Flow::Return)
          return f;
      }
      return Flow::Normal;
    }
    case Stmt::Kind::DoWhile: {
      const auto &w = static_cast<const DoWhileStmt &>(stmt);
      do {
        Flow f = execStmt(ctx, *w.body);
        if (f == Flow::Break)
          break;
        if (f == Flow::Return)
          return f;
      } while (!evalExpr(ctx, *w.cond).bits.isZero());
      return Flow::Normal;
    }
    case Stmt::Kind::For: {
      const auto &f = static_cast<const ForStmt &>(stmt);
      if (f.init)
        execStmt(ctx, *f.init);
      while (!f.cond || !evalExpr(ctx, *f.cond).bits.isZero()) {
        Flow flow = execStmt(ctx, *f.body);
        if (flow == Flow::Break)
          break;
        if (flow == Flow::Return)
          return flow;
        if (f.step)
          evalExpr(ctx, *f.step);
      }
      return Flow::Normal;
    }
    case Stmt::Kind::Return: {
      const auto &r = static_cast<const ReturnStmt &>(stmt);
      Frame &frame = functionFrame(ctx);
      if (r.value)
        frame.returnValue = evalExpr(ctx, *r.value).bits;
      frame.returned = true;
      return Flow::Return;
    }
    case Stmt::Kind::Break:
      return Flow::Break;
    case Stmt::Kind::Continue:
      return Flow::Continue;
    case Stmt::Kind::Par:
      execPar(ctx, static_cast<const ParStmt &>(stmt));
      return Flow::Normal;
    case Stmt::Kind::Send: {
      const auto &s = static_cast<const SendStmt &>(stmt);
      Channel &chan = evalChannel(ctx, *s.chan);
      Value v = evalExpr(ctx, *s.value);
      channelSend(ctx, chan, std::move(v.bits), s.loc);
      return Flow::Normal;
    }
    case Stmt::Kind::Recv: {
      const auto &r = static_cast<const RecvStmt &>(stmt);
      Channel &chan = evalChannel(ctx, *r.chan);
      BitVector v = channelRecv(ctx, chan, r.loc);
      Location loc = evalLocation(ctx, *r.target);
      storeLocation(ctx, loc,
                    Value::scalar(v.resize(
                        loc.type->bitWidth(),
                        r.chan->type->element()->isSigned())),
                    r.loc);
      return Flow::Normal;
    }
    case Stmt::Kind::Delay:
      return Flow::Normal; // timing-only; no functional effect
    case Stmt::Kind::Constraint:
      return execStmt(ctx, *static_cast<const ConstraintStmt &>(stmt).body);
    }
    fail(stmt.loc, "unsupported statement");
  }

  void declare(Ctx &ctx, const VarDecl &decl) {
    Binding b;
    if (decl.type->isChan()) {
      b = {Binding::Kind::Chan, allocateChannel(), 0};
    } else {
      unsigned obj = allocateObject(decl.type);
      b = {Binding::Kind::Object, obj, 0};
      if (decl.init) {
        Value v = evalExpr(ctx, *decl.init);
        storeLocation(ctx, {obj, 0, leafType(decl.type)}, std::move(v),
                      decl.loc);
      }
      for (std::size_t i = 0; i < decl.arrayInit.size(); ++i) {
        Value v = evalExpr(ctx, *decl.arrayInit[i]);
        storeLocation(ctx, {obj, i, leafType(decl.type)}, std::move(v),
                      decl.loc);
      }
    }
    topFrame(ctx).bindings[decl.id] = b;
  }

  void execPar(Ctx &ctx, const ParStmt &par) {
    if (par.branches.empty())
      return;
    std::vector<std::optional<RuntimeError>> errors(par.branches.size());
    // Guard events (budget trips, injected faults) raised on a branch
    // thread; rethrown on the parent so they still unwind to call().
    std::vector<std::optional<guard::Verdict>> guardErrors(par.branches.size());
    std::vector<std::thread> threads;
    threads.reserve(par.branches.size());

    // Release the GIL while the branches run.
    ctx.lock->unlock();
    for (std::size_t i = 0; i < par.branches.size(); ++i) {
      threads.emplace_back([this, &ctx, &par, &errors, &guardErrors, i] {
        std::unique_lock<std::mutex> lock(gil);
        Ctx branchCtx{this, ctx.frames, &lock};
        try {
          Flow f = execStmt(branchCtx, *par.branches[i]);
          if (f != Flow::Normal)
            fail(par.branches[i]->loc,
                 "control flow may not leave a par branch");
        } catch (RuntimeError &e) {
          errors[i] = std::move(e);
        } catch (const guard::GuardEvent &e) {
          guardErrors[i] = e.verdict;
        }
      });
    }
    for (auto &t : threads)
      t.join();
    ctx.lock->lock();
    for (auto &v : guardErrors)
      if (v)
        throw guard::BudgetExceeded(*v);
    for (auto &e : errors)
      if (e)
        throw RuntimeError(*e);
  }
};

// ---------------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------------

Interpreter::Interpreter(const ast::Program &program, InterpOptions options)
    : impl_(std::make_unique<Impl>(program, options)) {
  // Allocate and initialize globals in declaration order.
  std::unique_lock<std::mutex> lock(impl_->gil);
  Frame scratch;
  Impl::Ctx ctx{impl_.get(), {&scratch}, &lock};
  for (const auto &g : program.globals) {
    if (g->type->isChan()) {
      impl_->globalBindings[g->id] = {Binding::Kind::Chan,
                                      impl_->allocateChannel(), 0};
      continue;
    }
    unsigned obj = impl_->allocateObject(g->type);
    impl_->globalBindings[g->id] = {Binding::Kind::Object, obj, 0};
    try {
      if (g->init) {
        Value v = impl_->evalExpr(ctx, *g->init);
        impl_->storeLocation(ctx, {obj, 0, leafType(g->type)}, std::move(v),
                             g->loc);
      }
      for (std::size_t i = 0; i < g->arrayInit.size(); ++i) {
        Value v = impl_->evalExpr(ctx, *g->arrayInit[i]);
        impl_->storeLocation(ctx, {obj, i, leafType(g->type)}, std::move(v),
                             g->loc);
      }
    } catch (const RuntimeError &) {
      // Global initializers are checked constants; ignore exotic failures
      // here, the first call() will surface real problems.
    }
  }
}

Interpreter::~Interpreter() = default;

InterpResult Interpreter::call(const std::string &name,
                               const std::vector<BitVector> &args) {
  InterpResult result;
  const ast::FuncDecl *fn = impl_->program.findFunction(name);
  if (!fn) {
    result.error = "no function named '" + name + "'";
    return result;
  }
  if (args.size() != fn->params.size()) {
    result.error = "argument count mismatch calling '" + name + "'";
    return result;
  }

  std::unique_lock<std::mutex> lock(impl_->gil);
  Frame frame;
  Impl::Ctx ctx{impl_.get(), {&frame}, &lock};
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const VarDecl &param = *fn->params[i];
      if (!param.type->isScalar())
        throw RuntimeError{"top-level call arguments must be scalars",
                           param.loc};
      unsigned obj = impl_->allocateObject(param.type);
      impl_->objects[obj]->cells[0] = Value::scalar(args[i].resize(
          param.type->bitWidth(), param.type->isSigned()));
      frame.bindings[param.id] = {Binding::Kind::Object, obj, 0};
    }
    impl_->execStmt(ctx, *fn->body);
    if (!fn->returnType->isVoid() && !frame.returned)
      throw RuntimeError{"function '" + name + "' finished without return",
                         fn->loc};
    result.ok = true;
    if (!fn->returnType->isVoid())
      result.returnValue = frame.returnValue;
  } catch (const RuntimeError &e) {
    result.error = e.loc.str() + ": " + e.message;
  } catch (const guard::BudgetExceeded &e) {
    result.verdict = e.verdict;
    result.error = e.verdict.kind == guard::Kind::StepLimit
                       ? "interpreter step budget exceeded (possible "
                         "infinite loop): " +
                             e.verdict.str()
                       : e.verdict.str();
  } catch (const guard::InjectedFault &e) {
    result.verdict = e.verdict;
    result.error = e.verdict.str();
  }
  result.steps = impl_->steps.load();
  return result;
}

std::vector<BitVector> Interpreter::readGlobal(const std::string &name) const {
  const VarDecl *decl = impl_->program.findGlobal(name);
  if (!decl)
    return {};
  auto it = impl_->globalBindings.find(decl->id);
  if (it == impl_->globalBindings.end() ||
      it->second.kind != Binding::Kind::Object)
    return {};
  std::vector<BitVector> out;
  for (const auto &cell : impl_->objects[it->second.id]->cells)
    out.push_back(cell.bits);
  return out;
}

void Interpreter::writeGlobal(const std::string &name,
                              const std::vector<BitVector> &cells) {
  const VarDecl *decl = impl_->program.findGlobal(name);
  if (!decl)
    return;
  auto it = impl_->globalBindings.find(decl->id);
  if (it == impl_->globalBindings.end() ||
      it->second.kind != Binding::Kind::Object)
    return;
  auto &storage = impl_->objects[it->second.id]->cells;
  const Type *leaf = leafType(decl->type);
  for (std::size_t i = 0; i < cells.size() && i < storage.size(); ++i)
    storage[i] = Value::scalar(
        cells[i].resize(leaf->isScalar() ? leaf->bitWidth()
                                         : Type::kPointerWidth,
                        leaf->isScalar() && leaf->isSigned()));
}

} // namespace c2h
