#include "ir_eval.h"

#include <stdexcept>

namespace cmtl {

Bits
irEvalBinOp(IrOp op, const Bits &a, const Bits &b, int nbits)
{
    switch (op) {
      case IrOp::Add: return (a + b).zext(nbits);
      case IrOp::Sub: return (a - b).zext(nbits);
      case IrOp::Mul: return (a * b).zext(nbits);
      case IrOp::And: return (a & b).zext(nbits);
      case IrOp::Or: return (a | b).zext(nbits);
      case IrOp::Xor: return (a ^ b).zext(nbits);
      case IrOp::Shl: return (a << b).zext(nbits);
      case IrOp::Shr: return (a >> b).zext(nbits);
      case IrOp::Sra:
        return a.sra(static_cast<int>(
            b.fitsUint64() ? std::min<uint64_t>(b.toUint64(), a.nbits())
                           : a.nbits()));
      case IrOp::Eq: return Bits(1, a == b);
      case IrOp::Ne: return Bits(1, a != b);
      case IrOp::Lt: return Bits(1, a < b);
      case IrOp::Le: return Bits(1, a <= b);
      case IrOp::Gt: return Bits(1, a > b);
      case IrOp::Ge: return Bits(1, a >= b);
      case IrOp::LAnd: return Bits(1, a.any() && b.any());
      case IrOp::LOr: return Bits(1, a.any() || b.any());
    }
    throw std::logic_error("unhandled IrOp");
}

Bits
irEvalUnOp(IrUnOp op, const Bits &a)
{
    switch (op) {
      case IrUnOp::Inv: return ~a;
      case IrUnOp::LNot: return Bits(1, !a.any());
      case IrUnOp::ReduceOr: return a.reduceOr();
      case IrUnOp::ReduceAnd: return a.reduceAnd();
      case IrUnOp::ReduceXor: return a.reduceXor();
    }
    throw std::logic_error("unhandled IrUnOp");
}

// -------------------------------------------------------- BoxedEvaluator

BoxedEvaluator::Box
BoxedEvaluator::eval(IrView e)
{
    // Every intermediate allocates a fresh box: CPython object churn.
    switch (e.kind()) {
      case IrKind::Const:
        return std::make_shared<const Bits>(e.value());
      case IrKind::Ref:
        return std::make_shared<const Bits>(store_.read(e.sig()->netId()));
      case IrKind::Temp:
        return temps_[e.temp()];
      case IrKind::BinOp: {
        Box a = eval(e.arg(0));
        Box b = eval(e.arg(1));
        return std::make_shared<const Bits>(
            irEvalBinOp(e.op(), *a, *b, e.nbits()));
      }
      case IrKind::UnOp: {
        Box a = eval(e.arg(0));
        return std::make_shared<const Bits>(irEvalUnOp(e.unop(), *a));
      }
      case IrKind::Slice: {
        Box a = eval(e.arg(0));
        return std::make_shared<const Bits>(a->slice(e.lsb(), e.nbits()));
      }
      case IrKind::Concat: {
        Bits out(e.nbits());
        int pos = e.nbits();
        for (IrView arg : e.args()) {
            Box part = eval(arg);
            pos -= arg.nbits();
            out.setSlice(pos, *part);
        }
        return std::make_shared<const Bits>(std::move(out));
      }
      case IrKind::Mux: {
        Box c = eval(e.arg(0));
        Box v = c->any() ? eval(e.arg(1)) : eval(e.arg(2));
        return std::make_shared<const Bits>(v->zext(e.nbits()));
      }
      case IrKind::Zext: {
        Box a = eval(e.arg(0));
        return std::make_shared<const Bits>(a->zext(e.nbits()));
      }
      case IrKind::Sext: {
        Box a = eval(e.arg(0));
        return std::make_shared<const Bits>(a->sext(e.nbits()));
      }
      case IrKind::ARead: {
        Box idx = eval(e.arg(0));
        return std::make_shared<const Bits>(
            store_.arrayRead(e.array()->arrayId(), idx->toUint64()));
      }
    }
    throw std::logic_error("unhandled IrKind");
}

void
BoxedEvaluator::exec(const std::vector<IrStmt> &stmts, bool sequential)
{
    for (const IrStmt &s : stmts) {
        switch (s.kind) {
          case IrStmt::Kind::Assign: {
            Box rhs = eval(s.rhs);
            if (s.temp >= 0 && !s.sig) {
                temps_[s.temp] = rhs;
                break;
            }
            int net = s.sig->netId();
            const bool next = sequential && s.nonblocking;
            const Bits *value = rhs.get();
            Bits whole;
            if (s.width >= 0) {
                whole = next ? store_.readNext(net) : store_.read(net);
                whole.setSlice(s.lsb, rhs->zext(s.width));
                value = &whole;
            }
            if (next)
                store_.writeNext(net, *value);
            else
                store_.write(net, *value);
            break;
          }
          case IrStmt::Kind::If: {
            Box cond = eval(s.cond);
            if (cond->any())
                exec(s.thenBody, sequential);
            else
                exec(s.elseBody, sequential);
            break;
          }
          case IrStmt::Kind::AWrite: {
            Box idx = eval(s.cond);
            Box val = eval(s.rhs);
            store_.arrayWrite(s.array->arrayId(), idx->toUint64(),
                              *val);
            break;
          }
        }
    }
}

void
BoxedEvaluator::run(const ElabBlock &blk)
{
    temps_.assign(blk.ir->temps.size(), nullptr);
    exec(blk.ir->stmts, blk.ir->sequential);
}

// --------------------------------------------------------- SlotEvaluator

Bits
SlotEvaluator::eval(IrView e)
{
    switch (e.kind()) {
      case IrKind::Const:
        return e.value();
      case IrKind::Ref:
        return store_.read(e.sig()->netId());
      case IrKind::Temp:
        return temps_[e.temp()];
      case IrKind::BinOp:
        return irEvalBinOp(e.op(), eval(e.arg(0)), eval(e.arg(1)),
                           e.nbits());
      case IrKind::UnOp:
        return irEvalUnOp(e.unop(), eval(e.arg(0)));
      case IrKind::Slice:
        return eval(e.arg(0)).slice(e.lsb(), e.nbits());
      case IrKind::Concat: {
        Bits out(e.nbits());
        int pos = e.nbits();
        for (IrView arg : e.args()) {
            pos -= arg.nbits();
            out.setSlice(pos, eval(arg));
        }
        return out;
      }
      case IrKind::Mux:
        return (eval(e.arg(0)).any() ? eval(e.arg(1)) : eval(e.arg(2)))
            .zext(e.nbits());
      case IrKind::Zext:
        return eval(e.arg(0)).zext(e.nbits());
      case IrKind::Sext:
        return eval(e.arg(0)).sext(e.nbits());
      case IrKind::ARead:
        return store_.arrayRead(e.array()->arrayId(),
                                eval(e.arg(0)).toUint64());
    }
    throw std::logic_error("unhandled IrKind");
}

void
SlotEvaluator::exec(const std::vector<IrStmt> &stmts, bool sequential)
{
    for (const IrStmt &s : stmts) {
        switch (s.kind) {
          case IrStmt::Kind::Assign: {
            Bits rhs = eval(s.rhs);
            if (s.temp >= 0 && !s.sig) {
                temps_[s.temp] = std::move(rhs);
                break;
            }
            int net = s.sig->netId();
            const bool next = sequential && s.nonblocking;
            if (s.width >= 0) {
                Bits whole = next ? store_.readNext(net) : store_.read(net);
                whole.setSlice(s.lsb, rhs.zext(s.width));
                rhs = std::move(whole);
            }
            if (next)
                store_.writeNext(net, rhs);
            else
                store_.write(net, rhs);
            break;
          }
          case IrStmt::Kind::If:
            if (eval(s.cond).any())
                exec(s.thenBody, sequential);
            else
                exec(s.elseBody, sequential);
            break;
          case IrStmt::Kind::AWrite:
            store_.arrayWrite(s.array->arrayId(),
                              eval(s.cond).toUint64(),
                              eval(s.rhs));
            break;
        }
    }
}

void
SlotEvaluator::run(const ElabBlock &blk)
{
    temps_.assign(blk.ir->temps.size(), Bits());
    exec(blk.ir->stmts, blk.ir->sequential);
}

} // namespace cmtl
