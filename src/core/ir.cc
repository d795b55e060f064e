#include "ir.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "model.h"
#include "signal.h"

namespace cmtl {

namespace {

IrExpr
makeNode(IrExprNode node)
{
    return IrExpr(std::make_shared<const IrExprNode>(std::move(node)));
}

void
requireValid(const IrExpr &e, const char *what)
{
    if (!e.valid())
        throw std::invalid_argument(std::string("invalid IrExpr in ") + what);
}

IrExpr
binop(IrOp op, const IrExpr &a, const IrExpr &b)
{
    requireValid(a, "binop");
    requireValid(b, "binop");
    IrExprNode n;
    n.kind = IrExprNode::Kind::BinOp;
    n.op = op;
    switch (op) {
      case IrOp::Eq: case IrOp::Ne: case IrOp::Lt: case IrOp::Le:
      case IrOp::Gt: case IrOp::Ge: case IrOp::LAnd: case IrOp::LOr:
        n.nbits = 1;
        break;
      case IrOp::Shl: case IrOp::Shr: case IrOp::Sra:
        n.nbits = a.nbits();
        break;
      default:
        n.nbits = std::max(a.nbits(), b.nbits());
    }
    n.args = {a.node(), b.node()};
    return makeNode(std::move(n));
}

IrExpr
unop(IrUnOp op, int nbits, const IrExprPtr &arg)
{
    IrExprNode n;
    n.kind = IrExprNode::Kind::UnOp;
    n.unop = op;
    n.nbits = nbits;
    n.args = {arg};
    return makeNode(std::move(n));
}

} // namespace

IrExpr
rd(Signal &sig)
{
    IrExprPtr &ref = sig.refNode();
    if (!ref) {
        IrExprNode n;
        n.kind = IrExprNode::Kind::Ref;
        n.nbits = sig.nbits();
        n.sig = &sig;
        ref = makeNode(std::move(n)).node();
    }
    return IrExpr(ref);
}

IrExpr
aread(MemArray &array, const IrExpr &index)
{
    requireValid(index, "aread");
    IrExprNode n;
    n.kind = IrExprNode::Kind::ARead;
    n.nbits = array.nbits();
    n.array = &array;
    n.args = {index.node()};
    return makeNode(std::move(n));
}

IrExpr
lit(int nbits, uint64_t value)
{
    // Narrow small constants come from one process-wide table: each
    // entry is built on first use, under the lock, and published
    // through its flag, so later calls from any thread share it.
    constexpr int kBits = 64, kValues = 32;
    struct Table
    {
        std::mutex mu;
        std::atomic<bool> ready[kBits][kValues] = {};
        IrExprPtr node[kBits][kValues];
    };
    static Table table;
    const bool shared = nbits >= 1 && nbits <= kBits && value < kValues &&
                        (nbits >= 64 || value >> nbits == 0);
    if (shared) {
        std::atomic<bool> &ready = table.ready[nbits - 1][value];
        IrExprPtr &node = table.node[nbits - 1][value];
        if (!ready.load(std::memory_order_acquire)) {
            std::lock_guard<std::mutex> lock(table.mu);
            if (!node)
                node = lit(Bits(nbits, value)).node();
            ready.store(true, std::memory_order_release);
        }
        return IrExpr(node);
    }
    return lit(Bits(nbits, value));
}

IrExpr
lit(const Bits &value)
{
    IrExprNode n;
    n.kind = IrExprNode::Kind::Const;
    n.nbits = value.nbits();
    n.cval = value;
    return makeNode(std::move(n));
}

IrExpr
IrExpr::slice(int lsb, int len) const
{
    requireValid(*this, "slice");
    if (lsb < 0 || len < 1 || lsb + len > nbits())
        throw std::out_of_range("IR slice out of range");
    IrExprNode n;
    n.kind = IrExprNode::Kind::Slice;
    n.nbits = len;
    n.lsb = lsb;
    n.args = {node_};
    return makeNode(std::move(n));
}

IrExpr
IrExpr::zext(int nbits) const
{
    requireValid(*this, "zext");
    if (nbits == this->nbits())
        return *this;
    IrExprNode n;
    n.kind = IrExprNode::Kind::Zext;
    n.nbits = nbits;
    n.args = {node_};
    return makeNode(std::move(n));
}

IrExpr
IrExpr::sext(int nbits) const
{
    requireValid(*this, "sext");
    if (nbits == this->nbits())
        return *this;
    IrExprNode n;
    n.kind = IrExprNode::Kind::Sext;
    n.nbits = nbits;
    n.args = {node_};
    return makeNode(std::move(n));
}

IrExpr IrExpr::operator~() const
{ return unop(IrUnOp::Inv, nbits(), node_); }
IrExpr IrExpr::operator!() const
{ return unop(IrUnOp::LNot, 1, node_); }
IrExpr IrExpr::reduceOr() const
{ return unop(IrUnOp::ReduceOr, 1, node_); }
IrExpr IrExpr::reduceAnd() const
{ return unop(IrUnOp::ReduceAnd, 1, node_); }
IrExpr IrExpr::reduceXor() const
{ return unop(IrUnOp::ReduceXor, 1, node_); }

IrExpr
mux(const IrExpr &cond, const IrExpr &a, const IrExpr &b)
{
    requireValid(cond, "mux");
    requireValid(a, "mux");
    requireValid(b, "mux");
    IrExprNode n;
    n.kind = IrExprNode::Kind::Mux;
    n.nbits = std::max(a.nbits(), b.nbits());
    n.args = {cond.node(), a.node(), b.node()};
    return makeNode(std::move(n));
}

IrExpr
cat(std::initializer_list<IrExpr> parts)
{
    IrExprNode n;
    n.kind = IrExprNode::Kind::Concat;
    n.nbits = 0;
    for (const auto &p : parts) {
        requireValid(p, "cat");
        n.nbits += p.nbits();
        n.args.push_back(p.node());
    }
    if (n.args.empty())
        throw std::invalid_argument("cat of zero parts");
    return makeNode(std::move(n));
}

IrExpr
cat(const IrExpr &hi, const IrExpr &lo)
{
    return cat({hi, lo});
}

IrExpr operator+(const IrExpr &a, const IrExpr &b)
{ return binop(IrOp::Add, a, b); }
IrExpr operator-(const IrExpr &a, const IrExpr &b)
{ return binop(IrOp::Sub, a, b); }
IrExpr operator*(const IrExpr &a, const IrExpr &b)
{ return binop(IrOp::Mul, a, b); }
IrExpr operator&(const IrExpr &a, const IrExpr &b)
{ return binop(IrOp::And, a, b); }
IrExpr operator|(const IrExpr &a, const IrExpr &b)
{ return binop(IrOp::Or, a, b); }
IrExpr operator^(const IrExpr &a, const IrExpr &b)
{ return binop(IrOp::Xor, a, b); }
IrExpr operator<<(const IrExpr &a, const IrExpr &b)
{ return binop(IrOp::Shl, a, b); }
IrExpr operator>>(const IrExpr &a, const IrExpr &b)
{ return binop(IrOp::Shr, a, b); }
IrExpr sra(const IrExpr &a, const IrExpr &b)
{ return binop(IrOp::Sra, a, b); }
IrExpr operator==(const IrExpr &a, const IrExpr &b)
{ return binop(IrOp::Eq, a, b); }
IrExpr operator!=(const IrExpr &a, const IrExpr &b)
{ return binop(IrOp::Ne, a, b); }
IrExpr operator<(const IrExpr &a, const IrExpr &b)
{ return binop(IrOp::Lt, a, b); }
IrExpr operator<=(const IrExpr &a, const IrExpr &b)
{ return binop(IrOp::Le, a, b); }
IrExpr operator>(const IrExpr &a, const IrExpr &b)
{ return binop(IrOp::Gt, a, b); }
IrExpr operator>=(const IrExpr &a, const IrExpr &b)
{ return binop(IrOp::Ge, a, b); }
IrExpr operator&&(const IrExpr &a, const IrExpr &b)
{ return binop(IrOp::LAnd, a, b); }
IrExpr operator||(const IrExpr &a, const IrExpr &b)
{ return binop(IrOp::LOr, a, b); }

IrExpr operator+(const IrExpr &a, uint64_t b)
{ return a + lit(a.nbits(), b); }
IrExpr operator-(const IrExpr &a, uint64_t b)
{ return a - lit(a.nbits(), b); }
IrExpr operator==(const IrExpr &a, uint64_t b)
{ return a == lit(a.nbits(), b); }
IrExpr operator!=(const IrExpr &a, uint64_t b)
{ return a != lit(a.nbits(), b); }
IrExpr operator<(const IrExpr &a, uint64_t b)
{ return a < lit(a.nbits(), b); }
IrExpr operator<=(const IrExpr &a, uint64_t b)
{ return a <= lit(a.nbits(), b); }
IrExpr operator>(const IrExpr &a, uint64_t b)
{ return a > lit(a.nbits(), b); }
IrExpr operator>=(const IrExpr &a, uint64_t b)
{ return a >= lit(a.nbits(), b); }
IrExpr operator<<(const IrExpr &a, int b)
{ return a << lit(32, static_cast<uint64_t>(b)); }
IrExpr operator>>(const IrExpr &a, int b)
{ return a >> lit(32, static_cast<uint64_t>(b)); }

BlockBuilder::BlockBuilder(IrBlock *block) : block_(block)
{
    stack_.push_back(&block_->stmts);
}

void
BlockBuilder::push(const IrStmt &stmt)
{
    current()->push_back(stmt);
}

IrExpr
BlockBuilder::let(const std::string &name, const IrExpr &rhs)
{
    if (!rhs.valid())
        throw std::invalid_argument("let: invalid rhs");
    int idx = static_cast<int>(block_->temps.size());
    block_->temps.push_back(IrTemp{name, rhs.nbits()});

    IrStmt stmt;
    stmt.kind = IrStmt::Kind::Assign;
    stmt.temp = idx;
    stmt.rhs = rhs.node();
    push(stmt);

    IrExprNode ref;
    ref.kind = IrExprNode::Kind::Temp;
    ref.nbits = rhs.nbits();
    ref.temp = idx;
    return IrExpr(std::make_shared<const IrExprNode>(std::move(ref)));
}

void
BlockBuilder::setTemp(const IrExpr &temp, const IrExpr &rhs)
{
    if (!temp.valid() || temp.node()->kind != IrExprNode::Kind::Temp)
        throw std::invalid_argument("setTemp: target is not a temp");
    IrStmt stmt;
    stmt.kind = IrStmt::Kind::Assign;
    stmt.temp = temp.node()->temp;
    stmt.rhs = rhs.node();
    push(stmt);
}

void
BlockBuilder::assign(Signal &target, const IrExpr &rhs)
{
    if (!rhs.valid())
        throw std::invalid_argument("assign: invalid rhs");
    IrStmt stmt;
    stmt.kind = IrStmt::Kind::Assign;
    stmt.sig = &target;
    stmt.nonblocking = block_->sequential;
    stmt.rhs = rhs.nbits() == target.nbits()
                   ? rhs.node()
                   : rhs.zext(target.nbits()).node();
    push(stmt);
}

void
BlockBuilder::assign(Signal &target, uint64_t rhs)
{
    assign(target, lit(target.nbits(), rhs));
}

void
BlockBuilder::assignSlice(Signal &target, int lsb, int width,
                          const IrExpr &rhs)
{
    if (lsb < 0 || width < 1 || lsb + width > target.nbits())
        throw std::out_of_range("assignSlice out of range");
    IrStmt stmt;
    stmt.kind = IrStmt::Kind::Assign;
    stmt.sig = &target;
    stmt.lsb = lsb;
    stmt.width = width;
    stmt.nonblocking = block_->sequential;
    stmt.rhs = rhs.nbits() == width ? rhs.node() : rhs.zext(width).node();
    push(stmt);
}

void
BlockBuilder::writeArray(MemArray &target, const IrExpr &index,
                         const IrExpr &rhs)
{
    if (!block_->sequential)
        throw std::logic_error(
            "writeArray is only legal in sequential (tickRtl) blocks");
    if (!index.valid() || !rhs.valid())
        throw std::invalid_argument("writeArray: invalid operand");
    IrStmt stmt;
    stmt.kind = IrStmt::Kind::AWrite;
    stmt.array = &target;
    stmt.cond = index.node();
    stmt.rhs = rhs.nbits() == target.nbits()
                   ? rhs.node()
                   : rhs.zext(target.nbits()).node();
    push(stmt);
}

void
BlockBuilder::if_(const IrExpr &cond, const std::function<void()> &then_,
                  const std::function<void()> &else_)
{
    if (!cond.valid())
        throw std::invalid_argument("if_: invalid condition");
    IrStmt stmt;
    stmt.kind = IrStmt::Kind::If;
    stmt.cond = cond.node();
    push(stmt);
    IrStmt &placed = current()->back();

    stack_.push_back(&placed.thenBody);
    then_();
    stack_.pop_back();

    if (else_) {
        stack_.push_back(&placed.elseBody);
        else_();
        stack_.pop_back();
    }
}

void
BlockBuilder::ifChain(
    std::initializer_list<std::pair<IrExpr, std::function<void()>>> arms,
    const std::function<void()> &else_)
{
    // Build nested if/else from the arm list, recursively.
    std::vector<std::pair<IrExpr, std::function<void()>>> v(arms);
    std::function<void(size_t)> emit = [&](size_t i) {
        if (i >= v.size()) {
            if (else_)
                else_();
            return;
        }
        if_(v[i].first, v[i].second, [&] { emit(i + 1); });
    };
    emit(0);
}

namespace {

/**
 * The one walk behind irSummarize. It visits statements and operands
 * in bcCompile's order, so that first uses and literals come out in
 * the order the compiler numbers them.
 */
class Summarizer
{
  public:
    Summarizer(IrBlockSummary &out, IrShape *shape, bool sequential)
        : out_(out), shape_(shape), seq_(sequential)
    {}

    void
    stmts(const std::vector<IrStmt> &list)
    {
        put(static_cast<int32_t>(list.size()));
        for (const IrStmt &s : list) {
            ++out_.nodes;
            put(static_cast<int32_t>(s.kind));
            switch (s.kind) {
              case IrStmt::Kind::Assign:
                expr(s.rhs.get());
                // A temp target is one negative word, a net target an
                // operand index, its width and its lsb.
                if (!s.sig) {
                    put(-(s.temp + 1));
                    break;
                }
                out_.writes.push_back(s.sig);
                widen(s.sig->nbits());
                // Partial writes also read the previous contents.
                if (s.width >= 0 && !s.nonblocking)
                    out_.reads.push_back(s.sig);
                put(operand(2 * s.sig->netId() + (seq_ && s.nonblocking)));
                put(s.width < 0 ? -s.sig->nbits() : s.width);
                put(s.lsb);
                break;
              case IrStmt::Kind::AWrite:
                // The index is in cond, and it is compiled first.
                expr(s.cond.get());
                expr(s.rhs.get());
                out_.arrayWrites.push_back(s.array);
                array(s.array);
                put(s.array->nbits());
                break;
              case IrStmt::Kind::If:
                expr(s.cond.get());
                stmts(s.thenBody);
                stmts(s.elseBody);
                break;
            }
        }
    }

  private:
    void
    expr(const IrExprNode *e)
    {
        ++out_.nodes;
        widen(e->nbits);
        // Kind, operator and width share one word; a width of 2^22 bits
        // or more takes a word of its own after it.
        int32_t sub = 0;
        if (e->kind == IrExprNode::Kind::BinOp)
            sub = static_cast<int32_t>(e->op);
        else if (e->kind == IrExprNode::Kind::UnOp)
            sub = static_cast<int32_t>(e->unop);
        const bool wide = e->nbits >= (1 << 22);
        put(static_cast<int32_t>(e->kind) | sub << 4 |
            (wide ? 0 : e->nbits) << 9);
        if (wide)
            put(e->nbits);
        switch (e->kind) {
          case IrExprNode::Kind::Const:
            literal(e->cval.toUint64() & widthMask(e->nbits));
            break;
          case IrExprNode::Kind::Ref:
            out_.reads.push_back(e->sig);
            put(operand(2 * e->sig->netId()));
            break;
          case IrExprNode::Kind::Temp:
            put(e->temp);
            break;
          case IrExprNode::Kind::Slice:
            put(e->lsb);
            break;
          case IrExprNode::Kind::Concat:
            put(static_cast<int32_t>(e->args.size()));
            break;
          default:
            break;
        }
        for (size_t i = 0; i < e->args.size(); ++i) {
            expr(e->args[i].get());
            // A concatenation shifts in each part after the first by a
            // constant: the part's width.
            if (e->kind == IrExprNode::Kind::Concat && i > 0)
                literal(static_cast<uint64_t>(e->args[i]->nbits));
        }
        if (e->kind == IrExprNode::Kind::ARead) {
            out_.arrayReads.push_back(e->array);
            array(e->array);
        }
    }

    /** An array access: its index mask, then its base word's use. */
    void
    array(const MemArray *a)
    {
        put(static_cast<int32_t>(a->indexMask()));
        put(operand(-(a->arrayId() + 1)));
    }

    /** Index of @p token in the record, added at its first use. */
    int32_t
    operand(int32_t token)
    {
        if (!shape_)
            return 0;
        std::vector<int32_t> &ops = shape_->operands;
        auto it = std::find(ops.begin(), ops.end(), token);
        if (it != ops.end())
            return static_cast<int32_t>(it - ops.begin());
        ops.push_back(token);
        return static_cast<int32_t>(ops.size() - 1);
    }

    void
    literal(uint64_t value)
    {
        if (shape_)
            shape_->literals.push_back(value);
    }

    void
    put(int32_t word)
    {
        if (shape_)
            shape_->code.push_back(word);
    }

    void widen(int nbits) { out_.widest = std::max(out_.widest, nbits); }

    IrBlockSummary &out_;
    IrShape *shape_;
    bool seq_;
};

template <typename T>
void
dedup(std::vector<T *> &v)
{
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
}

const char *
opSymbol(IrOp op)
{
    switch (op) {
      case IrOp::Add: return "+";
      case IrOp::Sub: return "-";
      case IrOp::Mul: return "*";
      case IrOp::And: return "&";
      case IrOp::Or: return "|";
      case IrOp::Xor: return "^";
      case IrOp::Shl: return "<<";
      case IrOp::Shr: return ">>";
      case IrOp::Sra: return ">>>";
      case IrOp::Eq: return "==";
      case IrOp::Ne: return "!=";
      case IrOp::Lt: return "<";
      case IrOp::Le: return "<=";
      case IrOp::Gt: return ">";
      case IrOp::Ge: return ">=";
      case IrOp::LAnd: return "&&";
      case IrOp::LOr: return "||";
    }
    return "?";
}

const char *
unopSymbol(IrUnOp op)
{
    switch (op) {
      case IrUnOp::Inv: return "~";
      case IrUnOp::LNot: return "!";
      case IrUnOp::ReduceOr: return "|";
      case IrUnOp::ReduceAnd: return "&";
      case IrUnOp::ReduceXor: return "^";
    }
    return "?";
}

std::string
exprToString(const IrExprPtr &e)
{
    if (!e)
        return "<null>";
    std::ostringstream os;
    switch (e->kind) {
      case IrExprNode::Kind::Const:
        os << e->cval.toHexString();
        break;
      case IrExprNode::Kind::Ref:
        os << e->sig->fullName();
        break;
      case IrExprNode::Kind::Temp:
        os << "t" << e->temp;
        break;
      case IrExprNode::Kind::BinOp:
        os << "(" << exprToString(e->args[0]) << " " << opSymbol(e->op)
           << " " << exprToString(e->args[1]) << ")";
        break;
      case IrExprNode::Kind::UnOp:
        os << "(" << unopSymbol(e->unop) << exprToString(e->args[0])
           << ")";
        break;
      case IrExprNode::Kind::Slice:
        os << exprToString(e->args[0]) << "[" << (e->lsb + e->nbits - 1)
           << ":" << e->lsb << "]";
        break;
      case IrExprNode::Kind::Concat:
        os << "{";
        for (size_t i = 0; i < e->args.size(); ++i)
            os << (i ? "," : "") << exprToString(e->args[i]);
        os << "}";
        break;
      case IrExprNode::Kind::Mux:
        os << "(" << exprToString(e->args[0]) << " ? "
           << exprToString(e->args[1]) << " : " << exprToString(e->args[2])
           << ")";
        break;
      case IrExprNode::Kind::Zext:
        os << "zext(" << exprToString(e->args[0]) << "," << e->nbits << ")";
        break;
      case IrExprNode::Kind::Sext:
        os << "sext(" << exprToString(e->args[0]) << "," << e->nbits << ")";
        break;
      case IrExprNode::Kind::ARead:
        os << e->array->fullName() << "[" << exprToString(e->args[0])
           << "]";
        break;
    }
    return os.str();
}

void
stmtsToString(const std::vector<IrStmt> &stmts, int indent,
              std::ostringstream &os)
{
    std::string pad(indent, ' ');
    for (const auto &s : stmts) {
        switch (s.kind) {
          case IrStmt::Kind::Assign:
            os << pad;
            if (s.sig)
                os << s.sig->fullName();
            else
                os << "t" << s.temp;
            if (s.width >= 0)
                os << "[" << (s.lsb + s.width - 1) << ":" << s.lsb << "]";
            os << (s.nonblocking ? " <= " : " = ") << exprToString(s.rhs)
               << "\n";
            break;
          case IrStmt::Kind::If:
            os << pad << "if " << exprToString(s.cond) << ":\n";
            stmtsToString(s.thenBody, indent + 2, os);
            if (!s.elseBody.empty()) {
                os << pad << "else:\n";
                stmtsToString(s.elseBody, indent + 2, os);
            }
            break;
          case IrStmt::Kind::AWrite:
            os << pad << s.array->fullName() << "["
               << exprToString(s.cond) << "] <= " << exprToString(s.rhs)
               << "\n";
            break;
        }
    }
}

} // namespace

IrBlockSummary
irSummarize(const IrBlock &block, IrShape *shape)
{
    IrBlockSummary out;
    for (const IrTemp &t : block.temps)
        out.widest = std::max(out.widest, t.nbits);
    if (shape) {
        shape->code.assign(
            {block.sequential, static_cast<int32_t>(block.temps.size())});
        shape->operands.clear();
        shape->literals.clear();
    }
    Summarizer(out, shape, block.sequential).stmts(block.stmts);
    dedup(out.reads);
    dedup(out.writes);
    dedup(out.arrayReads);
    dedup(out.arrayWrites);
    return out;
}

std::string
irExprToString(const IrExprPtr &expr)
{
    return exprToString(expr);
}

std::string
irToString(const IrBlock &block)
{
    std::ostringstream os;
    os << (block.sequential ? "tick_rtl " : "combinational ") << block.name
       << ":\n";
    stmtsToString(block.stmts, 2, os);
    return os.str();
}

} // namespace cmtl
