#include "ir.h"

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>

#include "model.h"
#include "signal.h"

namespace cmtl {

// ----------------------------------------------------------- IrArena

namespace {

/** Operand count of each kind; a Concat's is its node's aux. */
constexpr uint8_t kArity[] = {0, 0, 0, 2, 1, 1, 0, 3, 1, 1, 1};
static_assert(std::size(kArity) == static_cast<size_t>(IrKind::ARead) + 1);

} // namespace

std::span<const IrId>
IrArena::args(IrId id) const
{
    const IrNode &n = nodes_[id];
    if (n.kind == IrKind::Concat)
        return {lists_.data() + n.arg[0], static_cast<size_t>(n.aux)};
    return {n.arg, kArity[static_cast<int>(n.kind)]};
}

Bits
IrArena::value(IrId id) const
{
    const IrNode &n = nodes_[id];
    if (n.nbits <= 64)
        return Bits(n.nbits, n.value);
    return Bits::fromWords(
        n.nbits, std::vector<uint64_t>(words_.begin() + n.value,
                                       words_.begin() + n.value +
                                           bitsToWords(n.nbits)));
}

IrId
IrArena::add(const IrNode &node)
{
    nodes_.push_back(node);
    return static_cast<IrId>(nodes_.size() - 1);
}

IrId
IrArena::constant(const Bits &value)
{
    constexpr int kBits = 64, kValues = 32;
    constexpr IrId kNone = ~IrId(0);
    IrNode n;
    n.nbits = value.nbits();
    IrId *shared = nullptr;
    if (n.nbits <= kBits && value.toUint64() < kValues) {
        if (small_.empty())
            small_.assign(kBits * kValues, kNone);
        shared = &small_[(n.nbits - 1) * kValues + value.toUint64()];
        if (*shared != kNone)
            return *shared;
    }
    if (n.nbits <= 64) {
        n.value = value.toUint64();
    } else {
        n.value = words_.size();
        for (int i = 0; i < value.nwords(); ++i)
            words_.push_back(value.word(i));
    }
    const IrId id = add(n);
    if (shared)
        *shared = id;
    return id;
}

IrId
IrArena::addConcat(int nbits, std::span<const IrId> parts)
{
    IrNode n;
    n.kind = IrKind::Concat;
    n.nbits = nbits;
    n.aux = static_cast<int32_t>(parts.size());
    n.arg[0] = static_cast<IrId>(lists_.size());
    lists_.insert(lists_.end(), parts.begin(), parts.end());
    return add(n);
}

IrId
IrArena::import(const IrArena &from, IrId id)
{
    const IrNode &n = from[id];
    if (n.kind == IrKind::Const)
        return constant(from.value(id));
    std::vector<IrId> args;
    for (IrId a : from.args(id))
        args.push_back(import(from, a));
    if (n.kind == IrKind::Concat)
        return addConcat(n.nbits, args);
    IrNode copy = n;
    std::copy(args.begin(), args.end(), copy.arg);
    return add(copy);
}

// ------------------------------------------------------------ IrExpr

IrExpr::IrExpr(IrArena &arena, IrId id)
    : arena_(&arena), id_(id), nbits_(arena[id].nbits)
{}

/** Builds nodes behind IrExpr handles (the handles' friend). */
struct IrBuilder
{
    /** The tree arena @p e lives in, or null if it belongs to none. */
    static IrArena *
    tree(const IrExpr &e)
    {
        return e.own_ ? nullptr : e.arena_;
    }

    /** @p e as a node of @p to, copied there if it lives elsewhere. */
    static IrId
    place(const IrExpr &e, IrArena &to)
    {
        if (e.arena_ == &to)
            return e.id_;
        if (tree(e))
            throw std::logic_error(
                "IR expression joins two different model trees");
        if (!e.arena_)
            return to.constant(Bits(e.nbits_, e.value_));
        return to.import(*e.arena_, e.id_);
    }

    /**
     * A node @p n over @p parts (IrExpr pointers), added to the one
     * tree they and @p home share, or to a fresh arena of its own if
     * none of them is in a tree. A Concat's parts go to its operand
     * list.
     */
    template <class Parts>
    static IrExpr
    make(IrNode n, const Parts &parts, const char *what,
         IrArena *home = nullptr)
    {
        IrExpr out;
        out.arena_ = home;
        for (const IrExpr *p : parts) {
            if (!p->valid())
                throw std::invalid_argument(
                    std::string("invalid IrExpr in ") + what);
            IrArena *t = tree(*p);
            if (t && out.arena_ && t != out.arena_)
                throw std::logic_error(
                    "IR expression joins two different model trees");
            if (t)
                out.arena_ = t;
        }
        if (!out.arena_) {
            out.own_ = std::make_shared<IrArena>();
            out.arena_ = out.own_.get();
        }
        out.nbits_ = n.nbits;
        if (n.kind == IrKind::Concat) {
            std::vector<IrId> ids;
            for (const IrExpr *p : parts)
                ids.push_back(place(*p, *out.arena_));
            out.id_ = out.arena_->addConcat(n.nbits, ids);
            return out;
        }
        size_t i = 0;
        for (const IrExpr *p : parts)
            n.arg[i++] = place(*p, *out.arena_);
        out.id_ = out.arena_->add(n);
        return out;
    }

    /** A literal: held in the handle if narrow, else in its own arena. */
    static IrExpr
    literal(const Bits &value)
    {
        IrExpr out;
        out.nbits_ = value.nbits();
        if (value.nbits() <= 64) {
            out.value_ = value.toUint64();
            return out;
        }
        out.own_ = std::make_shared<IrArena>();
        out.arena_ = out.own_.get();
        out.id_ = out.arena_->constant(value);
        return out;
    }
};

namespace {

IrNode
node(IrKind kind, int nbits, int aux = 0, uint8_t op = 0)
{
    IrNode n;
    n.kind = kind;
    n.nbits = nbits;
    n.aux = aux;
    n.op = op;
    return n;
}

IrExpr
binop(IrOp op, const IrExpr &a, const IrExpr &b)
{
    int nbits;
    switch (op) {
      case IrOp::Eq: case IrOp::Ne: case IrOp::Lt: case IrOp::Le:
      case IrOp::Gt: case IrOp::Ge: case IrOp::LAnd: case IrOp::LOr:
        nbits = 1;
        break;
      case IrOp::Shl: case IrOp::Shr: case IrOp::Sra:
        nbits = a.nbits();
        break;
      default:
        nbits = std::max(a.nbits(), b.nbits());
    }
    return IrBuilder::make(
        node(IrKind::BinOp, nbits, 0, static_cast<uint8_t>(op)),
        std::array{&a, &b}, "binop");
}

IrExpr
unop(IrUnOp op, int nbits, const IrExpr &arg)
{
    return IrBuilder::make(
        node(IrKind::UnOp, nbits, 0, static_cast<uint8_t>(op)),
        std::array{&arg}, "unop");
}

} // namespace

IrExpr
rd(Signal &sig)
{
    if (!sig.owner())
        throw std::logic_error("rd of '" + sig.name() +
                               "', which belongs to no model");
    IrArena &arena = sig.owner()->irArena();
    IrId &ref = sig.irRef();
    if (ref == kNoIrNode) {
        IrNode n = node(IrKind::Ref, sig.nbits());
        n.sig = &sig;
        ref = arena.add(n);
    }
    return IrExpr(arena, ref);
}

IrExpr
aread(MemArray &array, const IrExpr &index)
{
    IrNode n = node(IrKind::ARead, array.nbits());
    n.array = &array;
    return IrBuilder::make(
        n, std::array{&index}, "aread",
        array.owner() ? &array.owner()->irArena() : nullptr);
}

IrExpr
lit(int nbits, uint64_t value)
{
    return IrBuilder::literal(Bits(nbits, value));
}

IrExpr
lit(const Bits &value)
{
    return IrBuilder::literal(value);
}

IrExpr
IrExpr::slice(int lsb, int len) const
{
    if (!valid())
        throw std::invalid_argument("invalid IrExpr in slice");
    if (lsb < 0 || len < 1 || lsb + len > nbits())
        throw std::out_of_range("IR slice out of range");
    return IrBuilder::make(node(IrKind::Slice, len, lsb), std::array{this},
                           "slice");
}

IrExpr
IrExpr::zext(int nbits) const
{
    if (valid() && nbits == this->nbits())
        return *this;
    return IrBuilder::make(node(IrKind::Zext, nbits), std::array{this},
                           "zext");
}

IrExpr
IrExpr::sext(int nbits) const
{
    if (valid() && nbits == this->nbits())
        return *this;
    return IrBuilder::make(node(IrKind::Sext, nbits), std::array{this},
                           "sext");
}

IrExpr IrExpr::operator~() const
{ return unop(IrUnOp::Inv, nbits(), *this); }
IrExpr IrExpr::operator!() const
{ return unop(IrUnOp::LNot, 1, *this); }
IrExpr IrExpr::reduceOr() const
{ return unop(IrUnOp::ReduceOr, 1, *this); }
IrExpr IrExpr::reduceAnd() const
{ return unop(IrUnOp::ReduceAnd, 1, *this); }
IrExpr IrExpr::reduceXor() const
{ return unop(IrUnOp::ReduceXor, 1, *this); }

IrExpr
mux(const IrExpr &cond, const IrExpr &a, const IrExpr &b)
{
    return IrBuilder::make(
        node(IrKind::Mux, std::max(a.nbits(), b.nbits())),
        std::array{&cond, &a, &b}, "mux");
}

IrExpr
cat(std::initializer_list<IrExpr> parts)
{
    if (parts.size() == 0)
        throw std::invalid_argument("cat of zero parts");
    std::vector<const IrExpr *> ptrs;
    int nbits = 0;
    for (const IrExpr &p : parts) {
        ptrs.push_back(&p);
        nbits += p.nbits();
    }
    return IrBuilder::make(node(IrKind::Concat, nbits), ptrs, "cat");
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

BlockBuilder::BlockBuilder(IrBlock *block, IrArena *arena)
    : block_(block), arena_(arena)
{
    stack_.push_back(&block_->stmts);
}

void
BlockBuilder::push(const IrStmt &stmt)
{
    current()->push_back(stmt);
}

IrView
BlockBuilder::place(const IrExpr &e, int nbits)
{
    if (nbits && e.nbits() != nbits)
        return place(e.zext(nbits));
    return {arena_, IrBuilder::place(e, *arena_)};
}

IrExpr
BlockBuilder::let(const std::string &name, const IrExpr &rhs)
{
    if (!rhs.valid())
        throw std::invalid_argument("let: invalid rhs");
    int idx = static_cast<int>(block_->temps.size());
    IrStmt stmt;
    stmt.kind = IrStmt::Kind::Assign;
    stmt.temp = idx;
    stmt.rhs = place(rhs);
    block_->temps.push_back(IrTemp{name, rhs.nbits()});
    push(stmt);

    IrNode ref;
    ref.kind = IrKind::Temp;
    ref.nbits = rhs.nbits();
    ref.aux = idx;
    return IrExpr(*arena_, arena_->add(ref));
}

void
BlockBuilder::setTemp(const IrExpr &temp, const IrExpr &rhs)
{
    const IrView t = temp.view();
    if (!t || t.arena() != arena_ || t.kind() != IrKind::Temp)
        throw std::invalid_argument("setTemp: target is not a temp");
    if (!rhs.valid())
        throw std::invalid_argument("setTemp: invalid rhs");
    IrStmt stmt;
    stmt.kind = IrStmt::Kind::Assign;
    stmt.temp = t.temp();
    stmt.rhs = place(rhs);
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
    stmt.rhs = place(rhs, target.nbits());
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
    if (!rhs.valid())
        throw std::invalid_argument("assignSlice: invalid rhs");
    IrStmt stmt;
    stmt.kind = IrStmt::Kind::Assign;
    stmt.sig = &target;
    stmt.lsb = lsb;
    stmt.width = width;
    stmt.nonblocking = block_->sequential;
    stmt.rhs = place(rhs, width);
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
    stmt.cond = place(index);
    stmt.rhs = place(rhs, target.nbits());
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
    stmt.cond = place(cond);
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
                expr(s.rhs);
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
                expr(s.cond);
                expr(s.rhs);
                out_.arrayWrites.push_back(s.array);
                array(s.array);
                put(s.array->nbits());
                break;
              case IrStmt::Kind::If:
                expr(s.cond);
                stmts(s.thenBody);
                stmts(s.elseBody);
                break;
            }
        }
    }

  private:
    void
    expr(IrView v)
    {
        const IrArena &arena = *v.arena();
        expr(arena, v.id());
    }

    void
    expr(const IrArena &arena, IrId id)
    {
        const IrNode &e = arena[id];
        ++out_.nodes;
        widen(e.nbits);
        // Kind, operator and width share one word; a width of 2^22 bits
        // or more takes a word of its own after it.
        const int32_t sub =
            e.kind == IrKind::BinOp || e.kind == IrKind::UnOp ? e.op : 0;
        const bool wide = e.nbits >= (1 << 22);
        put(static_cast<int32_t>(e.kind) | sub << 4 |
            (wide ? 0 : e.nbits) << 9);
        if (wide)
            put(e.nbits);
        switch (e.kind) {
          case IrKind::Const:
            literal(IrView(&arena, id).word());
            break;
          case IrKind::Ref:
            out_.reads.push_back(e.sig);
            put(operand(2 * e.sig->netId()));
            break;
          case IrKind::Temp:
          case IrKind::Slice:
          case IrKind::Concat:
            // Temp index, slice lsb or part count.
            put(e.aux);
            break;
          default:
            break;
        }
        const std::span<const IrId> args = arena.args(id);
        for (size_t i = 0; i < args.size(); ++i) {
            expr(arena, args[i]);
            // A concatenation shifts in each part after the first by a
            // constant: the part's width.
            if (e.kind == IrKind::Concat && i > 0)
                literal(static_cast<uint64_t>(arena[args[i]].nbits));
        }
        if (e.kind == IrKind::ARead) {
            out_.arrayReads.push_back(e.array);
            array(e.array);
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
        std::vector<IrShape::Seen> &table =
            token >= 0 ? shape_->seenNets : shape_->seenArrays;
        const size_t at = token >= 0 ? token : -(token + 1);
        if (at >= table.size())
            table.resize(std::max(at + 1, 2 * table.size()));
        IrShape::Seen &seen = table[at];
        if (seen.block != shape_->blocks) {
            seen = {shape_->blocks,
                    static_cast<int32_t>(shape_->operands.size())};
            shape_->operands.push_back(token);
        }
        return seen.index;
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
exprToString(IrView e)
{
    if (!e)
        return "<null>";
    std::ostringstream os;
    switch (e.kind()) {
      case IrKind::Const:
        os << e.value().toHexString();
        break;
      case IrKind::Ref:
        os << e.sig()->fullName();
        break;
      case IrKind::Temp:
        os << "t" << e.temp();
        break;
      case IrKind::BinOp:
        os << "(" << exprToString(e.arg(0)) << " " << opSymbol(e.op())
           << " " << exprToString(e.arg(1)) << ")";
        break;
      case IrKind::UnOp:
        os << "(" << unopSymbol(e.unop()) << exprToString(e.arg(0)) << ")";
        break;
      case IrKind::Slice:
        os << exprToString(e.arg(0)) << "[" << (e.lsb() + e.nbits() - 1)
           << ":" << e.lsb() << "]";
        break;
      case IrKind::Concat: {
        os << "{";
        const char *sep = "";
        for (IrView part : e.args()) {
            os << sep << exprToString(part);
            sep = ",";
        }
        os << "}";
        break;
      }
      case IrKind::Mux:
        os << "(" << exprToString(e.arg(0)) << " ? "
           << exprToString(e.arg(1)) << " : " << exprToString(e.arg(2))
           << ")";
        break;
      case IrKind::Zext:
        os << "zext(" << exprToString(e.arg(0)) << "," << e.nbits() << ")";
        break;
      case IrKind::Sext:
        os << "sext(" << exprToString(e.arg(0)) << "," << e.nbits() << ")";
        break;
      case IrKind::ARead:
        os << e.array()->fullName() << "[" << exprToString(e.arg(0)) << "]";
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
        ++shape->blocks;
    }
    Summarizer(out, shape, block.sequential).stmts(block.stmts);
    dedup(out.reads);
    dedup(out.writes);
    dedup(out.arrayReads);
    dedup(out.arrayWrites);
    return out;
}

std::string
irExprToString(IrView expr)
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
