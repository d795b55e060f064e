/**
 * @file
 * The CMTL hardware-description IR.
 *
 * RTL logic (and CL logic that wants to be specializable) is written
 * against this small expression/statement AST rather than as opaque
 * host-language lambdas. This is the C++ analog of the information
 * PyMTL extracts from Python source via the `ast` module: the same IR
 * is tree-walk interpreted (CPython/PyPy analogs), compiled to bytecode
 * or C++ by the SimJIT specializers, and pretty-printed as
 * Verilog-2001 by the translation tool.
 *
 * Expressions are built with overloaded operators on the lightweight
 * IrExpr handle; statements are built through a BlockBuilder obtained
 * from Model::combinational() or Model::tickRtl().
 *
 * Every node lives in one append-only arena per model tree (IrArena):
 * the top model owns it, and each child reaches it through its parent
 * when it is constructed. A node is a fixed-size record whose operands
 * are 32-bit indices of nodes added before it, so the arena is in
 * topological order as it is built, and a walk is a pass over index
 * arrays rather than a chase of heap pointers. Nothing is counted or
 * freed per node: the arena goes with the top model, so no expression
 * or block may outlive it.
 *
 * A signal's Ref node is made by its first rd() and reused by every
 * later one, and so is a small narrow constant's node in each arena,
 * so a leaf use adds no node. A tree is therefore a DAG whose leaves
 * many trees and blocks of one model tree reuse. Two rules keep that
 * safe, and every walker must keep them: a node is never changed after
 * it is added, and a walk counts each use of a node as its own (tree
 * sizes, first uses and literals follow the tree, not the DAG).
 *
 * Elaboration walks each block once (irSummarize) and keeps what the
 * layers after it need: the accesses, the tree size as the block's
 * partition weight, the widest value as the specializer's test, and
 * what the bytecode compiler reads of the block, split into a shape
 * and an operand record (IrShape).
 */

#ifndef CMTL_CORE_IR_H
#define CMTL_CORE_IR_H

#include <cstdint>
#include <functional>
#include <memory>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "bits.h"

namespace cmtl {

class Signal;
class MemArray;

/** Binary operator kinds. Comparison ops produce 1-bit results. */
enum class IrOp
{
    Add, Sub, Mul, And, Or, Xor, Shl, Shr, Sra,
    Eq, Ne, Lt, Le, Gt, Ge,
    LAnd, LOr, //!< logical: 1-bit result from operand truthiness
};

/** Unary operator kinds. */
enum class IrUnOp
{
    Inv,       //!< bitwise complement
    LNot,      //!< logical not: 1-bit
    ReduceOr, ReduceAnd, ReduceXor,
};

class IrArena;

/** Index of a node in its model tree's IrArena. */
using IrId = uint32_t;

/** Node kinds. */
enum class IrKind : uint8_t
{
    Const, Ref, Temp, BinOp, UnOp, Slice, Concat, Mux, Zext, Sext, ARead
};

/**
 * One expression node: a fixed-size record whose operands are indices
 * of earlier nodes of the same arena.
 */
struct IrNode
{
    IrKind kind = IrKind::Const;
    uint8_t op = 0;    //!< BinOp: an IrOp; UnOp: an IrUnOp
    int32_t nbits = 0;
    int32_t aux = 0;   //!< Slice: lsb; Temp: its index; Concat: part count
    IrId arg[3] = {};  //!< operands; Concat: arg[0] is where its parts
                       //!< start in the arena's operand lists
    union
    {
        /** Const: the value, or where its words start if over 64 bits. */
        uint64_t value = 0;
        Signal *sig;     //!< Ref
        MemArray *array; //!< ARead (index in arg[0])
    };
};
static_assert(sizeof(IrNode) <= 32, "IrNode must stay a small record");

/**
 * The expression nodes of one model tree, append-only. A node's
 * operands are added before it, so the arena is in topological order
 * as it is built. Concatenation operand lists and constants wider than
 * 64 bits live out of line, in the arena's own pools.
 */
class IrArena
{
  public:
    size_t size() const { return nodes_.size(); }
    const IrNode &operator[](IrId id) const { return nodes_[id]; }
    /** Operands of node @p id (a Concat's most significant first). */
    std::span<const IrId> args(IrId id) const;
    /** Value of Const node @p id. */
    Bits value(IrId id) const;

    /** Append @p node; its operands must already be in the arena. */
    IrId add(const IrNode &node);
    /**
     * A Const node holding @p value. A small narrow constant's node is
     * made by its first use and shared by every later one.
     */
    IrId constant(const Bits &value);
    /** Append a Concat node of @p parts, most significant first. */
    IrId addConcat(int nbits, std::span<const IrId> parts);
    /**
     * Copy node @p id of another arena @p from, and every node it
     * reaches, here; returns the copy's index.
     */
    IrId import(const IrArena &from, IrId id);

  private:
    std::vector<IrNode> nodes_;
    std::vector<IrId> lists_;
    std::vector<uint64_t> words_;
    /** Per width and small value: its shared Const node, or kNone. */
    std::vector<IrId> small_;
};

/** A node and the arena holding it: what the IR walkers pass around. */
class IrView
{
  public:
    IrView() = default;
    IrView(const IrArena *arena, IrId id) : arena_(arena), id_(id) {}

    explicit operator bool() const { return arena_ != nullptr; }
    const IrArena *arena() const { return arena_; }
    IrId id() const { return id_; }

    const IrNode &node() const { return (*arena_)[id_]; }
    IrKind kind() const { return node().kind; }
    int nbits() const { return node().nbits; }
    IrOp op() const { return static_cast<IrOp>(node().op); }
    IrUnOp unop() const { return static_cast<IrUnOp>(node().op); }
    int lsb() const { return node().aux; }
    int temp() const { return node().aux; }
    Signal *sig() const { return node().sig; }
    MemArray *array() const { return node().array; }
    /** A Const node's value. */
    Bits value() const { return arena_->value(id_); }
    /** A Const node's low 64 bits, masked to its width. */
    uint64_t
    word() const
    {
        const IrNode &n = node();
        return (n.nbits <= 64 ? n.value : arena_->value(id_).toUint64()) &
               widthMask(n.nbits);
    }

    IrView
    arg(size_t i) const
    {
        const IrNode &n = node();
        return {arena_,
                n.kind == IrKind::Concat ? arena_->args(id_)[i] : n.arg[i]};
    }
    /** The operands as views, for range-for. */
    auto
    args() const
    {
        const IrArena *a = arena_;
        return arena_->args(id_) |
               std::views::transform([a](IrId i) { return IrView(a, i); });
    }

  private:
    const IrArena *arena_ = nullptr;
    IrId id_ = 0;
};

/**
 * Value-semantics handle to an expression, with the operator
 * overloads that make model code read like Verilog.
 *
 * An expression over a signal or an array lives in its model tree's
 * arena. A constant-only one belongs to no tree: a narrow literal is
 * held in the handle itself, anything larger in a small arena of its
 * own, and either is copied into a tree's arena where it joins an
 * expression of that tree. Joining expressions of two different trees
 * throws std::logic_error.
 */
class IrExpr
{
  public:
    IrExpr() = default;
    /** Node @p id of a model tree's @p arena (framework internal). */
    IrExpr(IrArena &arena, IrId id);

    bool valid() const { return nbits_ > 0; }
    int nbits() const { return nbits_; }
    /** The expression's node; null for a literal held in the handle. */
    IrView view() const { return arena_ ? IrView(arena_, id_) : IrView(); }

    /** Bits [lsb, lsb+len). */
    IrExpr slice(int lsb, int len) const;
    /** Verilog-style inclusive [msb:lsb]. */
    IrExpr operator()(int msb, int lsb) const
    {
        return slice(lsb, msb - lsb + 1);
    }
    /** Single bit select. */
    IrExpr bit(int pos) const { return slice(pos, 1); }

    IrExpr zext(int nbits) const;
    IrExpr sext(int nbits) const;

    IrExpr operator~() const;
    /** Logical not (1-bit). */
    IrExpr operator!() const;
    IrExpr reduceOr() const;
    IrExpr reduceAnd() const;
    IrExpr reduceXor() const;

  private:
    friend struct IrBuilder; // ir.cc

    IrArena *arena_ = nullptr;      //!< null for a literal in the handle
    std::shared_ptr<IrArena> own_;  //!< a constant-only expression's arena
    IrId id_ = 0;
    int nbits_ = 0;
    uint64_t value_ = 0;            //!< the literal in the handle
};

/** Expression referencing a signal's current value. */
IrExpr rd(Signal &sig);
/** Asynchronous read of a memory array at a dynamic index. */
IrExpr aread(MemArray &array, const IrExpr &index);
/** Constant of explicit width. */
IrExpr lit(int nbits, uint64_t value);
/** Wide constant. */
IrExpr lit(const Bits &value);

/** cond ? a : b. Operands extended to the wider of a/b. */
IrExpr mux(const IrExpr &cond, const IrExpr &a, const IrExpr &b);
/** Verilog-style concatenation; first argument is most significant. */
IrExpr cat(std::initializer_list<IrExpr> parts);
IrExpr cat(const IrExpr &hi, const IrExpr &lo);

// Arithmetic/bitwise operators: result width = max of operand widths.
IrExpr operator+(const IrExpr &a, const IrExpr &b);
IrExpr operator-(const IrExpr &a, const IrExpr &b);
IrExpr operator*(const IrExpr &a, const IrExpr &b);
IrExpr operator&(const IrExpr &a, const IrExpr &b);
IrExpr operator|(const IrExpr &a, const IrExpr &b);
IrExpr operator^(const IrExpr &a, const IrExpr &b);
// Shifts: result width = lhs width.
IrExpr operator<<(const IrExpr &a, const IrExpr &b);
IrExpr operator>>(const IrExpr &a, const IrExpr &b);
IrExpr sra(const IrExpr &a, const IrExpr &b);
// Comparisons: 1-bit results, unsigned.
IrExpr operator==(const IrExpr &a, const IrExpr &b);
IrExpr operator!=(const IrExpr &a, const IrExpr &b);
IrExpr operator<(const IrExpr &a, const IrExpr &b);
IrExpr operator<=(const IrExpr &a, const IrExpr &b);
IrExpr operator>(const IrExpr &a, const IrExpr &b);
IrExpr operator>=(const IrExpr &a, const IrExpr &b);
// Logical combinators on truthiness: 1-bit results.
IrExpr operator&&(const IrExpr &a, const IrExpr &b);
IrExpr operator||(const IrExpr &a, const IrExpr &b);

// Mixed-literal conveniences: the integer takes the expression's width.
IrExpr operator+(const IrExpr &a, uint64_t b);
IrExpr operator-(const IrExpr &a, uint64_t b);
IrExpr operator==(const IrExpr &a, uint64_t b);
IrExpr operator!=(const IrExpr &a, uint64_t b);
IrExpr operator<(const IrExpr &a, uint64_t b);
IrExpr operator<=(const IrExpr &a, uint64_t b);
IrExpr operator>(const IrExpr &a, uint64_t b);
IrExpr operator>=(const IrExpr &a, uint64_t b);
IrExpr operator<<(const IrExpr &a, int b);
IrExpr operator>>(const IrExpr &a, int b);

/** One statement of a concurrent block. */
struct IrStmt
{
    enum class Kind { Assign, If, AWrite };

    Kind kind = Kind::Assign;

    // AWrite: target array; index in cond, value in rhs.
    MemArray *array = nullptr;

    // Assign: exactly one of sig / temp is the target.
    Signal *sig = nullptr;
    int temp = -1;
    int lsb = 0;       //!< target slice lsb (0 for whole)
    int width = -1;    //!< target slice width (-1 = whole signal)
    bool nonblocking = false;
    IrView rhs;

    // If
    IrView cond;
    std::vector<IrStmt> thenBody;
    std::vector<IrStmt> elseBody;
};

/** Declared temporary (block-local variable). */
struct IrTemp
{
    std::string name;
    int nbits;
};

/** A combinational or sequential concurrent block in IR form. */
struct IrBlock
{
    std::string name;
    bool sequential = false; //!< tick_rtl (non-blocking) vs combinational
    const IrArena *arena = nullptr; //!< its model tree's, holding its nodes
    std::vector<IrTemp> temps;
    std::vector<IrStmt> stmts;
};

/**
 * Builds statements into an IrBlock.
 *
 * Nested control flow is expressed with lambdas so the builder can
 * maintain a statement-list stack:
 *
 *     auto &b = s.tickRtl("seq");
 *     b.if_(rd(s.en), [&]{ b.assign(s.count, rd(s.count) + 1); });
 */
class BlockBuilder
{
  public:
    /** Builds into @p block, whose nodes go to @p arena (block->arena). */
    BlockBuilder(IrBlock *block, IrArena *arena);

    /** Declare a named temporary and assign it; returns a Temp ref. */
    IrExpr let(const std::string &name, const IrExpr &rhs);
    /** Re-assign a previously declared temporary. */
    void setTemp(const IrExpr &temp, const IrExpr &rhs);

    /** Assign a signal. Non-blocking in sequential blocks. */
    void assign(Signal &target, const IrExpr &rhs);
    void assign(Signal &target, uint64_t rhs);
    /** Assign bits [lsb, lsb+width) of a signal. */
    void assignSlice(Signal &target, int lsb, int width, const IrExpr &rhs);

    /**
     * Synchronous write to a memory array. Only legal in sequential
     * blocks; effective at the clock edge.
     */
    void writeArray(MemArray &target, const IrExpr &index,
                    const IrExpr &rhs);

    /** if (cond) { then_() } else { else_() } */
    void if_(const IrExpr &cond, const std::function<void()> &then_,
             const std::function<void()> &else_ = nullptr);

    /**
     * elseIf chains: sugar producing nested if/else.
     * switch-like dispatch is expressed as if/elseIf chains.
     */
    void ifChain(std::initializer_list<
                     std::pair<IrExpr, std::function<void()>>> arms,
                 const std::function<void()> &else_ = nullptr);

    IrBlock *block() const { return block_; }

  private:
    std::vector<IrStmt> *current() { return stack_.back(); }
    void push(const IrStmt &stmt);
    /** @p e in the block's arena, zero-extended to @p nbits if given. */
    IrView place(const IrExpr &e, int nbits = 0);

    IrBlock *block_;
    IrArena *arena_;
    std::vector<std::vector<IrStmt> *> stack_;
};

/**
 * What elaboration needs to know about one block, gathered in one walk
 * of its statements and expression trees.
 */
struct IrBlockSummary
{
    std::vector<Signal *> reads;  //!< signals read, sorted and unique
    std::vector<Signal *> writes; //!< signals written, sorted and unique
    std::vector<MemArray *> arrayReads;  //!< sorted and unique
    std::vector<MemArray *> arrayWrites; //!< sorted and unique
    /** Statements plus expression nodes, a shared node once per use. */
    long nodes = 0;
    /** Widest value in bits: any node, temp or assigned signal. */
    int widest = 0;
};

/**
 * What bcCompile (ir_bytecode.h) reads of a block, gathered by
 * irSummarize's walk in the order bcCompile reads it. The shape is
 * everything that reaches the instruction stream: node kinds,
 * operators, widths, slice bounds, temps, statement kinds and targets,
 * array masks, and each operand use as its index in `operands`. Two
 * blocks of one shape compile to one program, and each block's slot
 * and constant tables follow from its record:
 *  - operands: each distinct arena word in first-use order, as a
 *    token: a net's current word is 2 * net, its next word 2 * net + 1,
 *    and an array's base -(array + 1);
 *  - literals: each constant operand's value in bcCompile's order,
 *    masked to its width, a concatenation's shift amounts included.
 */
struct IrShape
{
    std::vector<int32_t> code; //!< the shape, compared word for word
    std::vector<int32_t> operands;
    std::vector<uint64_t> literals;

    /**
     * irSummarize's operand lookup, kept across the blocks summarized
     * into one IrShape: per token, the number of the block that last
     * used it and its index in that block's record. Net words are
     * looked up at the token, arrays at -(token + 1).
     */
    struct Seen
    {
        uint32_t block = 0;
        int32_t index = 0;
    };
    std::vector<Seen> seenNets;
    std::vector<Seen> seenArrays;
    uint32_t blocks = 0; //!< blocks summarized so far
};

/**
 * Walk @p block once and summarize its accesses and size; with
 * @p shape, also replace *shape with the block's.
 */
IrBlockSummary irSummarize(const IrBlock &block, IrShape *shape = nullptr);

/** Human-readable dump (debugging aid). */
std::string irToString(const IrBlock &block);

/**
 * Human-readable rendering of one expression tree, e.g.
 * "(top.count + 0x01)". Shared by irToString and the lint/analysis
 * tools, which quote conditions and indexes in their findings.
 */
std::string irExprToString(IrView expr);

} // namespace cmtl

#endif // CMTL_CORE_IR_H
