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
 * Expressions are immutable shared nodes built with overloaded
 * operators on the lightweight IrExpr handle; statements are built
 * through a BlockBuilder obtained from Model::combinational() or
 * Model::tickRtl().
 *
 * Leaves are shared, not copied: rd(sig) returns the one Ref node
 * cached on the signal, and lit(nbits, v) returns the one node of a
 * process-wide table for each small narrow constant. A tree is
 * therefore a DAG whose leaves many trees and blocks reuse, across
 * models and threads for constants. Two rules keep that safe, and
 * every walker must keep them: a node is never changed after it is
 * built, and no walker keys anything on a node's identity (its
 * address) — walk the tree and count each use of a node as its own.
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

struct IrExprNode;
using IrExprPtr = std::shared_ptr<const IrExprNode>;

/** One node of an expression tree. */
struct IrExprNode
{
    enum class Kind { Const, Ref, Temp, BinOp, UnOp, Slice, Concat, Mux,
                      Zext, Sext, ARead };

    Kind kind;
    int nbits;

    // Const
    Bits cval;
    // Ref
    Signal *sig = nullptr;
    // ARead (index expression in args[0])
    MemArray *array = nullptr;
    // Temp
    int temp = -1;
    // BinOp / UnOp
    IrOp op = IrOp::Add;
    IrUnOp unop = IrUnOp::Inv;
    // Slice
    int lsb = 0;
    // Operands (BinOp: 2, UnOp/Slice/Zext/Sext: 1, Mux: 3, Concat: n)
    std::vector<IrExprPtr> args;
};

/**
 * Value-semantics handle to an expression node, with the operator
 * overloads that make model code read like Verilog.
 */
class IrExpr
{
  public:
    IrExpr() = default;
    explicit IrExpr(IrExprPtr node) : node_(std::move(node)) {}

    const IrExprPtr &node() const { return node_; }
    bool valid() const { return node_ != nullptr; }
    int nbits() const { return node_->nbits; }

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
    IrExprPtr node_;
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
    IrExprPtr rhs;

    // If
    IrExprPtr cond;
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
    explicit BlockBuilder(IrBlock *block);

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

    IrBlock *block_;
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
std::string irExprToString(const IrExprPtr &expr);

} // namespace cmtl

#endif // CMTL_CORE_IR_H
