/**
 * @file
 * Model base class and elaboration.
 *
 * CMTL models are described concurrent-structurally, mirroring PyMTL:
 * interfaces are port-based, logic lives in concurrent blocks, and
 * components compose structurally via connect(). A model's constructor
 * performs *elaboration-time configuration* (ports, wires, submodels,
 * connectivity — arbitrary C++ is allowed here) and declares *run-time
 * simulation logic*:
 *
 *  - tickFl()/tickCl(): sequential lambda blocks with arbitrary host
 *    code and a declared list of the signals they write (the analog
 *    of PyMTL's @s.tick_fl/@s.tick_cl);
 *  - tickRtl()/combinational(): IR blocks built through a BlockBuilder
 *    (the analog of @s.tick_rtl/@s.combinational — the translatable,
 *    specializable subset);
 *  - combLambda(): a combinational lambda with an explicit sensitivity
 *    list, for FL conveniences.
 *
 * Following the model/tool split, elaborate() produces an Elaboration
 * — an in-memory representation of the flattened design — which tools
 * (SimulationTool, TranslationTool, Lint, VcdWriter) consume.
 */

#ifndef CMTL_CORE_MODEL_H
#define CMTL_CORE_MODEL_H

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "ir.h"
#include "signal.h"

namespace cmtl {

class Model;
class SnapWriter; // snap.h
class SnapReader; // snap.h

/** Kind of a concurrent block after elaboration. */
enum class BlockKind { TickFl, TickCl, CombLambda, TickIr, CombIr };

/** True for blocks that execute at the clock edge. */
inline bool
isTick(BlockKind k)
{
    return k == BlockKind::TickFl || k == BlockKind::TickCl ||
           k == BlockKind::TickIr;
}

/** A concurrent block of an elaborated design. */
struct ElabBlock
{
    BlockKind kind;
    std::string name; //!< hierarchical, e.g. "top.router0.comb_route"
    Model *model = nullptr;
    std::function<void()> fn;    //!< lambda blocks
    const IrBlock *ir = nullptr; //!< IR blocks
    std::vector<int> reads;      //!< net ids read (comb scheduling)
    std::vector<int> writes;     //!< net ids written
    /**
     * Per-cycle work estimate for the partitioner: an IR block's
     * statement and expression-node count (at least 1), a lambda's
     * fixed 16 (its host code is opaque).
     */
    long weight = 16;
    /** IR blocks: widest value (irSummarize); the bytecode subset
     *  holds blocks of at most 64 bits. */
    int widest = 0;
    /**
     * IR blocks: the index of the block's shape in
     * Elaboration::irShapes, where its operand record starts in
     * Elaboration::irOperands, and where its literal exceptions start
     * in Elaboration::irLiteralPatches and how many there are
     * (irSummarize, IrShape). Blocks of one shape compile to one
     * bytecode program; BcModule compiles one block per shape and
     * builds every other block's tables from its record.
     */
    int shape = -1;
    int operandsAt = 0;
    int patchesAt = 0;
    int patches = 0;
};

/**
 * One IR block shape: the lengths of its blocks' records, and where
 * its base literals (its first block's) start in
 * Elaboration::irLiterals.
 */
struct IrShapeSize
{
    int operands = 0;
    int literals = 0;
    int literalsAt = 0;
};

/** A literal of one block that differs from its shape's base. */
struct IrLiteralPatch
{
    int32_t at;     //!< index in the literal record
    uint64_t value;
};

/**
 * A synchronous-write, asynchronous-read memory array (SRAM/regfile).
 *
 * Depth must be a power of two; read indices are masked to the depth.
 * Writes are only legal from sequential (tickRtl) blocks and take
 * effect at the clock edge; reads from combinational blocks observe
 * the post-edge contents. With a single writing block this matches
 * Verilog `reg [w-1:0] mem [0:d-1]` semantics; multiple tick blocks
 * writing one array would be tick-order dependent and are rejected by
 * the linter.
 */
class MemArray
{
  public:
    MemArray(Model *owner, std::string name, int nbits, int depth);
    MemArray(const MemArray &) = delete;
    MemArray &operator=(const MemArray &) = delete;

    Model *owner() const { return owner_; }
    const std::string &name() const { return name_; }
    std::string fullName() const;
    int nbits() const { return nbits_; }
    int depth() const { return depth_; }
    uint64_t indexMask() const { return static_cast<uint64_t>(depth_) - 1; }

    /** Dense array id; valid after elaboration (-1 before). */
    int arrayId() const { return array_id_; }
    void setArrayId(int id) { array_id_ = id; }

  private:
    Model *owner_;
    std::string name_;
    int nbits_;
    int depth_;
    int array_id_ = -1;
};

/** A net: an equivalence class of connected signals. */
struct Net
{
    int id = -1;
    int nbits = 0;
    std::string name;             //!< shallowest member signal's full name
    bool floppedStatic = false;   //!< written by a non-blocking IR assign
    std::vector<Signal *> signals;
};

/**
 * Lists of ints keyed by a dense id and stored back to back
 * (compressed sparse rows): the set-up layers' per-token and
 * per-block adjacency, built without a heap block per list.
 */
class FlatLists
{
  public:
    /**
     * Lists for keys [0, @p nkeys). @p each(add) must call add(key,
     * item) for every entry, in list order; it runs twice, once to
     * count and once to fill.
     */
    template <typename Each>
    FlatLists(int nkeys, Each &&each) : start_(nkeys + 1, 0)
    {
        each([&](int key, int) { ++start_[key + 1]; });
        std::partial_sum(start_.begin(), start_.end(), start_.begin());
        items_.resize(start_.back());
        std::vector<int> at(start_.begin(), start_.end() - 1);
        each([&](int key, int item) { items_[at[key]++] = item; });
    }

    std::span<const int>
    operator[](int key) const
    {
        return {items_.data() + start_[key], items_.data() + start_[key + 1]};
    }
    /** Every entry, key by key. */
    const std::vector<int> &items() const { return items_; }

  private:
    std::vector<int> start_;
    std::vector<int> items_;
};

/**
 * In-memory representation of an elaborated design.
 *
 * This is the interface between models and tools: simulators,
 * translators, linters and visualizers all consume an Elaboration.
 */
class Elaboration
{
  public:
    Model *top = nullptr;
    std::vector<Model *> models;   //!< pre-order hierarchy walk
    std::vector<Signal *> signals; //!< all signals, dense ids
    std::vector<Net> nets;
    std::vector<MemArray *> arrays;
    std::vector<ElabBlock> blocks;
    /** Distinct IR block shapes: no two are equal word for word. */
    std::vector<IrShapeSize> irShapes;
    /** Every IR block's operand record, back to back. */
    std::vector<int32_t> irOperands;
    /** Each shape's base literal record, back to back. */
    std::vector<uint64_t> irLiterals;
    /** Each IR block's literals that differ from its shape's base. */
    std::vector<IrLiteralPatch> irLiteralPatches;

    /** IR block @p blk's operand record. */
    std::span<const int32_t>
    operands(const ElabBlock &blk) const
    {
        return {irOperands.data() + blk.operandsAt,
                static_cast<size_t>(irShapes[blk.shape].operands)};
    }
    /** Write IR block @p blk's literal record to @p out: its shape's
     *  base with the block's patches applied. */
    void
    stampLiterals(const ElabBlock &blk, uint64_t *out) const
    {
        const IrShapeSize &sh = irShapes[blk.shape];
        std::copy_n(irLiterals.begin() + sh.literalsAt, sh.literals, out);
        for (int i = blk.patchesAt; i < blk.patchesAt + blk.patches; ++i)
            out[irLiteralPatches[i].at] = irLiteralPatches[i].value;
    }
    /** The same record, as a vector. */
    std::vector<uint64_t>
    literals(const ElabBlock &blk) const
    {
        std::vector<uint64_t> out(irShapes[blk.shape].literals);
        stampLiterals(blk, out.data());
        return out;
    }

    /**
     * Scheduling token for an array: arrays share the net id space
     * above nets.size() so sensitivity tracking covers them.
     */
    int
    arrayToken(int array_id) const
    {
        return static_cast<int>(nets.size()) + array_id;
    }

    std::vector<int> tickOrder; //!< block indices, declaration order
    std::vector<int> combOrder; //!< block indices, topological order
    bool hasCombCycle = false;  //!< static scheduling impossible
    /** For event-driven scheduling: net id -> comb blocks reading it. */
    std::vector<std::vector<int>> netReaders;

    const Net &netOf(const Signal &sig) const { return nets[sig.netId()]; }
};

/**
 * Base class of all CMTL hardware models.
 */
class Model
{
  public:
    /**
     * @param parent enclosing model, or nullptr for a top-level model
     * @param name instance name within the parent
     */
    Model(Model *parent, std::string name);
    virtual ~Model() = default;
    Model(const Model &) = delete;
    Model &operator=(const Model &) = delete;

    /**
     * Type name used by the Verilog translator as the module name.
     * Parameterized models should encode their parameters, e.g.
     * "Mux_8_4".
     */
    virtual std::string typeName() const { return "Model_" + name_; }

    Model *parent() const { return parent_; }
    const std::string &instName() const { return name_; }
    /** Hierarchical instance name, e.g. "top.router0". */
    std::string fullName() const;
    const std::vector<Model *> &children() const { return children_; }

    /** Structurally connect two signals (same width required). */
    void connect(Signal &a, Signal &b);

    // --- Concurrent block declaration (call from constructors) -----

    /**
     * Functional-level sequential block (arbitrary host code).
     * @param writes every signal the block may setNext(); these nets
     *        join the simulator's flop set when it is constructed, and
     *        a setNext() to any other net throws std::logic_error
     *        naming the block and the net
     */
    void tickFl(const std::string &name, std::function<void()> fn,
                std::vector<Signal *> writes);
    /** Cycle-level sequential block; @p writes as for tickFl(). */
    void tickCl(const std::string &name, std::function<void()> fn,
                std::vector<Signal *> writes);
    /** RTL sequential block; assignments are non-blocking. */
    BlockBuilder &tickRtl(const std::string &name);
    /** Combinational IR block; assignments are blocking. */
    BlockBuilder &combinational(const std::string &name);
    /**
     * Combinational lambda with an explicit sensitivity list.
     * @param reads  signals whose changes re-trigger the block
     * @param writes signals the block may write
     */
    void combLambda(const std::string &name, std::function<void()> fn,
                    std::vector<Signal *> reads,
                    std::vector<Signal *> writes);

    /** Per-cycle line-trace fragment (optional override). */
    virtual std::string lineTrace() const { return ""; }

    /**
     * Serialize host-side lambda-block state (SimSnap, snap.h).
     * Models whose tickFl/tickCl/combLambda blocks carry state outside
     * nets and arrays — RNGs, software queues, counters — override
     * both so checkpoints capture the complete simulation; snapLoad
     * must read exactly the bytes snapSave wrote. The defaults
     * serialize nothing (fine for pure-IR models).
     */
    virtual void snapSave(SnapWriter &) const {}
    virtual void snapLoad(SnapReader &) {}

    /**
     * Elaborate the hierarchy rooted at this model. Call once, on the
     * top-level model, after construction.
     */
    std::shared_ptr<Elaboration> elaborate();

    // --- Framework internals ----------------------------------------
    void registerSignal(Signal *sig) { signals_.push_back(sig); }
    void registerArray(MemArray *array) { arrays_.push_back(array); }
    const std::vector<Signal *> &ownSignals() const { return signals_; }
    const std::vector<MemArray *> &ownArrays() const { return arrays_; }
    const std::vector<std::pair<Signal *, Signal *>> &
    ownConnections() const
    {
        return connections_;
    }
    /** This model's IR blocks, in declaration order. */
    const std::vector<IrBlock *> &ownIrBlocks() const { return ir_blocks_; }
    /** The expression arena of this model's tree (ir.h). */
    IrArena &irArena() { return tree_->arena; }
    const IrArena &irArena() const { return tree_->arena; }
    /** Index in Elaboration::models; valid after elaboration (-1 before). */
    int preorder() const { return preorder_; }

  private:
    friend class Elaborator;

    /**
     * What the models of one tree build into, owned by the top model
     * like its arena: a model without IR blocks allocates nothing, and
     * a block keeps its address while later ones are added.
     */
    struct Tree
    {
        IrArena arena;
        std::deque<IrBlock> irBlocks;
        std::deque<BlockBuilder> builders;
    };
    BlockBuilder &addIrBlock(const std::string &name, bool sequential);

    struct LambdaDecl
    {
        BlockKind kind;
        std::string name;
        std::function<void()> fn;
        std::vector<Signal *> reads;
        std::vector<Signal *> writes;
    };

    Model *parent_;
    std::string name_;
    /** The top model owns its tree's storage; every model points at it. */
    std::unique_ptr<Tree> own_tree_;
    Tree *tree_;
    int preorder_ = -1;
    std::vector<Model *> children_;
    std::vector<Signal *> signals_;
    std::vector<MemArray *> arrays_;
    std::vector<std::pair<Signal *, Signal *>> connections_;
    std::vector<LambdaDecl> lambda_blocks_;
    std::vector<IrBlock *> ir_blocks_;

  public:
    /**
     * Implicit reset input, auto-connected through the hierarchy at
     * elaboration time (like PyMTL's implicit s.reset). Declared last
     * so the registration containers above are constructed first.
     */
    InPort reset;
};

} // namespace cmtl

#endif // CMTL_CORE_MODEL_H
