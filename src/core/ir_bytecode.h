/**
 * @file
 * SimJIT bytecode backend.
 *
 * The bytecode specializer is the always-available SimJIT engine: at
 * simulator-construction time it compiles elaborated IR blocks into a
 * flat register-machine program, eliminating tree-walking dispatch,
 * Bits temporaries, and per-signal indirection. It plays the role of
 * PyMTL's generated-C++ specializers when no host compiler is
 * available, and serves as the ablation point against the real
 * compiled-C++ backend (jit_cpp).
 *
 * Programs are shared per block type, and the C++ backend translates
 * each program into one kernel (ir_cpp.h). bcCompile numbers every
 * arena word a block touches (a net's current or next word, an array's
 * base) as a local slot in first-use order, and every IR constant
 * occurrence as a constant operand. The instruction stream names only
 * those numbers, so instances of one block type compile to the same
 * program; a BcModule keeps one program per distinct stream and, per
 * instance, only its slot table (absolute arena words) and constant
 * table.
 *
 * Elaboration records what the compiler reads of each block as a shape
 * and an operand record (IrShape), so a BcModule compiles only the
 * first block of each shape. Every other block's slot table is its
 * record's operands mapped to arena words, and its constant table is
 * its shape's base literals with the block's patches applied.
 *
 * Constants are folded per module, not numbered per occurrence. Once
 * per distinct program, after deduplication and before any batch is
 * built, BcModule runs one optimization pass over the instances of the
 * program it holds:
 *
 *  1. Constants. An operand equal on every instance becomes a
 *     program-owned immediate (BcProgram::imms, one per distinct
 *     value). The rest stay per-instance columns, and operands whose
 *     values agree on every instance share one column.
 *  2. Value numbering within each basic block (Jz and Jmp end one,
 *     and every jump target starts one). An instruction whose operands
 *     are all immediates is computed once, by the VM on one lane: its
 *     value becomes an immediate (a Mov of one, if it writes a slot or
 *     temp). A Mux on an immediate select becomes a Mov of the arm it
 *     selects, and a Jz on an immediate a Jmp or nothing. An
 *     instruction that computes
 *     a value the block already holds in scratch is dropped and its
 *     readers read that scratch word. A write to a slot or temp,
 *     SetSlice included, gives the word a new value number, so nothing
 *     read before the write matches anything read after it; an ALoad
 *     never matches one from before an AStore to its array.
 *  3. Forwarding. An expression whose only reader is the Mov right
 *     after it writes straight into that Mov's slot or temp.
 *  4. Scratch compaction. A linear scan packs expression scratch into
 *     as few words as the live ranges allow.
 *
 * In an optimized program, an expression scratch word (past the temps)
 * is written and read within one basic block.
 *
 * The VM runs a program across a *batch* of instances at once. A
 * BcBatch holds its instances' tables lane-major, one lane per
 * instance. bcRunBatch works through the batch kBcLanes lanes at a
 * time: it gathers every lane's slots and constants into a lane-major
 * frame [slot][lane], runs each instruction across all active lanes
 * before dispatching the next, and scatters the written slots of every
 * lane back to the arena. Dispatch is paid once per chunk of lanes,
 * not once per instance. A Jz whose lanes disagree splits the active
 * set, and each side runs to the end of the program. Array accesses
 * address the arena through each lane's own slot table. A single
 * instance is a batch of one lane.
 *
 * Vector lanes. With every lane active, an instruction runs as one
 * counted loop over the lanes that reads lane l of its operand rows and
 * writes lane l of its destination row. Frame rows are either the same
 * row or disjoint, so the loop has no dependence from one lane to the
 * next even when the destination is an operand, and g++ vectorizes it
 * (the file is built with -fvect-cost-model=dynamic, since the lane
 * count is known only at run time); the gather and scatter loops
 * likewise. On x86-64, bcRunBatch is compiled once per ISA level
 * (target_clones: x86-64-v4 with AVX-512, x86-64-v3 with AVX2, and the
 * baseline), and the loader picks the widest the host runs. Vectors
 * are 256 bits wide and the remainder stays scalar, which keeps the
 * VM small for batches of a few lanes.
 *
 * A batch must be an antichain: no lane reads or writes a token that
 * another lane writes. Then gathering all lanes first and scattering
 * them last computes what running the instances one by one would.
 * typeBatches (sim.h) builds such batches for both kernels.
 *
 * Restrictions (the "specializable subset", mirroring SimJIT's
 * restricted-Python subset): every referenced net and every
 * intermediate value must fit in 64 bits. Blocks outside the subset
 * keep executing on the tree-walking evaluators.
 */

#ifndef CMTL_CORE_IR_BYTECODE_H
#define CMTL_CORE_IR_BYTECODE_H

#include <cstdint>
#include <vector>

#include "model.h"
#include "store.h"

namespace cmtl {

/** Bytecode opcodes. R(x) is frame word x. */
enum class Bc : uint8_t
{
    Mov, //!< dst = R(a) & mask
    Add, Sub, Mul, And, Or, Xor,
    Shl, Shr, Sra,
    Eq, Ne, Lt, Le, Gt, Ge, LAnd, LOr,
    Inv, LNot, ROr, RAnd, RXor,
    Slice,    //!< dst = (R(a) >> sh) & mask
    SetSlice, //!< dst = (dst & ~(mask<<sh)) | ((R(a)&mask) << sh)
    Mux,      //!< dst = R(c) ? R(a) : R(b)
    Sext,     //!< dst = signextend(R(a), imm bits) & mask
    ALoad,    //!< dst = words[slots[imm] + (R(a) & c)]
    AStore,   //!< words[slots[imm] + (R(a) & c)] = R(b) & mask
    Jz,       //!< if (!R(a)) pc = imm
    Jmp,      //!< pc = imm
};

/** True iff @p op reads register operand b. */
inline bool
bcReadsB(Bc op)
{
    return (op >= Bc::Add && op <= Bc::LOr) || op == Bc::Mux ||
           op == Bc::AStore;
}

/** True iff @p op writes register dst. */
inline bool
bcWritesDst(Bc op)
{
    return op != Bc::AStore && op != Bc::Jz && op != Bc::Jmp;
}

/**
 * Call @p f on each of the register fields @p a, @p b, @p c and @p dst
 * (of an instruction, or of an image of one) that @p op reads.
 */
template <class R, class F>
void
bcForEachRead(Bc op, R &a, R &b, R &c, R &dst, F &&f)
{
    if (op == Bc::Jmp)
        return;
    f(a);
    if (bcReadsB(op))
        f(b);
    if (op == Bc::Mux)
        f(c);
    if (op == Bc::SetSlice)
        f(dst);
}

/** One bytecode instruction; register operands are frame indices. */
struct BcInst
{
    Bc op = Bc::Mov;
    uint8_t sh = 0;
    int32_t dst = 0;
    int32_t a = 0;
    int32_t b = 0;
    int32_t c = 0;
    int32_t imm = 0;
    uint64_t mask = ~uint64_t(0);

    bool operator==(const BcInst &) const = default;
};

/**
 * One block type's program, shared by all its instances. A frame is
 * laid out as [slots | constant columns | immediates | temps |
 * expression scratch]; bcCompile's programs have no immediates.
 */
struct BcProgram
{
    std::vector<BcInst> insts;
    /** Slots the program may write, scattered back after a run. */
    std::vector<int32_t> written;
    /** Immediate values, equal on every instance of the module. */
    std::vector<uint64_t> imms;
    int nslots = 0;
    int nconsts = 0;  //!< per-instance constant columns
    int ntemps = 0;   //!< leading scratch words, zeroed per run
    int nscratch = 0; //!< temps included

    int immBase() const { return nslots + nconsts; }
    int scratchBase() const
    {
        return immBase() + static_cast<int>(imms.size());
    }
    int frameSize() const { return scratchBase() + nscratch; }
};

/** A freshly compiled block: its program and its instance tables. */
struct BcBlock
{
    BcProgram prog;
    std::vector<int32_t> slots;   //!< absolute arena word of each slot
    std::vector<uint64_t> consts; //!< value of each constant operand
};

/** One instance's tables; the pointers belong to a BcModule. */
struct BcInstance
{
    const BcProgram *prog = nullptr;
    const int32_t *slots = nullptr;
    const uint64_t *consts = nullptr; //!< one value per column
};

/**
 * Most lanes bcRunBatch runs per pass; a pass's frame is up to
 * kBcLanes times a program's frame. At 32 lanes the largest frame of
 * the optimized RTL mesh, 58 words, takes 14.5 KB, which fits in L1,
 * while dispatch is already spread over 32 instances.
 */
inline constexpr int kBcLanes = 32;

/**
 * Instances of one program that bcRunBatch runs together, as chunks of
 * kBcLanes lanes (the last chunk may be partial). The tables are laid
 * out as the frame is: per chunk, one row of `width` words per slot or
 * constant column, so lane l of chunk c has slot s at
 * slots[(c * nslots + s) * width + l]. Immediates are the program's,
 * not the batch's. Built once at schedule time by BcModule::batch.
 */
struct BcBatch
{
    const BcProgram *prog = nullptr;
    int nlanes = 0;
    int width = 0;                //!< lanes per row: min(nlanes, kBcLanes)
    std::vector<int> blocks;      //!< each lane's ElabBlock index
    std::vector<int32_t> slots;   //!< [chunk][slot][lane]: arena word
    std::vector<uint64_t> consts; //!< [chunk][column][lane]
};

/**
 * The bytecode of a set of blocks: one block of each shape compiled,
 * blocks with identical programs sharing one, and each shared program
 * optimized once against its instances. Throws std::logic_error if a
 * compiled block's tables differ from its operand record. Slot tables
 * hold absolute offsets, so the module runs against any arena with
 * @p store's layout (every ParSim replica). Immutable once built;
 * moving it keeps its instances and batches valid.
 */
class BcModule
{
  public:
    BcModule() = default;
    BcModule(const Elaboration &elab, const ArenaStore &store,
             const std::vector<int> &blocks);
    BcModule(BcModule &&) = default;
    BcModule &operator=(BcModule &&) = default;
    BcModule(const BcModule &) = delete;
    BcModule &operator=(const BcModule &) = delete;

    /** Block @p block's instance (prog is null if it was not built). */
    const BcInstance &instance(int block) const { return insts_[block]; }
    int numPrograms() const { return static_cast<int>(progs_.size()); }
    /** The blocks running program @p prog, in module order. */
    const std::vector<int> &
    instancesOf(int prog) const
    {
        return members_[prog];
    }
    /** Index of block @p block's program, or -1 if it was not built. */
    int
    programOf(int block) const
    {
        const BcProgram *prog = insts_[block].prog;
        return prog ? static_cast<int>(prog - progs_.data()) : -1;
    }
    /**
     * The batch of @p blocks, in that lane order. Every block must
     * share one program; the caller guarantees the antichain.
     */
    BcBatch batch(const std::vector<int> &blocks) const;
    /** Frame words bcRunBatch needs for any batch of the module. */
    size_t
    frameWords() const
    {
        return static_cast<size_t>(max_frame_) * kBcLanes;
    }

  private:
    std::vector<BcProgram> progs_;
    std::vector<std::vector<int>> members_; //!< per program: its blocks
    std::vector<int32_t> slot_pool_;
    std::vector<uint64_t> const_pool_;
    std::vector<BcInstance> insts_; //!< per elaborated block
    int max_frame_ = 0;
};

/**
 * True iff the block is within the specializable subset: an IR block
 * whose every value, temp and assigned net fits in 64 bits.
 */
bool bcSpecializable(const ElabBlock &blk);

/**
 * Compile an IR block against the arena's word offsets: one instruction
 * per IR node and one constant operand per IR constant, unoptimized.
 */
BcBlock bcCompile(const ElabBlock &blk, const ArenaStore &store);

/**
 * Run every lane of @p batch against @p words. @p frame must hold at
 * least BcModule::frameWords() words and must not overlap @p words.
 */
void bcRunBatch(const BcBatch &batch, uint64_t *words, uint64_t *frame);

} // namespace cmtl

#endif // CMTL_CORE_IR_BYTECODE_H
