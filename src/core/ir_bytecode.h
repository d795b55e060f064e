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
 * occurrence as a constant operand. The instruction stream names only those numbers,
 * so instances of one block type compile to the same program; a
 * BcModule keeps one program per distinct stream and, per instance,
 * only its slot table (absolute arena words) and constant table.
 *
 * bcRun gathers an instance's slots and constants into a contiguous
 * frame [slots | consts | scratch], runs the program with every operand
 * a frame index, and scatters the program's written slots back to the
 * arena. Array accesses address the arena through the slot table.
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

/** One block type's program, shared by all its instances. */
struct BcProgram
{
    std::vector<BcInst> insts;
    /** Slots the program may write, scattered back after a run. */
    std::vector<int32_t> written;
    int nslots = 0;
    int nconsts = 0;
    int ntemps = 0;   //!< leading scratch words, zeroed per run
    int nscratch = 0; //!< temps included

    int frameSize() const { return nslots + nconsts + nscratch; }
};

/** A freshly compiled block: its program and its instance tables. */
struct BcBlock
{
    BcProgram prog;
    std::vector<int32_t> slots;   //!< absolute arena word of each slot
    std::vector<uint64_t> consts; //!< value of each constant operand
};

/** One instance as bcRun sees it; the pointers belong to a BcModule. */
struct BcInstance
{
    const BcProgram *prog = nullptr;
    const int32_t *slots = nullptr;
    const uint64_t *consts = nullptr;
};

/**
 * The bytecode of a set of blocks: every block compiled once, and
 * blocks with identical programs sharing one. Slot tables hold absolute
 * offsets, so the module runs against any arena with @p store's
 * layout (every ParSim replica). Immutable once built; moving it keeps
 * its instances valid.
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
    /** Index of block @p block's program, or -1 if it was not built. */
    int
    programOf(int block) const
    {
        const BcProgram *prog = insts_[block].prog;
        return prog ? static_cast<int>(prog - progs_.data()) : -1;
    }
    /** Frame words bcRun needs for any instance of the module. */
    int maxFrame() const { return max_frame_; }

  private:
    std::vector<BcProgram> progs_;
    std::vector<int32_t> slot_pool_;
    std::vector<uint64_t> const_pool_;
    std::vector<BcInstance> insts_; //!< per elaborated block
    int max_frame_ = 0;
};

/** True iff the block is within the specializable subset. */
bool bcSpecializable(const ElabBlock &blk, const ArenaStore &store);

/** Compile an IR block against the arena's word offsets. */
BcBlock bcCompile(const ElabBlock &blk, const ArenaStore &store);

/**
 * Run one instance against @p words. @p frame must hold at least
 * prog->frameSize() words and must not overlap @p words.
 */
void bcRun(const BcInstance &inst, uint64_t *words, uint64_t *frame);

} // namespace cmtl

#endif // CMTL_CORE_IR_BYTECODE_H
