/**
 * @file
 * SimJIT bytecode backend.
 *
 * The bytecode specializer is the always-available SimJIT engine: at
 * simulator-construction time it compiles elaborated IR blocks into a
 * flat register-machine program operating directly on the ArenaStore
 * word arena, eliminating tree-walking dispatch, Bits temporaries, and
 * per-signal indirection. It plays the role of PyMTL's generated-C++
 * specializers when no host compiler is available, and serves as the
 * ablation point against the real compiled-C++ backend (jit_cpp).
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

/** Bytecode opcodes. */
enum class Bc : uint8_t
{
    LdImm, //!< dst = imm
    Mov,   //!< dst = R(a) & mask
    Add, Sub, Mul, And, Or, Xor,
    Shl, Shr, Sra,
    Eq, Ne, Lt, Le, Gt, Ge, LAnd, LOr,
    Inv, LNot, ROr, RAnd, RXor,
    Slice,    //!< dst = (R(a) >> sh) & mask
    SetSlice, //!< dst = (dst & ~(mask<<sh)) | ((R(a)&mask) << sh)
    Mux,      //!< dst = R(c) ? R(a) : R(b)
    Sext,     //!< dst = signextend(R(a), imm bits) & mask
    ALoad,    //!< dst = words[imm + (R(a) & c)]
    AStore,   //!< words[imm + (R(a) & c)] = R(b) & mask
    Jz,       //!< if (!R(a)) pc = imm
    Jmp,      //!< pc = imm
};

/**
 * One bytecode instruction. Register operands >= 0 address arena
 * words; operands < 0 address scratch slot (-idx - 1).
 */
struct BcInst
{
    Bc op;
    int32_t dst = 0;
    int32_t a = 0;
    int32_t b = 0;
    int32_t c = 0;
    uint64_t imm = 0;
    uint64_t mask = ~uint64_t(0);
    uint8_t sh = 0;
};

/** A compiled block. */
struct BcProgram
{
    std::vector<BcInst> insts;
    int nscratch = 0;
};

/** True iff the block is within the specializable subset. */
bool bcSpecializable(const ElabBlock &blk, const ArenaStore &store);

/** Compile an IR block against the arena's word offsets. */
BcProgram bcCompile(const ElabBlock &blk, const ArenaStore &store);

/** Execute a compiled program. @p scratch must have >= nscratch slots. */
void bcRun(const BcProgram &prog, uint64_t *words, uint64_t *scratch);

} // namespace cmtl

#endif // CMTL_CORE_IR_BYTECODE_H
