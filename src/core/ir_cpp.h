/**
 * @file
 * C++ source emission from bytecode programs (SimJIT code generation).
 *
 * The emitted translation unit is a function of a BcModule alone: one
 * kernel per program, that is per block type,
 *
 *   extern "C" void cmtl_k<p>(uint64_t *w, const int32_t *rows,
 *                             const uint64_t *consts, int n)
 *
 * which runs program p's logic for n instances against the word arena
 * @p w, one instance per row. It names no design, no instance and no
 * schedule: the host keeps the schedule (the kernel's bytecode batch
 * list) and each batch's row and constant tables (CppBatch) as data,
 * and calls a batch's kernel once per run. Only designs with identical
 * programs share one compiled library: the cpp-block and cpp-design
 * backends and ParSim runs of one design do, but meshes of different
 * sizes do not, since their programs carry wider coordinate fields as
 * immediates. This is PyMTL's SimJIT pipeline with the block type as the
 * unit of translation: generate C++, compile it to a shared library
 * (see jit_cpp.h), and call it through a C ABI.
 *
 * Programs arrive optimized (see the pass in ir_bytecode.h). Stores
 * and temps become statements, Jz/Jmp become labels and gotos, and an
 * intermediate value read once, with no write to what it reads before
 * that read, is emitted inside the expression that reads it, which
 * rebuilds the IR's expression trees. Any other intermediate value
 * gets a local of its own. No expression branches on data: a Mux is
 * the select cmtl_mux over both arms, evaluated eagerly, and LAnd and
 * LOr combine their operands' truth values bitwise, as bcRunBatch
 * does. This is exact because IR arms have no side effects and every
 * array index is masked to its power-of-two depth; the Jz/Jmp gotos
 * are the kernel's only branches. Per row:
 *
 *  - Slots. The instance base `b = w + row[0]` is the instance's word
 *    of the first slot whose word differs across the module's
 *    instances of the program. A slot at the same offset from the base
 *    on every instance is a literal, `b[7]`; only the others read the
 *    rest of the row (CppKernel::tabled).
 *  - Constants. A program immediate (equal on every instance of the
 *    module) is a literal, so g++ still folds masks and shifts. The
 *    program's constant columns are the instance's row of `consts`.
 *
 * The specializable subset matches the bytecode backend: all nets and
 * intermediates must fit in 64 bits (checked via bcSpecializable).
 */

#ifndef CMTL_CORE_IR_CPP_H
#define CMTL_CORE_IR_CPP_H

#include <string>
#include <vector>

#include "ir_bytecode.h"

namespace cmtl {

/** How one kernel addresses its instances' slots. */
struct CppKernel
{
    int baseSlot = 0;        //!< slot whose word a row's base is
    std::vector<int> tabled; //!< slots read from a row, after the base
};

/** An emitted translation unit. */
struct CppProgram
{
    std::string source;
    std::vector<CppKernel> kernels; //!< per program of the module
    int tabledSlots = 0; //!< slot columns read from rows, all kernels
};

/**
 * The arguments of one kernel call over a batch: per lane, a row of
 * 1 + tabled.size() words (the base word, then each tabled slot's
 * offset from it) and a row of the program's constant columns.
 */
struct CppBatch
{
    int kernel = -1;
    int n = 0;
    std::vector<int32_t> rows;
    std::vector<uint64_t> consts;
};

/** Emit one kernel per program of @p bc. */
CppProgram cppEmitProgram(const BcModule &bc);

/**
 * The call of @p prog's kernel over @p blocks, which must share one
 * program of @p bc, the module @p prog was emitted from.
 */
CppBatch cppBatch(const CppProgram &prog, const BcModule &bc,
                  const std::vector<int> &blocks);

} // namespace cmtl

#endif // CMTL_CORE_IR_CPP_H
