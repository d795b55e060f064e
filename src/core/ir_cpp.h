/**
 * @file
 * C++ source emission from IR blocks (SimJIT code generation stage).
 *
 * Given an elaborated design, its word arena, the design's bytecode
 * module and a list of units, emits a self-contained C++ translation
 * unit with one `extern "C" void cmtl_grp_<k>(uint64_t *w)` entry
 * point per unit, each executing its blocks' logic directly on the
 * ArenaStore word arena. This is the exact pipeline shape of PyMTL's
 * SimJIT: generate C++ from the elaborated model instance, compile it
 * to a shared library (see jit_cpp.h), and call it through a C ABI.
 *
 * Both compiled tiers share one front end: every C++ kernel is
 * translated from a BcProgram of the BcModule (ir_bytecode.h), so
 * blocks compile to one kernel per program, that is per block type.
 * Programs arrive optimized (see the pass in ir_bytecode.h). Stores
 * and temps become statements, Jz/Jmp become labels and gotos, and an
 * intermediate value read once, with no write to what it reads before
 * that read, is emitted inside the expression that reads it, which
 * rebuilds the IR's expression trees (Mux arms stay lazy). Any other
 * intermediate value gets a local of its own. A kernel is
 * `static void T<k>(uint64_t *b, const int32_t *o, const uint64_t *c)`:
 *
 *  - Slots. The instance base `b` is the instance's word of the first
 *    slot whose word differs across instances. A slot at the same
 *    offset from the base on every instance is a literal, `b[7]`; only
 *    the others read the instance's row of one int32 table, `o`.
 *  - Constants. A program immediate (equal on every instance of the
 *    module) is a literal, so g++ still folds masks and shifts. The
 *    program's constant columns read the instance's row of one uint64
 *    table, `c`, copied into const locals at kernel entry.
 *
 * An entry point runs its items in order. Consecutive instances of one
 * kernel form a run, emitted as one loop over the run's table of
 * {base, slot row, constant row} triples; a run of one is a direct
 * call. Orders that keep instances of one type together (see
 * SimulationTool::designCombOrder) therefore make a few loops out of
 * a whole phase.
 *
 * The specializable subset matches the bytecode backend: all nets and
 * intermediates must fit in 64 bits (checked via bcSpecializable).
 */

#ifndef CMTL_CORE_IR_CPP_H
#define CMTL_CORE_IR_CPP_H

#include <string>
#include <vector>

#include "ir_bytecode.h"
#include "model.h"
#include "store.h"

namespace cmtl {

/** An emitted translation unit. */
struct CppProgram
{
    std::string source;
    int kernelTypes = 0; //!< distinct block kernels in the source
    int tabledSlots = 0; //!< slot columns read from the table, all kernels
};

/**
 * One specialization unit: an ordered mix of block executions,
 * register flops and calls to other units, emitted into a single entry
 * point. A cpp-block group is a unit of one block; a cpp-design unit
 * calling the tick, flop and comb units in turn is a complete step()
 * function.
 */
struct CppUnit
{
    struct Item
    {
        int block = -1; //!< ElabBlock index to execute, or
        /** Whole-word flop range (block < 0): copy rangeWords words
         *  next -> current starting at rangeOff. Produced from
         *  ArenaStore::flopPlan(). */
        int rangeOff = -1;
        int rangeWords = 0;
        /** Call an earlier unit's entry point (block < 0). */
        int unit = -1;
    };
    std::vector<Item> items;
};

/**
 * Emit the C++ source for @p units. Every block item must have a
 * program in @p bc; flop items compile to straight-line word copies.
 */
CppProgram cppEmitProgram(const Elaboration &elab, const ArenaStore &store,
                          const BcModule &bc,
                          const std::vector<CppUnit> &units);

/** Symbol name of unit @p k in the emitted source. */
std::string cppGroupSymbol(int k);

} // namespace cmtl

#endif // CMTL_CORE_IR_CPP_H
