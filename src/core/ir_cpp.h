/**
 * @file
 * C++ source emission from IR blocks (SimJIT code generation stage).
 *
 * Given an elaborated design, its word arena, and a grouping of
 * specialized block indices, emits a self-contained C++ translation
 * unit with one `extern "C" void cmtl_grp_<k>(uint64_t *w)` entry
 * point per group, each executing its blocks' logic directly on the
 * ArenaStore word arena. This is the exact pipeline shape of PyMTL's
 * SimJIT: generate C++ from the elaborated model instance, compile it
 * to a shared library (see jit_cpp.h), and call it through a C ABI.
 *
 * Blocks compile to one kernel per block type, not one body per
 * instance. Each block body is first emitted with its arena references
 * as local slot numbers; that text is the block's fingerprint, and
 * every distinct fingerprint becomes one
 * `static void T<k>(uint64_t *b[, const int32_t *o])`. An entry point
 * is a list of calls, one per instance: `T<k>(w + base[, tab + row])`.
 * The base is the instance's first slot. A slot at the same offset
 * from the base on every instance of the type is a constant, `b[c]`;
 * only the others read the instance's row of one int32 table,
 * `b[o[i]]`.
 *
 * The specializable subset matches the bytecode backend: all nets and
 * intermediates must fit in 64 bits (checked via bcSpecializable).
 */

#ifndef CMTL_CORE_IR_CPP_H
#define CMTL_CORE_IR_CPP_H

#include <string>
#include <vector>

#include "model.h"
#include "store.h"

namespace cmtl {

/** An emitted translation unit. */
struct CppProgram
{
    std::string source;
    int kernelTypes = 0; //!< distinct block kernels in the source
};

/**
 * Emit the C++ source for the given groups of specialized blocks.
 * Each inner vector lists ElabBlock indices fused into one entry
 * point, executed in order.
 */
CppProgram cppEmitProgram(const Elaboration &elab, const ArenaStore &store,
                          const std::vector<std::vector<int>> &groups);

/**
 * One whole-design specialization unit (the cpp-design backend): an
 * ordered mix of block executions, register flops and calls to other
 * units, emitted into a single entry point. A unit calling the tick,
 * flop and comb units in turn is a complete step() function.
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
 * Emit the C++ source for whole-design units. The group overload is
 * this one with each group a unit of block items; flop items compile
 * to straight-line word copies.
 */
CppProgram cppEmitProgram(const Elaboration &elab, const ArenaStore &store,
                          const std::vector<CppUnit> &units);

/** Symbol name of group @p k in the emitted source. */
std::string cppGroupSymbol(int k);

} // namespace cmtl

#endif // CMTL_CORE_IR_CPP_H
