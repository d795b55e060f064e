/**
 * @file
 * Signal value storage backends.
 *
 * Two storage strategies implement the paper's host-execution axis:
 *
 *  - BoxedStore (the CPython analog): every net's value is a
 *    heap-allocated, reference-counted Bits box held in a string-keyed
 *    hash map; every read hashes the net name and unboxes, every write
 *    allocates a fresh box — structurally the costs a CPython PyMTL
 *    simulation pays for attribute lookup and Bits object churn.
 *
 *  - ArenaStore (the PyPy/SimJIT analog): net values live in a dense
 *    uint64 word arena; the current-value region is words [0, W) and
 *    the next-value (non-blocking) region is words [W, 2W). Reads and
 *    writes are direct indexed loads/stores, the result of
 *    slot-binding every signal once, the way a tracing JIT's
 *    attribute caches do. Nets take whole words in elaboration
 *    order (a net never shares a word), so every specializer bakes
 *    plain word offsets into its code; memory arrays follow the two
 *    net phases.
 */

#ifndef CMTL_CORE_STORE_H
#define CMTL_CORE_STORE_H

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bits.h"
#include "model.h"

namespace cmtl {

/** Boxed, dictionary-backed storage (CPython analog). */
class BoxedStore
{
  public:
    explicit BoxedStore(const Elaboration &elab);

    /** Read the current value of a net (by hashed name lookup). */
    Bits read(int net) const;
    /** Read the next value of a net. */
    Bits readNext(int net) const;
    /**
     * Write the current value; returns true if the value changed
     * (drives event-driven scheduling).
     */
    bool write(int net, const Bits &value);
    /** Write the next value (non-blocking). */
    void writeNext(int net, const Bits &value);
    /** Copy next -> current for one net; returns true on change. */
    bool flop(int net);

    /** Read array element (name-hashed lookup, boxed result). */
    Bits arrayRead(int array_id, uint64_t index) const;
    /** Write array element (effective immediately). */
    void arrayWrite(int array_id, uint64_t index, const Bits &value);

  private:
    using Box = std::shared_ptr<Bits>;
    const Elaboration &elab_;
    // Keyed by net name: the "instance __dict__" of the design.
    std::unordered_map<std::string, Box> cur_;
    std::unordered_map<std::string, Box> nxt_;
    std::unordered_map<std::string, std::vector<Box>> arrays_;
};

/** One whole-word next -> current copy run of the flop phase. */
struct FlopRange
{
    int off = 0;    //!< first word (current-phase index)
    int nwords = 0; //!< contiguous words to copy
};

/** Arena counters surfaced in simulatorReport / SimScope. */
struct LayoutStats
{
    int words_per_phase = 0;
    int flop_memcpy_ranges = 0; //!< ranges in the kernel's flop plan
    // simulatorReport only (not in the SimScope JSON):
    int slot_bound_signals = 0; //!< signals bound to an arena word
};

/** Dense word-arena storage (PyPy/SimJIT analog). */
class ArenaStore
{
  public:
    /** Elaboration-order layout: one whole-word run per net. */
    explicit ArenaStore(const Elaboration &elab);

    int wordsPerPhase() const { return words_per_phase_; }
    uint64_t *data() { return words_.data(); }
    const uint64_t *data() const { return words_.data(); }

    /** First word of the net's slot within a phase. */
    int offset(int net) const { return offset_[net]; }
    int nwords(int net) const { return nwords_[net]; }
    int nbits(int net) const { return nbits_[net]; }
    uint64_t mask(int net) const { return mask_[net]; }

    /** True iff the net fits one word (specializable). */
    bool narrow(int net) const { return nwords_[net] == 1; }

    Bits read(int net) const;
    Bits readNext(int net) const;
    bool write(int net, const Bits &value);
    void writeNext(int net, const Bits &value);
    bool flop(int net);

    /**
     * Coalesce @p flop_nets into whole-word next -> current copy
     * ranges: nets own their words, so adjacent flopped nets merge.
     */
    std::vector<FlopRange> flopPlan(const std::vector<int> &flop_nets) const;
    /** Whole-word next -> current copies (precomputed flop plan). */
    void flopRanges(const std::vector<FlopRange> &ranges);

    /** Word offset of an array's storage region. */
    int arrayOffset(int array_id) const { return array_offset_[array_id]; }
    uint64_t arrayIndexMask(int array_id) const
    {
        return array_mask_[array_id];
    }
    uint64_t arrayValueMask(int array_id) const
    {
        return array_vmask_[array_id];
    }

    Bits arrayRead(int array_id, uint64_t index) const;
    void arrayWrite(int array_id, uint64_t index, const Bits &value);

    /**
     * Arena word of an operand token (IrShape::operands): a
     * net's current or next word, or an array's base.
     */
    int
    operandWord(int32_t token) const
    {
        return token < 0 ? array_offset_[-token - 1]
                         : offset_[token >> 1] +
                               (token & 1) * words_per_phase_;
    }

  private:
    std::vector<uint64_t> words_; //!< [cur][next][array storage]
    std::vector<int> offset_;
    std::vector<int> nwords_;
    std::vector<int> nbits_;
    std::vector<uint64_t> mask_; //!< top-word value mask per net
    std::vector<int> array_offset_;
    std::vector<uint64_t> array_mask_;  //!< index masks
    std::vector<uint64_t> array_vmask_; //!< element value masks
    std::vector<int> array_nbits_;
    int words_per_phase_ = 0;
};

} // namespace cmtl

#endif // CMTL_CORE_STORE_H
