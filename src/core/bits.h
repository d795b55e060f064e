/**
 * @file
 * Arbitrary-width bit-vector value type.
 *
 * Bits is the fixed-bitwidth message/value type used throughout CMTL,
 * mirroring PyMTL's Bits type: all arithmetic is performed modulo 2^n,
 * operands of different widths are zero-extended to the wider operand,
 * and slicing/concatenation follow Verilog conventions.
 *
 * Values of width <= 64 are stored inline in a single machine word;
 * wider values spill into a word vector. Perf-critical simulation paths
 * (the bytecode and C++ specializers) operate on raw uint64_t arenas
 * instead and never touch this class, so Bits favours correctness and
 * convenience over raw speed.
 */

#ifndef CMTL_CORE_BITS_H
#define CMTL_CORE_BITS_H

#include <cstdint>
#include <string>
#include <vector>

namespace cmtl {

/** Number of 64-bit words needed to hold @p nbits bits. */
constexpr int
bitsToWords(int nbits)
{
    return (nbits + 63) / 64;
}

/** Mask covering the valid bits of the top word of an n-bit value. */
constexpr uint64_t
topWordMask(int nbits)
{
    int rem = nbits % 64;
    return rem == 0 ? ~uint64_t(0) : ((uint64_t(1) << rem) - 1);
}

/** Mask of the low min(@p nbits, 64) bits. */
constexpr uint64_t
widthMask(int nbits)
{
    return nbits >= 64 ? ~uint64_t(0) : ((uint64_t(1) << nbits) - 1);
}

/** Minimum number of bits needed to represent @p value. At least 1. */
int clog2(uint64_t value);

/** Bits needed to index @p n distinct values (PyMTL's bw() helper). */
int bitsFor(uint64_t n);

/**
 * An n-bit unsigned value with modulo-2^n arithmetic.
 *
 * Width is a dynamic property fixed at construction. Binary operators
 * zero-extend the narrower operand and produce a result of the wider
 * operand's width (comparisons produce a 1-bit result). All mutating
 * and constructing operations keep the value truncated to the width.
 */
class Bits
{
  public:
    /** Default: 1-bit zero. */
    Bits() : nbits_(1), v0_(0) {}

    /** An @p nbits-wide value initialized to @p value (truncated). */
    explicit Bits(int nbits, uint64_t value = 0);

    /** Construct from little-endian words (word 0 = bits 63..0). */
    static Bits fromWords(int nbits, const std::vector<uint64_t> &words);

    /** Parse "0x..."/"0b..." or decimal into an @p nbits value. */
    static Bits fromString(int nbits, const std::string &text);

    int nbits() const { return static_cast<int>(nbits_); }
    int nwords() const { return bitsToWords(nbits()); }

    /** Word @p i of the value (zero beyond the stored width). */
    uint64_t word(int i) const;

    /** Low 64 bits of the value. */
    uint64_t toUint64() const { return nwords() == 1 ? v0_ : wide_[0]; }

    /** True iff the value fits in 64 bits (upper words all zero). */
    bool fitsUint64() const;

    /** True iff any bit is set. */
    bool any() const;
    /** True iff all bits are set. */
    bool all() const;
    explicit operator bool() const { return any(); }

    /** Read a single bit. @p pos must be within the width. */
    bool bit(int pos) const;
    /** Write a single bit. @p pos must be within the width. */
    void setBit(int pos, bool value);

    /** Bits [lsb, lsb+len): a new value of width @p len. */
    Bits slice(int lsb, int len) const;
    /** Verilog-style inclusive [msb:lsb] slice. */
    Bits operator()(int msb, int lsb) const { return slice(lsb, msb - lsb + 1); }

    /** Overwrite bits [lsb, lsb+src.nbits()) with @p src. */
    void setSlice(int lsb, const Bits &src);

    /** Zero-extend (or truncate) to @p nbits. */
    Bits zext(int nbits) const;
    /** Sign-extend (or truncate) to @p nbits. */
    Bits sext(int nbits) const;

    /** Value reinterpreted as signed (requires width <= 64). */
    int64_t toInt64() const;

    // Arithmetic. Result width = max(lhs, rhs) width; modulo arithmetic.
    friend Bits operator+(const Bits &a, const Bits &b);
    friend Bits operator-(const Bits &a, const Bits &b);
    friend Bits operator*(const Bits &a, const Bits &b);
    friend Bits operator/(const Bits &a, const Bits &b);
    friend Bits operator%(const Bits &a, const Bits &b);

    // Bitwise.
    friend Bits operator&(const Bits &a, const Bits &b);
    friend Bits operator|(const Bits &a, const Bits &b);
    friend Bits operator^(const Bits &a, const Bits &b);
    Bits operator~() const;

    // Shifts. Shift amount is the numeric value of the rhs.
    friend Bits operator<<(const Bits &a, const Bits &b);
    friend Bits operator>>(const Bits &a, const Bits &b);
    Bits shl(int amount) const;
    Bits shr(int amount) const;
    /** Arithmetic (sign-preserving) right shift. */
    Bits sra(int amount) const;

    // Unsigned comparisons.
    friend bool operator==(const Bits &a, const Bits &b);
    friend bool operator!=(const Bits &a, const Bits &b) { return !(a == b); }
    friend bool operator<(const Bits &a, const Bits &b);
    friend bool operator<=(const Bits &a, const Bits &b);
    friend bool operator>(const Bits &a, const Bits &b) { return b < a; }
    friend bool operator>=(const Bits &a, const Bits &b) { return b <= a; }

    // Convenience comparisons against plain integers.
    friend bool operator==(const Bits &a, uint64_t b);
    friend bool operator==(uint64_t a, const Bits &b) { return b == a; }
    friend bool operator!=(const Bits &a, uint64_t b) { return !(a == b); }

    /** Signed less-than (requires width <= 64). */
    static bool slt(const Bits &a, const Bits &b);

    /** Reduction OR/AND/XOR producing a 1-bit result. */
    Bits reduceOr() const;
    Bits reduceAnd() const;
    Bits reduceXor() const;

    /** Hex string, zero padded to the width, e.g. "0x00ff". */
    std::string toHexString() const;
    /** Binary string, e.g. "0b0101". */
    std::string toBinString() const;
    /** Decimal string (width <= 64 only; hex otherwise). */
    std::string toDecString() const;

  private:
    void normalize();
    const uint64_t *words() const { return nwords() == 1 ? &v0_ : wide_.data(); }
    uint64_t *words() { return nwords() == 1 ? &v0_ : wide_.data(); }

    uint32_t nbits_;
    uint64_t v0_;                // value when nwords() == 1
    std::vector<uint64_t> wide_; // value when nwords() > 1 (all words)
};

/** Verilog-style concatenation: @p hi becomes the high-order bits. */
Bits concat(const Bits &hi, const Bits &lo);
Bits concat(std::initializer_list<Bits> parts);

std::ostream &operator<<(std::ostream &os, const Bits &b);

} // namespace cmtl

#endif // CMTL_CORE_BITS_H
