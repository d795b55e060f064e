#include <gtest/gtest.h>

#include <random>

#include "core/bits.h"

namespace cmtl {
namespace {

TEST(BitsBasics, DefaultIsOneBitZero)
{
    Bits b;
    EXPECT_EQ(b.nbits(), 1);
    EXPECT_FALSE(b.any());
    EXPECT_EQ(b.toUint64(), 0u);
}

TEST(BitsBasics, ConstructionTruncates)
{
    Bits b(4, 0x1f);
    EXPECT_EQ(b.toUint64(), 0xfu);
    Bits c(8, 0x100);
    EXPECT_EQ(c.toUint64(), 0u);
    Bits d(64, ~uint64_t(0));
    EXPECT_EQ(d.toUint64(), ~uint64_t(0));
}

TEST(BitsBasics, InvalidWidthThrows)
{
    EXPECT_THROW(Bits(0), std::invalid_argument);
    EXPECT_THROW(Bits(-3), std::invalid_argument);
}

TEST(BitsBasics, WideStorage)
{
    Bits b = Bits::fromWords(128, {0x1111222233334444ull,
                                   0x5555666677778888ull});
    EXPECT_EQ(b.nwords(), 2);
    EXPECT_EQ(b.word(0), 0x1111222233334444ull);
    EXPECT_EQ(b.word(1), 0x5555666677778888ull);
    EXPECT_EQ(b.word(2), 0u); // beyond width reads as zero
    EXPECT_FALSE(b.fitsUint64());
}

TEST(BitsBasics, WideTruncatesTopWord)
{
    Bits b = Bits::fromWords(65, {0, ~uint64_t(0)});
    EXPECT_EQ(b.word(1), 1u);
}

TEST(BitsBasics, FromStringHex)
{
    EXPECT_EQ(Bits::fromString(16, "0xabcd").toUint64(), 0xabcdu);
    EXPECT_EQ(Bits::fromString(16, "0xAB_CD").toUint64(), 0xabcdu);
    EXPECT_EQ(Bits::fromString(8, "0b1010_0101").toUint64(), 0xa5u);
    EXPECT_EQ(Bits::fromString(32, "1234").toUint64(), 1234u);
    EXPECT_THROW(Bits::fromString(8, "0xzz"), std::invalid_argument);
}

TEST(BitsBasics, ClogAndBitsFor)
{
    EXPECT_EQ(clog2(1), 1);
    EXPECT_EQ(clog2(2), 2);
    EXPECT_EQ(clog2(255), 8);
    EXPECT_EQ(bitsFor(2), 1);
    EXPECT_EQ(bitsFor(4), 2);
    EXPECT_EQ(bitsFor(5), 3);
    EXPECT_EQ(bitsFor(64), 6);
}

TEST(BitsArith, ModuloAddition)
{
    Bits a(8, 200), b(8, 100);
    EXPECT_EQ((a + b).toUint64(), (200 + 100) % 256u);
    EXPECT_EQ((a + b).nbits(), 8);
}

TEST(BitsArith, MixedWidthZeroExtends)
{
    Bits a(4, 0xf), b(8, 0x10);
    Bits sum = a + b;
    EXPECT_EQ(sum.nbits(), 8);
    EXPECT_EQ(sum.toUint64(), 0x1fu);
}

TEST(BitsArith, SubtractionWraps)
{
    Bits a(8, 5), b(8, 10);
    EXPECT_EQ((a - b).toUint64(), 251u);
}

TEST(BitsArith, Multiplication)
{
    Bits a(8, 20), b(8, 30);
    EXPECT_EQ((a * b).toUint64(), 600 % 256u);
    Bits c(16, 300), d(16, 300);
    EXPECT_EQ((c * d).toUint64(), 90000 % 65536u);
}

TEST(BitsArith, DivisionAndModulo)
{
    Bits a(16, 1000), b(16, 7);
    EXPECT_EQ((a / b).toUint64(), 142u);
    EXPECT_EQ((a % b).toUint64(), 6u);
    EXPECT_THROW(a / Bits(16, 0), std::domain_error);
    EXPECT_THROW(a % Bits(16, 0), std::domain_error);
}

TEST(BitsArith, WideAdditionCarries)
{
    Bits a = Bits::fromWords(128, {~uint64_t(0), 0});
    Bits one(128, 1);
    Bits sum = a + one;
    EXPECT_EQ(sum.word(0), 0u);
    EXPECT_EQ(sum.word(1), 1u);
}

TEST(BitsArith, WideSubtractionBorrows)
{
    Bits a = Bits::fromWords(128, {0, 1});
    Bits one(128, 1);
    Bits diff = a - one;
    EXPECT_EQ(diff.word(0), ~uint64_t(0));
    EXPECT_EQ(diff.word(1), 0u);
}

TEST(BitsArith, WideMultiplicationMatches128BitReference)
{
    std::mt19937_64 rng(7);
    for (int i = 0; i < 200; ++i) {
        uint64_t x = rng(), y = rng();
        unsigned __int128 ref =
            static_cast<unsigned __int128>(x) * y;
        Bits a(128, 0), b(128, 0);
        a.setSlice(0, Bits(64, x));
        b.setSlice(0, Bits(64, y));
        Bits prod = a * b;
        EXPECT_EQ(prod.word(0), static_cast<uint64_t>(ref));
        EXPECT_EQ(prod.word(1), static_cast<uint64_t>(ref >> 64));
    }
}

TEST(BitsArith, WideDivisionMatchesNarrow)
{
    std::mt19937_64 rng(11);
    for (int i = 0; i < 50; ++i) {
        uint64_t x = rng() >> 8, y = (rng() >> 40) | 1;
        Bits a = Bits::fromWords(96, {x, 0});
        Bits b = Bits::fromWords(96, {y, 0});
        // Push through the wide path by making values non-64-bit.
        Bits wide_x = a.shl(20);
        Bits wide_y = b.shl(20);
        EXPECT_EQ((wide_x / wide_y).toUint64(), x / y) << x << "/" << y;
        EXPECT_EQ((wide_x % wide_y).shr(20).toUint64(), x % y);
    }
}

TEST(BitsLogic, BitwiseOps)
{
    Bits a(8, 0xf0), b(8, 0xaa);
    EXPECT_EQ((a & b).toUint64(), 0xa0u);
    EXPECT_EQ((a | b).toUint64(), 0xfau);
    EXPECT_EQ((a ^ b).toUint64(), 0x5au);
    EXPECT_EQ((~a).toUint64(), 0x0fu);
}

TEST(BitsLogic, Shifts)
{
    Bits a(8, 0x81);
    EXPECT_EQ(a.shl(1).toUint64(), 0x02u);
    EXPECT_EQ(a.shr(1).toUint64(), 0x40u);
    EXPECT_EQ((a << Bits(4, 3)).toUint64(), 0x08u);
    EXPECT_EQ((a >> Bits(4, 3)).toUint64(), 0x10u);
    EXPECT_EQ((a << Bits(8, 200)).toUint64(), 0u);
    EXPECT_EQ((a >> Bits(8, 200)).toUint64(), 0u);
}

TEST(BitsLogic, ArithmeticShiftRight)
{
    Bits a(8, 0x80);
    EXPECT_EQ(a.sra(3).toUint64(), 0xf0u);
    Bits b(8, 0x40);
    EXPECT_EQ(b.sra(3).toUint64(), 0x08u);
}

TEST(BitsLogic, WideShiftsCrossWords)
{
    Bits a = Bits::fromWords(128, {0x8000000000000001ull, 0});
    Bits l = a.shl(64);
    EXPECT_EQ(l.word(0), 0u);
    EXPECT_EQ(l.word(1), 0x8000000000000001ull);
    Bits l4 = a.shl(4);
    EXPECT_EQ(l4.word(0), 0x10ull);
    EXPECT_EQ(l4.word(1), 0x8ull);
    Bits r = l4.shr(4);
    EXPECT_EQ(r.word(0), a.word(0));
    EXPECT_EQ(r.word(1), 0u);
}

TEST(BitsCompare, Unsigned)
{
    EXPECT_TRUE(Bits(8, 5) < Bits(8, 6));
    EXPECT_TRUE(Bits(8, 5) <= Bits(8, 5));
    EXPECT_TRUE(Bits(8, 7) > Bits(8, 6));
    EXPECT_TRUE(Bits(8, 7) >= Bits(8, 7));
    EXPECT_TRUE(Bits(8, 7) == Bits(16, 7)); // width-agnostic equality
    EXPECT_TRUE(Bits(8, 7) != Bits(8, 8));
}

TEST(BitsCompare, AgainstIntegers)
{
    EXPECT_TRUE(Bits(8, 255) == 255u);
    EXPECT_FALSE(Bits(8, 255) == 256u); // value doesn't fit in 8 bits
    EXPECT_TRUE(Bits(4, 0) == 0u);
}

TEST(BitsCompare, Signed)
{
    EXPECT_TRUE(Bits::slt(Bits(8, 0xff), Bits(8, 1))); // -1 < 1
    EXPECT_FALSE(Bits::slt(Bits(8, 1), Bits(8, 0xff)));
    EXPECT_EQ(Bits(8, 0xff).toInt64(), -1);
    EXPECT_EQ(Bits(8, 0x7f).toInt64(), 127);
}

TEST(BitsSlice, BasicSliceAndSet)
{
    Bits b(16, 0xabcd);
    EXPECT_EQ(b.slice(0, 4).toUint64(), 0xdu);
    EXPECT_EQ(b.slice(4, 8).toUint64(), 0xbcu);
    EXPECT_EQ(b(15, 12).toUint64(), 0xau);
    b.setSlice(4, Bits(8, 0x12));
    EXPECT_EQ(b.toUint64(), 0xa12du);
}

TEST(BitsSlice, CrossWordSlices)
{
    Bits b = Bits::fromWords(128, {0xfedcba9876543210ull,
                                   0x0123456789abcdefull});
    EXPECT_EQ(b.slice(60, 8).toUint64(), 0xffu);
    EXPECT_EQ(b.slice(64, 64).toUint64(), 0x0123456789abcdefull);
    EXPECT_EQ(b.slice(32, 64).toUint64(), 0x89abcdeffedcba98ull);
}

TEST(BitsSlice, BitAccess)
{
    Bits b(8, 0);
    b.setBit(3, true);
    EXPECT_TRUE(b.bit(3));
    EXPECT_EQ(b.toUint64(), 8u);
    b.setBit(3, false);
    EXPECT_FALSE(b.any());
}

TEST(BitsExtend, ZextSext)
{
    Bits b(4, 0x9);
    EXPECT_EQ(b.zext(8).toUint64(), 0x09u);
    EXPECT_EQ(b.sext(8).toUint64(), 0xf9u);
    EXPECT_EQ(Bits(4, 0x5).sext(8).toUint64(), 0x05u);
    // Shrinking truncates.
    EXPECT_EQ(Bits(8, 0xab).zext(4).toUint64(), 0xbu);
}

TEST(BitsReduce, Reductions)
{
    EXPECT_EQ(Bits(8, 0).reduceOr().toUint64(), 0u);
    EXPECT_EQ(Bits(8, 4).reduceOr().toUint64(), 1u);
    EXPECT_EQ(Bits(8, 0xff).reduceAnd().toUint64(), 1u);
    EXPECT_EQ(Bits(8, 0xfe).reduceAnd().toUint64(), 0u);
    EXPECT_EQ(Bits(8, 0x03).reduceXor().toUint64(), 0u);
    EXPECT_EQ(Bits(8, 0x07).reduceXor().toUint64(), 1u);
    EXPECT_TRUE(Bits(3, 7).all());
    EXPECT_FALSE(Bits(3, 6).all());
}

TEST(BitsConcat, TwoAndMany)
{
    Bits hi(4, 0xa), lo(4, 0x5);
    EXPECT_EQ(concat(hi, lo).toUint64(), 0xa5u);
    EXPECT_EQ(concat(hi, lo).nbits(), 8);
    Bits c = concat({Bits(4, 1), Bits(4, 2), Bits(4, 3)});
    EXPECT_EQ(c.toUint64(), 0x123u);
    EXPECT_EQ(c.nbits(), 12);
}

TEST(BitsString, Formatting)
{
    EXPECT_EQ(Bits(12, 0xabc).toHexString(), "0xabc");
    EXPECT_EQ(Bits(13, 0xabc).toHexString(), "0x0abc");
    EXPECT_EQ(Bits(4, 5).toBinString(), "0b0101");
    EXPECT_EQ(Bits(32, 1234).toDecString(), "1234");
}

// Property sweep: narrow and wide paths must agree on every operator.
class BitsWidthSweep : public ::testing::TestWithParam<int>
{};

TEST_P(BitsWidthSweep, WidePathMatchesNarrowSemantics)
{
    const int width = GetParam();
    std::mt19937_64 rng(width * 12345 + 1);
    for (int trial = 0; trial < 100; ++trial) {
        uint64_t x = rng(), y = rng();
        Bits a(width, x), b(width, y);
        // Embed in a wider vector and compare low slices.
        Bits wa = a.zext(width + 70);
        Bits wb = b.zext(width + 70);
        EXPECT_EQ((wa + wb).slice(0, width), a + b);
        EXPECT_EQ((wa * wb).slice(0, width), a * b);
        EXPECT_EQ((wa & wb).slice(0, width), a & b);
        EXPECT_EQ((wa | wb).slice(0, width), a | b);
        EXPECT_EQ((wa ^ wb).slice(0, width), a ^ b);
        EXPECT_EQ((wa == wb), (a == b));
        int sh = static_cast<int>(x % width);
        EXPECT_EQ(wa.shl(sh).slice(0, width),
                  a.shl(sh)); // low bits agree under left shift
        EXPECT_EQ(a.shr(sh), wa.slice(0, width).zext(width).shr(sh));
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitsWidthSweep,
                         ::testing::Values(1, 2, 3, 7, 8, 16, 31, 32, 33,
                                           48, 63, 64));

// Round-trip property: slice/setSlice are inverses.
class BitsSliceSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(BitsSliceSweep, SetThenGetRoundTrips)
{
    auto [total, lsb, len] = GetParam();
    std::mt19937_64 rng(total * 31 + lsb * 7 + len);
    for (int trial = 0; trial < 50; ++trial) {
        Bits whole = Bits::fromWords(
            total, {rng(), rng(), rng(), rng()});
        Bits part(len, rng());
        Bits modified = whole;
        modified.setSlice(lsb, part);
        EXPECT_EQ(modified.slice(lsb, len), part);
        // Bits outside the slice are untouched.
        if (lsb > 0) {
            EXPECT_EQ(modified.slice(0, lsb), whole.slice(0, lsb));
        }
        if (lsb + len < total) {
            EXPECT_EQ(modified.slice(lsb + len, total - lsb - len),
                      whole.slice(lsb + len, total - lsb - len));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Slices, BitsSliceSweep,
    ::testing::Values(std::tuple{8, 0, 8}, std::tuple{8, 3, 4},
                      std::tuple{64, 60, 4}, std::tuple{128, 60, 10},
                      std::tuple{128, 0, 128}, std::tuple{200, 120, 70},
                      std::tuple{65, 63, 2}));

// setSlice works a word at a time; check it against a bit-by-bit
// reference for every corner slice width at every lsb whose slice
// touches or straddles a word boundary.
TEST(BitsSlice, WordLevelSetSliceMatchesBitwiseReference)
{
    std::mt19937_64 rng(42);
    const int total = 260; // five words, the last one partial
    for (int len : {1, 7, 63, 64, 65, 127, 128, 130}) {
        for (int lsb = 0; lsb + len <= total; ++lsb) {
            const int msb = lsb + len - 1;
            if (lsb % 64 != 0 && lsb / 64 == msb / 64 && (msb + 1) % 64)
                continue; // inside one word, away from both edges
            Bits whole = Bits::fromWords(
                total, {rng(), rng(), rng(), rng(), rng()});
            Bits part = Bits::fromWords(len, {rng(), rng(), rng()});
            Bits expected = whole;
            for (int i = 0; i < len; ++i)
                expected.setBit(lsb + i, part.bit(i));
            Bits got = whole;
            got.setSlice(lsb, part);
            ASSERT_EQ(got, expected) << "len " << len << " lsb " << lsb;
            ASSERT_EQ(got.slice(lsb, len), part)
                << "len " << len << " lsb " << lsb;
        }
    }
    // A slice that fills the destination exactly, at each width.
    for (int len : {1, 7, 63, 64, 65, 127, 128, 130}) {
        Bits dst = Bits::fromWords(len, {rng(), rng(), rng()});
        Bits src = Bits::fromWords(len, {rng(), rng(), rng()});
        dst.setSlice(0, src);
        EXPECT_EQ(dst, src) << "len " << len;
    }
}

// Shift/truncation edge cases. These pin down the amounts where naive
// implementations hit undefined behaviour (shifting a uint64_t by 64,
// OR-ing an out-of-range sign mask); CI runs this suite under
// -fsanitize=address,undefined to prove the paths stay clean.

TEST(BitsShifts, AmountsAtAndBeyondWidth)
{
    Bits a(8, 0xa5);
    EXPECT_EQ(a.shl(0).toUint64(), 0xa5u);
    EXPECT_EQ(a.shr(0).toUint64(), 0xa5u);
    EXPECT_EQ(a.shl(7).toUint64(), 0x80u);
    EXPECT_EQ(a.shr(7).toUint64(), 0x01u);
    EXPECT_EQ(a.shl(8).toUint64(), 0u);
    EXPECT_EQ(a.shr(8).toUint64(), 0u);
    EXPECT_EQ(a.shl(1000).toUint64(), 0u);
    EXPECT_EQ(a.shr(1000).toUint64(), 0u);
}

TEST(BitsShifts, SixtyFourBitBoundary)
{
    Bits a(64, 0x8000000000000001ull);
    EXPECT_EQ(a.shl(63).toUint64(), 0x8000000000000000ull);
    EXPECT_EQ(a.shr(63).toUint64(), 1u);
    EXPECT_EQ(a.shl(64).toUint64(), 0u);
    EXPECT_EQ(a.shr(64).toUint64(), 0u);
    EXPECT_EQ(a.sra(63).toUint64(), ~uint64_t(0));
    EXPECT_EQ(a.sra(64).toUint64(), ~uint64_t(0));
}

TEST(BitsShifts, WideCrossWordShifts)
{
    Bits a = Bits::fromWords(
        128, {0xdeadbeefcafebabeull, 0x0123456789abcdefull});
    // Word-aligned amounts take the bit_shift == 0 path.
    EXPECT_EQ(a.shr(64).toUint64(), 0x0123456789abcdefull);
    EXPECT_EQ(a.shl(64).word(1), 0xdeadbeefcafebabeull);
    EXPECT_EQ(a.shl(64).word(0), 0u);
    // A straddling amount combines both carry directions.
    Bits r = a.shr(4);
    EXPECT_EQ(r.word(0), (0xdeadbeefcafebabeull >> 4) |
                             (0x0123456789abcdefull << 60));
    EXPECT_EQ(a.shr(127).toUint64(), 0u);
    EXPECT_EQ(a.shr(128).toUint64(), 0u);
}

TEST(BitsShifts, SraSignFill)
{
    Bits n(8, 0x80);
    EXPECT_EQ(n.sra(1).toUint64(), 0xc0u);
    EXPECT_EQ(n.sra(7).toUint64(), 0xffu);
    EXPECT_EQ(n.sra(100).toUint64(), 0xffu);
    Bits p(8, 0x40);
    EXPECT_EQ(p.sra(1).toUint64(), 0x20u);
    EXPECT_EQ(p.sra(100).toUint64(), 0u);
}

TEST(BitsShifts, OperatorShiftWithHugeDynamicAmount)
{
    Bits a(16, 0xffff);
    // 2**64: does not fit a uint64_t, must still shift out cleanly.
    Bits huge = Bits::fromWords(128, {0, 1});
    EXPECT_EQ((a << huge).toUint64(), 0u);
    EXPECT_EQ((a >> huge).toUint64(), 0u);
    Bits sixteen(8, 16);
    EXPECT_EQ((a << sixteen).toUint64(), 0u);
    EXPECT_EQ((a >> sixteen).toUint64(), 0u);
}

TEST(BitsTruncation, ZextAndToInt64AtWidthBoundaries)
{
    Bits a(64, ~uint64_t(0));
    EXPECT_EQ(a.toInt64(), -1);
    EXPECT_EQ(a.zext(4).toUint64(), 0xfu);
    EXPECT_EQ(a.zext(128).slice(0, 64).toUint64(), ~uint64_t(0));
    EXPECT_EQ(Bits(1, 1).toInt64(), -1);
    EXPECT_EQ(Bits(64, 1).toInt64(), 1);
    Bits wide = Bits::fromWords(128, {0x5555aaaa5555aaaaull, 0xffull});
    EXPECT_EQ(wide.zext(64).toUint64(), 0x5555aaaa5555aaaaull);
}

} // namespace
} // namespace cmtl
