#include "bits.h"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace cmtl {

int
clog2(uint64_t value)
{
    int n = 1;
    while (value > 1) {
        value >>= 1;
        ++n;
    }
    return n;
}

int
bitsFor(uint64_t n)
{
    if (n <= 2)
        return 1;
    int b = 0;
    uint64_t cap = 1;
    while (cap < n) {
        cap <<= 1;
        ++b;
    }
    return b;
}

Bits::Bits(int nbits, uint64_t value)
    : nbits_(static_cast<uint32_t>(nbits)), v0_(0)
{
    if (nbits < 1)
        throw std::invalid_argument("Bits width must be >= 1");
    if (nwords() > 1) {
        wide_.assign(nwords(), 0);
        wide_[0] = value;
    } else {
        v0_ = value;
    }
    normalize();
}

Bits
Bits::fromWords(int nbits, const std::vector<uint64_t> &words)
{
    Bits b(nbits);
    int n = std::min<int>(b.nwords(), static_cast<int>(words.size()));
    for (int i = 0; i < n; ++i)
        b.words()[i] = words[i];
    b.normalize();
    return b;
}

Bits
Bits::fromString(int nbits, const std::string &text)
{
    Bits b(nbits);
    if (text.rfind("0x", 0) == 0 || text.rfind("0X", 0) == 0) {
        int pos = 0;
        for (auto it = text.rbegin(); it != text.rend() - 2; ++it) {
            char c = *it;
            if (c == '_')
                continue;
            uint64_t digit;
            if (c >= '0' && c <= '9')
                digit = c - '0';
            else if (c >= 'a' && c <= 'f')
                digit = 10 + c - 'a';
            else if (c >= 'A' && c <= 'F')
                digit = 10 + c - 'A';
            else
                throw std::invalid_argument("bad hex digit in " + text);
            if (pos < nbits)
                b.setSlice(pos, Bits(std::min(4, nbits - pos), digit));
            pos += 4;
        }
    } else if (text.rfind("0b", 0) == 0 || text.rfind("0B", 0) == 0) {
        int pos = 0;
        for (auto it = text.rbegin(); it != text.rend() - 2; ++it) {
            char c = *it;
            if (c == '_')
                continue;
            if (c != '0' && c != '1')
                throw std::invalid_argument("bad binary digit in " + text);
            if (pos < nbits)
                b.setBit(pos, c == '1');
            ++pos;
        }
    } else {
        b = Bits(nbits, std::stoull(text));
    }
    return b;
}

void
Bits::normalize()
{
    words()[nwords() - 1] &= topWordMask(nbits());
}

uint64_t
Bits::word(int i) const
{
    if (i >= nwords())
        return 0;
    return words()[i];
}

bool
Bits::fitsUint64() const
{
    for (int i = 1; i < nwords(); ++i) {
        if (words()[i] != 0)
            return false;
    }
    return true;
}

bool
Bits::any() const
{
    for (int i = 0; i < nwords(); ++i) {
        if (words()[i] != 0)
            return true;
    }
    return false;
}

bool
Bits::all() const
{
    for (int i = 0; i < nwords() - 1; ++i) {
        if (words()[i] != ~uint64_t(0))
            return false;
    }
    return words()[nwords() - 1] == topWordMask(nbits());
}

bool
Bits::bit(int pos) const
{
    assert(pos >= 0 && pos < nbits());
    return (words()[pos / 64] >> (pos % 64)) & 1;
}

void
Bits::setBit(int pos, bool value)
{
    assert(pos >= 0 && pos < nbits());
    uint64_t mask = uint64_t(1) << (pos % 64);
    if (value)
        words()[pos / 64] |= mask;
    else
        words()[pos / 64] &= ~mask;
}

Bits
Bits::slice(int lsb, int len) const
{
    assert(lsb >= 0 && len >= 1 && lsb + len <= nbits());
    Bits out(len);
    int word_off = lsb / 64;
    int bit_off = lsb % 64;
    for (int i = 0; i < out.nwords(); ++i) {
        uint64_t lo = word(word_off + i) >> bit_off;
        uint64_t hi =
            bit_off == 0 ? 0 : word(word_off + i + 1) << (64 - bit_off);
        out.words()[i] = lo | hi;
    }
    out.normalize();
    return out;
}

void
Bits::setSlice(int lsb, const Bits &src)
{
    assert(lsb >= 0 && lsb + src.nbits() <= nbits());
    uint64_t *dst = words();
    int word_off = lsb / 64;
    int bit_off = lsb % 64;
    // Source word i (n valid bits, already masked) lands at bit_off
    // in word word_off + i; bits past the word spill into the next.
    for (int i = 0; i < src.nwords(); ++i) {
        int n = std::min(64, src.nbits() - 64 * i);
        uint64_t m = n == 64 ? ~uint64_t(0) : (uint64_t(1) << n) - 1;
        uint64_t v = src.words()[i];
        uint64_t &lo = dst[word_off + i];
        lo = (lo & ~(m << bit_off)) | (v << bit_off);
        if (bit_off != 0 && n > 64 - bit_off) {
            uint64_t &hi = dst[word_off + i + 1];
            hi = (hi & ~(m >> (64 - bit_off))) | (v >> (64 - bit_off));
        }
    }
}

Bits
Bits::zext(int nbits) const
{
    Bits out(nbits);
    for (int i = 0; i < out.nwords(); ++i)
        out.words()[i] = word(i);
    out.normalize();
    return out;
}

Bits
Bits::sext(int nbits) const
{
    Bits out = zext(nbits);
    if (nbits > this->nbits() && bit(this->nbits() - 1)) {
        for (int i = this->nbits(); i < nbits; ++i)
            out.setBit(i, true);
    }
    return out;
}

int64_t
Bits::toInt64() const
{
    if (nbits() > 64)
        throw std::logic_error("toInt64 on wide Bits");
    uint64_t v = toUint64();
    if (nbits() < 64 && (v >> (nbits() - 1)) & 1)
        v |= ~((uint64_t(1) << nbits()) - 1);
    return static_cast<int64_t>(v);
}

namespace {

/** Apply a word-wise binary function with zero extension to max width. */
template <typename Fn>
Bits
wordwise(const Bits &a, const Bits &b, Fn &&fn)
{
    int nbits = std::max(a.nbits(), b.nbits());
    Bits out(nbits);
    std::vector<uint64_t> words(out.nwords());
    for (int i = 0; i < out.nwords(); ++i)
        words[i] = fn(a.word(i), b.word(i));
    return Bits::fromWords(nbits, words);
}

} // namespace

Bits
operator+(const Bits &a, const Bits &b)
{
    int nbits = std::max(a.nbits(), b.nbits());
    Bits out(nbits);
    std::vector<uint64_t> words(out.nwords());
    uint64_t carry = 0;
    for (int i = 0; i < out.nwords(); ++i) {
        uint64_t s = a.word(i) + b.word(i);
        uint64_t c1 = s < a.word(i);
        uint64_t s2 = s + carry;
        uint64_t c2 = s2 < s;
        words[i] = s2;
        carry = c1 | c2;
    }
    return Bits::fromWords(nbits, words);
}

Bits
operator-(const Bits &a, const Bits &b)
{
    int nbits = std::max(a.nbits(), b.nbits());
    Bits out(nbits);
    std::vector<uint64_t> words(out.nwords());
    uint64_t borrow = 0;
    for (int i = 0; i < out.nwords(); ++i) {
        uint64_t d = a.word(i) - b.word(i);
        uint64_t b1 = a.word(i) < b.word(i);
        uint64_t d2 = d - borrow;
        uint64_t b2 = d < borrow;
        words[i] = d2;
        borrow = b1 | b2;
    }
    return Bits::fromWords(nbits, words);
}

Bits
operator*(const Bits &a, const Bits &b)
{
    int nbits = std::max(a.nbits(), b.nbits());
    int nwords = bitsToWords(nbits);
    std::vector<uint64_t> acc(nwords, 0);
    // Schoolbook multiply over 32-bit half words, truncated to nbits.
    int nhalf = nwords * 2;
    auto half = [](const Bits &x, int i) -> uint64_t {
        uint64_t w = x.word(i / 2);
        return (i % 2) ? (w >> 32) : (w & 0xffffffffull);
    };
    std::vector<uint64_t> halves(nhalf, 0);
    for (int i = 0; i < nhalf; ++i) {
        uint64_t carry = 0;
        uint64_t ai = half(a, i);
        if (ai == 0)
            continue;
        for (int j = 0; i + j < nhalf; ++j) {
            uint64_t prod = ai * half(b, j) + halves[i + j] + carry;
            halves[i + j] = prod & 0xffffffffull;
            carry = prod >> 32;
        }
    }
    for (int i = 0; i < nwords; ++i)
        acc[i] = halves[2 * i] | (halves[2 * i + 1] << 32);
    return Bits::fromWords(nbits, acc);
}

Bits
operator/(const Bits &a, const Bits &b)
{
    if (!b.any())
        throw std::domain_error("Bits division by zero");
    if (a.fitsUint64() && b.fitsUint64()) {
        int nbits = std::max(a.nbits(), b.nbits());
        return Bits(nbits, a.toUint64() / b.toUint64());
    }
    // Bit-serial long division for wide values.
    int nbits = std::max(a.nbits(), b.nbits());
    Bits quotient(nbits);
    Bits remainder(nbits);
    for (int i = nbits - 1; i >= 0; --i) {
        remainder = remainder.shl(1);
        if (i < a.nbits())
            remainder.setBit(0, a.bit(i));
        if (remainder >= b) {
            remainder = remainder - b.zext(nbits);
            quotient.setBit(i, true);
        }
    }
    return quotient;
}

Bits
operator%(const Bits &a, const Bits &b)
{
    if (!b.any())
        throw std::domain_error("Bits modulo by zero");
    if (a.fitsUint64() && b.fitsUint64()) {
        int nbits = std::max(a.nbits(), b.nbits());
        return Bits(nbits, a.toUint64() % b.toUint64());
    }
    int nbits = std::max(a.nbits(), b.nbits());
    Bits remainder(nbits);
    for (int i = nbits - 1; i >= 0; --i) {
        remainder = remainder.shl(1);
        if (i < a.nbits())
            remainder.setBit(0, a.bit(i));
        if (remainder >= b)
            remainder = remainder - b.zext(nbits);
    }
    return remainder;
}

Bits
operator&(const Bits &a, const Bits &b)
{
    return wordwise(a, b, [](uint64_t x, uint64_t y) { return x & y; });
}

Bits
operator|(const Bits &a, const Bits &b)
{
    return wordwise(a, b, [](uint64_t x, uint64_t y) { return x | y; });
}

Bits
operator^(const Bits &a, const Bits &b)
{
    return wordwise(a, b, [](uint64_t x, uint64_t y) { return x ^ y; });
}

Bits
Bits::operator~() const
{
    Bits out(nbits());
    for (int i = 0; i < nwords(); ++i)
        out.words()[i] = ~words()[i];
    out.normalize();
    return out;
}

Bits
Bits::shl(int amount) const
{
    assert(amount >= 0);
    Bits out(nbits());
    if (amount >= nbits())
        return out;
    int word_shift = amount / 64;
    int bit_shift = amount % 64;
    for (int i = nwords() - 1; i >= word_shift; --i) {
        uint64_t hi = words()[i - word_shift] << bit_shift;
        uint64_t lo = (bit_shift && i - word_shift - 1 >= 0)
                          ? words()[i - word_shift - 1] >> (64 - bit_shift)
                          : 0;
        out.words()[i] = hi | lo;
    }
    out.normalize();
    return out;
}

Bits
Bits::shr(int amount) const
{
    assert(amount >= 0);
    Bits out(nbits());
    if (amount >= nbits())
        return out;
    int word_shift = amount / 64;
    int bit_shift = amount % 64;
    for (int i = 0; i + word_shift < nwords(); ++i) {
        uint64_t lo = words()[i + word_shift] >> bit_shift;
        uint64_t hi = (bit_shift && i + word_shift + 1 < nwords())
                          ? words()[i + word_shift + 1] << (64 - bit_shift)
                          : 0;
        out.words()[i] = lo | hi;
    }
    return out;
}

Bits
Bits::sra(int amount) const
{
    bool sign = bit(nbits() - 1);
    Bits out = shr(amount);
    if (sign) {
        int start = std::max(0, nbits() - amount);
        for (int i = start; i < nbits(); ++i)
            out.setBit(i, true);
    }
    return out;
}

Bits
operator<<(const Bits &a, const Bits &b)
{
    uint64_t amt = b.fitsUint64() ? b.toUint64() : uint64_t(a.nbits());
    if (amt >= uint64_t(a.nbits()))
        return Bits(a.nbits(), 0);
    return a.shl(static_cast<int>(amt));
}

Bits
operator>>(const Bits &a, const Bits &b)
{
    uint64_t amt = b.fitsUint64() ? b.toUint64() : uint64_t(a.nbits());
    if (amt >= uint64_t(a.nbits()))
        return Bits(a.nbits(), 0);
    return a.shr(static_cast<int>(amt));
}

bool
operator==(const Bits &a, const Bits &b)
{
    int nwords = std::max(a.nwords(), b.nwords());
    for (int i = 0; i < nwords; ++i) {
        if (a.word(i) != b.word(i))
            return false;
    }
    return true;
}

bool
operator==(const Bits &a, uint64_t b)
{
    if (a.word(0) != (b & (a.nbits() >= 64 ? ~uint64_t(0)
                                           : topWordMask(a.nbits()))))
        return false;
    if (a.nbits() < 64 && (b >> a.nbits()) != 0)
        return false;
    return a.fitsUint64();
}

bool
operator<(const Bits &a, const Bits &b)
{
    int nwords = std::max(a.nwords(), b.nwords());
    for (int i = nwords - 1; i >= 0; --i) {
        if (a.word(i) != b.word(i))
            return a.word(i) < b.word(i);
    }
    return false;
}

bool
operator<=(const Bits &a, const Bits &b)
{
    return a < b || a == b;
}

bool
Bits::slt(const Bits &a, const Bits &b)
{
    return a.toInt64() < b.toInt64();
}

Bits
Bits::reduceOr() const
{
    return Bits(1, any() ? 1 : 0);
}

Bits
Bits::reduceAnd() const
{
    return Bits(1, all() ? 1 : 0);
}

Bits
Bits::reduceXor() const
{
    uint64_t acc = 0;
    for (int i = 0; i < nwords(); ++i)
        acc ^= words()[i];
    acc ^= acc >> 32;
    acc ^= acc >> 16;
    acc ^= acc >> 8;
    acc ^= acc >> 4;
    acc ^= acc >> 2;
    acc ^= acc >> 1;
    return Bits(1, acc & 1);
}

std::string
Bits::toHexString() const
{
    int ndigits = (nbits() + 3) / 4;
    std::string out = "0x";
    for (int i = ndigits - 1; i >= 0; --i) {
        uint64_t nibble = (word(i / 16) >> ((i % 16) * 4)) & 0xf;
        out += "0123456789abcdef"[nibble];
    }
    return out;
}

std::string
Bits::toBinString() const
{
    std::string out = "0b";
    for (int i = nbits() - 1; i >= 0; --i)
        out += bit(i) ? '1' : '0';
    return out;
}

std::string
Bits::toDecString() const
{
    if (!fitsUint64())
        return toHexString();
    return std::to_string(toUint64());
}

Bits
concat(const Bits &hi, const Bits &lo)
{
    Bits out(hi.nbits() + lo.nbits());
    out.setSlice(0, lo);
    out.setSlice(lo.nbits(), hi);
    return out;
}

Bits
concat(std::initializer_list<Bits> parts)
{
    int nbits = 0;
    for (const auto &p : parts)
        nbits += p.nbits();
    Bits out(nbits);
    int pos = nbits;
    for (const auto &p : parts) {
        pos -= p.nbits();
        out.setSlice(pos, p);
    }
    return out;
}

std::ostream &
operator<<(std::ostream &os, const Bits &b)
{
    return os << b.toHexString();
}

} // namespace cmtl
