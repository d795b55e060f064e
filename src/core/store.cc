#include "store.h"

namespace cmtl {

// ------------------------------------------------------------ BoxedStore

BoxedStore::BoxedStore(const Elaboration &elab) : elab_(elab)
{
    for (const Net &net : elab.nets) {
        cur_[net.name] = std::make_shared<Bits>(net.nbits, 0);
        nxt_[net.name] = std::make_shared<Bits>(net.nbits, 0);
    }
    for (const MemArray *array : elab.arrays) {
        arrays_[array->fullName()] = std::vector<Box>(
            array->depth(),
            std::make_shared<Bits>(array->nbits(), 0));
    }
}

Bits
BoxedStore::arrayRead(int array_id, uint64_t index) const
{
    const MemArray *array = elab_.arrays[array_id];
    const auto &vec = arrays_.find(array->fullName())->second;
    return *vec[index & array->indexMask()];
}

void
BoxedStore::arrayWrite(int array_id, uint64_t index, const Bits &value)
{
    const MemArray *array = elab_.arrays[array_id];
    auto &vec = arrays_.find(array->fullName())->second;
    vec[index & array->indexMask()] =
        std::make_shared<Bits>(value.zext(array->nbits()));
}

Bits
BoxedStore::read(int net) const
{
    // Hash lookup of the hierarchical name, then unbox: the cost model
    // of a CPython attribute read.
    return *cur_.find(elab_.nets[net].name)->second;
}

Bits
BoxedStore::readNext(int net) const
{
    return *nxt_.find(elab_.nets[net].name)->second;
}

bool
BoxedStore::write(int net, const Bits &value)
{
    auto it = cur_.find(elab_.nets[net].name);
    Bits truncated = value.zext(elab_.nets[net].nbits);
    if (*it->second == truncated)
        return false;
    // Rebind to a freshly allocated box, like Python object churn.
    it->second = std::make_shared<Bits>(truncated);
    return true;
}

void
BoxedStore::writeNext(int net, const Bits &value)
{
    auto it = nxt_.find(elab_.nets[net].name);
    it->second = std::make_shared<Bits>(value.zext(elab_.nets[net].nbits));
}

bool
BoxedStore::flop(int net)
{
    auto nit = nxt_.find(elab_.nets[net].name);
    auto cit = cur_.find(elab_.nets[net].name);
    if (*cit->second == *nit->second)
        return false;
    cit->second = std::make_shared<Bits>(*nit->second);
    return true;
}

// ------------------------------------------------------------ ArenaStore

ArenaStore::ArenaStore(const Elaboration &elab)
{
    const int nnets = static_cast<int>(elab.nets.size());
    offset_.resize(nnets);
    nwords_.resize(nnets);
    nbits_.resize(nnets);
    mask_.resize(nnets);
    int off = 0;
    for (int i = 0; i < nnets; ++i) {
        const Net &net = elab.nets[i];
        offset_[i] = off;
        nwords_[i] = bitsToWords(net.nbits);
        nbits_[i] = net.nbits;
        mask_[i] = topWordMask(net.nbits);
        off += nwords_[i];
    }
    words_per_phase_ = off;

    // Array storage lives past the two net phases.
    int array_off = words_per_phase_ * 2;
    for (const MemArray *array : elab.arrays) {
        array_offset_.push_back(array_off);
        array_mask_.push_back(array->indexMask());
        array_vmask_.push_back(topWordMask(array->nbits()));
        array_nbits_.push_back(array->nbits());
        array_off += array->depth();
    }
    words_.assign(static_cast<size_t>(array_off), 0);
}

Bits
ArenaStore::arrayRead(int array_id, uint64_t index) const
{
    const uint64_t masked = index & array_mask_[array_id];
    return Bits(array_nbits_[array_id],
                words_[array_offset_[array_id] + masked]);
}

void
ArenaStore::arrayWrite(int array_id, uint64_t index, const Bits &value)
{
    const uint64_t masked = index & array_mask_[array_id];
    words_[array_offset_[array_id] + masked] =
        value.toUint64() & array_vmask_[array_id];
}

Bits
ArenaStore::read(int net) const
{
    if (nwords_[net] == 1)
        return Bits(nbits_[net], words_[offset_[net]]);
    std::vector<uint64_t> w(words_.begin() + offset_[net],
                            words_.begin() + offset_[net] + nwords_[net]);
    return Bits::fromWords(nbits_[net], w);
}

Bits
ArenaStore::readNext(int net) const
{
    int base = offset_[net] + words_per_phase_;
    if (nwords_[net] == 1)
        return Bits(nbits_[net], words_[base]);
    std::vector<uint64_t> w(words_.begin() + base,
                            words_.begin() + base + nwords_[net]);
    return Bits::fromWords(nbits_[net], w);
}

bool
ArenaStore::write(int net, const Bits &value)
{
    int base = offset_[net];
    bool changed = false;
    for (int i = 0; i < nwords_[net]; ++i) {
        uint64_t w = value.word(i);
        if (i == nwords_[net] - 1)
            w &= mask_[net];
        if (words_[base + i] != w) {
            words_[base + i] = w;
            changed = true;
        }
    }
    return changed;
}

void
ArenaStore::writeNext(int net, const Bits &value)
{
    int base = offset_[net] + words_per_phase_;
    for (int i = 0; i < nwords_[net]; ++i) {
        uint64_t w = value.word(i);
        if (i == nwords_[net] - 1)
            w &= mask_[net];
        words_[base + i] = w;
    }
}

bool
ArenaStore::flop(int net)
{
    int cur = offset_[net];
    int nxt = cur + words_per_phase_;
    bool changed = false;
    for (int i = 0; i < nwords_[net]; ++i) {
        if (words_[cur + i] != words_[nxt + i]) {
            words_[cur + i] = words_[nxt + i];
            changed = true;
        }
    }
    return changed;
}

std::vector<FlopRange>
ArenaStore::flopPlan(const std::vector<int> &flop_nets) const
{
    std::vector<char> flopped(words_per_phase_, 0);
    for (int net : flop_nets) {
        for (int w = 0; w < nwords_[net]; ++w)
            flopped[offset_[net] + w] = 1;
    }
    std::vector<FlopRange> ranges;
    for (int w = 0; w < words_per_phase_; ++w) {
        if (!flopped[w])
            continue;
        if (!ranges.empty() &&
            ranges.back().off + ranges.back().nwords == w)
            ++ranges.back().nwords;
        else
            ranges.push_back({w, 1});
    }
    return ranges;
}

void
ArenaStore::flopRanges(const std::vector<FlopRange> &ranges)
{
    uint64_t *w = words_.data();
    for (const FlopRange &r : ranges) {
        const uint64_t *src = w + r.off + words_per_phase_;
        uint64_t *dst = w + r.off;
        for (int i = 0; i < r.nwords; ++i)
            dst[i] = src[i];
    }
}

} // namespace cmtl
