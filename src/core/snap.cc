#include "snap.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "model.h"

namespace cmtl {

// ------------------------------------------------------------- crc32

namespace {

const uint32_t *
crcTable()
{
    // Built once, thread-safely: SimServer jobs checkpoint from
    // several scheduler threads at once.
    static const std::array<uint32_t, 256> table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table.data();
}

} // namespace

uint32_t
snapCrc32(const void *data, size_t len, uint32_t seed)
{
    const uint32_t *table = crcTable();
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint32_t c = seed ^ 0xffffffffu;
    for (size_t i = 0; i < len; ++i)
        c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

// ----------------------------------------------------- writer/reader

void
SnapWriter::u32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void
SnapWriter::u64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void
SnapWriter::str(const std::string &s)
{
    u32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
}

void
SnapWriter::bits(const Bits &b)
{
    u32(static_cast<uint32_t>(b.nbits()));
    for (int w = 0; w < b.nwords(); ++w)
        u64(b.word(w));
}

void
SnapWriter::raw(const void *p, size_t n)
{
    buf_.append(static_cast<const char *>(p), n);
}

void
SnapReader::need(size_t n) const
{
    if (remaining() < n)
        throw SnapError("snapshot truncated: wanted " +
                        std::to_string(n) + " more byte(s), have " +
                        std::to_string(remaining()));
}

uint8_t
SnapReader::u8()
{
    need(1);
    return *p_++;
}

uint32_t
SnapReader::u32()
{
    need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p_[i]) << (8 * i);
    p_ += 4;
    return v;
}

uint64_t
SnapReader::u64()
{
    need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p_[i]) << (8 * i);
    p_ += 8;
    return v;
}

std::string
SnapReader::str()
{
    uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char *>(p_), n);
    p_ += n;
    return s;
}

Bits
SnapReader::bits()
{
    uint32_t nbits = u32();
    if (nbits == 0 || nbits > (1u << 20))
        throw SnapError("snapshot corrupted: implausible bit width " +
                        std::to_string(nbits));
    std::vector<uint64_t> words(bitsToWords(static_cast<int>(nbits)));
    for (uint64_t &w : words)
        w = u64();
    return Bits::fromWords(static_cast<int>(nbits), words);
}

void
SnapReader::raw(void *p, size_t n)
{
    need(n);
    std::memcpy(p, p_, n);
    p_ += n;
}

// ------------------------------------------------------ encode/decode

namespace {

constexpr uint32_t
fourcc(char a, char b, char c, char d)
{
    return static_cast<uint32_t>(static_cast<uint8_t>(a)) |
           static_cast<uint32_t>(static_cast<uint8_t>(b)) << 8 |
           static_cast<uint32_t>(static_cast<uint8_t>(c)) << 16 |
           static_cast<uint32_t>(static_cast<uint8_t>(d)) << 24;
}

constexpr uint32_t kTagNets = fourcc('N', 'E', 'T', 'S');
constexpr uint32_t kTagNxts = fourcc('N', 'X', 'T', 'S');
constexpr uint32_t kTagArry = fourcc('A', 'R', 'R', 'Y');
constexpr uint32_t kTagFlop = fourcc('F', 'L', 'O', 'P');
constexpr uint32_t kTagModl = fourcc('M', 'O', 'D', 'L');
// v2: optional, informational — the capturing arena's layout name
// (always "elab" since the arena has a single layout).
constexpr uint32_t kTagLayt = fourcc('L', 'A', 'Y', 'T');

std::string
tagName(uint32_t tag)
{
    std::string s(4, '?');
    for (int i = 0; i < 4; ++i) {
        char c = static_cast<char>((tag >> (8 * i)) & 0xffu);
        s[i] = (c >= 32 && c < 127) ? c : '?';
    }
    return s;
}

constexpr char kSnapMagic[8] = {'C', 'M', 'T', 'L', 'S', 'N', 'A', 'P'};
constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8;
constexpr size_t kTableEntryBytes = 4 + 4 + 8 + 8;

void
encodeNetSection(SnapWriter &w,
                 const std::vector<std::vector<uint64_t>> &nets)
{
    w.u32(static_cast<uint32_t>(nets.size()));
    for (const auto &words : nets) {
        w.u32(static_cast<uint32_t>(words.size()));
        for (uint64_t word : words)
            w.u64(word);
    }
}

std::vector<std::vector<uint64_t>>
decodeNetSection(SnapReader &r)
{
    uint32_t count = r.u32();
    if (static_cast<size_t>(count) * 12 > r.remaining() + 8)
        throw SnapError("snapshot corrupted: implausible net count " +
                        std::to_string(count));
    std::vector<std::vector<uint64_t>> nets(count);
    for (auto &words : nets) {
        uint32_t nwords = r.u32();
        if (nwords > (1u << 16))
            throw SnapError("snapshot corrupted: implausible net "
                            "width (" +
                            std::to_string(nwords) + " words)");
        words.resize(nwords);
        for (uint64_t &word : words)
            word = r.u64();
    }
    return nets;
}

} // namespace

std::string
SimSnapshot::encode() const
{
    SnapWriter nets_w;
    encodeNetSection(nets_w, nets);
    SnapWriter nxts_w;
    encodeNetSection(nxts_w, nets_next);

    SnapWriter arry_w;
    arry_w.u32(static_cast<uint32_t>(arrays.size()));
    for (size_t i = 0; i < arrays.size(); ++i) {
        arry_w.u32(array_elem_words[i]);
        arry_w.u64(arrays[i].size());
        for (uint64_t word : arrays[i])
            arry_w.u64(word);
    }

    SnapWriter flop_w;
    flop_w.u32(static_cast<uint32_t>(flop_nets.size()));
    for (int net : flop_nets)
        flop_w.u32(static_cast<uint32_t>(net));

    SnapWriter modl_w;
    modl_w.u32(static_cast<uint32_t>(model_state.size()));
    for (const auto &entry : model_state) {
        modl_w.str(entry.first);
        modl_w.str(entry.second);
    }

    SnapWriter layt_w;
    layt_w.str(layout_policy);

    struct Section
    {
        uint32_t tag;
        const std::string *payload;
    };
    const Section sections[] = {
        {kTagNets, &nets_w.buffer()}, {kTagNxts, &nxts_w.buffer()},
        {kTagArry, &arry_w.buffer()}, {kTagFlop, &flop_w.buffer()},
        {kTagModl, &modl_w.buffer()}, {kTagLayt, &layt_w.buffer()},
    };
    const size_t nsections = sizeof(sections) / sizeof(sections[0]);

    SnapWriter out;
    out.raw(kSnapMagic, sizeof(kSnapMagic));
    out.u32(kSnapFormatVersion);
    out.u32(static_cast<uint32_t>(nsections));
    out.u64(design_hash);
    out.u64(cycle);
    uint64_t offset = kHeaderBytes + nsections * kTableEntryBytes;
    for (const Section &sec : sections) {
        out.u32(sec.tag);
        out.u32(snapCrc32(sec.payload->data(), sec.payload->size()));
        out.u64(offset);
        out.u64(sec.payload->size());
        offset += sec.payload->size();
    }
    for (const Section &sec : sections)
        out.raw(sec.payload->data(), sec.payload->size());
    out.u32(snapCrc32(out.buffer().data(), out.buffer().size()));
    return out.take();
}

SimSnapshot
SimSnapshot::decode(const std::string &bytes)
{
    if (bytes.size() < kHeaderBytes + 4)
        throw SnapError("not a CMTL snapshot: only " +
                        std::to_string(bytes.size()) + " byte(s)");
    if (std::memcmp(bytes.data(), kSnapMagic, sizeof(kSnapMagic)) != 0)
        throw SnapError("not a CMTL snapshot (bad magic)");

    SnapReader header(bytes);
    char magic[8];
    header.raw(magic, sizeof(magic));
    uint32_t version = header.u32();
    if (version < kSnapMinFormatVersion || version > kSnapFormatVersion)
        throw SnapError(
            "snapshot format version " + std::to_string(version) +
            " unsupported (this build reads versions " +
            std::to_string(kSnapMinFormatVersion) + ".." +
            std::to_string(kSnapFormatVersion) +
            "); regenerate the snapshot, or the header is corrupted");

    uint32_t stored_crc = 0;
    {
        SnapReader tail(
            reinterpret_cast<const uint8_t *>(bytes.data()) +
                bytes.size() - 4,
            4);
        stored_crc = tail.u32();
    }
    uint32_t actual_crc = snapCrc32(bytes.data(), bytes.size() - 4);
    if (stored_crc != actual_crc)
        throw SnapError("snapshot corrupted: file checksum mismatch");

    uint32_t nsections = header.u32();
    if (nsections > 64)
        throw SnapError("snapshot corrupted: implausible section "
                        "count " +
                        std::to_string(nsections));

    SimSnapshot snap;
    snap.design_hash = header.u64();
    snap.cycle = header.u64();

    const size_t payload_end = bytes.size() - 4;
    bool seen_nets = false, seen_nxts = false, seen_arry = false,
         seen_flop = false, seen_modl = false;
    for (uint32_t s = 0; s < nsections; ++s) {
        uint32_t tag = header.u32();
        uint32_t crc = header.u32();
        uint64_t offset = header.u64();
        uint64_t length = header.u64();
        if (offset < kHeaderBytes + nsections * kTableEntryBytes ||
            offset > payload_end || length > payload_end - offset)
            throw SnapError("snapshot corrupted: section '" +
                            tagName(tag) + "' out of bounds");
        const uint8_t *payload =
            reinterpret_cast<const uint8_t *>(bytes.data()) + offset;
        if (snapCrc32(payload, length) != crc)
            throw SnapError("snapshot corrupted: section '" +
                            tagName(tag) + "' checksum mismatch");
        SnapReader r(payload, length);
        if (tag == kTagNets) {
            snap.nets = decodeNetSection(r);
            seen_nets = true;
        } else if (tag == kTagNxts) {
            snap.nets_next = decodeNetSection(r);
            seen_nxts = true;
        } else if (tag == kTagArry) {
            uint32_t count = r.u32();
            if (count > (1u << 24))
                throw SnapError("snapshot corrupted: implausible "
                                "array count " +
                                std::to_string(count));
            snap.arrays.resize(count);
            snap.array_elem_words.resize(count);
            for (uint32_t i = 0; i < count; ++i) {
                snap.array_elem_words[i] = r.u32();
                uint64_t nwords = r.u64();
                if (nwords > r.remaining() / 8)
                    throw SnapError("snapshot corrupted: array "
                                    "payload overruns its section");
                snap.arrays[i].resize(nwords);
                for (uint64_t &word : snap.arrays[i])
                    word = r.u64();
            }
            seen_arry = true;
        } else if (tag == kTagFlop) {
            uint32_t count = r.u32();
            if (count > (1u << 24))
                throw SnapError("snapshot corrupted: implausible "
                                "flop count " +
                                std::to_string(count));
            snap.flop_nets.resize(count);
            for (int &net : snap.flop_nets)
                net = static_cast<int>(r.u32());
            seen_flop = true;
        } else if (tag == kTagModl) {
            uint32_t count = r.u32();
            if (count > (1u << 24))
                throw SnapError("snapshot corrupted: implausible "
                                "model count " +
                                std::to_string(count));
            snap.model_state.resize(count);
            for (auto &entry : snap.model_state) {
                entry.first = r.str();
                entry.second = r.str();
            }
            seen_modl = true;
        } else if (tag == kTagLayt) {
            // Optional since v2; informational only, so absence (any
            // v1 image) or presence never gates the restore.
            snap.layout_policy = r.str();
        } else {
            throw SnapError("snapshot corrupted: unknown section '" +
                            tagName(tag) + "'");
        }
        if (!r.atEnd())
            throw SnapError("snapshot corrupted: section '" +
                            tagName(tag) + "' has trailing bytes");
    }
    if (!seen_nets || !seen_nxts || !seen_arry || !seen_flop ||
        !seen_modl)
        throw SnapError("snapshot corrupted: missing section(s)");
    if (snap.nets.size() != snap.nets_next.size())
        throw SnapError("snapshot corrupted: current/next net counts "
                        "disagree");
    return snap;
}

// ------------------------------------------------------------ digest

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void
fnvByte(uint64_t &h, uint8_t b)
{
    h ^= b;
    h *= kFnvPrime;
}

void
fnvU64(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        fnvByte(h, static_cast<uint8_t>((v >> (8 * i)) & 0xffu));
}

void
fnvStr(uint64_t &h, const std::string &s)
{
    fnvU64(h, s.size());
    for (char c : s)
        fnvByte(h, static_cast<uint8_t>(c));
}

void
fnvWordLists(uint64_t &h,
             const std::vector<std::vector<uint64_t>> &lists)
{
    fnvU64(h, lists.size());
    for (const auto &words : lists) {
        fnvU64(h, words.size());
        for (uint64_t word : words)
            fnvU64(h, word);
    }
}

} // namespace

uint64_t
SimSnapshot::digest() const
{
    uint64_t h = kFnvOffset;
    fnvWordLists(h, nets);
    fnvWordLists(h, nets_next);
    fnvWordLists(h, arrays);
    fnvU64(h, model_state.size());
    for (const auto &entry : model_state) {
        fnvStr(h, entry.first);
        fnvStr(h, entry.second);
    }
    return h;
}

uint64_t
designFingerprint(const Elaboration &elab)
{
    uint64_t h = kFnvOffset;
    fnvStr(h, "CMTLDSGN");
    fnvU64(h, elab.nets.size());
    for (const Net &net : elab.nets) {
        fnvStr(h, net.name);
        fnvU64(h, static_cast<uint64_t>(net.nbits));
        fnvByte(h, net.floppedStatic ? 1 : 0);
    }
    fnvU64(h, elab.arrays.size());
    for (const MemArray *array : elab.arrays) {
        fnvStr(h, array->fullName());
        fnvU64(h, static_cast<uint64_t>(array->nbits()));
        fnvU64(h, static_cast<uint64_t>(array->depth()));
    }
    return h;
}

// ------------------------------------------------------ save/restore

SimSnapshot
snapSave(const Simulator &sim)
{
    const Elaboration &elab = sim.elaboration();
    SimSnapshot snap;
    snap.design_hash = designFingerprint(elab);
    snap.cycle = sim.numCycles();

    snap.nets.reserve(elab.nets.size());
    snap.nets_next.reserve(elab.nets.size());
    for (const Net &net : elab.nets) {
        Bits cur = sim.readNet(net.id);
        Bits nxt = sim.readNetNext(net.id);
        std::vector<uint64_t> cur_words(cur.nwords());
        for (int w = 0; w < cur.nwords(); ++w)
            cur_words[w] = cur.word(w);
        std::vector<uint64_t> nxt_words(nxt.nwords());
        for (int w = 0; w < nxt.nwords(); ++w)
            nxt_words[w] = nxt.word(w);
        snap.nets.push_back(std::move(cur_words));
        snap.nets_next.push_back(std::move(nxt_words));
    }

    snap.arrays.reserve(elab.arrays.size());
    snap.array_elem_words.reserve(elab.arrays.size());
    for (const MemArray *array : elab.arrays) {
        int elem_words = bitsToWords(array->nbits());
        std::vector<uint64_t> words;
        words.reserve(static_cast<size_t>(array->depth()) * elem_words);
        for (int i = 0; i < array->depth(); ++i) {
            Bits value = sim.readArray(*array, i);
            for (int w = 0; w < elem_words; ++w)
                words.push_back(value.word(w));
        }
        snap.arrays.push_back(std::move(words));
        snap.array_elem_words.push_back(
            static_cast<uint32_t>(elem_words));
    }

    snap.layout_policy = "elab";

    for (Model *model : elab.models) {
        SnapWriter w;
        model->snapSave(w);
        if (!w.buffer().empty())
            snap.model_state.emplace_back(model->fullName(), w.take());
    }
    return snap;
}

void
snapRestore(Simulator &sim, const SimSnapshot &snap)
{
    const Elaboration &elab = sim.elaboration();
    uint64_t expected = designFingerprint(elab);
    if (snap.design_hash != expected) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "snapshot is of a different design "
                      "(fingerprint %016llx, this design %016llx)",
                      static_cast<unsigned long long>(snap.design_hash),
                      static_cast<unsigned long long>(expected));
        throw SnapError(buf);
    }
    if (snap.nets.size() != elab.nets.size() ||
        snap.nets_next.size() != elab.nets.size())
        throw SnapError(
            "snapshot/design mismatch: " +
            std::to_string(snap.nets.size()) + " net(s) in snapshot, " +
            std::to_string(elab.nets.size()) + " in design");
    if (snap.arrays.size() != elab.arrays.size())
        throw SnapError("snapshot/design mismatch: " +
                        std::to_string(snap.arrays.size()) +
                        " array(s) in snapshot, " +
                        std::to_string(elab.arrays.size()) +
                        " in design");
    // An older image lists the nets tick lambdas had flopped; each
    // must still be in the flop set, which is fixed at construction.
    for (int net : snap.flop_nets) {
        if (net < 0 || net >= static_cast<int>(elab.nets.size()))
            throw SnapError("snapshot corrupted: flop net id " +
                            std::to_string(net) + " out of range");
        if (!sim.isFlop(net))
            throw SnapError("snapshot flops net '" + elab.nets[net].name +
                            "', which is not in this design's flop set "
                            "(no tick block writes it)");
    }

    for (const Net &net : elab.nets) {
        const auto &cur = snap.nets[net.id];
        const auto &nxt = snap.nets_next[net.id];
        size_t want = static_cast<size_t>(bitsToWords(net.nbits));
        if (cur.size() != want || nxt.size() != want)
            throw SnapError("snapshot/design mismatch: net '" +
                            net.name + "' width differs");
        sim.pokeNet(net.id, Bits::fromWords(net.nbits, cur));
        sim.pokeNetNext(net.id, Bits::fromWords(net.nbits, nxt));
    }

    for (size_t a = 0; a < elab.arrays.size(); ++a) {
        MemArray &array = *elab.arrays[a];
        size_t elem_words =
            static_cast<size_t>(bitsToWords(array.nbits()));
        if (snap.array_elem_words[a] != elem_words ||
            snap.arrays[a].size() !=
                elem_words * static_cast<size_t>(array.depth()))
            throw SnapError("snapshot/design mismatch: array '" +
                            array.fullName() + "' layout differs");
        std::vector<uint64_t> elem(elem_words);
        for (int i = 0; i < array.depth(); ++i) {
            std::copy_n(snap.arrays[a].begin() + i * elem_words,
                        elem_words, elem.begin());
            sim.writeArray(array, i, Bits::fromWords(array.nbits(), elem));
        }
    }

    std::unordered_map<std::string, Model *> by_name;
    for (Model *model : elab.models)
        by_name.emplace(model->fullName(), model);
    for (const auto &entry : snap.model_state) {
        auto it = by_name.find(entry.first);
        if (it == by_name.end())
            throw SnapError("snapshot has host state for model '" +
                            entry.first +
                            "' which this design does not contain");
        SnapReader r(entry.second);
        it->second->snapLoad(r);
        if (!r.atEnd())
            throw SnapError("model '" + entry.first + "' left " +
                            std::to_string(r.remaining()) +
                            " byte(s) of its snapshot state unread");
    }

    sim.setRestoredCycleCount(snap.cycle);
}

uint64_t
stateDigest(const Simulator &sim)
{
    // SimSnapshot::digest()'s byte sequence, read straight from the
    // simulator.
    const Elaboration &elab = sim.elaboration();
    uint64_t h = kFnvOffset;
    for (bool next : {false, true}) {
        fnvU64(h, elab.nets.size());
        for (const Net &net : elab.nets) {
            const Bits value =
                next ? sim.readNetNext(net.id) : sim.readNet(net.id);
            fnvU64(h, static_cast<uint64_t>(value.nwords()));
            for (int w = 0; w < value.nwords(); ++w)
                fnvU64(h, value.word(w));
        }
    }
    fnvU64(h, elab.arrays.size());
    for (const MemArray *array : elab.arrays) {
        const int elem_words = bitsToWords(array->nbits());
        fnvU64(h, static_cast<uint64_t>(array->depth()) * elem_words);
        for (int i = 0; i < array->depth(); ++i) {
            const Bits value = sim.readArray(*array, i);
            for (int w = 0; w < elem_words; ++w)
                fnvU64(h, value.word(w));
        }
    }
    // The blob count is hashed before the blobs, so they are kept
    // until it is known.
    std::vector<std::pair<const Model *, std::string>> blobs;
    for (const Model *model : elab.models) {
        SnapWriter w;
        model->snapSave(w);
        if (!w.buffer().empty())
            blobs.emplace_back(model, w.take());
    }
    fnvU64(h, blobs.size());
    for (const auto &[model, blob] : blobs) {
        fnvStr(h, model->fullName());
        fnvStr(h, blob);
    }
    return h;
}

std::vector<std::string>
opaqueStateModels(const Elaboration &elab)
{
    std::vector<std::string> out;
    for (Model *model : elab.models) {
        bool has_lambda = false;
        for (const ElabBlock &block : elab.blocks) {
            if (block.model == model &&
                (block.kind == BlockKind::TickFl ||
                 block.kind == BlockKind::TickCl ||
                 block.kind == BlockKind::CombLambda)) {
                has_lambda = true;
                break;
            }
        }
        if (!has_lambda)
            continue;
        SnapWriter w;
        model->snapSave(w);
        if (w.buffer().empty())
            out.push_back(model->fullName());
    }
    return out;
}

// -------------------------------------------------------- file layer

namespace {

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        throw SnapError("cannot open '" + path +
                        "' for writing: " + std::strerror(errno));
    size_t written =
        bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
    int close_err = std::fclose(f);
    if (written != bytes.size() || close_err != 0) {
        std::remove(path.c_str());
        throw SnapError("short write to '" + path + "'");
    }
}

void
renameInto(const std::string &tmp, const std::string &path)
{
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        int err = errno;
        std::remove(tmp.c_str());
        throw SnapError("cannot rename '" + tmp + "' onto '" + path +
                        "': " + std::strerror(err));
    }
}

} // namespace

void
snapSaveFile(const Simulator &sim, const std::string &path)
{
    std::string tmp = path + ".tmp";
    writeFileBytes(tmp, snapSave(sim).encode());
    renameInto(tmp, path);
}

SimSnapshot
snapLoadFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SnapError("cannot open snapshot '" + path +
                        "': " + std::strerror(errno));
    std::ostringstream ss;
    ss << in.rdbuf();
    return SimSnapshot::decode(ss.str());
}

// ------------------------------------------------ CheckpointManager

CheckpointManager::CheckpointManager(std::string path,
                                     uint64_t every_n_cycles,
                                     int keep_last, std::string tag)
    : path_(std::move(path)), tag_(std::move(tag)),
      every_(every_n_cycles), keep_last_(keep_last)
{
    if (!tag_.empty())
        path_ += "." + tag_;
}

void
CheckpointManager::attach(Simulator &sim)
{
    sim.onCycleEnd([this, &sim](uint64_t cycle) {
        if (every_ != 0 && cycle % every_ == 0)
            save(sim, cycle);
    });
}

void
CheckpointManager::save(const Simulator &sim, uint64_t cycle)
{
    auto t0 = std::chrono::steady_clock::now();
    std::string bytes = snapSave(sim).encode();
    std::string tmp = path_ + ".tmp";
    writeFileBytes(tmp, bytes);
    if (keep_last_ > 0) {
        // Hard-link the image to its cycle-stamped name before the
        // rename, so the stable latest and the rotation copy share
        // one write and one inode's worth of data.
        std::string stamped = path_ + "." + std::to_string(cycle);
        std::remove(stamped.c_str());
        if (::link(tmp.c_str(), stamped.c_str()) != 0) {
            int err = errno;
            std::remove(tmp.c_str());
            throw SnapError("cannot link checkpoint '" + stamped +
                            "': " + std::strerror(err));
        }
        rotated_.push_back(stamped);
        while (rotated_.size() > static_cast<size_t>(keep_last_)) {
            std::remove(rotated_.front().c_str());
            rotated_.erase(rotated_.begin());
        }
    }
    renameInto(tmp, path_);
    last_cycle_ = cycle;
    last_ms_ = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
}

// ----------------------------------------------------------- StimTape

void
StimTape::channel(const Signal &sig)
{
    if (nentries_ != 0)
        throw SnapError("StimTape: cannot add channels to a recorded "
                        "tape");
    Chan chan;
    chan.name = sig.fullName();
    chan.nbits = sig.nbits();
    chan.net = sig.netId();
    chans_.push_back(std::move(chan));
}

void
StimTape::channel(const std::string &name, int nbits)
{
    if (nentries_ != 0)
        throw SnapError("StimTape: cannot add channels to a recorded "
                        "tape");
    if (nbits <= 0)
        throw SnapError("StimTape: channel '" + name +
                        "' must be at least 1 bit wide");
    Chan chan;
    chan.name = name;
    chan.nbits = nbits;
    chan.net = -1; // resolved lazily by bind()
    chans_.push_back(std::move(chan));
}

void
StimTape::append(const std::vector<Bits> &values)
{
    if (values.size() != chans_.size())
        throw SnapError("StimTape: append got " +
                        std::to_string(values.size()) +
                        " value(s) for " + std::to_string(chans_.size()) +
                        " channel(s)");
    for (size_t i = 0; i < chans_.size(); ++i) {
        if (values[i].nbits() != chans_[i].nbits)
            throw SnapError("StimTape: append value for channel '" +
                            chans_[i].name + "' is " +
                            std::to_string(values[i].nbits()) +
                            " bit(s), expected " +
                            std::to_string(chans_[i].nbits));
    }
    for (const Bits &value : values)
        for (int w = 0; w < value.nwords(); ++w)
            words_.push_back(value.word(w));
    ++nentries_;
}

size_t
StimTape::entryWords() const
{
    size_t n = 0;
    for (const Chan &chan : chans_)
        n += static_cast<size_t>(bitsToWords(chan.nbits));
    return n;
}

void
StimTape::bind(const Elaboration &elab)
{
    if (bound_)
        return;
    for (Chan &chan : chans_) {
        if (chan.net >= 0)
            continue;
        for (const Signal *sig : elab.signals) {
            if (sig->fullName() == chan.name) {
                if (sig->nbits() != chan.nbits)
                    throw SnapError("StimTape: channel '" + chan.name +
                                    "' is " + std::to_string(chan.nbits) +
                                    " bit(s) on tape but " +
                                    std::to_string(sig->nbits()) +
                                    " in this design");
                chan.net = sig->netId();
                break;
            }
        }
        if (chan.net < 0)
            throw SnapError("StimTape: channel '" + chan.name +
                            "' not found in this design");
    }
    bound_ = true;
}

void
StimTape::attachRecorder(Simulator &sim)
{
    if (nentries_ != 0)
        throw SnapError("StimTape: tape already holds a recording");
    bind(sim.elaboration());
    start_ = sim.numCycles();
    sim.onCycleEnd([this, &sim](uint64_t) {
        // The values still on the channel nets at cycle end are the
        // ones the driver injected before the cycle: stimulus nets
        // are host-driven, nothing else writes them.
        for (const Chan &chan : chans_) {
            Bits value = sim.readNet(chan.net);
            for (int w = 0; w < value.nwords(); ++w)
                words_.push_back(value.word(w));
        }
        ++nentries_;
    });
}

bool
StimTape::applyTo(Simulator &sim)
{
    bind(sim.elaboration());
    uint64_t now = sim.numCycles();
    if (now < start_)
        throw SnapError("StimTape: simulator is at cycle " +
                        std::to_string(now) +
                        " but the tape starts at cycle " +
                        std::to_string(start_));
    uint64_t idx = now - start_;
    if (idx >= nentries_)
        return false;
    size_t off = static_cast<size_t>(idx) * entryWords();
    for (const Chan &chan : chans_) {
        int nwords = bitsToWords(chan.nbits);
        std::vector<uint64_t> value(words_.begin() + off,
                                    words_.begin() + off + nwords);
        sim.pokeNet(chan.net, Bits::fromWords(chan.nbits, value));
        off += nwords;
    }
    return true;
}

namespace {
constexpr char kTapeMagic[8] = {'C', 'M', 'T', 'L', 'T', 'A', 'P', 'E'};
}

std::string
StimTape::encode() const
{
    SnapWriter w;
    w.raw(kTapeMagic, sizeof(kTapeMagic));
    w.u32(kSnapFormatVersion);
    w.u32(static_cast<uint32_t>(chans_.size()));
    w.u64(start_);
    w.u64(nentries_);
    for (const Chan &chan : chans_) {
        w.str(chan.name);
        w.u32(static_cast<uint32_t>(chan.nbits));
    }
    for (uint64_t word : words_)
        w.u64(word);
    uint32_t crc = snapCrc32(w.buffer().data(), w.buffer().size());
    w.u32(crc);
    return w.take();
}

StimTape
StimTape::decode(const std::string &bytes)
{
    if (bytes.size() < sizeof(kTapeMagic) + 4 ||
        std::memcmp(bytes.data(), kTapeMagic, sizeof(kTapeMagic)) != 0)
        throw SnapError("not a CMTL stimulus tape (bad magic)");
    uint32_t stored_crc = 0;
    {
        SnapReader tail(
            reinterpret_cast<const uint8_t *>(bytes.data()) +
                bytes.size() - 4,
            4);
        stored_crc = tail.u32();
    }
    if (snapCrc32(bytes.data(), bytes.size() - 4) != stored_crc)
        throw SnapError("stimulus tape corrupted: checksum mismatch");

    SnapReader r(reinterpret_cast<const uint8_t *>(bytes.data()),
                 bytes.size() - 4);
    char magic[8];
    r.raw(magic, sizeof(magic));
    // Tape payloads never changed across snapshot format bumps, so
    // any version in the supported window loads.
    uint32_t version = r.u32();
    if (version < kSnapMinFormatVersion || version > kSnapFormatVersion)
        throw SnapError("stimulus tape format version " +
                        std::to_string(version) + " unsupported");
    StimTape tape;
    uint32_t nchans = r.u32();
    if (nchans > (1u << 20))
        throw SnapError("stimulus tape corrupted: implausible channel "
                        "count");
    tape.start_ = r.u64();
    tape.nentries_ = r.u64();
    tape.chans_.resize(nchans);
    for (Chan &chan : tape.chans_) {
        chan.name = r.str();
        chan.nbits = static_cast<int>(r.u32());
        if (chan.nbits <= 0 || chan.nbits > (1 << 20))
            throw SnapError("stimulus tape corrupted: implausible "
                            "channel width");
    }
    size_t total = tape.entryWords() * tape.nentries_;
    if (r.remaining() != total * 8)
        throw SnapError("stimulus tape corrupted: entry payload size "
                        "mismatch");
    tape.words_.resize(total);
    for (uint64_t &word : tape.words_)
        word = r.u64();
    return tape;
}

void
StimTape::saveFile(const std::string &path) const
{
    std::string tmp = path + ".tmp";
    writeFileBytes(tmp, encode());
    renameInto(tmp, path);
}

StimTape
StimTape::loadFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SnapError("cannot open stimulus tape '" + path +
                        "': " + std::strerror(errno));
    std::ostringstream ss;
    ss << in.rdbuf();
    return decode(ss.str());
}

// ----------------------------------------------------- findDivergence

std::string
DivergenceReport::summary() const
{
    if (!diverged)
        return "no divergence";
    std::ostringstream os;
    os << "first divergence at cycle " << first_divergent_cycle << ": ";
    if (!error.empty())
        return os.str() + error;
    os << divergent_nets.size() << " net(s), " << divergent_arrays.size()
       << " array(s), " << divergent_models.size()
       << " model(s) differ";
    size_t shown = 0;
    for (const std::string &net : divergent_nets) {
        os << (shown == 0 ? " [" : ", ") << net;
        if (++shown == 8) {
            if (divergent_nets.size() > 8)
                os << ", ...";
            break;
        }
    }
    if (shown)
        os << "]";
    return os.str();
}

namespace {

/** Name the nets, arrays and models whose state differs. */
void
nameDifferences(const Elaboration &elab, const SimSnapshot &fa,
                const SimSnapshot &fb, DivergenceReport &rep)
{
    for (const Net &net : elab.nets) {
        if (fa.nets[net.id] != fb.nets[net.id] ||
            fa.nets_next[net.id] != fb.nets_next[net.id])
            rep.divergent_nets.push_back(net.name);
    }
    for (size_t i = 0; i < elab.arrays.size(); ++i) {
        if (fa.arrays[i] != fb.arrays[i])
            rep.divergent_arrays.push_back(elab.arrays[i]->fullName());
    }
    std::unordered_map<std::string, const std::string *> blobs_b;
    for (const auto &entry : fb.model_state)
        blobs_b.emplace(entry.first, &entry.second);
    for (const auto &entry : fa.model_state) {
        auto it = blobs_b.find(entry.first);
        if (it == blobs_b.end() || *it->second != entry.second)
            rep.divergent_models.push_back(entry.first);
    }
}

} // namespace

DivergenceReport
findDivergence(Simulator &a, Simulator &b, uint64_t cycles,
               const std::function<void(Simulator &)> &stim)
{
    DivergenceReport rep;
    for (uint64_t done = 0;; ++done) {
        if (stateDigest(a) != stateDigest(b)) {
            rep.diverged = true;
            rep.first_divergent_cycle = a.numCycles();
            nameDifferences(a.elaboration(), snapSave(a), snapSave(b), rep);
            return rep;
        }
        if (done == cycles)
            return rep;
        const uint64_t next = a.numCycles() + 1;
        for (Simulator *side : {&a, &b}) {
            try {
                if (stim)
                    stim(*side);
                side->cycle();
            } catch (const std::exception &e) {
                rep.diverged = true;
                rep.first_divergent_cycle = next;
                rep.error = std::string("side ") +
                            (side == &a ? "a" : "b") +
                            " threw: " + e.what();
                return rep;
            }
        }
    }
}

} // namespace cmtl
