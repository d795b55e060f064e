/**
 * @file
 * SimFuzz generator: seed -> design shape -> Model + StimTape, plus
 * the FuzzSpec text codec. Everything here is a pure function of the
 * spec; see fuzz.h for the per-entity stream discipline.
 */

#include "fuzz.h"

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace cmtl {
namespace fuzz {

// ------------------------------------------------------------ FuzzRng

FuzzRng::FuzzRng(uint64_t seed, const char *stream, uint64_t index)
{
    // FNV-1a over (seed, stream, index) keys the SplitMix64 stream.
    uint64_t h = 1469598103934665603ull;
    auto mix8 = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix8(seed);
    for (const char *c = stream; *c; ++c) {
        h ^= static_cast<unsigned char>(*c);
        h *= 1099511628211ull;
    }
    mix8(index);
    state_ = h;
    next();
    next();
}

uint64_t
FuzzRng::next()
{
    state_ += 0x9e3779b97f4a7c15ull;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// ------------------------------------------------------- design shape

namespace {

/**
 * The seed-derived skeleton: how many of everything and how wide.
 * Disable masks never reach this layer, so the skeleton (and with it
 * every net id and the StimTape channel table) is mask-invariant.
 */
struct Shape
{
    std::vector<int> stim_w;
    std::vector<int> reg_w;
    struct CombSpec
    {
        int level;
        int width;
    };
    std::vector<CombSpec> combs;
    std::vector<int> arr_w;
    std::vector<int> arr_d;
    int ntick = 0; //!< generated tickRtl blocks (chprod/dyncl extra)
    int ch_w = 0;  //!< val/rdy channel message width
    int dyn_w = 0; //!< lambda-flop wire width
};

Shape
deriveShape(uint64_t seed)
{
    FuzzRng r(seed, "shape", 0);
    Shape sh;

    // Stimulus: 2-4 ports, port 0 always multiword so every design
    // carries multiword nets and unspecializable blocks.
    int nstim = r.irange(2, 4);
    for (int i = 0; i < nstim; ++i)
        sh.stim_w.push_back(i == 0 ? r.irange(65, 96) : r.irange(1, 16));

    // Registered state: 3-5 nets, mostly narrow, sometimes wide.
    int nregs = r.irange(3, 5);
    for (int i = 0; i < nregs; ++i)
        sh.reg_w.push_back(r.chance(25) ? r.irange(65, 80)
                                        : r.irange(2, 32));

    // Comb blocks in 2-3 static levels, 1-2 blocks per level, one
    // output net each.
    int nlevels = r.irange(2, 3);
    for (int l = 1; l <= nlevels; ++l) {
        int nblocks = r.irange(1, 2);
        for (int b = 0; b < nblocks; ++b)
            sh.combs.push_back({l, r.chance(20) ? r.irange(65, 80)
                                                : r.irange(1, 24)});
    }

    // Memory arrays: 1-2, power-of-two depth.
    int narr = r.irange(1, 2);
    for (int i = 0; i < narr; ++i) {
        sh.arr_w.push_back(r.irange(4, 31));
        sh.arr_d.push_back(1 << r.irange(2, 4));
    }

    sh.ntick = r.irange(2, 3);
    sh.ch_w = r.irange(4, 24);
    sh.dyn_w = r.irange(2, 30);
    return sh;
}

} // namespace

FuzzCounts
fuzzCounts(uint64_t seed)
{
    Shape sh = deriveShape(seed);
    FuzzCounts c;
    c.comb = static_cast<int>(sh.combs.size()) + 1; // + chrdy
    c.tick = sh.ntick + 2;                          // + chprod + dyncl
    c.stim = static_cast<int>(sh.stim_w.size());
    return c;
}

// ----------------------------------------------------------- FuzzSpec

bool
FuzzSpec::combOff(int id) const
{
    for (int v : comb_off)
        if (v == id)
            return true;
    return false;
}

bool
FuzzSpec::tickOff(int id) const
{
    for (int v : tick_off)
        if (v == id)
            return true;
    return false;
}

bool
FuzzSpec::stimOff(int id) const
{
    for (int v : stim_off)
        if (v == id)
            return true;
    return false;
}

namespace {

/** Parse a non-negative decimal count no larger than @p max. */
uint64_t
parseCount(const std::string &tok, const std::string &what,
           uint64_t max = UINT64_MAX)
{
    if (tok.empty() || tok.find_first_not_of("0123456789") !=
                           std::string::npos)
        throw std::runtime_error("fuzz repro: bad " + what + " '" + tok +
                                 "'");
    errno = 0;
    unsigned long long v = std::strtoull(tok.c_str(), nullptr, 10);
    if (errno == ERANGE || v > max)
        throw std::runtime_error("fuzz repro: " + what + " '" + tok +
                                 "' out of range");
    return v;
}

/** The next token of @p ls as a count; a missing token is an error. */
uint64_t
nextCount(std::istringstream &ls, const std::string &what,
          uint64_t max = UINT64_MAX)
{
    std::string tok;
    if (!(ls >> tok))
        throw std::runtime_error("fuzz repro: missing " + what);
    return parseCount(tok, what, max);
}

/** Reject anything left on a line after its last field. */
void
expectEnd(std::istringstream &ls, const std::string &line)
{
    std::string extra;
    if (ls >> extra)
        throw std::runtime_error("fuzz repro: trailing '" + extra +
                                 "' on line '" + line + "'");
}

} // namespace

std::string
FuzzSide::encode() const
{
    std::ostringstream os;
    os << backend << " " << threads;
    return os.str();
}

FuzzSide
FuzzSide::decode(const std::string &text)
{
    std::istringstream is(text);
    FuzzSide side;
    if (!(is >> side.backend))
        throw std::runtime_error("fuzz repro: bad side spec '" + text +
                                 "'");
    side.threads = static_cast<int>(nextCount(is, "threads", INT_MAX));
    if (side.threads < 1)
        throw std::runtime_error("fuzz repro: threads must be >= 1 in '" +
                                 text + "'");
    expectEnd(is, text);
    return side;
}

std::string
FuzzSpec::encodeText() const
{
    std::ostringstream os;
    os << "CMTLFUZZ v3\n";
    os << "seed " << seed << "\n";
    os << "cycles " << cycles << "\n";
    os << "side_a " << side_a.encode() << "\n";
    os << "side_b " << side_b.encode() << "\n";
    auto list = [&os](const char *key, const std::vector<int> &ids) {
        if (ids.empty())
            return;
        os << key;
        for (int id : ids)
            os << " " << id;
        os << "\n";
    };
    list("comb_off", comb_off);
    list("tick_off", tick_off);
    list("stim_off", stim_off);
    if (fault.active)
        os << "fault " << fault.cycle << " " << fault.net_ordinal << " "
           << fault.bit << "\n";
    if (expect == 1)
        os << "expect diverge\n";
    else if (expect == 0)
        os << "expect agree\n";
    return os.str();
}

FuzzSpec
FuzzSpec::decodeText(const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    auto stripComment = [](std::string &l) {
        size_t hash = l.find('#');
        if (hash != std::string::npos)
            l.erase(hash);
    };
    // The header is the first line that is not blank or a comment.
    std::string magic, version;
    while (std::getline(is, line)) {
        stripComment(line);
        std::istringstream hs(line);
        if (!(hs >> magic))
            continue;
        hs >> version;
        if (magic == "CMTLFUZZ" && (version == "v1" || version == "v2"))
            throw std::runtime_error(
                "fuzz repro: CMTLFUZZ " + version +
                " is no longer accepted: " +
                (version == "v1" ? "v2 removed the v1 layout token and "
                                 : "") +
                "v3 removed the <gating> token, side lines are now "
                "'<backend> <threads>'");
        expectEnd(hs, line);
        break;
    }
    if (magic != "CMTLFUZZ" || version != "v3")
        throw std::runtime_error("fuzz repro: missing CMTLFUZZ v3 "
                                 "header");
    FuzzSpec spec;
    while (std::getline(is, line)) {
        stripComment(line);
        std::istringstream ls(line);
        std::string key;
        if (!(ls >> key))
            continue;
        auto ids = [&ls, &key]() {
            std::vector<int> out;
            std::string tok;
            while (ls >> tok)
                out.push_back(static_cast<int>(
                    parseCount(tok, key + " id", INT_MAX)));
            return out;
        };
        if (key == "seed") {
            spec.seed = nextCount(ls, "seed");
        } else if (key == "cycles") {
            spec.cycles = nextCount(ls, "cycles");
        } else if (key == "side_a" || key == "side_b") {
            std::string rest;
            std::getline(ls, rest);
            (key == "side_a" ? spec.side_a : spec.side_b) =
                FuzzSide::decode(rest);
        } else if (key == "comb_off") {
            spec.comb_off = ids();
        } else if (key == "tick_off") {
            spec.tick_off = ids();
        } else if (key == "stim_off") {
            spec.stim_off = ids();
        } else if (key == "fault") {
            spec.fault.active = true;
            spec.fault.cycle = nextCount(ls, "fault cycle");
            spec.fault.net_ordinal =
                static_cast<int>(nextCount(ls, "fault net", INT_MAX));
            spec.fault.bit =
                static_cast<int>(nextCount(ls, "fault bit", INT_MAX));
        } else if (key == "expect") {
            std::string what;
            ls >> what;
            if (what == "diverge")
                spec.expect = 1;
            else if (what == "agree")
                spec.expect = 0;
            else
                throw std::runtime_error("fuzz repro: bad expect '" +
                                         what + "'");
        } else {
            throw std::runtime_error("fuzz repro: unknown key '" + key +
                                     "'");
        }
        expectEnd(ls, line);
    }
    if (spec.cycles == 0)
        throw std::runtime_error("fuzz repro: zero cycle budget");
    return spec;
}

void
FuzzSpec::saveFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot write fuzz repro '" + path +
                                 "': " + std::strerror(errno));
    out << encodeText();
}

FuzzSpec
FuzzSpec::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open fuzz repro '" + path +
                                 "': " + std::strerror(errno));
    std::ostringstream ss;
    ss << in.rdbuf();
    return decodeText(ss.str());
}

// ----------------------------------------------- expression generator

namespace {

/** Explicitly fit @p e to @p w so assigns never auto-truncate. */
IrExpr
fit(const IrExpr &e, int w)
{
    if (e.nbits() == w)
        return e;
    if (e.nbits() > w)
        return e.slice(0, w);
    return e.zext(w);
}

IrExpr
genLit(FuzzRng &rng, int w)
{
    if (w <= 64)
        return lit(w, rng.next());
    std::vector<uint64_t> words(static_cast<size_t>(bitsToWords(w)));
    for (uint64_t &word : words)
        word = rng.next();
    return lit(Bits::fromWords(w, words));
}

IrExpr
genLeaf(FuzzRng &rng, const std::vector<Signal *> &pool, int w)
{
    if (pool.empty() || rng.chance(25))
        return genLit(rng, w);
    return fit(rd(*pool[rng.range(pool.size())]), w);
}

/**
 * Subexpressions one block has built so far. genExpr draws from it
 * again, so one block shares subexpressions across statements, across
 * writes to what they read and across the arms of an if/else, which
 * is what the bytecode optimizer's value numbering must get right.
 */
using ExprPool = std::vector<IrExpr>;

IrExpr genFresh(FuzzRng &rng, const std::vector<Signal *> &pool,
                const std::vector<MemArray *> &arrs, int w, int depth,
                ExprPool &reuse);

/**
 * Random expression of width @p w over @p pool and @p arrs: a leaf at
 * depth 0, else sometimes a subexpression from @p reuse, else a fresh
 * one, which joins @p reuse.
 */
IrExpr
genExpr(FuzzRng &rng, const std::vector<Signal *> &pool,
        const std::vector<MemArray *> &arrs, int w, int depth,
        ExprPool &reuse)
{
    if (depth <= 0)
        return genLeaf(rng, pool, w);
    if (!reuse.empty() && rng.chance(15))
        return fit(reuse[rng.range(reuse.size())], w);
    IrExpr e = genFresh(rng, pool, arrs, w, depth, reuse);
    reuse.push_back(e);
    return e;
}

/**
 * A fresh compound expression for genExpr. Slices, shifts and aread
 * indexes are in-bounds by construction; multiplies are capped at
 * 32-bit operands so the compiled and tree-walk paths agree on the
 * (identical) truncated product.
 */
IrExpr
genFresh(FuzzRng &rng, const std::vector<Signal *> &pool,
         const std::vector<MemArray *> &arrs, int w, int depth,
         ExprPool &reuse)
{
    switch (rng.range(12)) {
      case 0:
      case 1:
        return genLeaf(rng, pool, w);
      case 2: { // add/sub at the target width
        IrExpr a = genExpr(rng, pool, arrs, w, depth - 1, reuse);
        IrExpr b = genExpr(rng, pool, arrs, w, depth - 1, reuse);
        return rng.chance(50) ? fit(a, w) + fit(b, w)
                              : fit(a, w) - fit(b, w);
      }
      case 3: { // narrow multiply
        int mw = w < 32 ? w : 32;
        IrExpr a = fit(genExpr(rng, pool, arrs, mw, depth - 1, reuse), mw);
        IrExpr b = fit(genExpr(rng, pool, arrs, mw, depth - 1, reuse), mw);
        return fit(a * b, w);
      }
      case 4: { // bitwise
        IrExpr a = fit(genExpr(rng, pool, arrs, w, depth - 1, reuse), w);
        IrExpr b = fit(genExpr(rng, pool, arrs, w, depth - 1, reuse), w);
        switch (rng.range(3)) {
          case 0: return a & b;
          case 1: return a | b;
          default: return a ^ b;
        }
      }
      case 5: { // shift by an in-range constant
        IrExpr a = fit(genExpr(rng, pool, arrs, w, depth - 1, reuse), w);
        IrExpr k = lit(8, rng.range(static_cast<uint64_t>(w)));
        switch (rng.range(3)) {
          case 0: return a << k;
          case 1: return a >> k;
          default: return sra(a, k);
        }
      }
      case 6: { // mux
        IrExpr c = fit(genExpr(rng, pool, arrs, 1, depth - 1, reuse), 1);
        IrExpr a = fit(genExpr(rng, pool, arrs, w, depth - 1, reuse), w);
        IrExpr b = fit(genExpr(rng, pool, arrs, w, depth - 1, reuse), w);
        return mux(c, a, b);
      }
      case 7: { // comparison, widened back up
        int cw = rng.irange(1, 32);
        IrExpr a = fit(genExpr(rng, pool, arrs, cw, depth - 1, reuse), cw);
        IrExpr b = fit(genExpr(rng, pool, arrs, cw, depth - 1, reuse), cw);
        IrExpr c;
        switch (rng.range(4)) {
          case 0: c = (a == b); break;
          case 1: c = (a != b); break;
          case 2: c = (a < b); break;
          default: c = (a >= b); break;
        }
        return fit(c, w);
      }
      case 8: { // unary / reductions / sign extension
        IrExpr a = fit(genExpr(rng, pool, arrs, w, depth - 1, reuse), w);
        switch (rng.range(4)) {
          case 0: return ~a;
          case 1: return fit(a.reduceXor(), w);
          case 2: return fit(!a, w);
          default: {
            if (w < 2)
                return ~a;
            int sw = rng.irange(1, w - 1);
            return fit(genExpr(rng, pool, arrs, sw, depth - 1, reuse), sw)
                .sext(w);
          }
        }
      }
      case 9: { // concatenation
        if (w < 2)
            return genLeaf(rng, pool, w);
        int k = rng.irange(1, w - 1);
        IrExpr hi =
            fit(genExpr(rng, pool, arrs, w - k, depth - 1, reuse), w - k);
        IrExpr lo = fit(genExpr(rng, pool, arrs, k, depth - 1, reuse), k);
        return cat(hi, lo);
      }
      case 10: { // in-bounds slice of a wider value
        int ew = w + rng.irange(1, 16);
        IrExpr e = fit(genExpr(rng, pool, arrs, ew, depth - 1, reuse), ew);
        int lsb = static_cast<int>(
            rng.range(static_cast<uint64_t>(ew - w + 1)));
        return e.slice(lsb, w);
      }
      default: { // asynchronous array read
        if (arrs.empty())
            return genLeaf(rng, pool, w);
        MemArray *arr = arrs[rng.range(arrs.size())];
        int iw = bitsFor(static_cast<uint64_t>(arr->depth()));
        IrExpr idx = fit(genExpr(rng, pool, arrs, iw, depth - 1, reuse), iw);
        return fit(aread(*arr, idx), w);
      }
    }
}

} // namespace

// --------------------------------------------------------- FuzzDesign

std::string
FuzzDesign::typeName() const
{
    return "FuzzDesign_" + std::to_string(seed_);
}

FuzzDesign::FuzzDesign(const FuzzSpec &spec)
    : Model(nullptr, "fuzz"), seed_(spec.seed)
{
    Shape sh = deriveShape(spec.seed);
    int ncomb = static_cast<int>(sh.combs.size());
    ncomb_entities_ = ncomb + 1;   // + chrdy
    ntick_entities_ = sh.ntick + 2; // + chprod + dyncl

    // --- declarations: fixed order, independent of disable masks ---
    for (size_t i = 0; i < sh.stim_w.size(); ++i)
        stim_.emplace_back(this, "stim" + std::to_string(i),
                           sh.stim_w[i]);
    for (size_t i = 0; i < sh.reg_w.size(); ++i)
        regs_.emplace_back(this, "reg" + std::to_string(i), sh.reg_w[i]);
    for (size_t i = 0; i < sh.combs.size(); ++i)
        comb_out_.emplace_back(this, "comb" + std::to_string(i),
                               sh.combs[i].width);
    for (size_t i = 0; i < sh.arr_w.size(); ++i)
        mems_.emplace_back(this, "mem" + std::to_string(i), sh.arr_w[i],
                           sh.arr_d[i]);
    chan_.emplace_back(this, "ch_val", 1);
    chan_.emplace_back(this, "ch_rdy", 1);
    chan_.emplace_back(this, "ch_msg", sh.ch_w);
    dyn_.emplace_back(this, "dyn", sh.dyn_w);
    obs_.emplace_back(this, "obs", 64);

    Wire &ch_val = chan_[0];
    Wire &ch_rdy = chan_[1];
    Wire &ch_msg = chan_[2];
    Wire &dyn = dyn_[0];

    std::vector<MemArray *> arrs;
    for (MemArray &m : mems_)
        arrs.push_back(&m);

    // Sequential logic reads anything; comb level l reads sequential
    // state plus the outputs of strictly lower levels, so the comb
    // graph is a DAG under any mask.
    std::vector<Signal *> seq_pool;
    for (InPort &s : stim_)
        seq_pool.push_back(&s);
    for (Wire &r : regs_)
        seq_pool.push_back(&r);
    seq_pool.push_back(&dyn);
    seq_pool.push_back(&ch_val);
    seq_pool.push_back(&ch_msg);
    for (Wire &c : comb_out_)
        seq_pool.push_back(&c);
    std::vector<Signal *> seq_pool_rdy = seq_pool;
    seq_pool_rdy.push_back(&ch_rdy);

    auto combPool = [&](int level) {
        std::vector<Signal *> pool;
        for (InPort &s : stim_)
            pool.push_back(&s);
        for (Wire &r : regs_)
            pool.push_back(&r);
        pool.push_back(&dyn);
        pool.push_back(&ch_val);
        pool.push_back(&ch_msg);
        for (size_t i = 0; i < sh.combs.size(); ++i)
            if (sh.combs[i].level < level)
                pool.push_back(&comb_out_[i]);
        return pool;
    };

    // --- generated comb blocks -------------------------------------
    for (int i = 0; i < ncomb; ++i) {
        if (spec.combOff(i))
            continue;
        FuzzRng rng(spec.seed, "comb", static_cast<uint64_t>(i));
        auto &b = combinational("comb_blk" + std::to_string(i));
        Wire &out = comb_out_[i];
        int w = out.nbits();
        std::vector<Signal *> pool = combPool(sh.combs[i].level);
        ExprPool reuse;

        const bool field = w >= 4 && rng.chance(25);
        IrExpr main = genExpr(rng, pool, arrs, w, 3, reuse);
        IrExpr t;
        if (rng.chance(40)) {
            // Route part of the computation through a let-temp.
            t = b.let("t" + std::to_string(i),
                      genExpr(rng, pool, arrs, w, 2, reuse));
            main = fit(main, w) ^ fit(t, w);
            reuse.push_back(main);
        }
        b.assign(out, fit(main, w));
        if (field) {
            // A field override after the default value: the slice
            // assign re-reads `out` after the block's own full write.
            int k = rng.irange(1, w - 1);
            int n = rng.irange(1, w - k);
            b.assignSlice(out, k, n,
                          fit(genExpr(rng, pool, arrs, n, 2, reuse), n));
        }
        if (rng.chance(40)) {
            // Conditional override after the full default assignment —
            // exercises if_ without inferring a latch.
            IrExpr cond = fit(genExpr(rng, pool, arrs, 1, 2, reuse), 1);
            IrExpr alt = fit(genExpr(rng, pool, arrs, w, 2, reuse), w);
            if (t.valid() && rng.chance(50)) {
                // Write the temp main reads, then read main again: its
                // value must follow the new temp.
                b.setTemp(t, fit(genExpr(rng, pool, arrs, w, 2, reuse),
                                 t.nbits()));
                alt = fit(main, w) + alt;
            }
            b.if_(cond, [&] { b.assign(out, alt); });
        }
    }

    // --- val/rdy consumer side: comb rdy driver (entity ncomb) -----
    if (!spec.combOff(ncomb)) {
        FuzzRng rng(spec.seed, "chrdy", 0);
        auto &b = combinational("ch_rdy_drv");
        std::vector<Signal *> pool;
        for (InPort &s : stim_)
            pool.push_back(&s);
        for (Wire &r : regs_)
            pool.push_back(&r);
        pool.push_back(&dyn);
        ExprPool reuse;
        b.assign(ch_rdy, fit(genExpr(rng, pool, arrs, 1, 2, reuse), 1));
    }

    // --- generated tick blocks -------------------------------------
    for (int k = 0; k < sh.ntick; ++k) {
        if (spec.tickOff(k))
            continue;
        FuzzRng rng(spec.seed, "tick", static_cast<uint64_t>(k));
        auto &b = tickRtl("tick_blk" + std::to_string(k));
        // One pool for the block: later registers may reuse what an
        // earlier one's next value read, after that register's write.
        ExprPool reuse;
        for (size_t r = 0; r < regs_.size(); ++r) {
            if (static_cast<int>(r) % sh.ntick != k)
                continue;
            Wire &reg = regs_[r];
            int w = reg.nbits();
            IrExpr next =
                fit(genExpr(rng, seq_pool_rdy, arrs, w, 3, reuse), w);
            int style = rng.irange(0, 3);
            if (style == 0) {
                // Synchronous reset idiom.
                b.if_(rd(reset), [&] { b.assign(reg, lit(w, 0)); },
                      [&] { b.assign(reg, next); });
            } else if (style == 1) {
                IrExpr cond =
                    fit(genExpr(rng, seq_pool_rdy, arrs, 1, 2, reuse), 1);
                IrExpr alt =
                    fit(genExpr(rng, seq_pool_rdy, arrs, w, 2, reuse), w);
                if (rng.chance(40))
                    alt = alt ^ next; // next in both arms
                b.if_(cond, [&] { b.assign(reg, next); },
                      [&] { b.assign(reg, alt); });
            } else if (style == 2) {
                // Partial update: sequential hold is legal (no latch).
                IrExpr cond =
                    fit(genExpr(rng, seq_pool_rdy, arrs, 1, 2, reuse), 1);
                b.if_(cond, [&] { b.assign(reg, next); });
            } else {
                b.assign(reg, next);
            }
        }
        for (size_t m = 0; m < mems_.size(); ++m) {
            if (static_cast<int>(m) % sh.ntick != k)
                continue;
            MemArray &mem = mems_[m];
            int iw = bitsFor(static_cast<uint64_t>(mem.depth()));
            IrExpr idx =
                fit(genExpr(rng, seq_pool_rdy, arrs, iw, 2, reuse), iw);
            IrExpr val = fit(
                genExpr(rng, seq_pool_rdy, arrs, mem.nbits(), 3, reuse),
                mem.nbits());
            if (rng.chance(50)) {
                IrExpr cond =
                    fit(genExpr(rng, seq_pool_rdy, arrs, 1, 2, reuse), 1);
                b.if_(cond, [&] { b.writeArray(mem, idx, val); });
            } else {
                b.writeArray(mem, idx, val);
            }
        }
    }

    // --- val/rdy producer (tick entity sh.ntick) -------------------
    if (!spec.tickOff(sh.ntick)) {
        FuzzRng rng(spec.seed, "chprod", 0);
        auto &b = tickRtl("ch_prod");
        ExprPool reuse;
        IrExpr val = fit(genExpr(rng, seq_pool, arrs, 1, 2, reuse), 1);
        IrExpr msg =
            fit(genExpr(rng, seq_pool, arrs, ch_msg.nbits(), 3, reuse),
                ch_msg.nbits());
        // Classic producer: refill when the consumer took the message
        // (or the channel is empty).
        b.if_(rd(ch_rdy) || !rd(ch_val), [&] {
            b.assign(ch_val, val);
            b.assign(ch_msg, msg);
        });
    }

    // --- lambda flop from a host lambda (tick entity sh.ntick+1) ---
    if (!spec.tickOff(sh.ntick + 1)) {
        FuzzRng rng(spec.seed, "dyncl", 0);
        Signal *src_a = seq_pool[rng.range(seq_pool.size())];
        Signal *src_b = seq_pool[rng.range(seq_pool.size())];
        uint64_t salt = rng.next();
        Wire *target = &dyn;
        int w = dyn.nbits();
        // The declared wire is a flop from construction, written by
        // setNext from host code — the checkpoint/restore and ParSim
        // coordinator paths for lambda flops. Pure function of signal
        // values, so no Model::snapSave override is needed.
        tickFl("dyn_fl", [src_a, src_b, salt, target, w] {
            uint64_t v = (src_a->value().toUint64() ^ salt) +
                         src_b->value().toUint64();
            target->setNext(Bits(w, v));
        }, {target});
    }

    // --- observe: always-on XOR fold keeping every net live --------
    {
        auto &b = combinational("observe");
        IrExpr acc = lit(64, 0x243f6a8885a308d3ull);
        uint64_t salt = 1;
        auto fold = [&](Signal &s) {
            acc = (acc ^ fit(rd(s), 64)) + lit(64, salt);
            salt = salt * 6364136223846793005ull + 1442695040888963407ull;
        };
        for (InPort &s : stim_)
            fold(s);
        for (Wire &r : regs_)
            fold(r);
        for (Wire &c : comb_out_)
            fold(c);
        fold(ch_val);
        fold(ch_rdy);
        fold(ch_msg);
        fold(dyn);
        for (MemArray &m : mems_) {
            int iw = bitsFor(static_cast<uint64_t>(m.depth()));
            IrExpr idx = fit(rd(regs_[0]), iw);
            acc = acc ^ fit(aread(m, idx), 64);
        }
        b.assign(obs_[0], acc);
    }
}

// --------------------------------------------------------- fuzz stim

StimTape
makeFuzzStim(const FuzzSpec &spec)
{
    Shape sh = deriveShape(spec.seed);
    StimTape tape;
    for (size_t i = 0; i < sh.stim_w.size(); ++i)
        tape.channel("fuzz.stim" + std::to_string(i), sh.stim_w[i]);

    std::vector<FuzzRng> rngs;
    for (size_t i = 0; i < sh.stim_w.size(); ++i)
        rngs.emplace_back(spec.seed, "stim", static_cast<uint64_t>(i));

    for (uint64_t c = 0; c < spec.cycles; ++c) {
        std::vector<Bits> entry;
        for (size_t i = 0; i < sh.stim_w.size(); ++i) {
            int w = sh.stim_w[i];
            if (spec.stimOff(static_cast<int>(i))) {
                entry.emplace_back(w, 0);
                continue;
            }
            if (w <= 64) {
                entry.emplace_back(w, rngs[i].next());
            } else {
                std::vector<uint64_t> words(
                    static_cast<size_t>(bitsToWords(w)));
                for (uint64_t &word : words)
                    word = rngs[i].next();
                entry.push_back(Bits::fromWords(w, words));
            }
        }
        tape.append(entry);
    }
    return tape;
}

} // namespace fuzz
} // namespace cmtl
