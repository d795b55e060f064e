#include "ir_cpp.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace cmtl {

namespace {

std::string
hex(uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v << "ull";
    return os.str();
}

/** One emitted kernel: a program and the instances the units run. */
struct Kernel
{
    const BcProgram *prog = nullptr;
    std::vector<int> blocks; //!< instances, in order of first use
    /** Per slot: its offset from `b`, a literal or a tabled local. */
    std::vector<std::string> slot;
    int slotCols = 0;
    /** Per instance: base word, row in `tab`, row in `ctab`. */
    std::vector<std::array<int, 3>> args;
};

/**
 * Decide how each slot of @p k is addressed. The base is the first slot
 * whose word differs across instances: a slot at the same offset from
 * it on every instance is a literal; the rest read the instance's row
 * of @p tab.
 */
void
resolveSlots(Kernel &k, const BcModule &bc, std::vector<int32_t> &tab)
{
    const int nslots = k.prog->nslots;
    auto word = [&](size_t i, int s) {
        return bc.instance(k.blocks[i]).slots[s];
    };
    int bs = -1;
    for (int s = 0; s < nslots && bs < 0; ++s) {
        for (size_t i = 1; i < k.blocks.size() && bs < 0; ++i) {
            if (word(i, s) != word(0, s))
                bs = s;
        }
    }
    std::vector<int> base;
    for (size_t i = 0; i < k.blocks.size(); ++i)
        base.push_back(nslots ? word(i, bs < 0 ? 0 : bs) : 0);
    std::vector<int> tabled;
    for (int s = 0; s < nslots; ++s) {
        const int rel = word(0, s) - base[0];
        bool fixed = true;
        for (size_t i = 1; i < k.blocks.size() && fixed; ++i)
            fixed = word(i, s) - base[i] == rel;
        if (fixed) {
            k.slot.push_back(std::to_string(rel));
        } else {
            k.slot.push_back("o" + std::to_string(tabled.size()));
            tabled.push_back(s);
        }
    }
    k.slotCols = static_cast<int>(tabled.size());
    for (size_t i = 0; i < k.blocks.size(); ++i) {
        k.args.push_back({base[i], static_cast<int>(tab.size()), 0});
        for (int s : tabled)
            tab.push_back(word(i, s) - base[i]);
    }
}

/**
 * Append each of @p k's instances' constant columns to @p ctab. The
 * BcModule already made every constant equal on all its instances an
 * immediate and merged identical columns, so a row is the instance's
 * column table as it stands.
 */
void
tableConsts(Kernel &k, const BcModule &bc, std::vector<uint64_t> &ctab)
{
    for (size_t i = 0; i < k.blocks.size(); ++i) {
        const uint64_t *row = bc.instance(k.blocks[i]).consts;
        k.args[i][2] = static_cast<int>(ctab.size());
        ctab.insert(ctab.end(), row, row + k.prog->nconsts);
    }
}

/**
 * How emitKernel reads each expression scratch definition (a write to
 * a word past the temps): inside the one expression that reads it, or
 * from a local `s<n>` of its own. Optimized programs read such a
 * definition only within its basic block, but may read it more than
 * once (value numbering shares it), and forwarding may move a write to
 * a slot between it and its reader. So a definition is inlined only
 * when it has exactly one reader and nothing between it and that
 * reader writes a slot, temp or array its expression, inlined operands
 * included, reads. Returns, per pc, -1 for an inlined definition or
 * not a definition, else the definition's local number.
 */
std::vector<int>
scratchLocals(const BcProgram &p)
{
    const size_t n = p.insts.size();
    const int scratch = p.scratchBase() + p.ntemps;
    std::vector<char> target(n + 1, 0);
    for (const BcInst &in : p.insts) {
        if (in.op == Bc::Jz || in.op == Bc::Jmp)
            target[in.imm] = 1;
    }
    auto readsOf = [](BcInst in) {
        std::vector<int32_t> r;
        bcForEachRead(in.op, in.a, in.b, in.c, in.dst,
                      [&](int32_t x) { r.push_back(x); });
        return r;
    };
    // A location is a frame word, or an array as -(slot + 1).
    std::vector<std::vector<int32_t>> reads(n);
    std::vector<int> local(n, -1);
    std::vector<int> def_of(p.nscratch, -1); //!< per scratch word
    int nlocals = 0;
    for (size_t pc = 0; pc < n; ++pc) {
        if (target[pc])
            std::fill(def_of.begin(), def_of.end(), -1);
        const BcInst &in = p.insts[pc];
        std::vector<int32_t> &rs = reads[pc];
        for (int32_t r : readsOf(in)) {
            if (r >= scratch) {
                const int d = def_of[r - scratch];
                assert(d >= 0);
                if (local[d] < 0)
                    rs.insert(rs.end(), reads[d].begin(), reads[d].end());
            } else if (r < p.nslots || r >= p.scratchBase()) {
                rs.push_back(r); // a slot or a temp; constants never change
            }
        }
        if (in.op == Bc::ALoad)
            rs.push_back(-(in.imm + 1));
        if (in.op == Bc::Jz || in.op == Bc::Jmp)
            std::fill(def_of.begin(), def_of.end(), -1);
        if (!bcWritesDst(in.op) || in.dst < scratch)
            continue;
        def_of[in.dst - scratch] = static_cast<int>(pc);
        // Find the readers up to the next write of the word or the end
        // of the block, and any clobber before the first of them.
        int nreads = 0;
        bool clobbered = false;
        for (size_t q = pc + 1; q < n && !target[q]; ++q) {
            const BcInst &u = p.insts[q];
            for (int32_t r : readsOf(u))
                nreads += r == in.dst;
            if (nreads == 0 && !clobbered) {
                int32_t loc = u.op == Bc::AStore ? -(u.imm + 1)
                              : bcWritesDst(u.op)        ? u.dst
                                                 : scratch;
                clobbered = loc < scratch &&
                            std::find(rs.begin(), rs.end(), loc) != rs.end();
            }
            if ((bcWritesDst(u.op) && u.dst == in.dst) || u.op == Bc::Jz ||
                u.op == Bc::Jmp || nreads > 1)
                break;
        }
        if (nreads != 1 || clobbered)
            local[pc] = nlocals++;
    }
    return local;
}

/**
 * Translate @p k's program into `static void T<t>`. Each instruction
 * computes exactly what bcRunBatch computes for one lane; slots are
 * read and written in place, which is what bcRunBatch's gather and
 * scatter amount to, since a block's array words never alias its net
 * slots. Immediates are literals, so g++ still folds masks and shifts.
 *
 * Scratch past the temps holds intermediate values. A definition that
 * scratchLocals lets inline is emitted inside the expression that reads
 * it rather than as a statement of its own, which rebuilds the IR's
 * expression trees: g++ then sees whole expressions, and Mux arms are
 * evaluated lazily, as `?:`. Any other definition is assigned to its
 * own local.
 */
void
emitKernel(std::ostringstream &os, int t, const Kernel &k,
           const Elaboration &elab)
{
    const BcProgram &p = *k.prog;
    const int nslots = p.nslots;
    const int imms = p.immBase();
    const int temps = p.scratchBase();
    const int scratch = temps + p.ntemps;
    const std::vector<int> local = scratchLocals(p);
    std::vector<std::string> pending(p.nscratch);
    std::vector<int> local_of(p.nscratch, -1); //!< per word: its local
    auto literal = [&](int32_t r) { return r >= imms && r < temps; };
    auto reg = [&](int32_t r) -> std::string {
        if (r < nslots)
            return "b[" + k.slot[r] + "]";
        if (r < imms)
            return "c" + std::to_string(r - nslots);
        if (r < temps)
            return hex(p.imms[r - imms]);
        if (r < scratch)
            return "t" + std::to_string(r - temps);
        if (!pending[r - scratch].empty())
            return "(" + std::exchange(pending[r - scratch], {}) + ")";
        assert(local_of[r - scratch] >= 0);
        return "s" + std::to_string(local_of[r - scratch]);
    };
    auto masked = [](const std::string &v, uint64_t mask) {
        return mask == ~uint64_t(0) ? v : v + " & " + hex(mask);
    };

    os << "// " << k.blocks.size() << " instance(s) of "
       << elab.blocks[k.blocks[0]].name << "\n"
       << "static void T" << t
       << "(uint64_t *b, const int32_t *o, const uint64_t *c)\n{\n";
    for (int i = 0; i < k.slotCols; ++i)
        os << "    const int32_t o" << i << " = o[" << i << "];\n";
    for (int i = 0; i < p.nconsts; ++i)
        os << "    const uint64_t c" << i << " = c[" << i << "];\n";
    for (int j = 0; j < p.ntemps; ++j)
        os << (j ? ", t" : "    uint64_t t") << j << " = 0";
    if (p.ntemps)
        os << ";\n";
    int nlocals = 0;
    for (int l : local)
        nlocals = std::max(nlocals, l + 1);
    for (int j = 0; j < nlocals; ++j)
        os << (j ? ", s" : "    uint64_t s") << j;
    if (nlocals)
        os << ";\n";

    std::vector<char> target(p.insts.size() + 1, 0);
    for (const BcInst &in : p.insts) {
        if (in.op == Bc::Jz || in.op == Bc::Jmp)
            target[in.imm] = 1;
    }
    for (size_t pc = 0; pc <= p.insts.size(); ++pc) {
        if (target[pc])
            os << "  L" << pc << ":;\n";
        if (pc == p.insts.size())
            break;
        const BcInst &in = p.insts[pc];
        const std::string m = std::to_string(in.imm);
        std::string v;
        auto binop = [&](const char *op) {
            v = masked("(" + reg(in.a) + op + reg(in.b) + ")", in.mask);
        };
        auto compare = [&](const char *op) {
            v = "uint64_t(" + reg(in.a) + op + reg(in.b) + ")";
        };
        switch (in.op) {
          case Bc::Mov: v = masked(reg(in.a), in.mask); break;
          case Bc::Add: binop(" + "); break;
          case Bc::Sub: binop(" - "); break;
          case Bc::Mul: binop(" * "); break;
          case Bc::And: binop(" & "); break;
          case Bc::Or: binop(" | "); break;
          case Bc::Xor: binop(" ^ "); break;
          case Bc::Shl:
          case Bc::Shr: {
            const bool left = in.op == Bc::Shl;
            if (!literal(in.b)) {
                v = masked(std::string(left ? "cmtl_shl(" : "cmtl_shr(") +
                               reg(in.a) + ", " + reg(in.b) + ")",
                           in.mask);
            } else if (uint64_t amt = p.imms[in.b - imms]; amt >= 64) {
                v = "0";
            } else {
                v = masked("(" + reg(in.a) + (left ? " << " : " >> ") +
                               std::to_string(amt) + ")",
                           in.mask);
            }
            break;
          }
          case Bc::Sra:
            v = masked("cmtl_sra(" + reg(in.a) + ", " + m + ", " +
                           reg(in.b) + ")",
                       in.mask);
            break;
          case Bc::Eq: compare(" == "); break;
          case Bc::Ne: compare(" != "); break;
          case Bc::Lt: compare(" < "); break;
          case Bc::Le: compare(" <= "); break;
          case Bc::Gt: compare(" > "); break;
          case Bc::Ge: compare(" >= "); break;
          case Bc::LAnd:
            v = "uint64_t(" + reg(in.a) + " != 0 && " + reg(in.b) + " != 0)";
            break;
          case Bc::LOr:
            v = "uint64_t(" + reg(in.a) + " != 0 || " + reg(in.b) + " != 0)";
            break;
          case Bc::Inv: v = masked("~" + reg(in.a), in.mask); break;
          case Bc::LNot: v = "uint64_t(" + reg(in.a) + " == 0)"; break;
          case Bc::ROr: v = "uint64_t(" + reg(in.a) + " != 0)"; break;
          case Bc::RAnd:
            v = "uint64_t(" + reg(in.a) + " == " + hex(in.mask) + ")";
            break;
          case Bc::RXor:
            v = "uint64_t(__builtin_popcountll(" + reg(in.a) + ") & 1)";
            break;
          case Bc::Slice:
            v = masked("(" + reg(in.a) + " >> " + std::to_string(in.sh) +
                           ")",
                       in.mask);
            break;
          case Bc::SetSlice: {
            const std::string d = reg(in.dst);
            v = "(" + d + " & " + hex(~(in.mask << in.sh)) + ") | ((" +
                reg(in.a) + " & " + hex(in.mask) + ") << " +
                std::to_string(in.sh) + ")";
            break;
          }
          case Bc::Mux:
            v = masked("(" + reg(in.c) + " ? " + reg(in.a) + " : " +
                           reg(in.b) + ")",
                       in.mask);
            break;
          case Bc::Sext:
            v = masked("cmtl_sext(" + reg(in.a) + ", " + m + ")", in.mask);
            break;
          case Bc::ALoad:
            v = "(b + " + k.slot[in.imm] + ")[" + reg(in.a) + " & " +
                hex(static_cast<uint64_t>(in.c)) + "]";
            break;
          case Bc::AStore: {
            const std::string idx = reg(in.a);
            os << "    (b + " << k.slot[in.imm] << ")[" << idx << " & "
               << hex(static_cast<uint64_t>(in.c))
               << "] = " << masked(reg(in.b), in.mask) << ";\n";
            continue;
          }
          case Bc::Jz:
            os << "    if (!" << reg(in.a) << ") goto L" << m << ";\n";
            continue;
          case Bc::Jmp:
            os << "    goto L" << m << ";\n";
            continue;
        }
        if (in.dst < scratch) {
            os << "    " << reg(in.dst) << " = " << v << ";\n";
        } else if (local[pc] < 0) {
            pending[in.dst - scratch] = std::move(v);
        } else {
            local_of[in.dst - scratch] = local[pc];
            os << "    s" << local[pc] << " = " << v << ";\n";
        }
    }
    os << "}\n\n";
}

/** The shared translation-unit header (helpers used by every kernel). */
void
emitPrelude(std::ostringstream &os, const Elaboration &elab)
{
    os << "// Generated by CMTL SimJIT-C++ specializer.\n"
       << "// Design: " << elab.top->fullName() << "\n"
       << "#include <cstdint>\n\n"
       << "static inline uint64_t cmtl_shl(uint64_t a, uint64_t n)\n"
       << "{ return n >= 64 ? 0 : a << n; }\n"
       << "static inline uint64_t cmtl_shr(uint64_t a, uint64_t n)\n"
       << "{ return n >= 64 ? 0 : a >> n; }\n"
       << "static inline uint64_t cmtl_sra(uint64_t a, int nb, uint64_t n)\n"
       << "{ int64_t v = (int64_t)(a << (64 - nb)) >> (64 - nb);\n"
       << "  return (uint64_t)(v >> (n > 63 ? 63 : (int)n)); }\n"
       << "static inline uint64_t cmtl_sext(uint64_t a, int nb)\n"
       << "{ return (uint64_t)((int64_t)(a << (64 - nb)) >> (64 - nb)); }\n"
       << "\n";
}

template <class T>
void
emitTable(std::ostringstream &os, const char *type, const std::string &name,
          const std::vector<T> &values)
{
    os << "static const " << type << " " << name << "[] = {";
    for (size_t i = 0; i < values.size(); ++i)
        os << (i % 16 ? " " : "\n    ") << values[i] << ",";
    os << "\n};\n";
}

} // namespace

std::string
cppGroupSymbol(int k)
{
    return "cmtl_grp_" + std::to_string(k);
}

CppProgram
cppEmitProgram(const Elaboration &elab, const ArenaStore &store,
               const BcModule &bc, const std::vector<CppUnit> &units)
{
    // One kernel per program the units run, numbered by first use.
    std::vector<Kernel> kernels;
    std::unordered_map<const BcProgram *, int> kernel_of_prog;
    struct Call
    {
        int kernel = -1;
        int inst = -1;
    };
    std::vector<Call> calls(elab.blocks.size());
    for (const CppUnit &unit : units) {
        for (const CppUnit::Item &item : unit.items) {
            if (item.block < 0 || calls[item.block].kernel >= 0)
                continue;
            const BcProgram *prog = bc.instance(item.block).prog;
            auto [it, fresh] = kernel_of_prog.try_emplace(
                prog, static_cast<int>(kernels.size()));
            if (fresh)
                kernels.emplace_back().prog = prog;
            Kernel &k = kernels[it->second];
            calls[item.block] = {it->second,
                                 static_cast<int>(k.blocks.size())};
            k.blocks.push_back(item.block);
        }
    }
    std::vector<int32_t> tab;
    std::vector<uint64_t> ctab;
    CppProgram out;
    out.kernelTypes = static_cast<int>(kernels.size());
    std::ostringstream os;
    emitPrelude(os, elab);
    for (size_t t = 0; t < kernels.size(); ++t) {
        resolveSlots(kernels[t], bc, tab);
        tableConsts(kernels[t], bc, ctab);
        out.tabledSlots += kernels[t].slotCols;
        emitKernel(os, static_cast<int>(t), kernels[t], elab);
    }
    // Every call passes both tables, so both exist.
    tab.resize(std::max<size_t>(tab.size(), 1));
    ctab.resize(std::max<size_t>(ctab.size(), 1));
    emitTable(os, "int32_t", "tab", tab);
    std::vector<std::string> lits;
    for (uint64_t v : ctab)
        lits.push_back(hex(v));
    emitTable(os, "uint64_t", "ctab", lits);

    // Entry points; each run of one kernel's instances is one loop over
    // its table of {base, tab row, ctab row} entries.
    std::ostringstream entries;
    int nruns = 0;
    for (size_t u = 0; u < units.size(); ++u) {
        const std::vector<CppUnit::Item> &items = units[u].items;
        entries << "extern \"C\" void "
                << cppGroupSymbol(static_cast<int>(u))
                << "(uint64_t *w)\n{\n";
        for (size_t i = 0; i < items.size();) {
            const CppUnit::Item &item = items[i];
            if (item.block >= 0) {
                const int kn = calls[item.block].kernel;
                const Kernel &k = kernels[kn];
                size_t j = i + 1;
                while (j < items.size() && items[j].block >= 0 &&
                       calls[items[j].block].kernel == kn)
                    ++j;
                auto row = [&](const CppUnit::Item &it) {
                    return k.args[calls[it.block].inst];
                };
                if (j - i == 1) {
                    const std::array<int, 3> &r = row(item);
                    entries << "    T" << kn << "(w + " << r[0] << ", tab + "
                            << r[1] << ", ctab + " << r[2] << "); // "
                            << elab.blocks[item.block].name << "\n";
                } else {
                    std::vector<int> run;
                    for (size_t r = i; r < j; ++r) {
                        const std::array<int, 3> &f = row(items[r]);
                        run.insert(run.end(), f.begin(), f.end());
                    }
                    const std::string name = "run" + std::to_string(nruns++);
                    emitTable(os, "int32_t", name, run);
                    entries << "    for (const int32_t *e = " << name
                            << "; e != " << name << " + " << run.size()
                            << "; e += 3)\n        T" << kn
                            << "(w + e[0], tab + e[1], ctab + e[2]);\n";
                }
                i = j;
                continue;
            }
            if (item.unit >= 0) {
                entries << "    " << cppGroupSymbol(item.unit) << "(w);\n";
            } else {
                // Coalesced flop range: straight word copies, long
                // runs as a loop the compiler turns into memmove.
                int cur = item.rangeOff;
                int nxt = cur + store.wordsPerPhase();
                if (item.rangeWords <= 4) {
                    for (int wd = 0; wd < item.rangeWords; ++wd) {
                        entries << "    w[" << cur + wd << "] = w["
                                << nxt + wd << "];\n";
                    }
                } else {
                    entries << "    for (int i = 0; i < " << item.rangeWords
                            << "; ++i) w[" << cur << " + i] = w[" << nxt
                            << " + i];\n";
                }
            }
            ++i;
        }
        entries << "}\n\n";
    }
    os << "\n" << entries.str();
    out.source = os.str();
    return out;
}

} // namespace cmtl
