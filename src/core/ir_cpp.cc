#include "ir_cpp.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <map>
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
    /** Per constant operand: its column, or -1 for a literal. */
    std::vector<int> col;
    int slotCols = 0;
    int constCols = 0;
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
 * Decide how each constant operand of @p k is read: a literal when it
 * is equal on every instance, else a column of the instance's row of
 * @p ctab. Operands whose values agree on every instance share one
 * column.
 */
void
resolveConsts(Kernel &k, const BcModule &bc, std::vector<uint64_t> &ctab)
{
    auto value = [&](size_t i, int j) {
        return bc.instance(k.blocks[i]).consts[j];
    };
    std::map<std::vector<uint64_t>, int> col_of;
    std::vector<int> first; //!< per column: an operand holding it
    for (int j = 0; j < k.prog->nconsts; ++j) {
        bool same = true;
        for (size_t i = 1; i < k.blocks.size() && same; ++i)
            same = value(i, j) == value(0, j);
        if (same) {
            k.col.push_back(-1);
            continue;
        }
        std::vector<uint64_t> values;
        for (size_t i = 0; i < k.blocks.size(); ++i)
            values.push_back(value(i, j));
        auto [it, fresh] = col_of.try_emplace(
            std::move(values), static_cast<int>(first.size()));
        if (fresh)
            first.push_back(j);
        k.col.push_back(it->second);
    }
    k.constCols = static_cast<int>(first.size());
    for (size_t i = 0; i < k.blocks.size(); ++i) {
        k.args[i][2] = static_cast<int>(ctab.size());
        for (int j : first)
            ctab.push_back(value(i, j));
    }
}

/**
 * Translate @p k's program into `static void T<t>`. Each instruction
 * computes exactly what bcRunBatch computes for one lane; slots are
 * read and written in place, which is what bcRunBatch's gather and
 * scatter amount to, since a block's array words never alias its net
 * slots.
 *
 * Scratch past the temps holds an expression's intermediate values:
 * bcCompile defines each one once and reads it once, later in the same
 * statement, with no store in between. Such a value is emitted inside
 * the expression that reads it rather than as a statement of its own,
 * which rebuilds the IR's expression trees: g++ then sees whole
 * expressions, and Mux arms are evaluated lazily, as `?:`.
 */
void
emitKernel(std::ostringstream &os, int t, const Kernel &k,
           const BcModule &bc, const Elaboration &elab)
{
    const BcProgram &p = *k.prog;
    const int nslots = p.nslots;
    const int nconsts = p.nconsts;
    const int scratch = nslots + nconsts;
    const uint64_t *consts = bc.instance(k.blocks[0]).consts;
    std::vector<std::string> pending(p.nscratch);
    auto literal = [&](int32_t r) {
        return r >= nslots && r < scratch && k.col[r - nslots] < 0;
    };
    auto inlined = [&](int32_t r) { return r >= scratch + p.ntemps; };
    auto reg = [&](int32_t r) -> std::string {
        if (r < nslots)
            return "b[" + k.slot[r] + "]";
        if (r < scratch) {
            int col = k.col[r - nslots];
            return col < 0 ? hex(consts[r - nslots])
                           : "c" + std::to_string(col);
        }
        if (inlined(r)) {
            assert(!pending[r - scratch].empty());
            return "(" + std::exchange(pending[r - scratch], {}) + ")";
        }
        return "t" + std::to_string(r - scratch);
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
    for (int i = 0; i < k.constCols; ++i)
        os << "    const uint64_t c" << i << " = c[" << i << "];\n";
    for (int j = 0; j < p.ntemps; ++j)
        os << (j ? ", t" : "    uint64_t t") << j << " = 0";
    if (p.ntemps)
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
            } else if (uint64_t amt = consts[in.b - nslots]; amt >= 64) {
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
        if (inlined(in.dst))
            pending[in.dst - scratch] = std::move(v);
        else
            os << "    " << reg(in.dst) << " = " << v << ";\n";
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
        resolveConsts(kernels[t], bc, ctab);
        out.tabledSlots += kernels[t].slotCols;
        emitKernel(os, static_cast<int>(t), kernels[t], bc, elab);
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
