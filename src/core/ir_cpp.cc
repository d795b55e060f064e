#include "ir_cpp.h"

#include <algorithm>
#include <cassert>
#include <sstream>
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

/**
 * Decide how @p prog's kernel addresses each slot over the module's
 * instances @p blocks of it. The base is the first slot whose word
 * differs across instances: a slot at the same offset from it on every
 * instance is a literal; the rest are read from the row. Returns each
 * slot's offset from `b` as the kernel spells it.
 */
std::vector<std::string>
resolveSlots(CppKernel &k, const BcProgram &prog, const BcModule &bc,
             const std::vector<int> &blocks)
{
    const int nslots = prog.nslots;
    auto word = [&](size_t i, int s) {
        return bc.instance(blocks[i]).slots[s];
    };
    int bs = -1;
    for (int s = 0; s < nslots && bs < 0; ++s) {
        for (size_t i = 1; i < blocks.size() && bs < 0; ++i) {
            if (word(i, s) != word(0, s))
                bs = s;
        }
    }
    k.baseSlot = std::max(bs, 0);
    std::vector<std::string> slot;
    for (int s = 0; s < nslots; ++s) {
        const int rel = word(0, s) - word(0, k.baseSlot);
        bool fixed = true;
        for (size_t i = 1; i < blocks.size() && fixed; ++i)
            fixed = word(i, s) - word(i, k.baseSlot) == rel;
        if (fixed) {
            slot.push_back(std::to_string(rel));
        } else {
            slot.push_back("o" + std::to_string(k.tabled.size()));
            k.tabled.push_back(s);
        }
    }
    return slot;
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
 * Translate program @p t into the kernel `cmtl_k<t>`: a loop over
 * n rows whose body is the program. Each instruction computes exactly
 * what bcRunBatch computes for one lane; slots are read and written in
 * place, which is what bcRunBatch's gather and scatter amount to,
 * since a block's array words never alias its net slots. @p slot spells
 * each slot's offset from the row's base `b`. Immediates are literals,
 * so g++ still folds masks and shifts.
 *
 * Scratch past the temps holds intermediate values. A definition that
 * scratchLocals lets inline is emitted inside the expression that reads
 * it rather than as a statement of its own, which rebuilds the IR's
 * expression trees: g++ then sees whole expressions. Any other
 * definition is assigned to its own local.
 *
 * Only Jz and Jmp branch. A Mux is cmtl_mux, a mask select over arms
 * already evaluated, and LAnd and LOr are `(a != 0) & (b != 0)` and
 * `(a | b) != 0`, so g++ -O1 emits no conditional jump for them. Their
 * selects and handshakes change every cycle, and as `?:`, `&&` and
 * `||` they cost more in mispredicted branches than both arms cost to
 * compute (see DESIGN.md).
 */
void
emitKernel(std::ostringstream &os, int t, const BcProgram &p,
           const CppKernel &k, const std::vector<std::string> &slot)
{
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
            return "b[" + slot[r] + "]";
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

    const size_t ntabled = k.tabled.size();
    os << "// program " << t << ": " << nslots << " slot(s), " << ntabled
       << " tabled, " << p.nconsts << " constant column(s)\n"
       << "extern \"C\" void cmtl_k" << t
       << "(uint64_t *w, const int32_t *rows, const uint64_t *consts, "
          "int n)\n{\n"
       << "    for (int i = 0; i < n; ++i, rows += " << 1 + ntabled;
    if (p.nconsts)
        os << ", consts += " << p.nconsts;
    os << ") {\n"
       << "        uint64_t *const b = w + rows[0];\n";
    for (size_t i = 0; i < ntabled; ++i)
        os << "        const int32_t o" << i << " = rows[" << i + 1
           << "];\n";
    for (int i = 0; i < p.nconsts; ++i)
        os << "        const uint64_t c" << i << " = consts[" << i
           << "];\n";
    for (int j = 0; j < p.ntemps; ++j)
        os << (j ? ", t" : "        uint64_t t") << j << " = 0";
    if (p.ntemps)
        os << ";\n";
    int nlocals = 0;
    for (int l : local)
        nlocals = std::max(nlocals, l + 1);
    for (int j = 0; j < nlocals; ++j)
        os << (j ? ", s" : "        uint64_t s") << j;
    if (nlocals)
        os << ";\n";

    std::vector<char> target(p.insts.size() + 1, 0);
    for (const BcInst &in : p.insts) {
        if (in.op == Bc::Jz || in.op == Bc::Jmp)
            target[in.imm] = 1;
    }
    for (size_t pc = 0; pc <= p.insts.size(); ++pc) {
        if (target[pc])
            os << "      L" << pc << ":;\n";
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
            v = "uint64_t((" + reg(in.a) + " != 0) & (" + reg(in.b) +
                " != 0))";
            break;
          case Bc::LOr:
            v = "uint64_t((" + reg(in.a) + " | " + reg(in.b) + ") != 0)";
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
            v = masked("cmtl_mux(" + reg(in.c) + ", " + reg(in.a) + ", " +
                           reg(in.b) + ")",
                       in.mask);
            break;
          case Bc::Sext:
            v = masked("cmtl_sext(" + reg(in.a) + ", " + m + ")", in.mask);
            break;
          case Bc::ALoad:
            v = "(b + " + slot[in.imm] + ")[" + reg(in.a) + " & " +
                hex(static_cast<uint64_t>(in.c)) + "]";
            break;
          case Bc::AStore: {
            const std::string idx = reg(in.a);
            os << "        (b + " << slot[in.imm] << ")[" << idx << " & "
               << hex(static_cast<uint64_t>(in.c))
               << "] = " << masked(reg(in.b), in.mask) << ";\n";
            continue;
          }
          case Bc::Jz:
            os << "        if (!" << reg(in.a) << ") goto L" << m << ";\n";
            continue;
          case Bc::Jmp:
            os << "        goto L" << m << ";\n";
            continue;
        }
        if (in.dst < scratch) {
            os << "        " << reg(in.dst) << " = " << v << ";\n";
        } else if (local[pc] < 0) {
            pending[in.dst - scratch] = std::move(v);
        } else {
            local_of[in.dst - scratch] = local[pc];
            os << "        s" << local[pc] << " = " << v << ";\n";
        }
    }
    os << "    }\n}\n\n";
}

/** The shared translation-unit header (helpers used by every kernel). */
void
emitPrelude(std::ostringstream &os)
{
    os << "// Generated by CMTL SimJIT-C++: one kernel per block type.\n"
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
       << "static inline uint64_t cmtl_mux(uint64_t c, uint64_t a, "
          "uint64_t b)\n"
       << "{ uint64_t m = -(uint64_t)(c != 0); return (a & m) | (b & ~m); }\n"
       << "\n";
}

} // namespace

CppProgram
cppEmitProgram(const BcModule &bc)
{
    CppProgram out;
    std::ostringstream os;
    emitPrelude(os);
    for (int t = 0; t < bc.numPrograms(); ++t) {
        const std::vector<int> &blocks = bc.instancesOf(t);
        const BcProgram &prog = *bc.instance(blocks.front()).prog;
        CppKernel &k = out.kernels.emplace_back();
        const std::vector<std::string> slot =
            resolveSlots(k, prog, bc, blocks);
        out.tabledSlots += static_cast<int>(k.tabled.size());
        emitKernel(os, t, prog, k, slot);
    }
    out.source = os.str();
    return out;
}

CppBatch
cppBatch(const CppProgram &prog, const BcModule &bc,
         const std::vector<int> &blocks)
{
    CppBatch out;
    out.kernel = bc.programOf(blocks.front());
    out.n = static_cast<int>(blocks.size());
    const CppKernel &k = prog.kernels[out.kernel];
    for (int b : blocks) {
        const BcInstance &inst = bc.instance(b);
        const int base = inst.prog->nslots ? inst.slots[k.baseSlot] : 0;
        out.rows.push_back(base);
        for (int s : k.tabled)
            out.rows.push_back(inst.slots[s] - base);
        out.consts.insert(out.consts.end(), inst.consts,
                          inst.consts + inst.prog->nconsts);
    }
    return out;
}

} // namespace cmtl
