#include "ir_cpp.h"

#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "analyze.h"

namespace cmtl {

namespace {

std::string
maskHex(int nbits)
{
    uint64_t mask =
        nbits >= 64 ? ~uint64_t(0) : ((uint64_t(1) << nbits) - 1);
    std::ostringstream os;
    os << "0x" << std::hex << mask << "ull";
    return os.str();
}

/** Bracket a slot number inside a block body (see BlockEmitter). */
constexpr char kSlotOpen = '\x01';
constexpr char kSlotClose = '\x02';

/**
 * Emits the body of one block against its local slots. Every arena
 * word the block touches (a net's current or next word, an array's
 * base) becomes a slot, numbered in first-use order, and the text names
 * it only by that number. Two instances of one block type therefore
 * emit the same text whatever their arena placement; the text is the
 * block's fingerprint. Masks stay in the text, so instances whose
 * nets differ in width fingerprint differently.
 */
class BlockEmitter
{
  public:
    BlockEmitter(const ElabBlock &blk, const ArenaStore &store)
        : blk_(blk), store_(store)
    {}

    /** The fingerprint text. */
    std::string
    run()
    {
        for (size_t i = 0; i < blk_.ir->temps.size(); ++i) {
            pad(4);
            os_ << "uint64_t t" << i << " = 0; (void)t" << i << ";\n";
        }
        emitStmts(blk_.ir->stmts, 4);
        return os_.str();
    }

    /** Absolute arena word of each slot, in slot order. */
    const std::vector<int> &slots() const { return slots_; }

  private:
    void
    pad(int indent)
    {
        os_ << std::string(indent, ' ');
    }

    /** Placeholder for the offset of arena word @p word from `b`. */
    std::string
    slot(int word)
    {
        auto [it, fresh] =
            slot_of_.try_emplace(word, static_cast<int>(slots_.size()));
        if (fresh)
            slots_.push_back(word);
        return kSlotOpen + std::to_string(it->second) + kSlotClose;
    }

    std::string
    cur(int net)
    {
        return "b[" + slot(store_.offset(net)) + "]";
    }

    std::string
    nxt(int net)
    {
        return "b[" + slot(store_.offset(net) + store_.wordsPerPhase()) +
               "]";
    }

    /**
     * Emit "<dst> = <rhs>;": a plain masked store for a full-width
     * assign, a read-modify-write of the field for a partial one.
     * @p lsb/@p width describe a partial assign (width < 0 = full).
     */
    void
    emitAssign(const std::string &dst, int net, int lsb, int width,
               const std::string &rhs)
    {
        if (width < 0) {
            os_ << dst << " = " << rhs << " & "
                << maskHex(store_.nbits(net)) << ";\n";
            return;
        }
        std::string m = maskHex(width);
        os_ << dst << " = (" << dst << " & ~(" << m << " << " << lsb
            << ")) | ((" << rhs << " & " << m << ") << " << lsb
            << ");\n";
    }

    /** Open-bracketed base of an array element access. */
    std::string
    arrayBase(int id)
    {
        return "b[" + slot(store_.arrayOffset(id)) + " + ";
    }

    // Sub-expressions are emitted in sequenced statements so slot
    // numbering (first-use order) never depends on the unspecified
    // evaluation order of operator+ operands.
    std::string
    expr(const IrExprNode *e)
    {
        // Collapse whole constant subtrees (the analyzer's folder
        // shares exact simulation semantics, so the emitted literal
        // matches what the interpreted backends compute).
        if (e->kind != IrExprNode::Kind::Const && e->nbits <= 64) {
            if (auto folded = irConstFold(e)) {
                std::ostringstream os;
                os << "0x" << std::hex << folded->toUint64() << "ull";
                return os.str();
            }
        }
        switch (e->kind) {
          case IrExprNode::Kind::Const: {
            std::ostringstream os;
            os << "0x" << std::hex << e->cval.toUint64() << "ull";
            return os.str();
          }
          case IrExprNode::Kind::Ref:
            return cur(e->sig->netId());
          case IrExprNode::Kind::Temp:
            return "t" + std::to_string(e->temp);
          case IrExprNode::Kind::BinOp: {
            std::string a = expr(e->args[0].get());
            std::string b = expr(e->args[1].get());
            std::string m = maskHex(e->nbits);
            switch (e->op) {
              case IrOp::Add: return "((" + a + " + " + b + ") & " + m + ")";
              case IrOp::Sub: return "((" + a + " - " + b + ") & " + m + ")";
              case IrOp::Mul: return "((" + a + " * " + b + ") & " + m + ")";
              case IrOp::And: return "(" + a + " & " + b + ")";
              case IrOp::Or: return "(" + a + " | " + b + ")";
              case IrOp::Xor: return "(" + a + " ^ " + b + ")";
              case IrOp::Shl:
                return "(cmtl_shl(" + a + ", " + b + ") & " + m + ")";
              case IrOp::Shr:
                return "cmtl_shr(" + a + ", " + b + ")";
              case IrOp::Sra:
                return "(cmtl_sra(" + a + ", " +
                       std::to_string(e->args[0]->nbits) + ", " + b +
                       ") & " + m + ")";
              case IrOp::Eq: return "uint64_t(" + a + " == " + b + ")";
              case IrOp::Ne: return "uint64_t(" + a + " != " + b + ")";
              case IrOp::Lt: return "uint64_t(" + a + " < " + b + ")";
              case IrOp::Le: return "uint64_t(" + a + " <= " + b + ")";
              case IrOp::Gt: return "uint64_t(" + a + " > " + b + ")";
              case IrOp::Ge: return "uint64_t(" + a + " >= " + b + ")";
              case IrOp::LAnd:
                return "uint64_t((" + a + " != 0) && (" + b + " != 0))";
              case IrOp::LOr:
                return "uint64_t((" + a + " != 0) || (" + b + " != 0))";
            }
            throw std::logic_error("unhandled binop");
          }
          case IrExprNode::Kind::UnOp: {
            std::string a = expr(e->args[0].get());
            switch (e->unop) {
              case IrUnOp::Inv:
                return "(~" + a + " & " + maskHex(e->nbits) + ")";
              case IrUnOp::LNot:
                return "uint64_t(" + a + " == 0)";
              case IrUnOp::ReduceOr:
                return "uint64_t(" + a + " != 0)";
              case IrUnOp::ReduceAnd:
                return "uint64_t(" + a +
                       " == " + maskHex(e->args[0]->nbits) + ")";
              case IrUnOp::ReduceXor:
                return "(uint64_t)(__builtin_popcountll(" + a + ") & 1)";
            }
            throw std::logic_error("unhandled unop");
          }
          case IrExprNode::Kind::Slice: {
            std::string a = expr(e->args[0].get());
            return "((" + a + " >> " + std::to_string(e->lsb) + ") & " +
                   maskHex(e->nbits) + ")";
          }
          case IrExprNode::Kind::Concat: {
            // Most-significant part first.
            std::string out;
            int pos = e->nbits;
            for (const auto &argp : e->args) {
                pos -= argp->nbits;
                std::string part = expr(argp.get());
                if (pos != 0)
                    part = "(" + part + " << " + std::to_string(pos) + ")";
                out = out.empty() ? part : "(" + out + " | " + part + ")";
            }
            return out;
          }
          case IrExprNode::Kind::Mux: {
            std::string c = expr(e->args[0].get());
            std::string a = expr(e->args[1].get());
            std::string b = expr(e->args[2].get());
            return "((" + c + ") ? uint64_t(" + a + ") : uint64_t(" + b +
                   "))";
          }
          case IrExprNode::Kind::Zext:
            return expr(e->args[0].get());
          case IrExprNode::Kind::Sext: {
            std::string a = expr(e->args[0].get());
            return "(cmtl_sext(" + a + ", " +
                   std::to_string(e->args[0]->nbits) + ") & " +
                   maskHex(e->nbits) + ")";
          }
          case IrExprNode::Kind::ARead: {
            int id = e->array->arrayId();
            std::string base = arrayBase(id);
            std::string idx = expr(e->args[0].get());
            return base + "((" + idx + ") & " +
                   std::to_string(store_.arrayIndexMask(id)) + "ull)]";
          }
        }
        throw std::logic_error("unhandled expr kind");
    }

    void
    emitStmts(const std::vector<IrStmt> &stmts, int indent)
    {
        bool seq = blk_.ir->sequential;
        for (const IrStmt &s : stmts) {
            switch (s.kind) {
              case IrStmt::Kind::Assign: {
                pad(indent);
                if (s.temp >= 0 && !s.sig) {
                    os_ << "t" << s.temp << " = " << expr(s.rhs.get())
                        << ";\n";
                    break;
                }
                int net = s.sig->netId();
                std::string dst =
                    (seq && s.nonblocking) ? nxt(net) : cur(net);
                emitAssign(dst, net, s.lsb, s.width, expr(s.rhs.get()));
                break;
              }
              case IrStmt::Kind::If:
                pad(indent);
                os_ << "if (" << expr(s.cond.get()) << ") {\n";
                emitStmts(s.thenBody, indent + 4);
                if (!s.elseBody.empty()) {
                    pad(indent);
                    os_ << "} else {\n";
                    emitStmts(s.elseBody, indent + 4);
                }
                pad(indent);
                os_ << "}\n";
                break;
              case IrStmt::Kind::AWrite: {
                pad(indent);
                int id = s.array->arrayId();
                os_ << arrayBase(id) << "((" << expr(s.cond.get())
                    << ") & " << store_.arrayIndexMask(id)
                    << "ull)] = " << expr(s.rhs.get()) << " & "
                    << maskHex(s.array->nbits()) << ";\n";
                break;
              }
            }
        }
    }

    const ElabBlock &blk_;
    const ArenaStore &store_;
    std::ostringstream os_;
    std::vector<int> slots_;
    std::unordered_map<int, int> slot_of_;
};

/** One emitted kernel: a distinct block body and its instances. */
struct Kernel
{
    std::string body;    //!< fingerprint text
    int first_block = 0; //!< an instance, named in the kernel comment
    std::vector<std::vector<int>> slots; //!< per instance, per slot
    std::vector<std::string> ref;        //!< per slot: offset from `b`
    std::vector<int> row; //!< per instance: table row, or -1
};

/** The instance base: its first slot (0 for a block touching none). */
int
baseOf(const std::vector<int> &slots)
{
    return slots.empty() ? 0 : slots[0];
}

/**
 * Decide how each slot of @p k is addressed. A slot whose offset from
 * the instance base is the same on every instance is a constant; the
 * rest read the instance's row of @p table.
 */
void
resolveSlots(Kernel &k, std::vector<int32_t> &table)
{
    const std::vector<int> &first = k.slots[0];
    std::vector<size_t> tabled;
    for (size_t s = 0; s < first.size(); ++s) {
        const int rel = first[s] - first[0];
        bool fixed = true;
        for (const std::vector<int> &inst : k.slots)
            fixed = fixed && inst[s] - inst[0] == rel;
        if (fixed) {
            k.ref.push_back(std::to_string(rel));
        } else {
            k.ref.push_back("o[" + std::to_string(tabled.size()) + "]");
            tabled.push_back(s);
        }
    }
    for (const std::vector<int> &inst : k.slots) {
        k.row.push_back(tabled.empty() ? -1
                                       : static_cast<int>(table.size()));
        for (size_t s : tabled)
            table.push_back(inst[s] - inst[0]);
    }
}

/** Substitute resolved slot offsets into a fingerprint. */
std::string
resolveBody(const std::string &body, const std::vector<std::string> &ref)
{
    std::string out;
    out.reserve(body.size());
    size_t pos = 0;
    for (size_t at; (at = body.find(kSlotOpen, pos)) != std::string::npos;) {
        size_t end = body.find(kSlotClose, at);
        out.append(body, pos, at - pos);
        out += ref[std::stoul(body.substr(at + 1, end - at - 1))];
        pos = end + 1;
    }
    out.append(body, pos);
    return out;
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

} // namespace

std::string
cppGroupSymbol(int k)
{
    return "cmtl_grp_" + std::to_string(k);
}

CppProgram
cppEmitProgram(const Elaboration &elab, const ArenaStore &store,
               const std::vector<std::vector<int>> &groups)
{
    std::vector<CppUnit> units(groups.size());
    for (size_t k = 0; k < groups.size(); ++k) {
        for (int blk : groups[k])
            units[k].items.push_back(CppUnit::Item{blk});
    }
    return cppEmitProgram(elab, store, units);
}

CppProgram
cppEmitProgram(const Elaboration &elab, const ArenaStore &store,
               const std::vector<CppUnit> &units)
{
    // Fingerprint every block once; identical bodies share a kernel.
    std::vector<Kernel> kernels;
    std::unordered_map<std::string, int> kernel_of;
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
            BlockEmitter em(elab.blocks[item.block], store);
            std::string body = em.run();
            auto [it, fresh] = kernel_of.try_emplace(
                body, static_cast<int>(kernels.size()));
            if (fresh)
                kernels.push_back(Kernel{std::move(body), item.block});
            Kernel &k = kernels[it->second];
            calls[item.block] = {it->second,
                                 static_cast<int>(k.slots.size())};
            k.slots.push_back(em.slots());
        }
    }
    std::vector<int32_t> table;
    for (Kernel &k : kernels)
        resolveSlots(k, table);

    std::ostringstream os;
    emitPrelude(os, elab);
    for (size_t t = 0; t < kernels.size(); ++t) {
        const Kernel &k = kernels[t];
        os << "// " << k.slots.size() << " instance(s) of "
           << elab.blocks[k.first_block].name << "\n"
           << "static void T" << t << "(uint64_t *b"
           << (k.row[0] >= 0 ? ", const int32_t *o" : "") << ")\n{\n"
           << resolveBody(k.body, k.ref) << "}\n\n";
    }
    if (!table.empty()) {
        os << "static const int32_t tab[] = {";
        for (size_t i = 0; i < table.size(); ++i)
            os << (i % 16 ? " " : "\n    ") << table[i] << ",";
        os << "\n};\n\n";
    }

    for (size_t u = 0; u < units.size(); ++u) {
        os << "extern \"C\" void " << cppGroupSymbol(static_cast<int>(u))
           << "(uint64_t *w)\n{\n";
        for (const CppUnit::Item &item : units[u].items) {
            if (item.block >= 0) {
                const Call &c = calls[item.block];
                const Kernel &k = kernels[c.kernel];
                os << "    T" << c.kernel << "(w + "
                   << baseOf(k.slots[c.inst]);
                if (k.row[c.inst] >= 0)
                    os << ", tab + " << k.row[c.inst];
                os << "); // " << elab.blocks[item.block].name << "\n";
            } else if (item.unit >= 0) {
                os << "    " << cppGroupSymbol(item.unit) << "(w);\n";
            } else {
                // Coalesced flop range: straight word copies, long
                // runs as a loop the compiler turns into memmove.
                int cur = item.rangeOff;
                int nxt = cur + store.wordsPerPhase();
                if (item.rangeWords <= 4) {
                    for (int wd = 0; wd < item.rangeWords; ++wd) {
                        os << "    w[" << cur + wd << "] = w["
                           << nxt + wd << "];\n";
                    }
                } else {
                    os << "    for (int i = 0; i < " << item.rangeWords
                       << "; ++i) w[" << cur << " + i] = w[" << nxt
                       << " + i];\n";
                }
            }
        }
        os << "}\n\n";
    }
    return CppProgram{os.str(), static_cast<int>(kernels.size())};
}

} // namespace cmtl
