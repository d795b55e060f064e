#include "translate.h"

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace cmtl {

namespace {

/** Sanitize an instance/signal name into a Verilog identifier. */
std::string
vlogId(const std::string &name)
{
    std::string out;
    for (char c : name) {
        if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '_')
            out += c;
        else
            out += '_';
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
        out = "v_" + out;
    return out;
}

std::string
vlogConst(const Bits &value)
{
    std::string hex = value.toHexString().substr(2);
    return std::to_string(value.nbits()) + "'h" + hex;
}

std::string
vlogRange(int nbits)
{
    if (nbits == 1)
        return "";
    return "[" + std::to_string(nbits - 1) + ":0] ";
}

/** Emits one module definition for a model class. */
class ModuleEmitter
{
  public:
    ModuleEmitter(const Model &model) : model_(model) {}

    std::string
    run()
    {
        collectRegs();
        collectConnections();
        emitHeader();
        emitDecls();
        emitChildInstances();
        emitAssigns();
        emitBlocks();
        os_ << "endmodule\n";
        return os_.str();
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw std::logic_error("translation of model '" +
                               model_.fullName() + "' (" +
                               model_.typeName() + "): " + msg);
    }

    /** Signals written by any IR block become Verilog regs. */
    void
    collectRegs()
    {
        for (const IrBlock *ir : model_.ownIrBlocks()) {
            const IrBlock &blk = *ir;
            const IrBlockSummary sum = irSummarize(blk);
            for (Signal *sig : sum.writes) {
                if (sig->owner() != &model_)
                    fail("block '" + blk.name +
                         "' writes a foreign signal " + sig->fullName());
                regs_.insert(sig);
            }
            for (Signal *sig : sum.reads) {
                if (sig->owner() != &model_)
                    fail("block '" + blk.name +
                         "' reads a foreign signal " + sig->fullName());
            }
        }
    }

    void
    emitHeader()
    {
        os_ << "module " << vlogId(model_.typeName()) << "\n(\n";
        os_ << "  input  wire clk";
        for (const Signal *sig : model_.ownSignals()) {
            if (sig->dir() == SignalDir::Wire)
                continue;
            os_ << ",\n";
            if (sig->dir() == SignalDir::Input) {
                os_ << "  input  wire " << vlogRange(sig->nbits())
                    << vlogId(sig->name());
            } else {
                bool is_reg = regs_.count(const_cast<Signal *>(sig)) > 0;
                os_ << "  output " << (is_reg ? "reg  " : "wire ")
                    << vlogRange(sig->nbits()) << vlogId(sig->name());
            }
        }
        os_ << "\n);\n\n";
    }

    void
    emitDecls()
    {
        // Memory arrays.
        for (const MemArray *array : model_.ownArrays()) {
            os_ << "  reg  " << vlogRange(array->nbits())
                << vlogId(array->name()) << " [0:"
                << (array->depth() - 1) << "];\n";
        }
        // Internal wires.
        for (const Signal *sig : model_.ownSignals()) {
            if (sig->dir() != SignalDir::Wire)
                continue;
            bool is_reg = regs_.count(const_cast<Signal *>(sig)) > 0;
            os_ << "  " << (is_reg ? "reg  " : "wire ")
                << vlogRange(sig->nbits()) << vlogId(sig->name())
                << ";\n";
        }
        // Wires for child-to-child connections and child outputs.
        for (const auto &[name, nbits] : extra_wires_)
            os_ << "  wire " << vlogRange(nbits) << name << ";\n";
        // Block temporaries.
        int blk_idx = 0;
        for (const IrBlock *ir : model_.ownIrBlocks()) {
            const IrBlock &blk = *ir;
            for (size_t t = 0; t < blk.temps.size(); ++t) {
                os_ << "  reg  " << vlogRange(blk.temps[t].nbits)
                    << tempName(blk_idx, static_cast<int>(t), blk)
                    << ";\n";
            }
            ++blk_idx;
        }
        os_ << "\n";
    }

    std::string
    tempName(int blk_idx, int temp_idx, const IrBlock &blk) const
    {
        return vlogId(blk.name) + "_" + std::to_string(blk_idx) + "__" +
               vlogId(blk.temps[temp_idx].name);
    }

    /**
     * Resolve what every child port connects to inside this module's
     * scope, creating intermediate wires for child-child links.
     */
    void
    collectConnections()
    {
        std::vector<std::pair<const Signal *, const Signal *>>
            parent_aliases;
        for (const auto &[a, b] : model_.ownConnections()) {
            const Signal *pa = a;
            const Signal *pb = b;
            bool a_child = pa->owner() != &model_;
            bool b_child = pb->owner() != &model_;
            if (a_child && pa->owner()->parent() != &model_)
                fail("connection reaches through hierarchy: " +
                     pa->fullName());
            if (b_child && pb->owner()->parent() != &model_)
                fail("connection reaches through hierarchy: " +
                     pb->fullName());
            if (a_child && b_child) {
                // Child-to-child: route through a generated wire.
                std::string wname = "w_" + vlogId(pa->owner()->instName()) +
                                    "_" + vlogId(pa->name());
                auto [it, fresh] =
                    child_wire_.try_emplace(pa, wname);
                if (fresh)
                    extra_wires_.emplace_back(wname, pa->nbits());
                child_wire_.try_emplace(pb, it->second);
            } else if (a_child || b_child) {
                const Signal *child = a_child ? pa : pb;
                const Signal *parent = a_child ? pb : pa;
                peer_[child] = parent;
            } else {
                parent_aliases.emplace_back(pa, pb);
            }
        }
        parent_aliases_ = parent_aliases;
    }

    void
    emitChildInstances()
    {
        for (const Model *child : model_.children()) {
            os_ << "  " << vlogId(child->typeName()) << " "
                << vlogId(child->instName()) << "\n  (\n"
                << "    .clk(clk)";
            for (const Signal *sig : child->ownSignals()) {
                if (sig->dir() == SignalDir::Wire)
                    continue;
                os_ << ",\n    ." << vlogId(sig->name()) << "(";
                if (sig == &child->reset) {
                    os_ << "reset";
                } else if (auto it = child_wire_.find(sig);
                           it != child_wire_.end()) {
                    os_ << it->second;
                } else if (auto pit = peer_.find(sig);
                           pit != peer_.end()) {
                    os_ << vlogId(pit->second->name());
                } else {
                    // Unconnected port: leave open.
                }
                os_ << ")";
            }
            os_ << "\n  );\n\n";
        }
    }

    void
    emitAssigns()
    {
        for (const auto &[a, b] : parent_aliases_) {
            // Direction heuristic: drive the output/wire from the input.
            const Signal *dst = a;
            const Signal *src = b;
            if (a->dir() == SignalDir::Input) {
                dst = b;
                src = a;
            }
            os_ << "  assign " << vlogId(dst->name()) << " = "
                << vlogId(src->name()) << ";\n";
        }
        if (!parent_aliases_.empty())
            os_ << "\n";
    }

    std::string
    expr(IrView e, const IrBlock &blk, int blk_idx)
    {
        switch (e.kind()) {
          case IrKind::Const:
            return vlogConst(e.value());
          case IrKind::Ref:
            return vlogId(e.sig()->name());
          case IrKind::Temp:
            return tempName(blk_idx, e.temp(), blk);
          case IrKind::BinOp: {
            std::string a = expr(e.arg(0), blk, blk_idx);
            std::string b = expr(e.arg(1), blk, blk_idx);
            const char *op = nullptr;
            switch (e.op()) {
              case IrOp::Add: op = "+"; break;
              case IrOp::Sub: op = "-"; break;
              case IrOp::Mul: op = "*"; break;
              case IrOp::And: op = "&"; break;
              case IrOp::Or: op = "|"; break;
              case IrOp::Xor: op = "^"; break;
              case IrOp::Shl: op = "<<"; break;
              case IrOp::Shr: op = ">>"; break;
              case IrOp::Sra: op = ">>>"; break;
              case IrOp::Eq: op = "=="; break;
              case IrOp::Ne: op = "!="; break;
              case IrOp::Lt: op = "<"; break;
              case IrOp::Le: op = "<="; break;
              case IrOp::Gt: op = ">"; break;
              case IrOp::Ge: op = ">="; break;
              case IrOp::LAnd: op = "&&"; break;
              case IrOp::LOr: op = "||"; break;
            }
            if (e.op() == IrOp::Sra) {
                return "($signed(" + a + ") >>> " + b + ")";
            }
            return "(" + a + " " + op + " " + b + ")";
          }
          case IrKind::UnOp: {
            std::string a = expr(e.arg(0), blk, blk_idx);
            switch (e.unop()) {
              case IrUnOp::Inv: return "(~" + a + ")";
              case IrUnOp::LNot: return "(!" + a + ")";
              case IrUnOp::ReduceOr: return "(|" + a + ")";
              case IrUnOp::ReduceAnd: return "(&" + a + ")";
              case IrUnOp::ReduceXor: return "(^" + a + ")";
            }
            fail("unhandled unary op");
          }
          case IrKind::Slice: {
            IrView base = e.arg(0);
            if (base.kind() != IrKind::Ref && base.kind() != IrKind::Temp)
                fail("block '" + blk.name +
                     "': Verilog cannot slice a compound expression; "
                     "bind it to a temporary with let() first");
            std::string name = expr(base, blk, blk_idx);
            if (e.nbits() == 1)
                return name + "[" + std::to_string(e.lsb()) + "]";
            return name + "[" + std::to_string(e.lsb() + e.nbits() - 1) +
                   ":" + std::to_string(e.lsb()) + "]";
          }
          case IrKind::Concat: {
            std::string out = "{";
            for (IrView part : e.args()) {
                if (out.size() > 1)
                    out += ", ";
                out += expr(part, blk, blk_idx);
            }
            return out + "}";
          }
          case IrKind::Mux:
            return "(" + expr(e.arg(0), blk, blk_idx) + " ? " +
                   expr(e.arg(1), blk, blk_idx) + " : " +
                   expr(e.arg(2), blk, blk_idx) + ")";
          case IrKind::Zext: {
            int pad = e.nbits() - e.arg(0).nbits();
            if (pad <= 0)
                return expr(e.arg(0), blk, blk_idx);
            return "{{" + std::to_string(pad) + "{1'b0}}, " +
                   expr(e.arg(0), blk, blk_idx) + "}";
          }
          case IrKind::ARead: {
            if (e.array()->owner() != &model_)
                fail("array read reaches a foreign array " +
                     e.array()->fullName());
            return vlogId(e.array()->name()) + "[" +
                   expr(e.arg(0), blk, blk_idx) + "]";
          }
          case IrKind::Sext: {
            IrView base = e.arg(0);
            // The sign bit must be individually selectable: the base
            // must be a (possibly sliced) signal or temporary.
            std::string msb;
            if (base.kind() == IrKind::Ref || base.kind() == IrKind::Temp) {
                msb = expr(base, blk, blk_idx) + "[" +
                      std::to_string(base.nbits() - 1) + "]";
            } else if (base.kind() == IrKind::Slice &&
                       (base.arg(0).kind() == IrKind::Ref ||
                        base.arg(0).kind() == IrKind::Temp)) {
                msb = expr(base.arg(0), blk, blk_idx) + "[" +
                      std::to_string(base.lsb() + base.nbits() - 1) + "]";
            } else {
                fail("sext of a compound expression; use let() first");
            }
            int pad = e.nbits() - base.nbits();
            std::string name = expr(base, blk, blk_idx);
            if (pad <= 0)
                return name;
            return "{{" + std::to_string(pad) + "{" + msb + "}}, " +
                   name + "}";
          }
        }
        fail("unhandled expression kind");
        return {};
    }

    void
    emitStmts(const std::vector<IrStmt> &stmts, const IrBlock &blk,
              int blk_idx, int indent)
    {
        std::string pad(indent, ' ');
        for (const IrStmt &s : stmts) {
            switch (s.kind) {
              case IrStmt::Kind::Assign: {
                os_ << pad;
                const char *assign_op =
                    (blk.sequential && s.nonblocking) ? "<=" : "=";
                if (s.temp >= 0 && !s.sig) {
                    os_ << tempName(blk_idx, s.temp, blk) << " = "
                        << expr(s.rhs, blk, blk_idx) << ";\n";
                    break;
                }
                os_ << vlogId(s.sig->name());
                if (s.width >= 0) {
                    if (s.width == 1)
                        os_ << "[" << s.lsb << "]";
                    else
                        os_ << "[" << (s.lsb + s.width - 1) << ":"
                            << s.lsb << "]";
                }
                os_ << " " << assign_op << " "
                    << expr(s.rhs, blk, blk_idx) << ";\n";
                break;
              }
              case IrStmt::Kind::If:
                os_ << pad << "if ("
                    << expr(s.cond, blk, blk_idx) << ") begin\n";
                emitStmts(s.thenBody, blk, blk_idx, indent + 2);
                if (!s.elseBody.empty()) {
                    os_ << pad << "end else begin\n";
                    emitStmts(s.elseBody, blk, blk_idx, indent + 2);
                }
                os_ << pad << "end\n";
                break;
              case IrStmt::Kind::AWrite:
                if (s.array->owner() != &model_)
                    fail("array write reaches a foreign array " +
                         s.array->fullName());
                os_ << pad << vlogId(s.array->name()) << "["
                    << expr(s.cond, blk, blk_idx)
                    << "] <= " << expr(s.rhs, blk, blk_idx)
                    << ";\n";
                break;
            }
        }
    }

    void
    emitBlocks()
    {
        int blk_idx = 0;
        for (const IrBlock *ir : model_.ownIrBlocks()) {
            const IrBlock &blk = *ir;
            os_ << "  // " << blk.name << "\n";
            if (blk.sequential)
                os_ << "  always @(posedge clk) begin\n";
            else
                os_ << "  always @(*) begin\n";
            emitStmts(blk.stmts, blk, blk_idx, 4);
            os_ << "  end\n\n";
            ++blk_idx;
        }
    }

    const Model &model_;
    std::ostringstream os_;
    std::set<const Signal *> regs_;
    std::vector<std::pair<std::string, int>> extra_wires_;
    std::unordered_map<const Signal *, std::string> child_wire_;
    std::unordered_map<const Signal *, const Signal *> peer_;
    std::vector<std::pair<const Signal *, const Signal *>>
        parent_aliases_;
};

} // namespace

std::string
TranslationTool::translate(const Elaboration &elab)
{
    // One module per distinct typeName, children before parents.
    std::map<std::string, const Model *> modules;
    for (const Model *m : elab.models) {
        // Reject lambda blocks anywhere in the hierarchy.
        auto it = modules.find(m->typeName());
        if (it == modules.end())
            modules.emplace(m->typeName(), m);
    }
    for (const Model *m : elab.models) {
        bool has_lambda = false;
        for (const ElabBlock &blk : elab.blocks) {
            if (blk.model == m && !blk.ir) {
                has_lambda = true;
                break;
            }
        }
        if (has_lambda) {
            throw std::logic_error(
                "model '" + m->fullName() + "' (" + m->typeName() +
                ") contains non-RTL lambda blocks and is not "
                "translatable");
        }
    }

    std::ostringstream os;
    os << "//" << std::string(70, '-') << "\n"
       << "// Generated by the CMTL TranslationTool\n"
       << "// Top-level module: " << vlogId(elab.top->typeName()) << "\n"
       << "//" << std::string(70, '-') << "\n\n";
    for (auto it = modules.rbegin(); it != modules.rend(); ++it)
        os << ModuleEmitter(*it->second).run() << "\n";
    return os.str();
}

std::string
TranslationTool::translateToFile(const Elaboration &elab,
                                 const std::string &path)
{
    std::string source = translate(elab);
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << source;
    return source;
}

} // namespace cmtl
