#include "ir_bytecode.h"

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

namespace cmtl {

namespace {

/**
 * Compiles one block into bytecode. While compiling, a register is
 * encoded by kind: a slot s as s, a constant k as kConstTag + k and a
 * scratch word j as -(j + 1). Slot and constant counts are known only
 * at the end, when relocate() turns every register into its frame
 * index.
 */
class Compiler
{
  public:
    Compiler(const ElabBlock &blk, const ArenaStore &store)
        : blk_(blk), store_(store)
    {}

    BcBlock
    run()
    {
        // Persistent scratch words for declared temps.
        temp_reg_.resize(blk_.ir->temps.size());
        for (size_t i = 0; i < temp_reg_.size(); ++i)
            temp_reg_[i] = allocScratch();
        persistent_scratch_ = next_scratch_;
        compileStmts(blk_.ir->stmts);

        BcProgram &prog = out_.prog;
        prog.nslots = static_cast<int>(out_.slots.size());
        prog.nconsts = static_cast<int>(out_.consts.size());
        prog.ntemps = persistent_scratch_;
        prog.nscratch = max_scratch_;
        for (BcInst &in : prog.insts)
            relocate(in);
        for (size_t s = 0; s < written_.size(); ++s) {
            if (written_[s])
                prog.written.push_back(static_cast<int32_t>(s));
        }
        return std::move(out_);
    }

  private:
    static constexpr int32_t kConstTag = int32_t(1) << 30;

    int32_t
    allocScratch()
    {
        int slot = next_scratch_++;
        max_scratch_ = std::max(max_scratch_, next_scratch_);
        return -(slot + 1);
    }

    /**
     * Local slot of arena word @p word, numbered in first-use order. A
     * block touches few words, so a scan beats a hash map here.
     */
    int32_t
    slot(int word)
    {
        auto it = std::find(out_.slots.begin(), out_.slots.end(), word);
        if (it != out_.slots.end())
            return static_cast<int32_t>(it - out_.slots.begin());
        out_.slots.push_back(word);
        written_.push_back(0);
        return static_cast<int32_t>(out_.slots.size() - 1);
    }

    /** A fresh constant operand: numbered by occurrence, not value. */
    int32_t
    constant(uint64_t value)
    {
        out_.consts.push_back(value);
        return kConstTag + static_cast<int32_t>(out_.consts.size() - 1);
    }

    void
    relocate(BcInst &in) const
    {
        const int32_t nslots = static_cast<int32_t>(out_.slots.size());
        const int32_t nconsts = static_cast<int32_t>(out_.consts.size());
        auto frame = [&](int32_t &r) {
            if (r < 0)
                r = nslots + nconsts + (-r - 1);
            else if (r >= kConstTag)
                r = nslots + (r - kConstTag);
        };
        frame(in.dst);
        frame(in.a);
        frame(in.b);
        if (in.op == Bc::Mux)
            frame(in.c);
    }

    void
    emit(BcInst inst)
    {
        out_.prog.insts.push_back(inst);
    }

    int32_t
    curSlot(int net)
    {
        return slot(store_.offset(net));
    }

    int32_t
    nxtSlot(int net)
    {
        return slot(store_.offset(net) + store_.wordsPerPhase());
    }

    /** Compile an expression; returns the register holding the value. */
    int32_t
    compileExpr(IrView e)
    {
        switch (e.kind()) {
          case IrKind::Const:
            return constant(e.word());
          case IrKind::Ref:
            return curSlot(e.sig()->netId());
          case IrKind::Temp:
            return temp_reg_[e.temp()];
          case IrKind::BinOp: {
            int32_t a = compileExpr(e.arg(0));
            int32_t b = compileExpr(e.arg(1));
            int32_t dst = allocScratch();
            Bc op = Bc::Add;
            int32_t imm = 0;
            switch (e.op()) {
              case IrOp::Add: op = Bc::Add; break;
              case IrOp::Sub: op = Bc::Sub; break;
              case IrOp::Mul: op = Bc::Mul; break;
              case IrOp::And: op = Bc::And; break;
              case IrOp::Or: op = Bc::Or; break;
              case IrOp::Xor: op = Bc::Xor; break;
              case IrOp::Shl: op = Bc::Shl; break;
              case IrOp::Shr: op = Bc::Shr; break;
              case IrOp::Sra:
                op = Bc::Sra;
                imm = e.arg(0).nbits();
                break;
              case IrOp::Eq: op = Bc::Eq; break;
              case IrOp::Ne: op = Bc::Ne; break;
              case IrOp::Lt: op = Bc::Lt; break;
              case IrOp::Le: op = Bc::Le; break;
              case IrOp::Gt: op = Bc::Gt; break;
              case IrOp::Ge: op = Bc::Ge; break;
              case IrOp::LAnd: op = Bc::LAnd; break;
              case IrOp::LOr: op = Bc::LOr; break;
              default:
                throw std::logic_error("unhandled binop");
            }
            emit({op, 0, dst, a, b, 0, imm, widthMask(e.nbits())});
            return dst;
          }
          case IrKind::UnOp: {
            int32_t a = compileExpr(e.arg(0));
            int32_t dst = allocScratch();
            Bc op = Bc::Inv;
            uint64_t mask = widthMask(e.nbits());
            switch (e.unop()) {
              case IrUnOp::Inv: op = Bc::Inv; break;
              case IrUnOp::LNot: op = Bc::LNot; break;
              case IrUnOp::ReduceOr: op = Bc::ROr; break;
              case IrUnOp::ReduceAnd:
                // The result is one bit; mask carries the operand's
                // all-ones value instead.
                op = Bc::RAnd;
                mask = widthMask(e.arg(0).nbits());
                break;
              case IrUnOp::ReduceXor: op = Bc::RXor; break;
            }
            emit({op, 0, dst, a, 0, 0, 0, mask});
            return dst;
          }
          case IrKind::Slice: {
            int32_t a = compileExpr(e.arg(0));
            int32_t dst = allocScratch();
            emit({Bc::Slice, static_cast<uint8_t>(e.lsb()), dst, a, 0, 0, 0,
                  widthMask(e.nbits())});
            return dst;
          }
          case IrKind::Concat: {
            // Fold parts most-significant-first: acc = (acc << w) | part.
            int32_t acc = allocScratch();
            bool first = true;
            for (IrView argp : e.args()) {
                int32_t part = compileExpr(argp);
                if (first) {
                    emit({Bc::Mov, 0, acc, part, 0, 0, 0,
                          widthMask(argp.nbits())});
                    first = false;
                } else {
                    int32_t amt =
                        constant(static_cast<uint64_t>(argp.nbits()));
                    emit({Bc::Shl, 0, acc, acc, amt, 0, 0,
                          widthMask(e.nbits())});
                    emit({Bc::Or, 0, acc, acc, part, 0, 0,
                          widthMask(e.nbits())});
                }
            }
            return acc;
          }
          case IrKind::Mux: {
            int32_t c = compileExpr(e.arg(0));
            int32_t a = compileExpr(e.arg(1));
            int32_t b = compileExpr(e.arg(2));
            int32_t dst = allocScratch();
            emit({Bc::Mux, 0, dst, a, b, c, 0, widthMask(e.nbits())});
            return dst;
          }
          case IrKind::Zext:
            // Values are kept masked; widening is free.
            return compileExpr(e.arg(0));
          case IrKind::Sext: {
            int32_t a = compileExpr(e.arg(0));
            int32_t dst = allocScratch();
            emit({Bc::Sext, 0, dst, a, 0, 0, e.arg(0).nbits(),
                  widthMask(e.nbits())});
            return dst;
          }
          case IrKind::ARead: {
            int32_t idx = compileExpr(e.arg(0));
            int32_t dst = allocScratch();
            int id = e.array()->arrayId();
            emit({Bc::ALoad, 0, dst, idx, 0,
                  static_cast<int32_t>(store_.arrayIndexMask(id)),
                  slot(store_.arrayOffset(id)), widthMask(e.nbits())});
            return dst;
          }
        }
        throw std::logic_error("unhandled expr kind");
    }

    void
    compileStmts(const std::vector<IrStmt> &stmts)
    {
        bool seq = blk_.ir->sequential;
        for (const IrStmt &s : stmts) {
            int expr_base = next_scratch_;
            switch (s.kind) {
              case IrStmt::Kind::Assign: {
                int32_t rhs = compileExpr(s.rhs);
                if (s.temp >= 0 && !s.sig) {
                    emit({Bc::Mov, 0, temp_reg_[s.temp], rhs, 0, 0, 0,
                          widthMask(s.rhs.nbits())});
                } else {
                    int net = s.sig->netId();
                    int32_t dst =
                        (seq && s.nonblocking) ? nxtSlot(net) : curSlot(net);
                    written_[dst] = 1;
                    if (s.width < 0) {
                        emit({Bc::Mov, 0, dst, rhs, 0, 0, 0,
                              widthMask(store_.nbits(net))});
                    } else {
                        emit({Bc::SetSlice, static_cast<uint8_t>(s.lsb),
                              dst, rhs, 0, 0, 0, widthMask(s.width)});
                    }
                }
                break;
              }
              case IrStmt::Kind::AWrite: {
                int32_t idx = compileExpr(s.cond);
                int32_t val = compileExpr(s.rhs);
                int id = s.array->arrayId();
                emit({Bc::AStore, 0, 0, idx, val,
                      static_cast<int32_t>(store_.arrayIndexMask(id)),
                      slot(store_.arrayOffset(id)),
                      store_.arrayValueMask(id)});
                break;
              }
              case IrStmt::Kind::If: {
                auto &insts = out_.prog.insts;
                int32_t cond = compileExpr(s.cond);
                size_t jz_at = insts.size();
                emit({Bc::Jz, 0, 0, cond, 0, 0, 0, 0});
                compileStmts(s.thenBody);
                if (s.elseBody.empty()) {
                    insts[jz_at].imm = static_cast<int32_t>(insts.size());
                } else {
                    size_t jmp_at = insts.size();
                    emit({Bc::Jmp, 0, 0, 0, 0, 0, 0, 0});
                    insts[jz_at].imm = static_cast<int32_t>(insts.size());
                    compileStmts(s.elseBody);
                    insts[jmp_at].imm = static_cast<int32_t>(insts.size());
                }
                break;
              }
            }
            // Expression scratch is dead after the statement.
            next_scratch_ = std::max(expr_base, persistent_scratch_);
        }
    }

    const ElabBlock &blk_;
    const ArenaStore &store_;
    BcBlock out_;
    std::vector<char> written_; //!< per slot
    std::vector<int32_t> temp_reg_;
    int next_scratch_ = 0;
    int max_scratch_ = 0;
    int persistent_scratch_ = 0;
};

// ------------------------------------------------------------ optimizer

/** What an optimizer register names; Val is a single-def scratch value. */
enum class Rk : uint8_t
{
    Slot, Col, Imm, Temp, Val
};

struct Reg
{
    Rk k = Rk::Slot;
    int32_t i = 0;

    bool operator==(const Reg &) const = default;
};

/** An instruction with its operands as Regs; `in` keeps the rest. */
struct OInst
{
    BcInst in;
    Reg dst, a, b, c;
};

bool
isJump(Bc op)
{
    return op == Bc::Jz || op == Bc::Jmp;
}

/** Result is the raw value & mask, so a narrower mask may be folded in. */
bool
masksResult(Bc op)
{
    return op <= Bc::Sra || op == Bc::Inv || op == Bc::Slice ||
           op == Bc::Mux || op == Bc::Sext;
}

/** Result is 0 or 1; the mask is unused or names the operand's width. */
bool
boolResult(Bc op)
{
    return (op >= Bc::Eq && op <= Bc::LOr) ||
           (op >= Bc::LNot && op <= Bc::RXor);
}

bool
commutes(Bc op)
{
    switch (op) {
      case Bc::Add: case Bc::Mul: case Bc::And: case Bc::Or: case Bc::Xor:
      case Bc::Eq: case Bc::Ne: case Bc::LAnd: case Bc::LOr:
        return true;
      default:
        return false;
    }
}

/** Call @p f on every register operand @p x reads. */
template <class F>
void
forReads(OInst &x, F f)
{
    bcForEachRead(x.in.op, x.a, x.b, x.c, x.dst, f);
}

/**
 * The per-module optimization pass of ir_bytecode.h over one program:
 * constants, value numbering, forwarding and scratch compaction.
 */
class Optimizer
{
  public:
    /**
     * @p raw is a bcCompile program; @p consts holds, per instance of
     * it in the module, that instance's constant table.
     */
    Optimizer(const BcProgram &raw,
              const std::vector<const uint64_t *> &consts)
        : raw_(raw)
    {
        classifyConsts(consts);
        decode();
    }

    /**
     * The optimized program. @p cols receives, per constant column of
     * it, the raw constant operand whose per-instance values it holds.
     */
    BcProgram
    run(std::vector<int> &cols)
    {
        numberValues();
        forward();
        return encode(cols);
    }

  private:
    /** Constant operands equal everywhere are immediates, by value. */
    void
    classifyConsts(const std::vector<const uint64_t *> &consts)
    {
        std::map<std::vector<uint64_t>, int> col_of;
        for (int j = 0; j < raw_.nconsts; ++j) {
            const uint64_t v = consts[0][j];
            bool same = true;
            for (size_t i = 1; i < consts.size() && same; ++i)
                same = consts[i][j] == v;
            if (same) {
                const_reg_.push_back(immediate(v));
                continue;
            }
            std::vector<uint64_t> column;
            for (const uint64_t *row : consts)
                column.push_back(row[j]);
            auto [it, fresh] = col_of.try_emplace(
                std::move(column), static_cast<int>(col_src_.size()));
            if (fresh)
                col_src_.push_back(j);
            const_reg_.push_back({Rk::Col, it->second});
        }
    }

    /**
     * Turn frame indices into Regs, renaming each definition of an
     * expression scratch word to a fresh Val (scratch never lives
     * across a block boundary), and mark where blocks start.
     */
    void
    decode()
    {
        const size_t n = raw_.insts.size();
        start_.assign(n + 1, 0);
        start_[0] = 1;
        for (size_t pc = 0; pc < n; ++pc) {
            const BcInst &in = raw_.insts[pc];
            if (isJump(in.op)) {
                start_[in.imm] = 1;
                start_[pc + 1] = 1;
            }
        }
        const int cbase = raw_.nslots;
        const int tbase = cbase + raw_.nconsts;
        const int sbase = tbase + raw_.ntemps;
        std::vector<int> val_of(raw_.nscratch, -1);
        auto reg = [&](int32_t r) -> Reg {
            if (r < cbase)
                return {Rk::Slot, r};
            if (r < tbase)
                return const_reg_[r - cbase];
            if (r < sbase)
                return {Rk::Temp, r - tbase};
            if (val_of[r - sbase] < 0)
                throw std::logic_error("bytecode scratch read across blocks");
            return {Rk::Val, val_of[r - sbase]};
        };
        for (size_t pc = 0; pc < n; ++pc) {
            if (start_[pc])
                std::fill(val_of.begin(), val_of.end(), -1);
            OInst x{raw_.insts[pc], {}, {}, {}, {}};
            const Bc op = x.in.op;
            if (op != Bc::Jmp)
                x.a = reg(x.in.a);
            if (bcReadsB(op))
                x.b = reg(x.in.b);
            if (op == Bc::Mux)
                x.c = reg(x.in.c);
            if (bcWritesDst(op)) {
                if (x.in.dst >= sbase) {
                    val_of[x.in.dst - sbase] = nvals_;
                    x.dst = {Rk::Val, nvals_++};
                } else {
                    x.dst = reg(x.in.dst);
                }
            }
            code_.push_back(x);
        }
    }

    /** The immediate holding @p v, one per distinct value. */
    Reg
    immediate(uint64_t v)
    {
        auto [it, fresh] =
            imm_of_.try_emplace(v, static_cast<int>(imm_vals_.size()));
        if (fresh)
            imm_vals_.push_back(v);
        return {Rk::Imm, it->second};
    }

    /**
     * Fold @p x if it computes a value from immediates alone, so that
     * it becomes an immediate (or, when it writes a slot or temp, a Mov
     * of one); a Mux with an immediate select becomes a Mov of the arm
     * it selects, and a Jz on an immediate a Jmp or nothing. Returns
     * false if @p x is to be dropped.
     */
    bool
    fold(OInst &x, std::vector<Reg> &repl)
    {
        const Bc op = x.in.op;
        if (op == Bc::Jz) {
            if (x.a.k != Rk::Imm)
                return true;
            if (imm_vals_[x.a.i] != 0)
                return false; // never taken
            x.in.op = Bc::Jmp;
            return true;
        }
        if (isJump(op) || op == Bc::ALoad || op == Bc::AStore ||
            op == Bc::SetSlice)
            return true;
        bool all_imm = true;
        forReads(x, [&](Reg &r) { all_imm &= r.k == Rk::Imm; });
        if (all_imm) {
            auto val = [&](const Reg &r) {
                return r.k == Rk::Imm ? imm_vals_[r.i] : 0;
            };
            const Reg imm =
                immediate(evaluate(x.in, val(x.a), val(x.b), val(x.c)));
            if (x.dst.k == Rk::Val) {
                repl[x.dst.i] = imm;
                return false;
            }
            x.in = BcInst{};
            x.a = imm;
        } else if (op == Bc::Mux && x.c.k == Rk::Imm) {
            x.in.op = Bc::Mov;
            x.a = imm_vals_[x.c.i] ? x.a : x.b;
        }
        return true;
    }

    /**
     * What @p in computes from the values @p a, @p b and @p c of its
     * operands: the VM runs it once, on one lane.
     */
    static uint64_t
    evaluate(BcInst in, uint64_t a, uint64_t b, uint64_t c)
    {
        BcProgram prog;
        prog.imms = {a, b, c};
        prog.nscratch = 1;
        in.a = 0;
        in.b = 1;
        in.c = 2;
        in.dst = prog.scratchBase();
        prog.insts = {in};
        BcBatch batch;
        batch.prog = &prog;
        batch.nlanes = batch.width = 1;
        uint64_t frame[4] = {};
        bcRunBatch(batch, nullptr, frame);
        return frame[in.dst];
    }

    /** A new value number for a value that sets only @p bound's bits. */
    int
    newValue(uint64_t bound)
    {
        bound_.push_back(bound);
        return static_cast<int>(bound_.size() - 1);
    }

    /**
     * Value-number each basic block. A pure instruction whose value the
     * block already holds in a Val, an immediate or a column is
     * dropped, and its readers read that holder; then definitions
     * nothing reads are dropped.
     */
    void
    numberValues()
    {
        using Key = std::tuple<int, int, int32_t, int32_t, uint64_t, int,
                               int, int, int>;
        std::map<Key, int> table;
        std::map<std::pair<Rk, int32_t>, int> word_vn; //!< current values
        std::map<int, Reg> holder;                     //!< immutable holder
        std::map<int32_t, int> epoch;                  //!< per array slot
        std::vector<int> val_vn(nvals_, -1);
        std::vector<Reg> repl(nvals_);
        for (int v = 0; v < nvals_; ++v)
            repl[v] = {Rk::Val, v};
        std::vector<char> keep(code_.size(), 1);

        auto vnOf = [&](const Reg &r) {
            if (r.k == Rk::Val)
                return val_vn[r.i];
            auto [it, added] = word_vn.try_emplace({r.k, r.i}, -1);
            if (added) {
                it->second = newValue(r.k == Rk::Imm ? imm_vals_[r.i]
                                                     : ~uint64_t(0));
                if (r.k == Rk::Imm || r.k == Rk::Col)
                    holder.emplace(it->second, r);
            }
            return it->second;
        };

        for (size_t pc = 0; pc < code_.size(); ++pc) {
            if (start_[pc]) {
                table.clear();
                word_vn.clear();
                holder.clear();
                epoch.clear();
            }
            OInst &x = code_[pc];
            forReads(x, [&](Reg &r) {
                if (r.k == Rk::Val)
                    r = repl[r.i];
            });
            if (!fold(x, repl)) {
                keep[pc] = 0;
                continue;
            }
            const Bc op = x.in.op;
            if (isJump(op))
                continue;
            if (op == Bc::AStore) {
                ++epoch[x.in.imm];
                continue;
            }
            if (op == Bc::SetSlice) {
                word_vn[{x.dst.k, x.dst.i}] = newValue(~uint64_t(0));
                continue;
            }
            int va = vnOf(x.a);
            int vb = bcReadsB(op) ? vnOf(x.b) : -1;
            const int vc = op == Bc::Mux ? vnOf(x.c) : -1;
            if (commutes(op) && vb < va)
                std::swap(va, vb);
            int vn;
            if (op == Bc::Mov && (bound_[va] & ~x.in.mask) == 0) {
                vn = va; // the mask keeps every bit the value can have
            } else {
                const bool load = op == Bc::ALoad;
                Key key{static_cast<int>(op), x.in.sh, x.in.imm,
                        load ? x.in.c : 0, x.in.mask, va, vb, vc,
                        load ? epoch[x.in.imm] : 0};
                auto [it, added] = table.try_emplace(key, -1);
                if (added) {
                    it->second = newValue(masksResult(op)   ? x.in.mask
                                          : boolResult(op) ? 1
                                                           : ~uint64_t(0));
                }
                vn = it->second;
            }
            if (x.dst.k != Rk::Val) {
                word_vn[{x.dst.k, x.dst.i}] = vn;
                continue;
            }
            auto h = holder.find(vn);
            if (h != holder.end()) {
                repl[x.dst.i] = h->second;
                keep[pc] = 0;
                continue;
            }
            holder.emplace(vn, x.dst);
            val_vn[x.dst.i] = vn;
        }

        std::vector<char> live(nvals_, 0);
        for (size_t pc = code_.size(); pc-- > 0;) {
            OInst &x = code_[pc];
            if (!keep[pc])
                continue;
            if (x.dst.k == Rk::Val && bcWritesDst(x.in.op) &&
                !live[x.dst.i]) {
                keep[pc] = 0;
                continue;
            }
            forReads(x, [&](Reg &r) {
                if (r.k == Rk::Val)
                    live[r.i] = 1;
            });
        }
        drop(keep);
    }

    /** Remove the instructions @p keep clears, retargeting jumps. */
    void
    drop(const std::vector<char> &keep)
    {
        std::vector<int32_t> at(code_.size() + 1);
        std::vector<OInst> kept;
        for (size_t pc = 0; pc < code_.size(); ++pc) {
            at[pc] = static_cast<int32_t>(kept.size());
            if (keep[pc])
                kept.push_back(code_[pc]);
        }
        at[code_.size()] = static_cast<int32_t>(kept.size());
        for (OInst &x : kept) {
            if (isJump(x.in.op))
                x.in.imm = at[x.in.imm];
        }
        code_ = std::move(kept);
    }

    /**
     * Write a Val straight into the slot or temp of the Mov that is its
     * only reader and follows it.
     */
    void
    forward()
    {
        std::vector<int> uses(nvals_, 0);
        for (OInst &x : code_) {
            forReads(x, [&](Reg &r) {
                if (r.k == Rk::Val)
                    ++uses[r.i];
            });
        }
        std::vector<char> keep(code_.size(), 1);
        for (size_t pc = 0; pc + 1 < code_.size(); ++pc) {
            OInst &x = code_[pc];
            OInst &mov = code_[pc + 1];
            if (x.dst.k != Rk::Val || uses[x.dst.i] != 1 ||
                mov.in.op != Bc::Mov || mov.a != x.dst ||
                (mov.dst.k != Rk::Slot && mov.dst.k != Rk::Temp))
                continue;
            if (masksResult(x.in.op))
                x.in.mask &= mov.in.mask;
            else if (!boolResult(x.in.op) || !(mov.in.mask & 1))
                continue;
            x.dst = mov.dst;
            keep[pc + 1] = 0;
        }
        drop(keep);
    }

    /**
     * Number the immediates and columns the code still reads, pack Vals
     * into scratch words by linear scan over their live ranges, and
     * emit frame indices.
     */
    BcProgram
    encode(std::vector<int> &cols)
    {
        BcProgram out;
        std::vector<int> imm_at(imm_vals_.size(), -1);
        std::vector<int> col_at(col_src_.size(), -1);
        std::vector<int> last(nvals_, -1);
        for (size_t pc = 0; pc < code_.size(); ++pc) {
            forReads(code_[pc], [&](Reg &r) {
                if (r.k == Rk::Imm && imm_at[r.i] < 0) {
                    imm_at[r.i] = static_cast<int>(out.imms.size());
                    out.imms.push_back(imm_vals_[r.i]);
                } else if (r.k == Rk::Col && col_at[r.i] < 0) {
                    col_at[r.i] = static_cast<int>(cols.size());
                    cols.push_back(col_src_[r.i]);
                } else if (r.k == Rk::Val) {
                    last[r.i] = static_cast<int>(pc);
                }
            });
        }

        // A word is free again at its value's last read; the same
        // instruction may define into it, since every lane reads its
        // operands before it writes its result.
        std::vector<int> word(nvals_, -1);
        std::set<int> free;
        int nwords = 0;
        for (size_t pc = 0; pc < code_.size(); ++pc) {
            OInst &x = code_[pc];
            forReads(x, [&](Reg &r) {
                if (r.k == Rk::Val && last[r.i] == static_cast<int>(pc))
                    free.insert(word[r.i]);
            });
            if (bcWritesDst(x.in.op) && x.dst.k == Rk::Val) {
                if (free.empty()) {
                    word[x.dst.i] = nwords++;
                } else {
                    word[x.dst.i] = *free.begin();
                    free.erase(free.begin());
                }
            }
        }

        out.nslots = raw_.nslots;
        out.nconsts = static_cast<int>(cols.size());
        out.ntemps = raw_.ntemps;
        out.nscratch = raw_.ntemps + nwords;
        const int temps = out.scratchBase();
        auto frame = [&](const Reg &r) -> int32_t {
            switch (r.k) {
              case Rk::Slot: return r.i;
              case Rk::Col: return out.nslots + col_at[r.i];
              case Rk::Imm: return out.immBase() + imm_at[r.i];
              case Rk::Temp: return temps + r.i;
              case Rk::Val: return temps + out.ntemps + word[r.i];
            }
            return 0;
        };
        std::vector<char> written(out.nslots, 0);
        for (const OInst &x : code_) {
            BcInst in = x.in;
            const Bc op = in.op;
            if (op != Bc::Jmp)
                in.a = frame(x.a);
            if (bcReadsB(op))
                in.b = frame(x.b);
            if (op == Bc::Mux)
                in.c = frame(x.c);
            if (bcWritesDst(op)) {
                in.dst = frame(x.dst);
                if (x.dst.k == Rk::Slot)
                    written[x.dst.i] = 1;
            }
            out.insts.push_back(in);
        }
        for (int s = 0; s < out.nslots; ++s) {
            if (written[s])
                out.written.push_back(s);
        }
        return out;
    }

    const BcProgram &raw_;
    std::vector<Reg> const_reg_; //!< per raw constant operand
    std::vector<uint64_t> imm_vals_;
    std::unordered_map<uint64_t, int> imm_of_; //!< index in imm_vals_
    std::vector<int> col_src_; //!< per column: a raw operand
    std::vector<OInst> code_;
    std::vector<char> start_; //!< per raw pc, and the end: a block starts
    int nvals_ = 0;
    std::vector<uint64_t> bound_; //!< per value number: bits it may set
};

/** Hash of everything that makes two programs interchangeable. */
uint64_t
fingerprint(const BcProgram &p)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&](uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
        h ^= h >> 29;
    };
    mix(static_cast<uint64_t>(p.nslots) << 32 |
        static_cast<uint32_t>(p.nconsts));
    for (const BcInst &in : p.insts) {
        mix(static_cast<uint64_t>(in.op) | uint64_t(in.sh) << 8 |
            static_cast<uint64_t>(static_cast<uint32_t>(in.dst)) << 32);
        mix(static_cast<uint64_t>(static_cast<uint32_t>(in.a)) |
            static_cast<uint64_t>(static_cast<uint32_t>(in.b)) << 32);
        mix(static_cast<uint64_t>(static_cast<uint32_t>(in.c)) |
            static_cast<uint64_t>(static_cast<uint32_t>(in.imm)) << 32);
        mix(in.mask);
    }
    return h;
}

bool
sameProgram(const BcProgram &x, const BcProgram &y)
{
    return x.nslots == y.nslots && x.nconsts == y.nconsts &&
           x.insts == y.insts;
}

/** All ones when a shift by @p amt keeps any bit (amt < 64), else 0. */
inline uint64_t
inRange(uint64_t amt)
{
    return ~uint64_t(0) + (amt >= 64);
}

} // namespace

bool
bcSpecializable(const ElabBlock &blk)
{
    return blk.ir && blk.widest <= 64;
}

BcBlock
bcCompile(const ElabBlock &blk, const ArenaStore &store)
{
    return Compiler(blk, store).run();
}

BcModule::BcModule(const Elaboration &elab, const ArenaStore &store,
                   const std::vector<int> &blocks)
{
    // Blocks of one shape compile to one program, so only the first
    // block of each shape is compiled, and its tables are checked
    // against its record. Every block's slot table is its operand
    // record mapped to arena words, and its constants are its
    // literals. Programs intern by instruction stream with slot and
    // constant counts (scratch, temps and written slots follow from
    // it), so shapes that compile alike share one.
    struct Placed
    {
        int prog;
        size_t slots;
    };
    std::vector<Placed> placed(elab.blocks.size(), Placed{-1, 0});
    std::vector<int> prog_of_shape(elab.irShapes.size(), -1);
    std::vector<BcProgram> raw;
    std::unordered_multimap<uint64_t, int> prog_of;
    for (int b : blocks) {
        if (placed[b].prog >= 0)
            continue;
        const ElabBlock &blk = elab.blocks[b];
        const size_t at = slot_pool_.size();
        for (int32_t token : elab.operands(blk))
            slot_pool_.push_back(store.operandWord(token));
        int &prog = prog_of_shape[blk.shape];
        if (prog < 0) {
            BcBlock first = bcCompile(blk, store);
            const std::vector<uint64_t> literals = elab.literals(blk);
            if (!std::equal(first.slots.begin(), first.slots.end(),
                            slot_pool_.begin() + at, slot_pool_.end()) ||
                !std::equal(first.consts.begin(), first.consts.end(),
                            literals.begin(), literals.end()))
                throw std::logic_error("block " + blk.name +
                                       " compiles to operands other than "
                                       "its elaboration record");
            const uint64_t h = fingerprint(first.prog);
            auto [lo, hi] = prog_of.equal_range(h);
            for (auto it = lo; it != hi && prog < 0; ++it) {
                if (sameProgram(raw[it->second], first.prog))
                    prog = it->second;
            }
            if (prog < 0) {
                prog = static_cast<int>(raw.size());
                prog_of.emplace(h, prog);
                raw.push_back(std::move(first.prog));
                members_.emplace_back();
            }
        }
        members_[prog].push_back(b);
        placed[b] = {prog, at};
    }
    // Optimize each program once, against the constants of all its
    // instances; each instance keeps only the columns that vary.
    std::vector<size_t> const_at(elab.blocks.size(), 0);
    for (size_t p = 0; p < raw.size(); ++p) {
        // Each instance's literals, stamped from its shape's base and
        // its own exceptions.
        const size_t n = static_cast<size_t>(raw[p].nconsts);
        std::vector<uint64_t> table(members_[p].size() * n);
        std::vector<const uint64_t *> consts;
        for (size_t i = 0; i < members_[p].size(); ++i) {
            uint64_t *row = table.data() + i * n;
            elab.stampLiterals(elab.blocks[members_[p][i]], row);
            consts.push_back(row);
        }
        std::vector<int> cols;
        progs_.push_back(Optimizer(raw[p], consts).run(cols));
        max_frame_ = std::max(max_frame_, progs_.back().frameSize());
        for (size_t i = 0; i < members_[p].size(); ++i) {
            const_at[members_[p][i]] = const_pool_.size();
            for (int j : cols)
                const_pool_.push_back(consts[i][j]);
        }
    }
    // The pools are final: resolve every instance's pointers.
    insts_.resize(elab.blocks.size());
    for (size_t b = 0; b < placed.size(); ++b) {
        if (placed[b].prog >= 0) {
            insts_[b] = {&progs_[placed[b].prog],
                         slot_pool_.data() + placed[b].slots,
                         const_pool_.data() + const_at[b]};
        }
    }
}

BcBatch
BcModule::batch(const std::vector<int> &blocks) const
{
    BcBatch out;
    out.prog = insts_[blocks.front()].prog;
    out.nlanes = static_cast<int>(blocks.size());
    out.blocks = blocks;
    const int nslots = out.prog->nslots;
    const int nconsts = out.prog->nconsts;
    const size_t w = std::min<size_t>(blocks.size(), kBcLanes);
    out.width = static_cast<int>(w);
    const size_t chunks = (blocks.size() + w - 1) / w;
    // Lanes past the end of the last chunk are never gathered, loaded
    // through or scattered; zeros keep them harmless.
    out.slots.assign(chunks * nslots * w, 0);
    out.consts.assign(chunks * nconsts * w, 0);
    for (size_t i = 0; i < blocks.size(); ++i) {
        const BcInstance &inst = insts_[blocks[i]];
        if (inst.prog != out.prog)
            throw std::logic_error("batch lanes run different programs");
        const size_t c = i / w, l = i % w;
        for (int s = 0; s < nslots; ++s)
            out.slots[(c * nslots + s) * w + l] = inst.slots[s];
        for (int k = 0; k < nconsts; ++k)
            out.consts[(c * nconsts + k) * w + l] = inst.consts[k];
    }
    return out;
}

// One copy of the VM per x86-64 ISA level; the loader picks the widest
// the host runs, so the lane loops below use AVX2 or AVX-512 where the
// host has them. Elsewhere the VM is built for the baseline target, and
// so it is under TSan, whose runtime is not up yet when the loader runs
// the clones' resolver (g++ 12: the program crashes before main).
#if defined(__x86_64__) && defined(__linux__) && !defined(__clang__) && \
    __GNUC__ >= 11 && !defined(__SANITIZE_THREAD__)
#define CMTL_ISA_CLONES \
    [[gnu::target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")]]
#else
#define CMTL_ISA_CLONES
#endif

// The dispatch loop's speed depends on where it sits relative to cache
// lines: pin it to one, so code size changes elsewhere cannot move it.
CMTL_ISA_CLONES [[gnu::aligned(64)]] void
bcRunBatch(const BcBatch &batch, uint64_t *words, uint64_t *frame)
{
    const int W = batch.width;
    const BcProgram &prog = *batch.prog;
    const int nlanes = batch.nlanes;
    const int nslots = prog.nslots;
    const int nconsts = prog.nconsts;
    const BcInst *insts = prog.insts.data();
    const size_t ninsts = prog.insts.size();
    uint64_t *__restrict f = frame;

    // Immediates are equal on every lane and no instruction writes
    // them, so their rows are filled once for all chunks.
    for (size_t k = 0; k < prog.imms.size(); ++k)
        std::fill_n(f + (prog.immBase() + k) * W, W, prog.imms[k]);

    for (int first = 0; first < nlanes; first += W) {
        const int n = std::min(W, nlanes - first);
        const int32_t *slots = batch.slots.data() + first * nslots;
        const uint64_t *consts = batch.consts.data() + first * nconsts;
        // The frame never overlaps the arena, and a row names each
        // word at most once (a batch is an antichain), so the gather
        // and scatter loops carry no dependence.
        for (int s = 0; s < nslots; ++s) {
            const int32_t *row = slots + s * W;
            uint64_t *dst = f + s * W;
#pragma GCC ivdep
            for (int l = 0; l < n; ++l)
                dst[l] = words[row[l]];
        }
        // Rows are as wide as the batch, so a one-lane batch loads
        // no more than its own words. Only a partial last chunk also
        // loads padding lanes, which no instruction reads.
        std::copy_n(consts, nconsts * W, f + nslots * W);
        std::fill_n(f + prog.scratchBase() * W, prog.ntemps * W,
                    uint64_t(0));

        // The active lanes are lane[lo, hi). A Jz whose lanes disagree
        // splits them: the taken side waits in `pending` while the
        // rest run to the end of the program, so the sides never need
        // to reconverge. Sides are disjoint runs of `lane`, so at most
        // n of them are ever pending.
        uint8_t lane[kBcLanes];
        for (int l = 0; l < n; ++l)
            lane[l] = static_cast<uint8_t>(l);
        struct Side
        {
            size_t pc;
            int lo, hi;
        };
        Side pending[kBcLanes];
        int npending = 0;
        size_t pc = 0;
        int lo = 0, hi = n;

// Run BODY for every active lane l; all lanes active is a plain loop.
// Frame rows are either one row or disjoint, and BODY reads lane l and
// writes lane l only, so even with d == a the loop has no dependence
// from one lane to the next and g++ may vectorize it.
#define CMTL_LANES(BODY)                                                 \
    do {                                                                 \
        if (hi - lo == n) {                                              \
            _Pragma("GCC ivdep") for (int l = 0; l < n; ++l) {           \
                BODY;                                                    \
            }                                                            \
        } else {                                                         \
            for (int k = lo; k < hi; ++k) {                              \
                const int l = lane[k];                                   \
                BODY;                                                    \
            }                                                            \
        }                                                                \
    } while (0)

        for (;;) {
            if (pc >= ninsts) {
                if (npending == 0)
                    break;
                const Side &side = pending[--npending];
                pc = side.pc;
                lo = side.lo;
                hi = side.hi;
                continue;
            }
            const BcInst &in = insts[pc];
            uint64_t *d = f + in.dst * W;
            const uint64_t *a = f + in.a * W;
            const uint64_t *b = f + in.b * W;
            const uint64_t m = in.mask;
            switch (in.op) {
              case Bc::Mov:
                CMTL_LANES(d[l] = a[l] & m);
                break;
              case Bc::Add:
                CMTL_LANES(d[l] = (a[l] + b[l]) & m);
                break;
              case Bc::Sub:
                CMTL_LANES(d[l] = (a[l] - b[l]) & m);
                break;
              case Bc::Mul:
                CMTL_LANES(d[l] = (a[l] * b[l]) & m);
                break;
              case Bc::And:
                CMTL_LANES(d[l] = (a[l] & b[l]) & m);
                break;
              case Bc::Or:
                CMTL_LANES(d[l] = (a[l] | b[l]) & m);
                break;
              case Bc::Xor:
                CMTL_LANES(d[l] = (a[l] ^ b[l]) & m);
                break;
              case Bc::Shl:
                CMTL_LANES(d[l] = (a[l] << (b[l] & 63)) & m & inRange(b[l]));
                break;
              case Bc::Shr:
                CMTL_LANES(d[l] = (a[l] >> (b[l] & 63)) & m & inRange(b[l]));
                break;
              case Bc::Sra: {
                const int up = 64 - in.imm;
                CMTL_LANES({
                    const int64_t v = static_cast<int64_t>(a[l] << up) >> up;
                    const uint64_t amt = std::min<uint64_t>(b[l], 63);
                    d[l] = static_cast<uint64_t>(v >> static_cast<int>(amt)) &
                           m;
                });
                break;
              }
              case Bc::Eq:
                CMTL_LANES(d[l] = a[l] == b[l]);
                break;
              case Bc::Ne:
                CMTL_LANES(d[l] = a[l] != b[l]);
                break;
              case Bc::Lt:
                CMTL_LANES(d[l] = a[l] < b[l]);
                break;
              case Bc::Le:
                CMTL_LANES(d[l] = a[l] <= b[l]);
                break;
              case Bc::Gt:
                CMTL_LANES(d[l] = a[l] > b[l]);
                break;
              case Bc::Ge:
                CMTL_LANES(d[l] = a[l] >= b[l]);
                break;
              case Bc::LAnd:
                CMTL_LANES(d[l] = (a[l] != 0) & (b[l] != 0));
                break;
              case Bc::LOr:
                CMTL_LANES(d[l] = (a[l] | b[l]) != 0);
                break;
              case Bc::Inv:
                CMTL_LANES(d[l] = ~a[l] & m);
                break;
              case Bc::LNot:
                CMTL_LANES(d[l] = a[l] == 0);
                break;
              case Bc::ROr:
                CMTL_LANES(d[l] = a[l] != 0);
                break;
              case Bc::RAnd:
                CMTL_LANES(d[l] = a[l] == m);
                break;
              case Bc::RXor:
                CMTL_LANES(d[l] = std::popcount(a[l]) & 1);
                break;
              case Bc::Slice: {
                const int sh = in.sh;
                CMTL_LANES(d[l] = (a[l] >> sh) & m);
                break;
              }
              case Bc::SetSlice: {
                const int sh = in.sh;
                const uint64_t keep = ~(m << sh);
                CMTL_LANES(d[l] = (d[l] & keep) | ((a[l] & m) << sh));
                break;
              }
              case Bc::Mux: {
                const uint64_t *c = f + in.c * W;
                CMTL_LANES({
                    const uint64_t take = ~uint64_t(0) + (c[l] == 0);
                    d[l] = ((a[l] & take) | (b[l] & ~take)) & m;
                });
                break;
              }
              case Bc::Sext: {
                const int up = 64 - in.imm;
                CMTL_LANES(d[l] = static_cast<uint64_t>(
                                      static_cast<int64_t>(a[l] << up) >>
                                      up) &
                                  m);
                break;
              }
              case Bc::ALoad: {
                const int32_t *base = slots + in.imm * W;
                const uint64_t idx = static_cast<uint64_t>(in.c);
                CMTL_LANES(d[l] = words[base[l] + (a[l] & idx)]);
                break;
              }
              case Bc::AStore: {
                const int32_t *base = slots + in.imm * W;
                const uint64_t idx = static_cast<uint64_t>(in.c);
                CMTL_LANES(words[base[l] + (a[l] & idx)] = b[l] & m);
                break;
              }
              case Bc::Jz: {
                // Lanes that fall through go to lane[lo, mid).
                int mid = lo;
                for (int k = lo; k < hi; ++k) {
                    if (a[lane[k]] != 0)
                        std::swap(lane[k], lane[mid++]);
                }
                if (mid == lo) {
                    pc = static_cast<size_t>(in.imm);
                    continue;
                }
                if (mid < hi) {
                    pending[npending++] = {static_cast<size_t>(in.imm), mid,
                                           hi};
                    hi = mid;
                }
                break;
              }
              case Bc::Jmp:
                pc = static_cast<size_t>(in.imm);
                continue;
            }
            ++pc;
        }
#undef CMTL_LANES

        for (int32_t s : prog.written) {
            const int32_t *row = slots + s * W;
            const uint64_t *src = f + s * W;
#pragma GCC ivdep
            for (int l = 0; l < n; ++l)
                words[row[l]] = src[l];
        }
    }
}

} // namespace cmtl
