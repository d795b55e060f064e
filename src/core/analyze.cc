#include "analyze.h"

#include <algorithm>

#include "ir_eval.h"

namespace cmtl {

// ------------------------------------------------------- check catalog

const std::vector<AnalyzeCheck> &
analyzeCheckCatalog()
{
    static const std::vector<AnalyzeCheck> catalog = {
        {"latch-inferred", LintSeverity::Error,
         "combinational block misses a target signal on some path"},
        {"temp-read-before-write", LintSeverity::Error,
         "block-local temp read before any assignment"},
        {"comb-read-own-write", LintSeverity::Warning,
         "combinational block reads a signal it assigns later"},
        {"slice-out-of-range", LintSeverity::Error,
         "slice/bit select outside the operand width"},
        {"index-out-of-range", LintSeverity::Error,
         "array index is provably outside the array depth"},
        {"index-may-exceed", LintSeverity::Warning,
         "array index upper bound exceeds the array depth"},
        {"lossy-truncation", LintSeverity::Warning,
         "assignment implicitly truncates a wider value"},
        {"constant-condition", LintSeverity::Warning,
         "if/mux condition constant-folds; branch is dead logic"},
        {"nonblocking-in-comb", LintSeverity::Error,
         "non-blocking assignment in a combinational block"},
        {"blocking-in-seq", LintSeverity::Error,
         "blocking signal assignment in a sequential block"},
        {"awrite-in-comb", LintSeverity::Error,
         "array write in a combinational block"},
        // Whole-design dataflow clients (dataflow.h).
        {"dead-net", LintSeverity::Warning,
         "net is computed but cannot influence any observed sink"},
        {"dead-block", LintSeverity::Warning,
         "combinational block writes only dead nets"},
        {"maybe-uninitialized", LintSeverity::Warning,
         "net is readable before any driver or reset assigns it"},
        // Static ParSim race auditor (race_audit.h).
        {"audit-block-coverage", LintSeverity::Error,
         "block missing from or duplicated across partition islands"},
        {"audit-shared-write", LintSeverity::Error,
         "token statically written from two distinct islands"},
        {"audit-ownership", LintSeverity::Error,
         "token owner disagrees with its statically writing island"},
        {"audit-push-coverage", LintSeverity::Error,
         "boundary-exchange push set does not exactly cover "
         "cross-island reads"},
        {"audit-superstep-order", LintSeverity::Error,
         "cross-island combinational edge is not barrier-separated"},
        {"audit-boundary", LintSeverity::Error,
         "cross-island edge crosses neither a flop nor a "
         "barrier-separated settle boundary"},
        {"audit-array-local", LintSeverity::Error,
         "memory array touched from more than one island"},
    };
    return catalog;
}

// ----------------------------------------------- shared path formatters

std::string
lintNetPath(const Net &net)
{
    return net.name;
}

std::string
lintNetLocation(const Net &net)
{
    std::string out = "net '" + net.name + "'";
    if (net.signals.size() <= 1)
        return out;
    out += " (members: ";
    const size_t show = std::min<size_t>(net.signals.size(), 4);
    for (size_t i = 0; i < show; ++i) {
        if (i)
            out += ", ";
        out += net.signals[i]->fullName();
    }
    if (net.signals.size() > show)
        out += ", +" + std::to_string(net.signals.size() - show) +
               " more";
    out += ")";
    return out;
}

// ------------------------------------------------------ AnalyzeOptions

AnalyzeOptions &
AnalyzeOptions::suppress(const std::string &check)
{
    suppressed_.insert(check);
    return *this;
}

AnalyzeOptions &
AnalyzeOptions::setSeverity(const std::string &check, LintSeverity severity)
{
    severity_[check] = severity;
    return *this;
}

bool
AnalyzeOptions::isSuppressed(const std::string &check) const
{
    return suppressed_.count(check) > 0;
}

LintSeverity
AnalyzeOptions::effectiveSeverity(const std::string &check,
                                  LintSeverity fallback) const
{
    auto it = severity_.find(check);
    return it == severity_.end() ? fallback : it->second;
}

void
AnalyzeOptions::emit(std::vector<LintIssue> &issues, LintSeverity fallback,
                     const std::string &check,
                     const std::string &message) const
{
    emit(issues, fallback, check, /*path=*/"", message);
}

void
AnalyzeOptions::emit(std::vector<LintIssue> &issues, LintSeverity fallback,
                     const std::string &check, const std::string &path,
                     const std::string &message) const
{
    if (isSuppressed(check))
        return;
    issues.push_back(
        {effectiveSeverity(check, fallback), check, message, path});
}

// ----------------------------------------------------- constant folder

std::optional<Bits>
irConstFold(IrView e, int reset_net)
{
    if (!e)
        return std::nullopt;
    switch (e.kind()) {
      case IrKind::Const:
        return e.value();
      case IrKind::Ref:
        if (reset_net >= 0 && e.sig() && e.sig()->netId() == reset_net)
            return Bits(e.nbits(), 1);
        return std::nullopt; // depends on run-time state
      case IrKind::Temp:
      case IrKind::ARead:
        return std::nullopt;
      case IrKind::BinOp: {
        auto a = irConstFold(e.arg(0), reset_net);
        auto b = irConstFold(e.arg(1), reset_net);
        // Short-circuit forms dominate reset conditions
        // (e.g. "reset || flush"): one decisive operand suffices.
        if (e.op() == IrOp::LAnd && ((a && !a->any()) || (b && !b->any())))
            return Bits(1, 0);
        if (e.op() == IrOp::LOr && ((a && a->any()) || (b && b->any())))
            return Bits(1, 1);
        if (!a || !b)
            return std::nullopt;
        return irEvalBinOp(e.op(), *a, *b, e.nbits());
      }
      case IrKind::UnOp: {
        auto a = irConstFold(e.arg(0), reset_net);
        if (!a)
            return std::nullopt;
        return irEvalUnOp(e.unop(), *a);
      }
      case IrKind::Slice: {
        auto a = irConstFold(e.arg(0), reset_net);
        if (!a || e.lsb() < 0 || e.lsb() + e.nbits() > a->nbits())
            return std::nullopt; // malformed: reported by range check
        return a->slice(e.lsb(), e.nbits());
      }
      case IrKind::Concat: {
        Bits out(e.nbits());
        int pos = e.nbits();
        for (IrView arg : e.args()) {
            auto part = irConstFold(arg, reset_net);
            if (!part)
                return std::nullopt;
            pos -= arg.nbits();
            if (pos < 0)
                return std::nullopt;
            out.setSlice(pos, *part);
        }
        return out;
      }
      case IrKind::Mux: {
        auto cond = irConstFold(e.arg(0), reset_net);
        if (!cond)
            return std::nullopt;
        auto arm =
            irConstFold(cond->any() ? e.arg(1) : e.arg(2), reset_net);
        if (!arm)
            return std::nullopt;
        return arm->zext(e.nbits());
      }
      case IrKind::Zext: {
        auto a = irConstFold(e.arg(0), reset_net);
        if (!a)
            return std::nullopt;
        return a->zext(e.nbits());
      }
      case IrKind::Sext: {
        auto a = irConstFold(e.arg(0), reset_net);
        if (!a)
            return std::nullopt;
        return a->sext(e.nbits());
      }
    }
    return std::nullopt;
}

// ------------------------------------------------------- value bounds

namespace {

uint64_t
widthBound(int nbits)
{
    return nbits >= 64 ? ~uint64_t(0)
                       : ((uint64_t(1) << nbits) - 1);
}

uint64_t
satAdd(uint64_t a, uint64_t b)
{
    uint64_t s = a + b;
    return s < a ? ~uint64_t(0) : s;
}

uint64_t
satMul(uint64_t a, uint64_t b)
{
    if (a == 0 || b == 0)
        return 0;
    if (a > ~uint64_t(0) / b)
        return ~uint64_t(0);
    return a * b;
}

uint64_t
satShl(uint64_t a, uint64_t amount)
{
    if (a == 0)
        return 0;
    if (amount >= 64 || a > (~uint64_t(0) >> amount))
        return ~uint64_t(0);
    return a << amount;
}

} // namespace

uint64_t
irMaxBound(IrView e)
{
    if (!e)
        return ~uint64_t(0);
    const uint64_t w = widthBound(e.nbits());
    if (auto folded = irConstFold(e); folded && folded->fitsUint64())
        return folded->toUint64();
    switch (e.kind()) {
      case IrKind::Const:
        return e.value().fitsUint64() ? e.value().toUint64() : w;
      case IrKind::Ref:
      case IrKind::Temp:
      case IrKind::ARead:
        return w;
      case IrKind::BinOp: {
        uint64_t a = irMaxBound(e.arg(0));
        uint64_t b = irMaxBound(e.arg(1));
        switch (e.op()) {
          case IrOp::Add: return std::min(satAdd(a, b), w);
          case IrOp::Mul: return std::min(satMul(a, b), w);
          case IrOp::And: return std::min({a, b, w});
          case IrOp::Or:
          case IrOp::Xor: return std::min(satAdd(a, b), w);
          case IrOp::Shr:
            // Bound of the lhs is only a sound magnitude bound when
            // the lhs value itself fits a machine word.
            if (e.arg(0).nbits() <= 64) {
                if (auto c = irConstFold(e.arg(1));
                    c && c->fitsUint64()) {
                    uint64_t amt = c->toUint64();
                    return amt >= 64 ? 0 : std::min(a >> amt, w);
                }
                return std::min(a, w);
            }
            return w;
          case IrOp::Shl:
            if (auto c = irConstFold(e.arg(1)); c && c->fitsUint64())
                return std::min(satShl(a, c->toUint64()), w);
            return w;
          case IrOp::Eq: case IrOp::Ne: case IrOp::Lt: case IrOp::Le:
          case IrOp::Gt: case IrOp::Ge: case IrOp::LAnd: case IrOp::LOr:
            return 1;
          default:
            return w;
        }
      }
      case IrKind::UnOp:
        switch (e.unop()) {
          case IrUnOp::LNot:
          case IrUnOp::ReduceOr:
          case IrUnOp::ReduceAnd:
          case IrUnOp::ReduceXor:
            return 1;
          default:
            return w;
        }
      case IrKind::Slice:
        if (e.arg(0).nbits() <= 64 && e.lsb() >= 0 && e.lsb() < 64)
            return std::min(irMaxBound(e.arg(0)) >> e.lsb(), w);
        return w;
      case IrKind::Concat: {
        uint64_t acc = 0;
        for (IrView arg : e.args())
            acc = satAdd(satShl(acc, arg.nbits()), irMaxBound(arg));
        return std::min(acc, w);
      }
      case IrKind::Mux:
        return std::min(
            std::max(irMaxBound(e.arg(1)), irMaxBound(e.arg(2))), w);
      case IrKind::Zext:
        return std::min(irMaxBound(e.arg(0)), w);
      case IrKind::Sext: {
        IrView arg = e.arg(0);
        if (arg.nbits() <= 64) {
            uint64_t a = irMaxBound(arg);
            // If the sign bit can never be set, sext behaves as zext.
            if (a < (uint64_t(1) << (arg.nbits() - 1)))
                return std::min(a, w);
        }
        return w;
      }
    }
    return w;
}

// ------------------------------------------------------- path coverage

namespace {

/** Intersection of two branch states (both derived from one base). */
PathState
mergeStates(const PathState &a, const PathState &b)
{
    PathState out;
    for (const auto &[sig, cover] : a.sigs) {
        auto it = b.sigs.find(sig);
        if (it == b.sigs.end())
            continue;
        Cover merged = cover;
        merged.intersect(it->second);
        out.sigs.emplace(sig, std::move(merged));
    }
    for (int t : a.temps) {
        if (b.temps.count(t))
            out.temps.insert(t);
    }
    return out;
}

} // namespace

void
IrPathWalk::walk(const std::vector<IrStmt> &stmts, PathState &st)
{
    for (const IrStmt &s : stmts) {
        std::optional<Bits> folded;
        if (s.kind == IrStmt::Kind::If)
            folded = irConstFold(s.cond, reset_net_);
        visit(s, st, folded);
        switch (s.kind) {
          case IrStmt::Kind::Assign:
            if (s.sig)
                st.sigs.try_emplace(s.sig, Cover(s.sig->nbits()))
                    .first->second.cover(s.lsb, s.width);
            else
                st.temps.insert(s.temp);
            break;
          case IrStmt::Kind::If: {
            PathState then_st = st;
            PathState else_st = st;
            walk(s.thenBody, then_st);
            walk(s.elseBody, else_st);
            if (folded) {
                // The dead branch was visited, but only the live one
                // contributes assignments.
                st = folded->any() ? std::move(then_st)
                                   : std::move(else_st);
                break;
            }
            join(s, st, then_st, else_st);
            st = mergeStates(then_st, else_st);
            break;
          }
          case IrStmt::Kind::AWrite:
            break;
        }
    }
}

PathState
irPathCoverage(const IrBlock &block, int reset_net)
{
    PathState st;
    IrPathWalk(reset_net).walk(block.stmts, st);
    return st;
}

// ------------------------------------------------------- BlockAnalyzer

namespace {

/** Runs every per-block check over one IR block. */
class BlockAnalyzer : IrPathWalk
{
  public:
    BlockAnalyzer(const ElabBlock &blk, const AnalyzeOptions &options,
                  std::vector<LintIssue> &issues)
        : blk_(blk), ir_(*blk.ir), options_(options), issues_(issues),
          writes_(irSummarize(ir_).writes)
    {}

    void
    run()
    {
        PathState st;
        walk(ir_.stmts, st);
        if (!ir_.sequential)
            reportLatches(st);
    }

  private:
    // ----------------------------------------------------- reporting

    /**
     * @p path is the finding's hierarchical subject (a signal or array
     * full name); block-local findings (temps, folded conditions) leave
     * it empty and report the block's hierarchical name instead.
     */
    void
    emitOnce(LintSeverity fallback, const std::string &check,
             const std::string &subject, const std::string &message,
             const std::string &path = "")
    {
        if (!reported_.insert(check + "|" + subject).second)
            return;
        options_.emit(issues_, fallback, check,
                      path.empty() ? blk_.name : path,
                      "in block '" + blk_.name + "': " + message);
    }

    // --------------------------------------------- expression checks

    void
    checkExpr(IrView e, const PathState &st)
    {
        if (!e)
            return;
        switch (e.kind()) {
          case IrKind::Temp:
            if (!st.temps.count(e.temp())) {
                emitOnce(LintSeverity::Error, "temp-read-before-write",
                         tempName(e.temp()),
                         "temp '" + tempName(e.temp()) +
                             "' is read before any assignment on some "
                             "path");
            }
            break;
          case IrKind::Ref:
            if (!ir_.sequential &&
                std::binary_search(writes_.begin(), writes_.end(),
                                   e.sig()) &&
                !st.fullyAssigned(e.sig())) {
                emitOnce(LintSeverity::Warning, "comb-read-own-write",
                         e.sig()->fullName(),
                         "signal '" + e.sig()->fullName() +
                             "' is read before the block's own "
                             "assignment to it; the read observes the "
                             "previous settling round",
                         e.sig()->fullName());
            }
            break;
          case IrKind::Slice: {
            IrView arg = e.arg(0);
            if (e.lsb() < 0 || e.lsb() + e.nbits() > arg.nbits()) {
                emitOnce(LintSeverity::Error, "slice-out-of-range",
                         irExprToString(e),
                         "slice [" + std::to_string(e.lsb() + e.nbits() - 1) +
                             ":" + std::to_string(e.lsb()) +
                             "] exceeds the " +
                             std::to_string(arg.nbits()) +
                             "-bit operand '" + irExprToString(arg) + "'");
            }
            break;
          }
          case IrKind::ARead:
            checkIndex(e.arg(0), e.array(), "read");
            break;
          case IrKind::Mux:
            if (auto folded = irConstFold(e.arg(0)))
                reportConstCondition(e.arg(0), *folded, "mux",
                                     /*has_else=*/true);
            break;
          default:
            break;
        }
        for (IrView arg : e.args())
            checkExpr(arg, st);
    }

    void
    checkIndex(IrView idx, const MemArray *array,
               const char *what)
    {
        const uint64_t depth = static_cast<uint64_t>(array->depth());
        if (auto folded = irConstFold(idx)) {
            if (!folded->fitsUint64() || folded->toUint64() >= depth) {
                emitOnce(LintSeverity::Error, "index-out-of-range",
                         array->fullName() + "|" + irExprToString(idx),
                         "array " + std::string(what) + " of '" +
                             array->fullName() + "' (depth " +
                             std::to_string(array->depth()) +
                             ") uses constant index " +
                             folded->toDecString(),
                         array->fullName());
            }
            return;
        }
        uint64_t bound = irMaxBound(idx);
        if (bound >= depth) {
            emitOnce(LintSeverity::Warning, "index-may-exceed",
                     array->fullName() + "|" + irExprToString(idx),
                     "array " + std::string(what) + " of '" +
                         array->fullName() + "' (depth " +
                         std::to_string(array->depth()) +
                         ") uses index '" + irExprToString(idx) +
                         "' with static upper bound " +
                         std::to_string(bound) +
                         "; out-of-range indexes wrap",
                     array->fullName());
        }
    }

    void
    reportConstCondition(IrView cond, const Bits &folded,
                         const char *what, bool has_else)
    {
        bool taken = folded.any();
        std::string dead = taken
                               ? (has_else ? "the else branch is "
                                             "unreachable"
                                           : "the condition is "
                                             "redundant")
                               : "the then branch is unreachable";
        emitOnce(LintSeverity::Warning, "constant-condition",
                 irExprToString(cond) + "|" + what,
                 std::string(what) + " condition '" +
                     irExprToString(cond) + "' is always " +
                     (taken ? "true" : "false") + "; " + dead);
    }

    // ----------------------------------------------- statement checks

    std::string
    tempName(int idx) const
    {
        if (idx >= 0 && idx < static_cast<int>(ir_.temps.size()))
            return ir_.temps[idx].name;
        return "t" + std::to_string(idx);
    }

    void
    checkAssignTruncation(const IrStmt &s)
    {
        int target_width;
        std::string target;
        if (s.sig) {
            target_width = s.width < 0 ? s.sig->nbits() : s.width;
            target = "'" + s.sig->fullName() + "'";
        } else {
            target_width = s.temp < static_cast<int>(ir_.temps.size())
                               ? ir_.temps[s.temp].nbits
                               : s.rhs.nbits();
            target = "temp '" + tempName(s.temp) + "'";
        }
        // Builder-inserted truncation shows up as a width-reducing
        // extension at the root of the rhs; hand-built IR may carry a
        // plainly wider rhs. Proving the value fits silences it.
        IrView wide;
        if (s.rhs.nbits() > target_width) {
            wide = s.rhs;
        } else if ((s.rhs.kind() == IrKind::Zext ||
                    s.rhs.kind() == IrKind::Sext) &&
                   s.rhs.arg(0).nbits() > s.rhs.nbits()) {
            wide = s.rhs.arg(0);
        }
        if (!wide)
            return;
        if (irMaxBound(wide) <= widthBound(target_width))
            return; // value provably fits: not lossy
        emitOnce(LintSeverity::Warning, "lossy-truncation",
                 target + "|" + std::to_string(wide.nbits()),
                 "assignment to " + target + " truncates a " +
                     std::to_string(wide.nbits()) + "-bit value to " +
                     std::to_string(target_width) + " bits",
                 s.sig ? s.sig->fullName() : std::string());
    }

    void
    visit(const IrStmt &s, const PathState &st,
          const std::optional<Bits> &folded) override
    {
        switch (s.kind) {
          case IrStmt::Kind::Assign:
            checkExpr(s.rhs, st);
            checkAssignTruncation(s);
            if (s.sig && !ir_.sequential && s.nonblocking) {
                emitOnce(LintSeverity::Error, "nonblocking-in-comb",
                         s.sig->fullName(),
                         "non-blocking assignment to '" +
                             s.sig->fullName() +
                             "' in a combinational block",
                         s.sig->fullName());
            }
            if (s.sig && ir_.sequential && !s.nonblocking) {
                emitOnce(LintSeverity::Error, "blocking-in-seq",
                         s.sig->fullName(),
                         "blocking assignment to sequential state '" +
                             s.sig->fullName() + "'",
                         s.sig->fullName());
            }
            break;
          case IrStmt::Kind::If:
            checkExpr(s.cond, st);
            if (folded)
                reportConstCondition(s.cond, *folded, "if",
                                     !s.elseBody.empty());
            break;
          case IrStmt::Kind::AWrite:
            if (!ir_.sequential) {
                emitOnce(LintSeverity::Error, "awrite-in-comb",
                         s.array->fullName(),
                         "write to array '" + s.array->fullName() +
                             "' in a combinational block; array "
                             "writes are clock-edge effects",
                         s.array->fullName());
            }
            checkExpr(s.cond, st);
            checkExpr(s.rhs, st);
            checkIndex(s.cond, s.array, "write");
            break;
        }
    }

    /**
     * Remember, per signal, the innermost branch condition under
     * which it misses an assignment — the offending path named in
     * the latch-inferred report.
     */
    void
    join(const IrStmt &s, const PathState &base, const PathState &then_st,
         const PathState &else_st) override
    {
        if (ir_.sequential)
            return;
        for (const Signal *sig : writes_) {
            if (latch_notes_.count(sig) || base.fullyAssigned(sig))
                continue;
            bool then_full = then_st.fullyAssigned(sig);
            bool else_full = else_st.fullyAssigned(sig);
            if (then_full == else_full)
                continue;
            latch_notes_[sig] = "not assigned when '" +
                                irExprToString(s.cond) + "' is " +
                                (then_full ? "false" : "true");
        }
    }

    void
    reportLatches(const PathState &final_st)
    {
        for (const Signal *sig : writes_) {
            auto it = final_st.sigs.find(sig);
            Cover cover =
                it != final_st.sigs.end() ? it->second : Cover(sig->nbits());
            if (cover.full())
                continue;
            auto [msb, lsb] = cover.missingRange();
            std::string msg = "combinational target '" + sig->fullName() +
                              "' is not assigned on every path (bits [" +
                              std::to_string(msb) + ":" +
                              std::to_string(lsb) + "] can retain their "
                              "previous value — a latch would be "
                              "inferred)";
            auto note = latch_notes_.find(sig);
            if (note != latch_notes_.end())
                msg += "; offending path: " + note->second;
            emitOnce(LintSeverity::Error, "latch-inferred",
                     sig->fullName(), msg, sig->fullName());
        }
    }

    const ElabBlock &blk_;
    const IrBlock &ir_;
    const AnalyzeOptions &options_;
    std::vector<LintIssue> &issues_;
    const std::vector<Signal *> writes_; //!< sorted (irSummarize)
    std::map<const Signal *, std::string> latch_notes_;
    std::set<std::string> reported_;
};

} // namespace

std::vector<LintIssue>
analyzeIr(const Elaboration &elab, const AnalyzeOptions &options)
{
    std::vector<LintIssue> issues;
    for (const ElabBlock &blk : elab.blocks) {
        if (!blk.ir)
            continue; // FL/CL lambda blocks carry no IR
        BlockAnalyzer(blk, options, issues).run();
    }
    return issues;
}

} // namespace cmtl
