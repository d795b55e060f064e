#include "dataflow.h"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>

#include "ir_eval.h"
#include "signal.h"

namespace cmtl {

namespace {

// ------------------------------------------------- assignment coverage
//
// Per-signal bit coverage accumulated along one control path. Bit
// granularity (not just whole-signal flags) so slice assignments that
// together cover a signal count as a full assignment, matching the
// latch-inference analysis.

struct Coverage
{
    std::map<Signal *, std::vector<uint8_t>> bits;
};

void
markAssign(Coverage &cov, Signal *sig, int lsb, int width)
{
    if (!sig)
        return;
    auto &v = cov.bits[sig];
    if (v.empty())
        v.assign(static_cast<size_t>(sig->nbits()), 0);
    if (width < 0) {
        lsb = 0;
        width = sig->nbits();
    }
    for (int i = lsb; i < lsb + width && i < sig->nbits(); ++i)
        if (i >= 0)
            v[static_cast<size_t>(i)] = 1;
}

/** Path-merge: a bit is covered only when both branches cover it. */
Coverage
intersectCov(const Coverage &a, const Coverage &b)
{
    Coverage out;
    for (const auto &[sig, va] : a.bits) {
        auto it = b.bits.find(sig);
        if (it == b.bits.end())
            continue;
        std::vector<uint8_t> v(va.size(), 0);
        for (size_t i = 0; i < va.size(); ++i)
            v[i] = va[i] && it->second[i];
        out.bits.emplace(sig, std::move(v));
    }
    return out;
}

bool
fullyCovered(const Coverage &cov, const Net &net)
{
    for (Signal *sig : net.signals) {
        auto it = cov.bits.find(sig);
        if (it == cov.bits.end())
            continue;
        bool all = true;
        for (uint8_t b : it->second)
            all = all && b;
        if (all)
            return true;
    }
    return false;
}

// --------------------------------------------- folding under reset=1
//
// Partial evaluator substituting the design's reset net with constant
// 1, used to follow the branch a sequential block takes during
// Simulator::reset(). Shares irEvalBinOp/irEvalUnOp with the
// simulators so folded values match execution bit-for-bit.

std::optional<Bits>
foldUnderReset(const IrExprNode *e, int reset_net)
{
    if (!e)
        return std::nullopt;
    switch (e->kind) {
      case IrExprNode::Kind::Const:
        return e->cval;
      case IrExprNode::Kind::Ref:
        if (e->sig && e->sig->netId() == reset_net)
            return Bits(e->nbits, 1);
        return std::nullopt;
      case IrExprNode::Kind::BinOp: {
        auto a = foldUnderReset(e->args[0].get(), reset_net);
        auto b = foldUnderReset(e->args[1].get(), reset_net);
        // Short-circuit forms dominate reset conditions
        // (e.g. "reset || flush"): one decisive operand suffices.
        if (e->op == IrOp::LAnd) {
            if ((a && !a->any()) || (b && !b->any()))
                return Bits(1, 0);
            if (a && b)
                return Bits(1, 1);
            return std::nullopt;
        }
        if (e->op == IrOp::LOr) {
            if ((a && a->any()) || (b && b->any()))
                return Bits(1, 1);
            if (a && b)
                return Bits(1, 0);
            return std::nullopt;
        }
        if (a && b)
            return irEvalBinOp(e->op, *a, *b, e->nbits);
        return std::nullopt;
      }
      case IrExprNode::Kind::UnOp: {
        auto a = foldUnderReset(e->args[0].get(), reset_net);
        if (a)
            return irEvalUnOp(e->unop, *a);
        return std::nullopt;
      }
      case IrExprNode::Kind::Slice: {
        auto a = foldUnderReset(e->args[0].get(), reset_net);
        if (a && e->lsb >= 0 && e->lsb + e->nbits <= a->nbits())
            return a->slice(e->lsb, e->nbits);
        return std::nullopt;
      }
      case IrExprNode::Kind::Zext: {
        auto a = foldUnderReset(e->args[0].get(), reset_net);
        if (a)
            return a->zext(e->nbits);
        return std::nullopt;
      }
      case IrExprNode::Kind::Sext: {
        auto a = foldUnderReset(e->args[0].get(), reset_net);
        if (a)
            return a->sext(e->nbits);
        return std::nullopt;
      }
      case IrExprNode::Kind::Mux: {
        auto c = foldUnderReset(e->args[0].get(), reset_net);
        if (c)
            return foldUnderReset(e->args[c->any() ? 1 : 2].get(),
                                  reset_net);
        return std::nullopt;
      }
      default:
        return std::nullopt;
    }
}

/**
 * Walk a statement list accumulating assignment coverage. With
 * @p reset_net >= 0 the walk follows only the branch taken under
 * reset=1 when the condition folds (reset-path coverage); otherwise
 * branches merge by intersection (all-paths coverage).
 */
void
walkCoverage(const std::vector<IrStmt> &stmts, Coverage &cov,
             int reset_net)
{
    for (const IrStmt &s : stmts) {
        switch (s.kind) {
          case IrStmt::Kind::Assign:
            if (s.sig)
                markAssign(cov, s.sig, s.lsb, s.width);
            break;
          case IrStmt::Kind::If: {
            if (reset_net >= 0) {
                if (auto c = foldUnderReset(s.cond.get(), reset_net)) {
                    walkCoverage(c->any() ? s.thenBody : s.elseBody,
                                 cov, reset_net);
                    break;
                }
            }
            Coverage then_cov = cov;
            Coverage else_cov = cov;
            walkCoverage(s.thenBody, then_cov, reset_net);
            walkCoverage(s.elseBody, else_cov, reset_net);
            cov = intersectCov(then_cov, else_cov);
            break;
          }
          case IrStmt::Kind::AWrite:
            break;
        }
    }
}

} // namespace

// ------------------------------------------------------------ liveness

DataflowResult
dataflowAnalyze(const Elaboration &elab, const DataflowOptions &opts)
{
    DataflowResult r;
    const int nnets = static_cast<int>(elab.nets.size());
    const int narrays = static_cast<int>(elab.arrays.size());
    const int ntokens = nnets + narrays;
    const int nblocks = static_cast<int>(elab.blocks.size());

    r.liveNet.assign(static_cast<size_t>(nnets), 0);
    r.liveArray.assign(static_cast<size_t>(narrays), 0);
    r.liveBlock.assign(static_cast<size_t>(nblocks), 0);
    r.definedNet.assign(static_cast<size_t>(nnets), 0);
    r.xKind.assign(static_cast<size_t>(nnets), XCauseKind::Defined);
    r.xCause.assign(static_cast<size_t>(nnets), -1);
    r.netHasWriter.assign(static_cast<size_t>(nnets), 0);
    r.netHasReader.assign(static_cast<size_t>(nnets), 0);

    // token -> writing block indices (driver->reader graph edges).
    std::vector<std::vector<int>> writers(static_cast<size_t>(ntokens));
    for (int b = 0; b < nblocks; ++b) {
        for (int t : elab.blocks[static_cast<size_t>(b)].writes) {
            if (t >= 0 && t < ntokens)
                writers[static_cast<size_t>(t)].push_back(b);
            if (t >= 0 && t < nnets)
                r.netHasWriter[static_cast<size_t>(t)] = 1;
        }
        for (int t : elab.blocks[static_cast<size_t>(b)].reads)
            if (t >= 0 && t < nnets)
                r.netHasReader[static_cast<size_t>(t)] = 1;
    }

    // Observed models: the top model (test benches drive and read it
    // directly) and every model owning a host lambda block, whose
    // access is undeclared or only partially declared.
    std::set<const Model *> observed;
    observed.insert(elab.top);
    for (const ElabBlock &blk : elab.blocks) {
        if (blk.kind == BlockKind::TickFl ||
            blk.kind == BlockKind::TickCl ||
            blk.kind == BlockKind::CombLambda)
            observed.insert(blk.model);
    }

    std::deque<int> queue;
    std::vector<char> live(static_cast<size_t>(ntokens), 0);
    auto markLive = [&](int t) {
        if (t >= 0 && t < ntokens && !live[static_cast<size_t>(t)]) {
            live[static_cast<size_t>(t)] = 1;
            queue.push_back(t);
        }
    };

    for (const Net &net : elab.nets) {
        if (opts.observe_all) {
            markLive(net.id);
            continue;
        }
        for (const Signal *sig : net.signals) {
            if (observed.count(sig->owner())) {
                markLive(net.id);
                break;
            }
        }
    }
    for (int a = 0; a < narrays; ++a) {
        if (opts.observe_all ||
            observed.count(elab.arrays[static_cast<size_t>(a)]->owner()))
            markLive(elab.arrayToken(a));
    }
    for (int t : opts.extra_sinks)
        markLive(t);

    // Blocks that always execute: everything except eliminable IR comb
    // blocks. Their reads are observed demands.
    for (int b = 0; b < nblocks; ++b) {
        const ElabBlock &blk = elab.blocks[static_cast<size_t>(b)];
        if (blk.kind == BlockKind::CombIr)
            continue;
        r.liveBlock[static_cast<size_t>(b)] = 1;
        for (int t : blk.reads)
            markLive(t);
    }

    // Backward fixpoint: a live token resurrects its eliminable
    // writers, whose demands become live in turn.
    while (!queue.empty()) {
        int t = queue.front();
        queue.pop_front();
        for (int b : writers[static_cast<size_t>(t)]) {
            if (r.liveBlock[static_cast<size_t>(b)])
                continue;
            r.liveBlock[static_cast<size_t>(b)] = 1;
            for (int rt : elab.blocks[static_cast<size_t>(b)].reads)
                markLive(rt);
        }
    }

    for (int t = 0; t < nnets; ++t)
        r.liveNet[static_cast<size_t>(t)] = live[static_cast<size_t>(t)];
    for (int a = 0; a < narrays; ++a)
        r.liveArray[static_cast<size_t>(a)] =
            live[static_cast<size_t>(elab.arrayToken(a))];

    for (int t = 0; t < nnets; ++t)
        if (!r.liveNet[static_cast<size_t>(t)] &&
            r.netHasWriter[static_cast<size_t>(t)] &&
            r.netHasReader[static_cast<size_t>(t)])
            ++r.deadNets;
    for (int b = 0; b < nblocks; ++b)
        if (!r.liveBlock[static_cast<size_t>(b)])
            ++r.deadBlocks;

    // -------------------------------------------------- X-propagation
    //
    // Forward reaching-definitions. Candidates are nets with at least
    // one declared driver; everything else belongs to the host/test-
    // bench domain (undriven-net covers the truly dangling ones) and
    // counts as defined. Reset-path coverage is computed by folding
    // if-conditions under reset=1.

    const int reset_net =
        elab.top ? elab.top->reset.netId() : -1;

    struct DriverCov
    {
        int block;
        bool seq;
        bool lambda;
        bool full_all = false;
        bool full_reset = false;
    };
    std::vector<std::vector<DriverCov>> drivers(
        static_cast<size_t>(nnets));

    for (int b = 0; b < nblocks; ++b) {
        const ElabBlock &blk = elab.blocks[static_cast<size_t>(b)];
        const bool is_ir = blk.kind == BlockKind::CombIr ||
                           blk.kind == BlockKind::TickIr;
        const bool is_lambda = blk.kind == BlockKind::CombLambda;
        if (!is_ir && !is_lambda)
            continue; // TickFl/TickCl: undeclared writes, no candidates
        Coverage all_cov, reset_cov;
        if (is_ir && blk.ir) {
            walkCoverage(blk.ir->stmts, all_cov, /*reset_net=*/-1);
            walkCoverage(blk.ir->stmts, reset_cov, reset_net);
        }
        for (int t : blk.writes) {
            if (t < 0 || t >= nnets)
                continue;
            DriverCov d;
            d.block = b;
            d.seq = isTick(blk.kind);
            d.lambda = is_lambda;
            if (is_ir) {
                const Net &net = elab.nets[static_cast<size_t>(t)];
                d.full_all = fullyCovered(all_cov, net);
                d.full_reset = fullyCovered(reset_cov, net);
            }
            drivers[static_cast<size_t>(t)].push_back(d);
        }
    }

    // The implicit reset input itself is driven by Simulator::reset().
    auto initiallyDefined = [&](int t) {
        if (t == reset_net)
            return true;
        return drivers[static_cast<size_t>(t)].empty();
    };
    for (int t = 0; t < nnets; ++t)
        if (initiallyDefined(t))
            r.definedNet[static_cast<size_t>(t)] = 1;

    auto firstUndefinedRead = [&](int b) {
        for (int t : elab.blocks[static_cast<size_t>(b)].reads)
            if (t >= 0 && t < nnets && t != reset_net &&
                !r.definedNet[static_cast<size_t>(t)])
                return t;
        return -1;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (int t = 0; t < nnets; ++t) {
            if (r.definedNet[static_cast<size_t>(t)])
                continue;
            for (const DriverCov &d : drivers[static_cast<size_t>(t)]) {
                bool ok = false;
                if (d.lambda) {
                    // Contract: a comb lambda fully assigns its
                    // declared writes each settling round.
                    ok = firstUndefinedRead(d.block) < 0;
                } else if (d.seq) {
                    ok = d.full_reset ||
                         (d.full_all && firstUndefinedRead(d.block) < 0);
                } else {
                    ok = d.full_all && firstUndefinedRead(d.block) < 0;
                }
                if (ok) {
                    r.definedNet[static_cast<size_t>(t)] = 1;
                    changed = true;
                    break;
                }
            }
        }
    }

    // Root causes for the witness chains.
    for (int t = 0; t < nnets; ++t) {
        if (r.definedNet[static_cast<size_t>(t)])
            continue;
        const auto &ds = drivers[static_cast<size_t>(t)];
        if (ds.empty()) {
            r.xKind[static_cast<size_t>(t)] = XCauseKind::NoDriver;
            continue;
        }
        const DriverCov &d = ds.front();
        if (d.seq && !d.full_reset && !d.full_all) {
            r.xKind[static_cast<size_t>(t)] = XCauseKind::NoReset;
        } else if (!d.seq && !d.lambda && !d.full_all) {
            r.xKind[static_cast<size_t>(t)] = XCauseKind::PartialAssign;
        } else {
            r.xKind[static_cast<size_t>(t)] = XCauseKind::Upstream;
            r.xCause[static_cast<size_t>(t)] =
                firstUndefinedRead(d.block);
        }
    }

    return r;
}

// ------------------------------------------------------------ findings

std::string
dataflowWitness(const Elaboration &elab, const DataflowResult &result,
                int net)
{
    const int nnets = static_cast<int>(elab.nets.size());
    if (net < 0 || net >= nnets ||
        result.definedNet[static_cast<size_t>(net)])
        return "";
    std::string out;
    std::set<int> visited;
    int t = net;
    int hops = 0;
    while (t >= 0 && visited.insert(t).second && hops++ < 8) {
        if (!out.empty())
            out += " <- ";
        out += elab.nets[static_cast<size_t>(t)].name;
        XCauseKind k = result.xKind[static_cast<size_t>(t)];
        if (k != XCauseKind::Upstream) {
            switch (k) {
              case XCauseKind::NoReset:
                out += " (flopped without reset-path or full "
                       "assignment)";
                break;
              case XCauseKind::PartialAssign:
                out += " (combinational driver misses it on some "
                       "path)";
                break;
              case XCauseKind::NoDriver:
                out += " (no driver)";
                break;
              default:
                break;
            }
            return out;
        }
        t = result.xCause[static_cast<size_t>(t)];
    }
    out += " <- ...";
    return out;
}

std::vector<LintIssue>
dataflowLint(const Elaboration &elab, const DataflowResult &result,
             const AnalyzeOptions &options)
{
    std::vector<LintIssue> issues;
    for (const Net &net : elab.nets) {
        const size_t i = static_cast<size_t>(net.id);
        if (!result.liveNet[i] && result.netHasWriter[i] &&
            result.netHasReader[i]) {
            options.emit(issues, LintSeverity::Warning, "dead-net",
                         lintNetPath(net),
                         lintNetLocation(net) +
                             " is computed and read but cannot "
                             "influence any observed sink");
        }
    }
    for (size_t b = 0; b < elab.blocks.size(); ++b) {
        if (result.liveBlock[b])
            continue;
        const ElabBlock &blk = elab.blocks[b];
        options.emit(issues, LintSeverity::Warning, "dead-block",
                     blk.name,
                     "combinational block '" + blk.name +
                         "' drives only dead nets; dead-logic "
                         "elimination skips it");
    }
    // Only root causes become findings — fixing the root (add a reset,
    // complete the paths) clears the whole tainted cone, which stays
    // queryable through DataflowResult/dataflowWitness.
    for (const Net &net : elab.nets) {
        const size_t i = static_cast<size_t>(net.id);
        if (result.definedNet[i] || !result.netHasWriter[i] ||
            !result.netHasReader[i])
            continue;
        if (result.xKind[i] != XCauseKind::NoReset &&
            result.xKind[i] != XCauseKind::PartialAssign)
            continue;
        options.emit(issues, LintSeverity::Warning,
                     "maybe-uninitialized", lintNetPath(net),
                     lintNetLocation(net) +
                         " may be read before any driver or reset "
                         "assigns it; witness: " +
                         dataflowWitness(elab, result, net.id));
    }
    return issues;
}

} // namespace cmtl
