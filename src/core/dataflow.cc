#include "dataflow.h"

#include <deque>
#include <set>

#include "signal.h"

namespace cmtl {

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
    // reads a tick lambda does not declare at all and a comb lambda
    // only as its sensitivity list.
    std::set<const Model *> observed;
    observed.insert(elab.top);
    for (const ElabBlock &blk : elab.blocks) {
        if (!blk.ir)
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
    // counts as defined. Each IR driver's coverage comes from the
    // analyzer's path walk (analyze.h), once over every path and once
    // over the path taken while reset reads 1.

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
        const bool is_ir = blk.ir != nullptr;
        PathState all_paths, reset_path;
        if (is_ir) {
            all_paths = irPathCoverage(*blk.ir);
            reset_path = irPathCoverage(*blk.ir, reset_net);
        }
        for (int t : blk.writes) {
            if (t < 0 || t >= nnets)
                continue;
            DriverCov d;
            d.block = b;
            d.seq = isTick(blk.kind);
            d.lambda = !is_ir;
            if (is_ir) {
                const Net &net = elab.nets[static_cast<size_t>(t)];
                d.full_all = all_paths.fullyAssigned(net);
                d.full_reset = reset_path.fullyAssigned(net);
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
                    // declared writes each settling round; a tick
                    // lambda declares no reads, so its writes are
                    // defined from the start.
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
                         "' drives only dead nets; its logic cannot "
                         "influence any observed sink");
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
