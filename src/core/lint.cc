#include "lint.h"

#include <algorithm>
#include <sstream>

#include "dataflow.h"
#include "json.h"

namespace cmtl {

LintTool &
LintTool::suppress(const std::string &check)
{
    options_.suppress(check);
    return *this;
}

LintTool &
LintTool::setSeverity(const std::string &check, LintSeverity severity)
{
    options_.setSeverity(check, severity);
    return *this;
}

std::vector<LintIssue>
LintTool::run(const Elaboration &elab)
{
    std::vector<LintIssue> issues;
    const size_t nnets = elab.nets.size();
    std::vector<int> comb_writers(nnets, 0);
    std::vector<int> seq_writers(nnets, 0);
    std::vector<int> lambda_writers(nnets, 0); //!< tick lambdas'
    std::vector<int> readers(nnets, 0);
    std::vector<int> array_writers(elab.arrays.size(), 0);

    for (const ElabBlock &blk : elab.blocks) {
        for (int net : blk.writes) {
            if (net >= static_cast<int>(nnets)) {
                ++array_writers[net - nnets];
                continue;
            }
            if (isTick(blk.kind)) {
                ++seq_writers[net];
                lambda_writers[net] += !blk.ir;
            } else
                ++comb_writers[net];
        }
        for (int net : blk.reads) {
            if (net < static_cast<int>(nnets))
                ++readers[net];
        }
    }

    for (size_t i = 0; i < elab.arrays.size(); ++i) {
        if (array_writers[i] > 1) {
            options_.emit(
                issues, LintSeverity::Error, "multiple-array-writers",
                elab.arrays[i]->fullName(),
                "array '" + elab.arrays[i]->fullName() +
                    "' is written by " +
                    std::to_string(array_writers[i]) +
                    " blocks; write ordering would be undefined");
        }
    }

    for (const Net &net : elab.nets) {
        int cw = comb_writers[net.id];
        int sw = seq_writers[net.id];
        if (cw + sw > 1) {
            options_.emit(
                issues, LintSeverity::Error, "multiple-drivers",
                lintNetPath(net),
                lintNetLocation(net) + " is written by " +
                    std::to_string(cw) + " combinational and " +
                    std::to_string(sw) + " sequential block(s)");
        }

        bool has_top_input = false;
        bool has_top_output = false;
        for (const Signal *sig : net.signals) {
            if (sig->owner() == elab.top) {
                if (sig->dir() == SignalDir::Input)
                    has_top_input = true;
                if (sig->dir() == SignalDir::Output)
                    has_top_output = true;
            }
        }
        if (readers[net.id] > 0 && cw + sw == 0 && !has_top_input) {
            options_.emit(issues, LintSeverity::Warning, "undriven-net",
                          lintNetPath(net),
                          lintNetLocation(net) +
                              " is read but never written and has no "
                              "top-level input");
        }
        // A tick lambda's declared write drives the net, but its
        // readers are mostly host code, which declares no reads: only
        // IR and comb-lambda writes can be found unread.
        if (readers[net.id] == 0 && cw + sw > lambda_writers[net.id] &&
            !has_top_output) {
            options_.emit(issues, LintSeverity::Warning, "unread-net",
                          lintNetPath(net),
                          lintNetLocation(net) +
                              " is written but never read");
        }
    }

    if (elab.hasCombCycle) {
        options_.emit(issues, LintSeverity::Error, "comb-cycle",
                      elab.top ? elab.top->fullName() : "",
                      "combinational blocks form a dependency cycle; "
                      "only event-driven simulation is possible");
    }

    // Deep IR-level checks (latches, ordering, widths, dead logic,
    // blocking/non-blocking misuse) over every IR block.
    std::vector<LintIssue> ir_issues = analyzeIr(elab, options_);
    issues.insert(issues.end(),
                  std::make_move_iterator(ir_issues.begin()),
                  std::make_move_iterator(ir_issues.end()));

    // Whole-design dataflow clients: dead-logic liveness and
    // X-propagation (dataflow.h) run over the cross-block net graph.
    DataflowResult flow = dataflowAnalyze(elab);
    std::vector<LintIssue> flow_issues = dataflowLint(elab, flow, options_);
    issues.insert(issues.end(),
                  std::make_move_iterator(flow_issues.begin()),
                  std::make_move_iterator(flow_issues.end()));
    return issues;
}

std::string
LintTool::format(const std::vector<LintIssue> &issues)
{
    std::ostringstream os;
    for (const LintIssue &issue : issues) {
        os << (issue.severity == LintSeverity::Error ? "error" : "warning")
           << " [" << issue.check << "] " << issue.message << "\n";
    }
    return os.str();
}

std::string
LintTool::formatJson(const std::vector<LintIssue> &issues)
{
    std::string out;
    for (const LintIssue &issue : issues) {
        out += Json::object()
                   .set("check", Json::string(issue.check))
                   .set("severity",
                        Json::string(issue.severity == LintSeverity::Error
                                         ? "error"
                                         : "warning"))
                   .set("path", Json::string(issue.path))
                   .set("message", Json::string(issue.message))
                   .encode();
        out += '\n';
    }
    return out;
}

} // namespace cmtl
