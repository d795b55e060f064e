/**
 * @file
 * IR-level static analysis of an elaborated design.
 *
 * The analyzer walks every IR block of an Elaboration with a per-path
 * definite-assignment dataflow and a constant folder, and reports
 * findings through the same LintIssue machinery the structural linter
 * uses (the model/tool split of the paper: one elaboration, many
 * tools). Check families:
 *
 *  - latch inference: a combinational block that does not assign one
 *    of its target signals on every control path ("latch-inferred",
 *    error, offending path reported);
 *  - block-local ordering: a block-local temp read before it is ever
 *    assigned ("temp-read-before-write", error) and a combinational
 *    block reading a signal it writes later in the same block
 *    ("comb-read-own-write", warning — the read observes the previous
 *    settling round);
 *  - width/range: slice or bit selects outside the operand width
 *    ("slice-out-of-range", error), array indexes that are provably
 *    out of range ("index-out-of-range", error) or whose static upper
 *    bound exceeds the array depth ("index-may-exceed", warning), and
 *    lossy implicit truncation at an assignment ("lossy-truncation",
 *    warning with widths printed);
 *  - dead logic: if/mux conditions that constant-fold
 *    ("constant-condition", warning, unreachable branch named);
 *  - blocking/non-blocking misuse: non-blocking signal assignment in
 *    a combinational block ("nonblocking-in-comb", error), blocking
 *    assignment to sequential state ("blocking-in-seq", error), and
 *    array writes in combinational blocks ("awrite-in-comb", error).
 *
 * Every check can be suppressed or have its severity overridden
 * per-run through AnalyzeOptions; LintTool carries one and forwards
 * its configuration to both the structural checks and this analyzer.
 *
 * The constant folder (irConstFold) and the path-coverage walk
 * (IrPathWalk) are the only ones in the tree: DesignFlow's
 * X-propagation (dataflow.h) calls them for each driver's all-paths
 * and reset-path coverage.
 */

#ifndef CMTL_CORE_ANALYZE_H
#define CMTL_CORE_ANALYZE_H

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "model.h"

namespace cmtl {

/** Severity of a lint/analysis finding. */
enum class LintSeverity { Warning, Error };

/** One lint/analysis finding. */
struct LintIssue
{
    LintSeverity severity;
    std::string check; //!< short check id, e.g. "latch-inferred"
    std::string message;
    /**
     * Hierarchical path of the finding's subject — a net's canonical
     * name, a block's hierarchical name, an array's full name. Every
     * producer (structural linter, IR analyzer, dataflow clients, race
     * auditor) fills it through the shared formatters below, so tools
     * that key findings by location (JSON diffing, suppression files)
     * see one consistent spelling.
     */
    std::string path;
};

/**
 * Shared hierarchical path formatters. The canonical path of a net is
 * its shallowest member signal's full name (Net::name); the location
 * string additionally lists the other member signals so a finding deep
 * inside a large design names the exact instances involved. Every
 * finding producer must use these — no per-tool reimplementations.
 */
std::string lintNetPath(const Net &net);
std::string lintNetLocation(const Net &net);

/** One entry of the static check catalog. */
struct AnalyzeCheck
{
    const char *id;
    LintSeverity severity; //!< default severity
    const char *summary;
};

/** Catalog of every IR-analysis check with its default severity. */
const std::vector<AnalyzeCheck> &analyzeCheckCatalog();

/**
 * Per-check configuration shared by LintTool and the IR analyzer:
 * suppression and severity overrides keyed by check id.
 */
class AnalyzeOptions
{
  public:
    /** Drop all findings of @p check. Returns *this for chaining. */
    AnalyzeOptions &suppress(const std::string &check);
    /** Report @p check with @p severity instead of its default. */
    AnalyzeOptions &setSeverity(const std::string &check,
                                LintSeverity severity);

    bool isSuppressed(const std::string &check) const;
    /** Effective severity given the check's built-in default. */
    LintSeverity effectiveSeverity(const std::string &check,
                                   LintSeverity fallback) const;

    /**
     * Append a finding unless the check is suppressed, applying any
     * severity override. Convenience used by LintTool and analyzeIr.
     */
    void emit(std::vector<LintIssue> &issues, LintSeverity fallback,
              const std::string &check, const std::string &message) const;

    /** As above, with the finding's hierarchical subject path. */
    void emit(std::vector<LintIssue> &issues, LintSeverity fallback,
              const std::string &check, const std::string &path,
              const std::string &message) const;

  private:
    std::set<std::string> suppressed_;
    std::map<std::string, LintSeverity> severity_;
};

/**
 * Fold @p expr to a constant if every leaf is a literal or a read of
 * net @p reset_net, which reads as 1 (the design's reset, to follow
 * the path Simulator::reset() takes; -1 binds no net). One decisive
 * operand settles `&&` and `||` (`x && 0` is 0, `x || 1` is 1). Uses
 * the exact irEvalBinOp/irEvalUnOp simulation semantics, so a folded
 * value is guaranteed to match what any backend would compute.
 * Returns nullopt when the expression depends on run-time state (or
 * would throw, e.g. an out-of-range slice).
 */
std::optional<Bits> irConstFold(IrView expr, int reset_net = -1);

/**
 * Saturating static upper bound of @p expr's value (used for array
 * index range checking). Never below the true maximum; UINT64_MAX
 * when nothing better than "any value of the width" is known and the
 * width is >= 64 bits.
 */
uint64_t irMaxBound(IrView expr);

/** Which bits of one signal are definitely assigned on a path. */
class Cover
{
  public:
    Cover() = default;
    explicit Cover(int nbits) : bits_(nbits, false) {}

    /** Mark bits [lsb, lsb + width); a negative @p width marks all. */
    void
    cover(int lsb, int width)
    {
        const int n = static_cast<int>(bits_.size());
        const int hi = width < 0 ? n : std::min(lsb + width, n);
        for (int i = width < 0 ? 0 : std::max(lsb, 0); i < hi; ++i)
            bits_[i] = true;
    }

    bool
    full() const
    {
        return std::all_of(bits_.begin(), bits_.end(),
                           [](bool b) { return b; });
    }

    void
    intersect(const Cover &o)
    {
        for (size_t i = 0; i < bits_.size(); ++i)
            bits_[i] = bits_[i] && i < o.bits_.size() && o.bits_[i];
    }

    /** Inclusive [msb:lsb] range covering all unassigned bits. */
    std::pair<int, int>
    missingRange() const
    {
        int lo = -1, hi = -1;
        for (size_t i = 0; i < bits_.size(); ++i) {
            if (!bits_[i]) {
                if (lo < 0)
                    lo = static_cast<int>(i);
                hi = static_cast<int>(i);
            }
        }
        return {hi, lo};
    }

  private:
    std::vector<bool> bits_;
};

/** Definite-assignment state along one control path. */
struct PathState
{
    std::map<const Signal *, Cover> sigs;
    std::set<int> temps;

    bool
    fullyAssigned(const Signal *sig) const
    {
        auto it = sigs.find(sig);
        return it != sigs.end() && it->second.full();
    }

    /** Some member signal of @p net is fully assigned. */
    bool
    fullyAssigned(const Net &net) const
    {
        return std::any_of(net.signals.begin(), net.signals.end(),
                           [&](const Signal *s) { return fullyAssigned(s); });
    }
};

/**
 * The one path-coverage walk over a block's statements, shared by the
 * IR analyzer and DesignFlow's X-propagation (dataflow.h). Assignments
 * mark signal bits and temps. An if whose condition folds
 * (irConstFold with the walk's reset net) keeps only its live branch's
 * state; any other if keeps what both branches assign. Both branches
 * are always visited, so checks hooked into visit() see dead code too.
 */
class IrPathWalk
{
  public:
    explicit IrPathWalk(int reset_net = -1) : reset_net_(reset_net) {}
    virtual ~IrPathWalk() = default;

    /** Walk @p stmts, updating @p st to the state at their end. */
    void walk(const std::vector<IrStmt> &stmts, PathState &st);

  protected:
    /**
     * Called at each statement before it updates @p st; @p folded is
     * an if's constant condition, nullopt otherwise.
     */
    virtual void
    visit(const IrStmt &, const PathState &, const std::optional<Bits> &)
    {}
    /** Called after both branches of an if that does not fold. */
    virtual void
    join(const IrStmt &, const PathState & /*base*/,
         const PathState & /*then_st*/, const PathState & /*else_st*/)
    {}

  private:
    int reset_net_;
};

/**
 * The state at the end of @p block over every path or, with
 * @p reset_net, over the path taken while that net reads 1.
 */
PathState irPathCoverage(const IrBlock &block, int reset_net = -1);

/**
 * Run every IR check over each IrBlock of @p elab. Lambda (FL/CL)
 * blocks have no IR and are skipped. Findings are ordered by block.
 */
std::vector<LintIssue> analyzeIr(const Elaboration &elab,
                                 const AnalyzeOptions &options = {});

} // namespace cmtl

#endif // CMTL_CORE_ANALYZE_H
