/**
 * @file
 * Whole-design dataflow analysis over the elaborated block/net graph.
 *
 * Where analyze.h inspects one IrBlock at a time, this engine builds
 * driver→reader edges between blocks from the per-block net access
 * sets and runs lattice fixpoints *across* block boundaries — the
 * design-as-data analysis layer of the paper's model/tool split. Two
 * clients ship on top of it:
 *
 *  - **Dead-logic liveness** (backward, cone-of-influence): starting
 *    from the observed sinks, a token (net or array) is *live* when a
 *    block that always executes reads it, or when an eliminable block
 *    whose writes include a live token reads it. Only IR combinational
 *    blocks are eliminable; tick blocks and host lambdas always run.
 *    Nets/blocks outside every sink's cone are reported as `dead-net`/
 *    `dead-block` findings.
 *
 *  - **X-propagation** (forward, reaching definitions): a net is
 *    *defined* when every reader sees a determinate value before its
 *    first use — driven by a comb block that fully assigns it on all
 *    paths from defined inputs, flopped with full assignment on the
 *    reset path or unconditional full assignment from defined inputs,
 *    or declared by a tick lambda (which declares no reads).
 *    Nets readable while still undefined are reported as
 *    `maybe-uninitialized` with the full witness chain back to the
 *    root cause (e.g. an unreset flop).
 *
 * This engine keeps no IR reasoning of its own: a driver's all-paths
 * and reset-path coverage come from analyze.h's path walk
 * (irPathCoverage), whose constant folder (irConstFold) follows an if
 * that folds into its live branch only — with the design's reset net
 * read as 1 for the reset path. So a comb `if (1) out = in;` assigns
 * `out` on every path here exactly as it does for latch inference.
 *
 * Soundness of the sink set: host lambda blocks (TickFl/TickCl/
 * CombLambda) declare their writes but not all their reads, so every
 * net and array of a model owning one — plus everything reachable
 * from the top model, which test benches drive and observe directly —
 * counts as observed. DataflowOptions::observe_all widens the sink
 * set to every net (the semantics of an attached VCD writer, which
 * dumps all of them).
 */

#ifndef CMTL_CORE_DATAFLOW_H
#define CMTL_CORE_DATAFLOW_H

#include <string>
#include <vector>

#include "analyze.h"
#include "model.h"

namespace cmtl {

/** Sink-set configuration for the liveness client. */
struct DataflowOptions
{
    /**
     * Treat every net as observed (the effect of attaching a VCD
     * writer, which dumps all nets each cycle). Liveness then only
     * kills logic feeding nothing at all.
     */
    bool observe_all = false;

    /** Additional observed tokens (net ids or Elaboration
     *  arrayToken() values), e.g. probe points. */
    std::vector<int> extra_sinks;
};

/** Why a net is maybe-uninitialized (X-propagation root causes). */
enum class XCauseKind
{
    Defined,       //!< not an X source
    NoDriver,      //!< read but nothing ever assigns it
    PartialAssign, //!< comb driver misses it on some path
    NoReset,       //!< flopped without reset-path or full assignment
    Upstream,      //!< fully assigned, but from an undefined input
};

/** Fixpoint results of dataflowAnalyze(). */
struct DataflowResult
{
    // ------------------------------------------------------ liveness
    std::vector<char> liveNet;   //!< per net id
    std::vector<char> liveArray; //!< per array id
    std::vector<char> liveBlock; //!< per block index (non-comb-IR: 1)
    int deadNets = 0;            //!< driven+read nets outside all cones
    int deadBlocks = 0;          //!< eliminable blocks with !liveBlock

    // ------------------------------------------------- X-propagation
    std::vector<char> definedNet;   //!< per net id
    std::vector<XCauseKind> xKind;  //!< per net id
    std::vector<int> xCause;        //!< per net id: upstream net, or -1

    // --------------------------------------------------- access info
    std::vector<char> netHasWriter; //!< per net id
    std::vector<char> netHasReader; //!< per net id
};

/** Run both fixpoints over @p elab. Deterministic for a given design. */
DataflowResult dataflowAnalyze(const Elaboration &elab,
                               const DataflowOptions &opts = {});

/**
 * Witness chain for a maybe-uninitialized @p net: the read net, each
 * undefined input it was computed from, down to the root cause, e.g.
 * "top.sum <- top.acc <- top.state (flopped without reset...)".
 * Cycle-safe; empty for defined nets.
 */
std::string dataflowWitness(const Elaboration &elab,
                            const DataflowResult &result, int net);

/**
 * Render both clients' findings as lint issues (`dead-net`,
 * `dead-block`, `maybe-uninitialized` — all warnings by default)
 * through the shared AnalyzeOptions suppression/severity machinery.
 * LintTool::run calls this after the structural and IR checks.
 */
std::vector<LintIssue> dataflowLint(const Elaboration &elab,
                                    const DataflowResult &result,
                                    const AnalyzeOptions &options = {});

} // namespace cmtl

#endif // CMTL_CORE_DATAFLOW_H
