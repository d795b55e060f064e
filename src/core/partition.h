/**
 * @file
 * ParSim static design partitioner.
 *
 * Cuts the elaborated block/net graph into load-balanced *islands* for
 * the bulk-synchronous parallel simulator (psim.h) in two steps:
 * union-find groups the blocks that must share an island into atomic
 * clusters, then the clusters, sorted by a locality key (model
 * pre-order), are chunked into contiguous weight-balanced spans. The
 * cut follows the structure the paper's concurrent-structural designs
 * expose: sequential (flop) boundaries cost nothing to cross — a
 * flopped net changes only at the clock edge, so its value is
 * exchanged once per cycle — while combinational edges that cross
 * islands are legal but force an extra settle *superstep* (a
 * barrier-separated exchange round). Val/rdy channels between
 * components cut cheaply because the stdlib queues drive their
 * handshake outputs from registered state, so a channel contributes
 * at most one cross-island comb edge (the backward rdy path), giving
 * a two-superstep settle for meshes of any size.
 *
 * Clusters are weighed by their blocks' ElabBlock::weight, the
 * per-block work estimate elaboration records in its one walk of each
 * IR block, so partitioning reads no expression tree.
 *
 * Only blocks with statically known effects are assigned to islands:
 * IR blocks (CombIr/TickIr, whose read/write sets come from the IR)
 * and comb lambdas (whose sets are declared). TickFl/TickCl lambdas
 * run arbitrary host code with undeclared effects; they stay on the
 * coordinating thread ("island -1", the external participant) in
 * declaration order, preserving sequential semantics exactly.
 *
 * Determinism: the partition never changes simulated values — islands
 * execute their blocks in the global topological order restricted to
 * the island, and cross-island values are exchanged only at barriers —
 * so any island count produces bit-identical results (see psim.h).
 */

#ifndef CMTL_CORE_PARTITION_H
#define CMTL_CORE_PARTITION_H

#include <string>
#include <vector>

#include "model.h"

namespace cmtl {

/** Island index of the external participant (main thread). */
constexpr int kExternalIsland = -1;

/** One island of the partitioned design. */
struct PartitionIsland
{
    /** Comb block ids, global topological order, grouped by level. */
    std::vector<int> combBlocks;
    /** Settle superstep of each entry of combBlocks (nondecreasing). */
    std::vector<int> combLevels;
    /** Tick block ids (TickIr only), global tick order. */
    std::vector<int> tickBlocks;
    /** Tokens owned (statically written) by this island. */
    std::vector<int> ownedTokens;
    /** Owned nets that are statically flopped. */
    std::vector<int> flopNets;
    /** Estimated per-cycle work: the sum of its blocks' weights. */
    long weight = 0;
};

/** The full partition of an elaborated design. */
struct PartitionPlan
{
    int nislands = 0;
    std::vector<PartitionIsland> islands;

    /**
     * Token -> owning island, or kExternalIsland for tokens without a
     * statically assigned writer (top-level inputs, nets driven only
     * by tick lambdas or the test bench).
     */
    std::vector<int> ownerOf;

    /**
     * The replica that holds the authoritative copy of @p token: its
     * owner island's, or replica 0 if no island owns it. Slot bindings,
     * flops of coordinator-written nets and snapshot access all address
     * this replica.
     */
    int homeReplica(int token) const
    {
        const int owner = ownerOf[token];
        return owner >= 0 ? owner : 0;
    }

    /**
     * Token -> sorted island indices with a statically known reader
     * (comb or tick). The external participant reads owner replicas
     * directly and never appears here.
     */
    std::vector<std::vector<int>> readerIslands;

    /** TickFl/TickCl block ids for the external participant, in order. */
    std::vector<int> lambdaTicks;

    /** Number of settle supersteps (1 + max cross-island comb depth). */
    int nlevels = 1;

    // --- Partition quality (for StatsTool reporting) ---------------
    long totalWeight = 0;
    int cutTokens = 0;      //!< tokens pushed between islands per cycle
    int cutCombEdges = 0;   //!< comb writer->reader pairs crossing islands
    int nclusters = 0;      //!< atomic clusters before balancing

    /**
     * Islands the caller asked for, before clamping to the cluster
     * count and compacting islands the chunker left empty. nislands
     * is always the *effective* count: every island in the plan has
     * at least one cluster (or the design has none at all).
     */
    int requestedIslands = 0;

    /** max island weight / mean island weight (1.0 = perfect). */
    double imbalance() const;
};

/**
 * Partition @p elab into @p nislands islands.
 *
 * @p nislands is clamped to [1, number of atomic clusters], and
 * islands the weight-balancer leaves empty are compacted away — the
 * plan's nislands is the effective count, requestedIslands the ask.
 * Throws std::logic_error if the design has a combinational cycle
 * (ParSim is statically scheduled, like SchedMode::Static).
 */
PartitionPlan partitionDesign(const Elaboration &elab, int nislands);

/** Human-readable partition-quality report (one line per island). */
std::string partitionReport(const Elaboration &elab,
                            const PartitionPlan &plan);

} // namespace cmtl

#endif // CMTL_CORE_PARTITION_H
