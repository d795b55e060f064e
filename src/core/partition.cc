#include "partition.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace cmtl {

namespace {

/** Union-find over dense block indices. */
class BlockUnionFind
{
  public:
    explicit BlockUnionFind(size_t n) : parent_(n)
    {
        std::iota(parent_.begin(), parent_.end(), 0);
    }

    int
    find(int x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    void unite(int a, int b) { parent_[find(a)] = find(b); }

  private:
    std::vector<int> parent_;
};

/** True for blocks the partitioner may assign to a worker island. */
bool
assignable(const ElabBlock &blk)
{
    switch (blk.kind) {
      case BlockKind::CombIr:
      case BlockKind::CombLambda:
      case BlockKind::TickIr:
        return true;
      case BlockKind::TickFl:
      case BlockKind::TickCl:
        return false;
    }
    return false;
}

/**
 * Weight-balanced contiguous chunking of atomic clusters in
 * locality-key order into @p nislands spans.
 */
std::vector<int>
chunkAssign(const std::vector<long> &weight,
            const std::vector<int> &key, int nislands)
{
    const int n = static_cast<int>(weight.size());
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return key[a] < key[b];
    });
    std::vector<int> island(n, 0);
    long remaining = std::accumulate(weight.begin(), weight.end(), 0L);
    int isl = 0;
    long acc = 0;
    for (int idx : order) {
        int chunksLeft = nislands - isl;
        long target = (remaining + chunksLeft - 1) / chunksLeft;
        if (acc > 0 && acc + weight[idx] / 2 >= target &&
            isl + 1 < nislands) {
            remaining -= acc;
            acc = 0;
            ++isl;
        }
        island[idx] = isl;
        acc += weight[idx];
    }
    return island;
}

} // namespace

double
PartitionPlan::imbalance() const
{
    if (islands.empty() || totalWeight == 0)
        return 1.0;
    long maxw = 0;
    for (const PartitionIsland &isl : islands)
        maxw = std::max(maxw, isl.weight);
    double mean =
        static_cast<double>(totalWeight) / static_cast<double>(islands.size());
    return mean > 0 ? static_cast<double>(maxw) / mean : 1.0;
}

PartitionPlan
partitionDesign(const Elaboration &elab, int nislands)
{
    if (elab.hasCombCycle) {
        throw std::logic_error(
            "design has a combinational cycle; ParSim requires a static "
            "(levelized) schedule");
    }

    PartitionPlan plan;
    const auto &blocks = elab.blocks;
    const int nblocks = static_cast<int>(blocks.size());
    const int ntokens =
        static_cast<int>(elab.nets.size() + elab.arrays.size());

    // ---------------------------------------------------------------
    // 1. Atomic clusters: blocks that must share an island.
    //    (a) all statically known writers of one token — a second
    //        writer makes the result order-dependent, so the pair must
    //        execute on one thread in schedule order;
    //    (b) every block touching one memory array — arrays are
    //        mutable bulk state; co-locating all touchers keeps array
    //        storage island-local and avoids per-cycle array copies.
    // ---------------------------------------------------------------
    // Per token, the assignable blocks that write it (all, or the
    // comb ones only) and those that read it.
    auto perToken = [&](std::vector<int> ElabBlock::*tokens, bool comb) {
        return FlatLists(ntokens, [&](auto add) {
            for (int i = 0; i < nblocks; ++i) {
                if (!assignable(blocks[i]) || (comb && isTick(blocks[i].kind)))
                    continue;
                for (int t : blocks[i].*tokens)
                    add(t, i);
            }
        });
    };
    const FlatLists tokenWriters = perToken(&ElabBlock::writes, false);
    const FlatLists tokenCombWriters = perToken(&ElabBlock::writes, true);
    const FlatLists tokenReaders = perToken(&ElabBlock::reads, false);

    BlockUnionFind uf(static_cast<size_t>(nblocks));
    for (int t = 0; t < ntokens; ++t) {
        const std::span<const int> writers = tokenWriters[t];
        for (size_t k = 1; k < writers.size(); ++k)
            uf.unite(writers[0], writers[k]);
        // (c) a tick block writing a *non-flopped* net mutates the
        // current value at tick time (a blocking write); tick blocks
        // reading it would race with the write and depend on tick
        // order, so co-locate them — island tick lists preserve the
        // global tick order.
        if (t < static_cast<int>(elab.nets.size()) &&
            !elab.nets[t].floppedStatic) {
            for (int w : writers) {
                if (!isTick(blocks[w].kind))
                    continue;
                for (int r : tokenReaders[t]) {
                    if (isTick(blocks[r].kind))
                        uf.unite(w, r);
                }
            }
        }
        if (t >= static_cast<int>(elab.nets.size())) {
            // Array token: merge every toucher.
            int first = -1;
            for (int blk : writers) {
                if (first < 0)
                    first = blk;
                uf.unite(first, blk);
            }
            for (int blk : tokenReaders[t]) {
                if (first < 0)
                    first = blk;
                uf.unite(first, blk);
            }
        }
    }

    // Dense cluster ids, each with weight and a locality key (the
    // pre-order index of the shallowest member block's model: blocks
    // of one model subtree sort adjacently, so chunking the sorted
    // cluster list cuts the design along its structural hierarchy —
    // e.g. a mesh falls into contiguous strips of whole routers).
    std::vector<int> rootToCluster(nblocks, -1);
    std::vector<long> clusterWeight;
    std::vector<int> clusterKey;
    std::vector<int> clusterOf(nblocks, -1);
    for (int i = 0; i < nblocks; ++i) {
        if (!assignable(blocks[i]))
            continue;
        const int key = blocks[i].model->preorder();
        int &c = rootToCluster[uf.find(i)];
        if (c < 0) {
            c = static_cast<int>(clusterWeight.size());
            clusterWeight.push_back(0);
            clusterKey.push_back(key);
        }
        clusterOf[i] = c;
        clusterWeight[c] += blocks[i].weight;
        clusterKey[c] = std::min(clusterKey[c], key);
    }
    const int nclusters = static_cast<int>(clusterWeight.size());
    plan.nclusters = nclusters;
    plan.totalWeight =
        std::accumulate(clusterWeight.begin(), clusterWeight.end(), 0L);

    // ---------------------------------------------------------------
    // 2. Load balance: order clusters by locality key and chunk the
    //    order into nislands contiguous, weight-balanced spans.
    // ---------------------------------------------------------------
    plan.requestedIslands = std::max(1, nislands);
    nislands = std::max(1, std::min(nislands, std::max(1, nclusters)));
    plan.nislands = nislands;
    plan.islands.resize(nislands);

    std::vector<int> islandOfCluster =
        chunkAssign(clusterWeight, clusterKey, nislands);

    // ---------------------------------------------------------------
    // 2b. Compact islands the chunker left empty (possible when big
    //     clusters front-load the weight targets): the plan only ever
    //     exposes islands that own at least one cluster, so workers
    //     and imbalance statistics never see zero-weight islands.
    // ---------------------------------------------------------------
    {
        std::vector<char> used(nislands, 0);
        for (int c = 0; c < nclusters; ++c)
            used[islandOfCluster[c]] = 1;
        std::vector<int> remap(nislands, -1);
        int effective = 0;
        for (int i = 0; i < nislands; ++i) {
            if (used[i])
                remap[i] = effective++;
        }
        if (effective == 0)
            effective = 1; // no assignable blocks at all
        if (effective != nislands) {
            for (int c = 0; c < nclusters; ++c)
                islandOfCluster[c] = remap[islandOfCluster[c]];
            nislands = effective;
            plan.nislands = effective;
            plan.islands.clear();
            plan.islands.resize(effective);
        }
    }

    std::vector<int> islandOfBlock(nblocks, kExternalIsland);
    for (int i = 0; i < nblocks; ++i) {
        if (clusterOf[i] >= 0)
            islandOfBlock[i] = islandOfCluster[clusterOf[i]];
    }

    // ---------------------------------------------------------------
    // 3. Ownership and reader sets per token.
    // ---------------------------------------------------------------
    plan.ownerOf.assign(ntokens, kExternalIsland);
    for (int t = 0; t < ntokens; ++t) {
        if (!tokenWriters[t].empty()) {
            plan.ownerOf[t] = islandOfBlock[tokenWriters[t][0]];
        } else if (t >= static_cast<int>(elab.nets.size()) &&
                   !tokenReaders[t].empty()) {
            // Read-only array (e.g. test-bench-loaded ROM): store it
            // with its readers so array state stays island-local.
            plan.ownerOf[t] = islandOfBlock[tokenReaders[t][0]];
        }
    }
    plan.readerIslands.assign(ntokens, {});
    for (int t = 0; t < ntokens; ++t) {
        std::vector<int> &readers = plan.readerIslands[t];
        for (int blk : tokenReaders[t])
            readers.push_back(islandOfBlock[blk]);
        std::sort(readers.begin(), readers.end());
        readers.erase(std::unique(readers.begin(), readers.end()),
                      readers.end());
    }

    // ---------------------------------------------------------------
    // 4. Settle supersteps: a comb block's level is the longest chain
    //    of *cross-island* comb edges feeding it. Blocks of level L
    //    run in parallel superstep L; boundary values are exchanged at
    //    the barrier between supersteps.
    // ---------------------------------------------------------------
    std::vector<int> level(nblocks, 0);
    int maxLevel = 0;
    for (int b : elab.combOrder) {
        int lvl = 0;
        for (int t : blocks[b].reads) {
            for (int w : tokenCombWriters[t]) {
                if (w == b)
                    continue;
                int step = islandOfBlock[w] != islandOfBlock[b] ? 1 : 0;
                lvl = std::max(lvl, level[w] + step);
                if (step)
                    ++plan.cutCombEdges;
            }
        }
        level[b] = lvl;
        maxLevel = std::max(maxLevel, lvl);
    }
    plan.nlevels = maxLevel + 1;

    // ---------------------------------------------------------------
    // 5. Fill the islands (global schedule order restricted to each).
    // ---------------------------------------------------------------
    for (int b : elab.combOrder) {
        int isl = islandOfBlock[b];
        if (isl < 0)
            continue;
        plan.islands[isl].combBlocks.push_back(b);
        plan.islands[isl].combLevels.push_back(level[b]);
    }
    // Within one island, order by (level, topo position) so a
    // superstep is a contiguous span of the island's comb list.
    for (PartitionIsland &isl : plan.islands) {
        std::vector<int> idx(isl.combBlocks.size());
        std::iota(idx.begin(), idx.end(), 0);
        std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
            return isl.combLevels[a] < isl.combLevels[b];
        });
        std::vector<int> cb, cl;
        cb.reserve(idx.size());
        cl.reserve(idx.size());
        for (int k : idx) {
            cb.push_back(isl.combBlocks[k]);
            cl.push_back(isl.combLevels[k]);
        }
        isl.combBlocks = std::move(cb);
        isl.combLevels = std::move(cl);
    }
    for (int b : elab.tickOrder) {
        if (blocks[b].kind == BlockKind::TickIr &&
            islandOfBlock[b] >= 0) {
            plan.islands[islandOfBlock[b]].tickBlocks.push_back(b);
        } else if (!assignable(blocks[b])) {
            plan.lambdaTicks.push_back(b);
        }
    }
    for (int t = 0; t < ntokens; ++t) {
        int owner = plan.ownerOf[t];
        if (owner < 0)
            continue;
        plan.islands[owner].ownedTokens.push_back(t);
        if (t < static_cast<int>(elab.nets.size()) &&
            elab.nets[t].floppedStatic)
            plan.islands[owner].flopNets.push_back(t);
    }
    for (int i = 0; i < nblocks; ++i) {
        if (islandOfBlock[i] >= 0)
            plan.islands[islandOfBlock[i]].weight += blocks[i].weight;
    }

    // Cut size: tokens some non-owner island reads (exchanged between
    // replicas at least once per cycle).
    for (int t = 0; t < ntokens; ++t) {
        for (int r : plan.readerIslands[t]) {
            if (r != plan.ownerOf[t]) {
                ++plan.cutTokens;
                break;
            }
        }
    }

    return plan;
}

std::string
partitionReport(const Elaboration &elab, const PartitionPlan &plan)
{
    std::ostringstream os;
    os << "ParSim partition: " << plan.nislands << " island(s)";
    if (plan.requestedIslands != plan.nislands)
        os << " (requested " << plan.requestedIslands
           << ", clamped to effective)";
    os << ", " << plan.nclusters << " atomic cluster(s), "
       << plan.nlevels << " settle superstep(s)\n";
    os << "  cut: " << plan.cutTokens << " boundary token(s), "
       << plan.cutCombEdges << " cross-island comb edge(s), imbalance "
       << plan.imbalance() << "\n";
    for (size_t i = 0; i < plan.islands.size(); ++i) {
        const PartitionIsland &isl = plan.islands[i];
        os << "  island " << i << ": weight " << isl.weight << " ("
           << isl.combBlocks.size() << " comb, " << isl.tickBlocks.size()
           << " tick blocks, " << isl.ownedTokens.size()
           << " owned tokens)\n";
    }
    os << "  external: " << plan.lambdaTicks.size()
       << " tick lambda(s) on the coordinating thread";
    size_t externalTokens = 0;
    for (int owner : plan.ownerOf) {
        if (owner == kExternalIsland)
            ++externalTokens;
    }
    os << ", " << externalTokens << " external token(s)\n";
    (void)elab;
    return os.str();
}

} // namespace cmtl
