/**
 * @file
 * Tests for the static ParSim race auditor (race_audit.h): the shipped
 * partitioner's plans must prove out on the corpus at every island
 * count, and injected violations — a shared-write split across
 * islands, a dropped boundary push, a reordered superstep — must be
 * pinpointed down to the exact net and island pair.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "core/analyze.h"
#include "core/partition.h"
#include "core/race_audit.h"
#include "net/mesh.h"
#include "net/traffic.h"

namespace cmtl {
namespace {

// ------------------------------------------------------ corpus plans

TEST(RaceAudit, MeshPartitionsPassAtEveryIslandCount)
{
    net::MeshNetworkRTL mesh(nullptr, "mesh", 4, 16, 16, 2);
    auto elab = mesh.elaborate();
    for (int threads : {2, 4, 8}) {
        PartitionPlan plan = partitionDesign(*elab, threads);
        RaceAuditReport report = auditPartition(*elab, plan);
        EXPECT_TRUE(report.ok())
            << "threads=" << threads << "\n" << report.format();
        EXPECT_EQ(report.nislands, threads);
        EXPECT_GT(report.edgesChecked, 0);
        EXPECT_GT(report.pushesChecked, 0);
        EXPECT_NE(report.summary().find("PASS"), std::string::npos);
    }
}

TEST(RaceAudit, PlansPassOnCorpus)
{
    // The chunked plan must prove every audit invariant, on every
    // corpus design, at every island count.
    auto check = [](const Elaboration &elab, const char *what) {
        for (int islands : {2, 4, 8}) {
            PartitionPlan plan = partitionDesign(elab, islands);
            RaceAuditReport report = auditPartition(elab, plan);
            EXPECT_TRUE(report.ok())
                << what << " islands=" << islands << "\n"
                << report.format();
        }
    };
    net::MeshNetworkRTL mesh(nullptr, "mesh", 4, 16, 16, 2);
    check(*mesh.elaborate(), "mesh-rtl");
    net::MeshTrafficTop traffic("top", net::NetLevel::RTL, 64, 4, 0.2,
                                3);
    check(*traffic.elaborate(), "mesh-traffic-rtl");
}

TEST(RaceAudit, CatalogCoversAuditInvariants)
{
    std::set<std::string> ids;
    for (const AnalyzeCheck &check : analyzeCheckCatalog())
        ids.insert(check.id);
    for (const char *id :
         {"audit-block-coverage", "audit-shared-write",
          "audit-ownership", "audit-push-coverage",
          "audit-superstep-order", "audit-boundary",
          "audit-array-local"}) {
        EXPECT_TRUE(ids.count(id)) << "missing catalog entry " << id;
    }
}

// --------------------------------------------- injected: shared write

/** Two sequential blocks that both write q — an illegal design the
 *  partitioner would co-locate; the hand-built plan splits them. */
struct SharedWriteTop : Model
{
    InPort a, b;
    OutPort q;

    SharedWriteTop()
        : Model(nullptr, "top"), a(this, "a", 8), b(this, "b", 8),
          q(this, "q", 8)
    {
        auto &s1 = tickRtl("t1");
        s1.assign(q, rd(a));
        auto &s2 = tickRtl("t2");
        s2.assign(q, rd(b));
    }
};

TEST(RaceAudit, SplitSharedWriteIsPinpointed)
{
    SharedWriteTop top;
    auto elab = top.elaborate();
    const int ntokens = static_cast<int>(elab->nets.size() +
                                         elab->arrays.size());

    // Hand-build a two-island plan that puts one writer of q on each
    // island — exactly the race the partitioner's clustering forbids.
    int b1 = -1, b2 = -1;
    for (size_t i = 0; i < elab->blocks.size(); ++i) {
        if (elab->blocks[i].name == "top.t1")
            b1 = static_cast<int>(i);
        if (elab->blocks[i].name == "top.t2")
            b2 = static_cast<int>(i);
    }
    ASSERT_GE(b1, 0);
    ASSERT_GE(b2, 0);

    PartitionPlan plan;
    plan.nislands = 2;
    plan.islands.resize(2);
    plan.islands[0].tickBlocks = {b1};
    plan.islands[1].tickBlocks = {b2};
    plan.ownerOf.assign(ntokens, kExternalIsland);
    plan.readerIslands.assign(ntokens, {});
    int q = top.q.netId();
    plan.ownerOf[q] = 0;
    plan.islands[0].ownedTokens = {q};
    plan.islands[0].flopNets = {q};
    // Boundary pushes for what each island actually reads.
    for (int i = 0; i < 2; ++i) {
        for (int blk : plan.islands[i].tickBlocks)
            for (int t : elab->blocks[blk].reads)
                if (t >= 0 && t < ntokens)
                    plan.readerIslands[t].push_back(i);
    }

    RaceAuditReport report = auditPartition(*elab, plan);
    ASSERT_FALSE(report.ok());
    const RaceAuditIssue *found = nullptr;
    for (const auto &issue : report.issues)
        if (issue.invariant == "audit-shared-write")
            found = &issue;
    ASSERT_NE(found, nullptr) << report.format();
    // The finding names the exact net and the offending island pair.
    EXPECT_EQ(found->token, q);
    EXPECT_EQ(found->path, "top.q");
    EXPECT_EQ(std::min(found->island_a, found->island_b), 0);
    EXPECT_EQ(std::max(found->island_a, found->island_b), 1);
    EXPECT_NE(found->message.find("top.q"), std::string::npos);

    // toLintIssues feeds the shared severity/suppression machinery.
    auto lint = report.toLintIssues();
    ASSERT_FALSE(lint.empty());
    for (const auto &issue : lint)
        EXPECT_EQ(issue.severity, LintSeverity::Error);
}

// ------------------------------------------- injected: dropped push

TEST(RaceAudit, DroppedBoundaryPushIsPinpointed)
{
    net::MeshNetworkRTL mesh(nullptr, "mesh", 4, 16, 16, 2);
    auto elab = mesh.elaborate();
    PartitionPlan plan = partitionDesign(*elab, 2);
    ASSERT_TRUE(auditPartition(*elab, plan).ok());

    // Drop one real boundary push: a token with a cross-island reader.
    int token = -1, victim = -1;
    for (size_t t = 0; t < plan.readerIslands.size() && token < 0; ++t) {
        if (plan.ownerOf[t] < 0)
            continue;
        for (int isl : plan.readerIslands[t]) {
            if (isl != plan.ownerOf[t]) {
                token = static_cast<int>(t);
                victim = isl;
                break;
            }
        }
    }
    ASSERT_GE(token, 0) << "no cross-island read in the plan";
    auto &readers = plan.readerIslands[token];
    readers.erase(std::remove(readers.begin(), readers.end(), victim),
                  readers.end());

    RaceAuditReport report = auditPartition(*elab, plan);
    ASSERT_FALSE(report.ok());
    const RaceAuditIssue *found = nullptr;
    for (const auto &issue : report.issues)
        if (issue.invariant == "audit-push-coverage" &&
            issue.token == token)
            found = &issue;
    ASSERT_NE(found, nullptr) << report.format();
    EXPECT_EQ(found->island_b, victim);
    EXPECT_NE(found->message.find("never pushes"), std::string::npos);
}

// -------------------------------------- injected: superstep disorder

TEST(RaceAudit, ReorderedCombScheduleIsPinpointed)
{
    net::MeshNetworkRTL mesh(nullptr, "mesh", 4, 16, 16, 2);
    auto elab = mesh.elaborate();
    PartitionPlan plan = partitionDesign(*elab, 2);
    ASSERT_TRUE(auditPartition(*elab, plan).ok());

    // Find an intra-island comb dependency (writer before reader in
    // the island schedule) and swap the two slots.
    int island = -1;
    size_t pw = 0, pr = 0;
    for (int i = 0; i < plan.nislands && island < 0; ++i) {
        const auto &cb = plan.islands[i].combBlocks;
        for (size_t w = 0; w < cb.size() && island < 0; ++w) {
            const auto &writes = elab->blocks[cb[w]].writes;
            for (size_t r = w + 1; r < cb.size() && island < 0; ++r) {
                const auto &reads = elab->blocks[cb[r]].reads;
                for (int t : writes) {
                    if (std::find(reads.begin(), reads.end(), t) !=
                        reads.end()) {
                        island = i;
                        pw = w;
                        pr = r;
                        break;
                    }
                }
            }
        }
    }
    ASSERT_GE(island, 0) << "no intra-island comb chain found";
    auto &isl = plan.islands[island];
    std::swap(isl.combBlocks[pw], isl.combBlocks[pr]);
    std::swap(isl.combLevels[pw], isl.combLevels[pr]);

    RaceAuditReport report = auditPartition(*elab, plan);
    ASSERT_FALSE(report.ok());
    bool found = false;
    for (const auto &issue : report.issues) {
        if (issue.invariant == "audit-superstep-order") {
            found = true;
            EXPECT_EQ(issue.island_a, island);
        }
    }
    EXPECT_TRUE(found) << report.format();
}

// -------------------------------------- injected: misplaced lambda

TEST(RaceAudit, LambdaTickOnAnIslandIsRejected)
{
    auto traffic = std::make_unique<net::MeshTrafficTop>(
        "top", net::NetLevel::RTL, 4, 4, 0.25, 7);
    auto elab = traffic->elaborate();
    PartitionPlan plan = partitionDesign(*elab, 2);
    ASSERT_TRUE(auditPartition(*elab, plan).ok());
    ASSERT_FALSE(plan.lambdaTicks.empty());

    // Move a host lambda (undeclared effects) onto a worker island.
    int moved = plan.lambdaTicks.back();
    plan.lambdaTicks.pop_back();
    plan.islands[0].tickBlocks.push_back(moved);

    RaceAuditReport report = auditPartition(*elab, plan);
    ASSERT_FALSE(report.ok());
    bool found = false;
    for (const auto &issue : report.issues)
        if (issue.invariant == "audit-block-coverage" &&
            issue.message.find("lambda") != std::string::npos)
            found = true;
    EXPECT_TRUE(found) << report.format();
}

} // namespace
} // namespace cmtl
