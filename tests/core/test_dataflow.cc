/**
 * @file
 * Tests for the whole-design dataflow engine (dataflow.h): dead-logic
 * liveness, the X-propagation fixpoint with witness chains, and the
 * lint findings both feed, plus full liveness of the mesh corpus.
 */

#include <gtest/gtest.h>

#include <functional>

#include "core/dataflow.h"
#include "core/lint.h"
#include "net/mesh.h"
#include "test_models.h"

namespace cmtl {
namespace {

bool
hasCheck(const std::vector<LintIssue> &issues, const std::string &check)
{
    for (const auto &issue : issues)
        if (issue.check == check)
            return true;
    return false;
}

int
countCheck(const std::vector<LintIssue> &issues, const std::string &check)
{
    int n = 0;
    for (const auto &issue : issues)
        if (issue.check == check)
            ++n;
    return n;
}

// ---------------------------------------------------------- liveness

/**
 * A child whose comb chain w1 = in + 1, w2 = w1 + 1 feeds nothing the
 * top model observes: both blocks and the internal net w1 are outside
 * every sink's cone of influence.
 */
struct DeadLogicChild : Model
{
    InPort in_;
    Wire w1, w2;

    DeadLogicChild(Model *parent, const std::string &name)
        : Model(parent, name), in_(this, "in_", 8), w1(this, "w1", 8),
          w2(this, "w2", 8)
    {
        auto &b1 = combinational("c1");
        b1.assign(w1, rd(in_) + 1);
        auto &b2 = combinational("c2");
        b2.assign(w2, rd(w1) + 1);
    }
};

struct DeadLogicTop : Model
{
    InPort in_;
    OutPort out;
    DeadLogicChild child;

    DeadLogicTop()
        : Model(nullptr, "top"), in_(this, "in_", 8),
          out(this, "out", 8), child(this, "child")
    {
        connect(in_, child.in_);
        auto &b = combinational("c");
        b.assign(out, rd(in_) + 0xff);
    }
};

TEST(DataflowLiveness, UnobservedCombConeIsDead)
{
    DeadLogicTop top;
    auto elab = top.elaborate();
    DataflowResult flow = dataflowAnalyze(*elab);

    EXPECT_EQ(flow.deadBlocks, 2);
    int dead_blocks = 0;
    for (char live : flow.liveBlock)
        dead_blocks += live ? 0 : 1;
    EXPECT_EQ(dead_blocks, 2);
    // w1 is written *and* read, yet outside every cone.
    EXPECT_EQ(flow.deadNets, 1);
    EXPECT_FALSE(flow.liveNet[top.child.w1.netId()]);
    EXPECT_FALSE(flow.liveNet[top.child.w2.netId()]);
    // The observed output and its input stay live.
    EXPECT_TRUE(flow.liveNet[top.out.netId()]);
    EXPECT_TRUE(flow.liveNet[top.in_.netId()]);
}

TEST(DataflowLiveness, FindingsCarryHierarchicalPaths)
{
    DeadLogicTop top;
    auto elab = top.elaborate();
    DataflowResult flow = dataflowAnalyze(*elab);
    auto issues = dataflowLint(*elab, flow);

    EXPECT_EQ(countCheck(issues, "dead-block"), 2);
    EXPECT_EQ(countCheck(issues, "dead-net"), 1);
    bool found = false;
    for (const auto &issue : issues) {
        if (issue.check == "dead-net") {
            found = true;
            EXPECT_EQ(issue.path, "top.child.w1");
            EXPECT_EQ(issue.severity, LintSeverity::Warning);
        }
    }
    EXPECT_TRUE(found);
    // LintTool::run layers the same client on top of its other checks.
    EXPECT_TRUE(hasCheck(LintTool().run(*elab), "dead-block"));
}

TEST(DataflowLiveness, ObserveAllKeepsEverythingLive)
{
    DeadLogicTop top;
    auto elab = top.elaborate();
    DataflowOptions opts;
    opts.observe_all = true; // the semantics of an attached VCD writer
    DataflowResult flow = dataflowAnalyze(*elab, opts);
    EXPECT_EQ(flow.deadBlocks, 0);
    EXPECT_EQ(flow.deadNets, 0);
}

TEST(DataflowLiveness, ExtraSinkResurrectsTheCone)
{
    DeadLogicTop top;
    auto elab = top.elaborate();
    DataflowOptions opts;
    opts.extra_sinks.push_back(top.child.w2.netId());
    DataflowResult flow = dataflowAnalyze(*elab, opts);
    // Observing w2 pulls the whole chain back into the live cone.
    EXPECT_EQ(flow.deadBlocks, 0);
    EXPECT_TRUE(flow.liveNet[top.child.w1.netId()]);
}

TEST(DataflowLiveness, ConnectedConeStaysLive)
{
    struct LiveTop : Model
    {
        InPort in_;
        OutPort out;
        DeadLogicChild child;
        LiveTop()
            : Model(nullptr, "top"), in_(this, "in_", 8),
              out(this, "out", 8), child(this, "child")
        {
            connect(in_, child.in_);
            auto &b = combinational("c");
            b.assign(out, rd(child.w2));
        }
    } top;
    auto elab = top.elaborate();
    DataflowResult flow = dataflowAnalyze(*elab);
    EXPECT_EQ(flow.deadBlocks, 0);
    EXPECT_EQ(flow.deadNets, 0);
}

// ----------------------------------------------------- X-propagation

/** Classic unreset enable-flop: q is X until the first en=1 cycle.
 *  The comb stage reading q makes the X observable. */
struct EnableFlop : Model
{
    InPort en, in_;
    Wire q;
    OutPort obs;

    EnableFlop()
        : Model(nullptr, "top"), en(this, "en", 1), in_(this, "in_", 8),
          q(this, "q", 8), obs(this, "obs", 8)
    {
        auto &b = tickRtl("seq");
        b.if_(rd(en), [&] { b.assign(q, rd(in_)); });
        auto &c = combinational("comb");
        c.assign(obs, rd(q));
    }
};

TEST(DataflowXProp, UnresetEnableFlopIsMaybeUninitialized)
{
    EnableFlop top;
    auto elab = top.elaborate();
    DataflowResult flow = dataflowAnalyze(*elab);

    int q = top.q.netId();
    EXPECT_FALSE(flow.definedNet[q]);
    EXPECT_EQ(flow.xKind[q], XCauseKind::NoReset);
    std::string witness = dataflowWitness(*elab, flow, q);
    EXPECT_NE(witness.find("top.q"), std::string::npos) << witness;

    auto issues = dataflowLint(*elab, flow);
    EXPECT_EQ(countCheck(issues, "maybe-uninitialized"), 1);
}

/** An enable flop that takes its reset branch when @p cond, applied
 *  to a read of the reset, is true. */
struct ResetFlop : Model
{
    InPort en, in_;
    Wire q;
    OutPort obs;

    explicit ResetFlop(const std::function<IrExpr(const IrExpr &)> &cond)
        : Model(nullptr, "top"), en(this, "en", 1), in_(this, "in_", 8),
          q(this, "q", 8), obs(this, "obs", 8)
    {
        auto &b = tickRtl("seq");
        b.if_(cond(rd(reset)), [&] { b.assign(q, 0); },
              [&] { b.if_(rd(en), [&] { b.assign(q, rd(in_)); }); });
        auto &c = combinational("comb");
        c.assign(obs, rd(q));
    }
};

TEST(DataflowXProp, ResetPathMakesFlopDefined)
{
    testmodels::Counter top(nullptr, "top", 8);
    auto elab = top.elaborate();
    DataflowResult flow = dataflowAnalyze(*elab);
    EXPECT_TRUE(flow.definedNet[top.count.netId()]);
    EXPECT_FALSE(
        hasCheck(dataflowLint(*elab, flow), "maybe-uninitialized"));

    // The reset branch chosen through a concatenation, and through a
    // mux whose narrower arm is zero-extended before the complement.
    const std::vector<std::function<IrExpr(const IrExpr &)>> conds = {
        [](const IrExpr &r) { return r; },
        [](const IrExpr &r) { return cat(r, lit(1, 0)); },
        [](const IrExpr &r) { return ~mux(r, lit(1, 1), lit(2, 0)); },
    };
    for (size_t i = 0; i < conds.size(); ++i) {
        ResetFlop flop(conds[i]);
        auto flop_elab = flop.elaborate();
        DataflowResult f = dataflowAnalyze(*flop_elab);
        EXPECT_TRUE(f.definedNet[flop.q.netId()]) << "condition " << i;
        EXPECT_FALSE(hasCheck(dataflowLint(*flop_elab, f),
                              "maybe-uninitialized"))
            << "condition " << i;
    }
}

TEST(DataflowXProp, ConstantTrueCombDriverIsDefined)
{
    /** `if (1) out = in;` assigns out on every path: X-propagation
     *  folds the condition as latch inference does. */
    struct M : Model
    {
        InPort in_;
        OutPort out;
        M() : Model(nullptr, "top"), in_(this, "in_", 8),
              out(this, "out", 8)
        {
            auto &c = combinational("comb");
            c.if_(lit(1, 1), [&] { c.assign(out, rd(in_)); });
        }
    } top;
    auto elab = top.elaborate();
    DataflowResult flow = dataflowAnalyze(*elab);
    EXPECT_TRUE(flow.definedNet[top.out.netId()]);
    EXPECT_EQ(flow.xKind[top.out.netId()], XCauseKind::Defined);
}

TEST(DataflowXProp, UnconditionalFlopAssignIsDefined)
{
    testmodels::Register top(nullptr, "top", 8);
    auto elab = top.elaborate();
    DataflowResult flow = dataflowAnalyze(*elab);
    EXPECT_TRUE(flow.definedNet[top.out.netId()]);
}

TEST(DataflowXProp, WitnessChainsToRootAndTaintIsNotReReported)
{
    /** Comb logic downstream of the unreset flop is tainted, but only
     *  the root cause is a finding — the cone stays queryable. */
    struct Tainted : Model
    {
        InPort en, in_;
        Wire q;
        OutPort out;
        Tainted()
            : Model(nullptr, "top"), en(this, "en", 1),
              in_(this, "in_", 8), q(this, "q", 8), out(this, "out", 8)
        {
            auto &s = tickRtl("seq");
            s.if_(rd(en), [&] { s.assign(q, rd(in_)); });
            auto &c = combinational("comb");
            c.assign(out, rd(q) + 1);
        }
    } top;
    auto elab = top.elaborate();
    DataflowResult flow = dataflowAnalyze(*elab);

    int out = top.out.netId();
    int q = top.q.netId();
    EXPECT_FALSE(flow.definedNet[out]);
    EXPECT_EQ(flow.xKind[out], XCauseKind::Upstream);
    EXPECT_EQ(flow.xCause[out], q);
    std::string witness = dataflowWitness(*elab, flow, out);
    EXPECT_NE(witness.find("top.out"), std::string::npos) << witness;
    EXPECT_NE(witness.find("top.q"), std::string::npos) << witness;

    // One finding: the root (the flop), not the downstream taint.
    auto issues = dataflowLint(*elab, flow);
    EXPECT_EQ(countCheck(issues, "maybe-uninitialized"), 1);
    for (const auto &issue : issues) {
        if (issue.check == "maybe-uninitialized") {
            EXPECT_EQ(issue.path, "top.q");
        }
    }
}

// ------------------------------------------------------- mesh corpus

TEST(DataflowCorpus, MeshIsFullyLive)
{
    // Every router feeds the lambda-owning traffic models, so nothing
    // is dead.
    net::MeshNetworkRTL mesh(nullptr, "mesh", 4, 16, 16, 2);
    auto elab = mesh.elaborate();
    DataflowResult flow = dataflowAnalyze(*elab);
    EXPECT_EQ(flow.deadBlocks, 0);
    EXPECT_EQ(flow.deadNets, 0);
}

} // namespace
} // namespace cmtl
