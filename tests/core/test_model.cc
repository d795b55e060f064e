#include <gtest/gtest.h>

#include "core/model.h"
#include "test_models.h"

namespace cmtl {
namespace {

using testmodels::Counter;
using testmodels::Mux;
using testmodels::MuxReg;
using testmodels::Register;

TEST(ModelHierarchy, NamesAreHierarchical)
{
    MuxReg top(nullptr, "top");
    EXPECT_EQ(top.fullName(), "top");
    EXPECT_EQ(top.reg_.fullName(), "top.reg_");
    EXPECT_EQ(top.reg_.out.fullName(), "top.reg_.out");
    EXPECT_EQ(top.mux_.instName(), "mux");
    ASSERT_EQ(top.children().size(), 2u);
    EXPECT_EQ(top.children()[0], &top.reg_);
}

TEST(ModelHierarchy, ConnectRejectsWidthMismatch)
{
    Register a(nullptr, "a", 8);
    EXPECT_THROW(a.connect(a.in_, a.reset), std::invalid_argument);
}

TEST(ModelHierarchy, SignalWidthMustBePositive)
{
    Register a(nullptr, "a", 8);
    EXPECT_THROW(Wire(&a, "w", 0), std::invalid_argument);
}

TEST(Elaboration, ConnectedSignalsShareNets)
{
    MuxReg top(nullptr, "top");
    auto elab = top.elaborate();
    EXPECT_EQ(top.sel.netId(), top.mux_.sel.netId());
    EXPECT_EQ(top.mux_.out.netId(), top.reg_.in_.netId());
    EXPECT_EQ(top.reg_.out.netId(), top.out.netId());
    EXPECT_NE(top.sel.netId(), top.out.netId());
    for (size_t i = 0; i < top.in_.size(); ++i)
        EXPECT_EQ(top.in_[i].netId(), top.mux_.in_[i].netId());
}

TEST(Elaboration, ImplicitResetIsChained)
{
    MuxReg top(nullptr, "top");
    auto elab = top.elaborate();
    EXPECT_EQ(top.reset.netId(), top.reg_.reset.netId());
    EXPECT_EQ(top.reset.netId(), top.mux_.reset.netId());
}

TEST(Elaboration, NetNamesPreferShallowSignals)
{
    MuxReg top(nullptr, "top");
    auto elab = top.elaborate();
    EXPECT_EQ(elab->nets[top.out.netId()].name, "top.out");
    EXPECT_EQ(elab->nets[top.sel.netId()].name, "top.sel");
}

TEST(Elaboration, MustBeCalledOnTop)
{
    MuxReg top(nullptr, "top");
    EXPECT_THROW(top.reg_.elaborate(), std::logic_error);
}

TEST(Elaboration, BlockKindsAndAccessSets)
{
    MuxReg top(nullptr, "top");
    auto elab = top.elaborate();
    ASSERT_EQ(elab->blocks.size(), 2u); // register tick + mux comb

    const ElabBlock *tick = nullptr;
    const ElabBlock *comb = nullptr;
    for (const auto &blk : elab->blocks) {
        if (blk.kind == BlockKind::TickIr)
            tick = &blk;
        if (blk.kind == BlockKind::CombIr)
            comb = &blk;
    }
    ASSERT_NE(tick, nullptr);
    ASSERT_NE(comb, nullptr);

    // The register tick reads the mux output net, writes the out net.
    EXPECT_EQ(tick->reads,
              std::vector<int>{top.reg_.in_.netId()});
    EXPECT_EQ(tick->writes, std::vector<int>{top.out.netId()});
    EXPECT_TRUE(elab->nets[top.out.netId()].floppedStatic);
    EXPECT_FALSE(elab->nets[top.sel.netId()].floppedStatic);

    // The mux comb block reads sel + all inputs, writes the reg input.
    EXPECT_EQ(comb->writes, std::vector<int>{top.reg_.in_.netId()});
    EXPECT_EQ(comb->reads.size(), top.in_.size() + 1);
}

TEST(Elaboration, TopoOrderPutsWritersFirst)
{
    // comb chain: a -> b -> c through two comb blocks.
    class Chain : public Model
    {
      public:
        InPort a;
        Wire b;
        OutPort c;
        Chain()
            : Model(nullptr, "chain"), a(this, "a", 8), b(this, "b", 8),
              c(this, "c", 8)
        {
            // Declared consumer-first to make the sort do real work.
            auto &b2 = combinational("second");
            b2.assign(c, rd(b) + 1);
            auto &b1 = combinational("first");
            b1.assign(b, rd(a) + 1);
        }
    };
    Chain chain;
    auto elab = chain.elaborate();
    ASSERT_EQ(elab->combOrder.size(), 2u);
    EXPECT_EQ(elab->blocks[elab->combOrder[0]].name, "chain.first");
    EXPECT_EQ(elab->blocks[elab->combOrder[1]].name, "chain.second");
    EXPECT_FALSE(elab->hasCombCycle);
}

TEST(Elaboration, CombCycleIsDetected)
{
    class Loop : public Model
    {
      public:
        Wire a, b;
        Loop()
            : Model(nullptr, "loop"), a(this, "a", 1), b(this, "b", 1)
        {
            auto &b1 = combinational("fwd");
            b1.assign(b, ~rd(a));
            auto &b2 = combinational("bwd");
            b2.assign(a, ~rd(b));
        }
    };
    Loop loop;
    auto elab = loop.elaborate();
    EXPECT_TRUE(elab->hasCombCycle);
    SimConfig cfg;
    cfg.backend = Backend::OptInterp; // static scheduling
    EXPECT_THROW(SimulationTool(elab, cfg), std::logic_error);
}

TEST(Elaboration, LambdaBlocksCarryDeclaredSensitivity)
{
    class FlThing : public Model
    {
      public:
        InPort a;
        OutPort b, c, d;
        FlThing()
            : Model(nullptr, "fl"), a(this, "a", 8), b(this, "b", 8),
              c(this, "c", 8), d(this, "d", 8)
        {
            combLambda("double", [this] { b.setValue(a.u64() * 2); },
                       {&a}, {&b});
            tickFl("noop", [] {}, {&d, &c, &d});
        }
    };
    FlThing fl;
    auto elab = fl.elaborate();
    ASSERT_EQ(elab->blocks.size(), 2u);
    const ElabBlock &comb = elab->blocks[0];
    EXPECT_EQ(comb.kind, BlockKind::CombLambda);
    EXPECT_EQ(comb.reads, std::vector<int>{fl.a.netId()});
    EXPECT_EQ(comb.writes, std::vector<int>{fl.b.netId()});
    EXPECT_EQ(elab->blocks[1].kind, BlockKind::TickFl);
    // A tick lambda's declared writes are sorted and deduplicated.
    EXPECT_EQ(elab->blocks[1].writes,
              (std::vector<int>{fl.c.netId(), fl.d.netId()}));
    EXPECT_TRUE(elab->blocks[1].reads.empty());
    EXPECT_EQ(elab->tickOrder.size(), 1u);
}

TEST(Elaboration, ReadWriteOutsideSimulationThrows)
{
    Register reg(nullptr, "reg", 8);
    auto elab = reg.elaborate();
    EXPECT_THROW(reg.in_.value(), std::logic_error);
    EXPECT_THROW(reg.in_.setValue(uint64_t(1)), std::logic_error);
    EXPECT_THROW(reg.in_.setNext(uint64_t(1)), std::logic_error);
}

TEST(Elaboration, NetReadersIndexComdBlocks)
{
    MuxReg top(nullptr, "top");
    auto elab = top.elaborate();
    // The sel net is read by exactly one comb block (the mux).
    const auto &readers = elab->netReaders[top.sel.netId()];
    ASSERT_EQ(readers.size(), 1u);
    EXPECT_EQ(elab->blocks[readers[0]].kind, BlockKind::CombIr);
}

} // namespace
} // namespace cmtl
