#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/lint.h"
#include "core/sim.h"
#include "core/translate.h"
#include "core/vcd.h"
#include "test_models.h"

namespace cmtl {
namespace {

using testmodels::Counter;
using testmodels::MuxReg;
using testmodels::Register;

// ------------------------------------------------------------ Translate

TEST(Translate, MuxRegProducesStructuralVerilog)
{
    MuxReg top(nullptr, "top", 8, 4);
    auto elab = top.elaborate();
    std::string v = TranslationTool().translate(*elab);

    // All three module definitions are present.
    EXPECT_NE(v.find("module MuxReg_8_4"), std::string::npos);
    EXPECT_NE(v.find("module Register_8"), std::string::npos);
    EXPECT_NE(v.find("module Mux_8_4"), std::string::npos);

    // Ports, instances and port maps.
    EXPECT_NE(v.find("input  wire clk"), std::string::npos);
    EXPECT_NE(v.find("Register_8 reg_"), std::string::npos);
    EXPECT_NE(v.find("Mux_8_4 mux"), std::string::npos);
    EXPECT_NE(v.find(".sel(sel)"), std::string::npos);
    EXPECT_NE(v.find(".reset(reset)"), std::string::npos);

    // Behavioural blocks.
    EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
    EXPECT_NE(v.find("always @(*)"), std::string::npos);
    EXPECT_NE(v.find("out <= in_;"), std::string::npos);
}

TEST(Translate, ChildToChildConnectionsGetWires)
{
    MuxReg top(nullptr, "top", 8, 4);
    auto elab = top.elaborate();
    std::string v = TranslationTool().translate(*elab);
    // mux.out -> reg_.in_ must route through a generated wire.
    EXPECT_NE(v.find("wire [7:0] w_"), std::string::npos);
}

TEST(Translate, CounterEmitsIfElse)
{
    Counter top(nullptr, "top", 8);
    auto elab = top.elaborate();
    std::string v = TranslationTool().translate(*elab);
    EXPECT_NE(v.find("if (reset) begin"), std::string::npos);
    EXPECT_NE(v.find("end else begin"), std::string::npos);
    EXPECT_NE(v.find("count <= (count + 8'h01);"), std::string::npos);
}

TEST(Translate, LambdaModelsAreRejected)
{
    class FlModel : public Model
    {
      public:
        FlModel() : Model(nullptr, "fl")
        {
            tickFl("logic", [] {}, {});
        }
    };
    FlModel fl;
    auto elab = fl.elaborate();
    EXPECT_THROW(TranslationTool().translate(*elab), std::logic_error);
}

TEST(Translate, ConstantsUseSizedLiterals)
{
    Counter top(nullptr, "top", 12);
    auto elab = top.elaborate();
    std::string v = TranslationTool().translate(*elab);
    EXPECT_NE(v.find("12'h"), std::string::npos);
}

TEST(Translate, WritesFile)
{
    Register top(nullptr, "top", 8);
    auto elab = top.elaborate();
    std::string path = ::testing::TempDir() + "/cmtl_reg.v";
    std::string v = TranslationTool().translateToFile(*elab, path);
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), v);
    std::remove(path.c_str());
}

// ----------------------------------------------------------------- Lint

TEST(Lint, CleanDesignHasNoErrors)
{
    MuxReg top(nullptr, "top", 8, 4);
    auto elab = top.elaborate();
    auto issues = LintTool().run(*elab);
    for (const auto &issue : issues)
        EXPECT_NE(issue.severity, LintSeverity::Error)
            << LintTool::format({issue});
}

TEST(Lint, DetectsMultipleDrivers)
{
    class DoubleDriver : public Model
    {
      public:
        InPort a;
        OutPort out;
        DoubleDriver()
            : Model(nullptr, "dd"), a(this, "a", 8), out(this, "out", 8)
        {
            auto &c1 = combinational("one");
            c1.assign(out, rd(a));
            auto &c2 = combinational("two");
            c2.assign(out, rd(a) + 1);
        }
    };
    DoubleDriver dd;
    auto elab = dd.elaborate();
    auto issues = LintTool().run(*elab);
    bool found = false;
    for (const auto &issue : issues)
        found |= issue.check == "multiple-drivers";
    EXPECT_TRUE(found) << LintTool::format(issues);
}

TEST(Lint, DetectsUndrivenAndUnreadNets)
{
    class Dangling : public Model
    {
      public:
        Wire floating; //!< read, never written
        Wire unused;   //!< written, never read
        OutPort out;
        Dangling()
            : Model(nullptr, "d"), floating(this, "floating", 4),
              unused(this, "unused", 4), out(this, "out", 4)
        {
            auto &c = combinational("comb");
            c.assign(out, rd(floating));
            auto &c2 = combinational("comb2");
            c2.assign(unused, lit(4, 3));
        }
    };
    Dangling d;
    auto elab = d.elaborate();
    auto issues = LintTool().run(*elab);
    bool undriven = false, unread = false;
    for (const auto &issue : issues) {
        undriven |= issue.check == "undriven-net" &&
                    issue.message.find("floating") != std::string::npos;
        unread |= issue.check == "unread-net" &&
                  issue.message.find("unused") != std::string::npos;
    }
    EXPECT_TRUE(undriven) << LintTool::format(issues);
    EXPECT_TRUE(unread) << LintTool::format(issues);
}

TEST(Lint, ReportsCombCycle)
{
    class Loop : public Model
    {
      public:
        Wire a, b;
        Loop() : Model(nullptr, "loop"), a(this, "a", 1), b(this, "b", 1)
        {
            auto &c1 = combinational("fwd");
            c1.assign(b, rd(a));
            auto &c2 = combinational("bwd");
            c2.assign(a, rd(b));
        }
    };
    Loop loop;
    auto elab = loop.elaborate();
    auto issues = LintTool().run(*elab);
    bool found = false;
    for (const auto &issue : issues)
        found |= issue.check == "comb-cycle";
    EXPECT_TRUE(found);
}

// ------------------------------------------------------------------ VCD

TEST(Vcd, DumpsHeaderAndChanges)
{
    Counter top(nullptr, "top", 8);
    auto elab = top.elaborate();
    SimulationTool sim(elab);
    std::string path = ::testing::TempDir() + "/cmtl_counter.vcd";
    {
        VcdWriter vcd(sim, path);
        top.en.setValue(uint64_t(1));
        sim.cycle(5);
        vcd.close();
    }
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    EXPECT_NE(text.find("$timescale 1ns $end"), std::string::npos);
    EXPECT_NE(text.find("$scope module top $end"), std::string::npos);
    EXPECT_NE(text.find("$var wire 8"), std::string::npos);
    EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
    EXPECT_NE(text.find("#10"), std::string::npos);
    EXPECT_NE(text.find("#50"), std::string::npos);
    // The 8-bit count changes each cycle: binary dumps present.
    EXPECT_NE(text.find("b00000011"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Vcd, OnlyChangedNetsAreRedumped)
{
    Register top(nullptr, "top", 8);
    auto elab = top.elaborate();
    SimulationTool sim(elab);
    std::string path = ::testing::TempDir() + "/cmtl_stable.vcd";
    {
        VcdWriter vcd(sim, path);
        top.in_.setValue(uint64_t(0x42));
        sim.cycle(4); // output settles after cycle 1, then no changes
        vcd.close();
    }
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    size_t count = 0;
    for (size_t pos = text.find("b01000010");
         pos != std::string::npos; pos = text.find("b01000010", pos + 1))
        ++count;
    // in_ and out each dump 0x42 exactly once.
    EXPECT_EQ(count, 2u);
    std::remove(path.c_str());
}

TEST(Vcd, EmitsInitialDumpvarsSection)
{
    Counter top(nullptr, "top", 8);
    auto elab = top.elaborate();
    SimulationTool sim(elab);
    std::string path = ::testing::TempDir() + "/cmtl_dumpvars.vcd";
    {
        VcdWriter vcd(sim, path);
        vcd.close();
    }
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();

    // Spec-mandated initial-value section: #0, $dumpvars, one value
    // per net, $end — in that order, right after the definitions.
    size_t defs = text.find("$enddefinitions $end");
    size_t t0 = text.find("#0\n");
    size_t dv = text.find("$dumpvars");
    size_t dv_end = text.find("$end", dv + 1);
    ASSERT_NE(defs, std::string::npos);
    ASSERT_NE(t0, std::string::npos);
    ASSERT_NE(dv, std::string::npos);
    ASSERT_NE(dv_end, std::string::npos);
    EXPECT_LT(defs, t0);
    EXPECT_LT(t0, dv);
    EXPECT_LT(dv, dv_end);
    // Every net (en, count, ...) gets an initial value inside it.
    size_t values = 0;
    std::stringstream section(text.substr(dv, dv_end - dv));
    std::string line;
    while (std::getline(section, line)) {
        if (!line.empty() &&
            (line[0] == '0' || line[0] == '1' || line[0] == 'b'))
            ++values;
    }
    EXPECT_GE(values, elab->nets.size());
    std::remove(path.c_str());
}

TEST(Vcd, SuppressesChangeFreeTimestamps)
{
    Register top(nullptr, "top", 8);
    auto elab = top.elaborate();
    SimulationTool sim(elab);
    std::string path = ::testing::TempDir() + "/cmtl_quiet.vcd";
    {
        VcdWriter vcd(sim, path);
        top.in_.setValue(uint64_t(0x42));
        sim.cycle(10); // all change settles in cycle 1
        vcd.close();
    }
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    // Only #0 (initial dump) and #10 (the one changing cycle) appear;
    // the eight change-free cycles emit no timestamp at all.
    EXPECT_NE(text.find("#0\n"), std::string::npos);
    EXPECT_NE(text.find("#10\n"), std::string::npos);
    for (int t = 2; t <= 10; ++t) {
        std::string stamp = "#" + std::to_string(t * 10) + "\n";
        EXPECT_EQ(text.find(stamp), std::string::npos) << stamp;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace cmtl
