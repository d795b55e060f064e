#include <gtest/gtest.h>

#include <random>

#include "core/lint.h"
#include "core/sim.h"
#include "core/translate.h"
#include "test_models.h"

namespace cmtl {
namespace {

/** A tiny register file: sync write port, two async read ports. */
class RegFile : public Model
{
  public:
    InPort waddr, wdata, wen;
    InPort raddr0, raddr1;
    OutPort rdata0, rdata1;
    MemArray regs;

    RegFile(int nbits, int depth)
        : Model(nullptr, "rf"), waddr(this, "waddr", bitsFor(depth)),
          wdata(this, "wdata", nbits), wen(this, "wen", 1),
          raddr0(this, "raddr0", bitsFor(depth)),
          raddr1(this, "raddr1", bitsFor(depth)),
          rdata0(this, "rdata0", nbits), rdata1(this, "rdata1", nbits),
          regs(this, "regs", nbits, depth)
    {
        auto &t = tickRtl("write_port");
        t.if_(rd(wen),
              [&] { t.writeArray(regs, rd(waddr), rd(wdata)); });
        auto &c = combinational("read_ports");
        c.assign(rdata0, aread(regs, rd(raddr0)));
        c.assign(rdata1, aread(regs, rd(raddr1)));
    }
};

TEST(MemArrayBasics, RejectsBadShapes)
{
    testmodels::Register owner(nullptr, "m", 8);
    EXPECT_THROW(MemArray(&owner, "a", 8, 3), std::invalid_argument);
    EXPECT_THROW(MemArray(&owner, "a", 8, 0), std::invalid_argument);
    EXPECT_THROW(MemArray(&owner, "a", 80, 4), std::invalid_argument);
    MemArray good(&owner, "a", 8, 4);
    EXPECT_EQ(good.indexMask(), 3u);
}

TEST(MemArrayBasics, WriteOnlyInSequentialBlocks)
{
    class BadComb : public Model
    {
      public:
        MemArray mem;
        BadComb() : Model(nullptr, "bad"), mem(this, "mem", 8, 4)
        {
            auto &c = combinational("comb");
            EXPECT_THROW(c.writeArray(mem, lit(2, 0), lit(8, 1)),
                         std::logic_error);
        }
    };
    BadComb bad;
}

class ArrayModes : public ::testing::TestWithParam<testmodels::ModeParam>
{};

TEST_P(ArrayModes, RegFileWritesThenReads)
{
    RegFile rf(32, 16);
    auto elab = rf.elaborate();
    SimulationTool sim(elab, GetParam());

    // Write r3 = 111, r7 = 222.
    rf.wen.setValue(uint64_t(1));
    rf.waddr.setValue(uint64_t(3));
    rf.wdata.setValue(uint64_t(111));
    sim.cycle();
    rf.waddr.setValue(uint64_t(7));
    rf.wdata.setValue(uint64_t(222));
    sim.cycle();
    rf.wen.setValue(uint64_t(0));
    rf.raddr0.setValue(uint64_t(3));
    rf.raddr1.setValue(uint64_t(7));
    sim.eval();
    EXPECT_EQ(rf.rdata0.u64(), 111u);
    EXPECT_EQ(rf.rdata1.u64(), 222u);

    // Unwritten entries read zero.
    rf.raddr0.setValue(uint64_t(5));
    sim.eval();
    EXPECT_EQ(rf.rdata0.u64(), 0u);
}

TEST_P(ArrayModes, WriteEnableGates)
{
    RegFile rf(16, 8);
    auto elab = rf.elaborate();
    SimulationTool sim(elab, GetParam());
    rf.wen.setValue(uint64_t(0));
    rf.waddr.setValue(uint64_t(2));
    rf.wdata.setValue(uint64_t(99));
    sim.cycle(2);
    rf.raddr0.setValue(uint64_t(2));
    sim.eval();
    EXPECT_EQ(rf.rdata0.u64(), 0u);
}

TEST_P(ArrayModes, HostAccessRoundTrips)
{
    RegFile rf(32, 16);
    auto elab = rf.elaborate();
    SimulationTool sim(elab, GetParam());
    sim.writeArray(rf.regs, 9, Bits(32, 0x1234));
    rf.raddr0.setValue(uint64_t(9));
    sim.eval();
    EXPECT_EQ(rf.rdata0.u64(), 0x1234u);
    EXPECT_EQ(sim.readArray(rf.regs, 9).toUint64(), 0x1234u);
}

TEST_P(ArrayModes, RandomizedAgainstReferenceModel)
{
    RegFile rf(16, 32);
    auto elab = rf.elaborate();
    SimulationTool sim(elab, GetParam());
    std::mt19937_64 rng(99);
    uint16_t ref[32] = {};
    for (int i = 0; i < 200; ++i) {
        uint64_t wa = rng() % 32, ra = rng() % 32;
        uint64_t wd = rng() & 0xffff;
        bool we = rng() & 1;
        rf.wen.setValue(uint64_t(we));
        rf.waddr.setValue(wa);
        rf.wdata.setValue(wd);
        rf.raddr0.setValue(ra);
        sim.cycle();
        if (we)
            ref[wa] = static_cast<uint16_t>(wd);
        sim.eval();
        EXPECT_EQ(rf.rdata0.u64(), ref[ra]) << "iteration " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ArrayModes, ::testing::ValuesIn(testmodels::allModes()),
    [](const ::testing::TestParamInfo<testmodels::ModeParam> &info) {
        return testmodels::modeName(info.param);
    });

TEST(MemArrayTools, TranslatesToVerilogMemory)
{
    RegFile rf(32, 16);
    auto elab = rf.elaborate();
    std::string v = TranslationTool().translate(*elab);
    EXPECT_NE(v.find("reg  [31:0] regs [0:15];"), std::string::npos);
    EXPECT_NE(v.find("regs[waddr] <= wdata;"), std::string::npos);
    EXPECT_NE(v.find("rdata0 = regs[raddr0];"), std::string::npos);
}

TEST(MemArrayTools, LintFlagsMultipleWriters)
{
    class TwoWriters : public Model
    {
      public:
        MemArray mem;
        InPort a;
        TwoWriters()
            : Model(nullptr, "tw"), mem(this, "mem", 8, 4),
              a(this, "a", 8)
        {
            auto &t1 = tickRtl("w1");
            t1.writeArray(mem, lit(2, 0), rd(a));
            auto &t2 = tickRtl("w2");
            t2.writeArray(mem, lit(2, 1), rd(a));
        }
    };
    TwoWriters tw;
    auto elab = tw.elaborate();
    auto issues = LintTool().run(*elab);
    bool found = false;
    for (const auto &issue : issues)
        found |= issue.check == "multiple-array-writers";
    EXPECT_TRUE(found);
}

TEST(MemArrayTools, SpecializableWithArrays)
{
    RegFile rf(32, 16);
    auto elab = rf.elaborate();
    SimConfig cfg;
    cfg.backend = Backend::Bytecode;
    SimulationTool sim(elab, cfg);
    EXPECT_EQ(sim.specStats().numSpecialized, 2);
}

} // namespace
} // namespace cmtl
