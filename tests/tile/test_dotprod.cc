/**
 * Standalone accelerator verification: each implementation level is
 * driven directly over its cpu_ifc with a test memory behind it —
 * the paper's incremental verification flow (FL golden behaviour,
 * then CL and RTL against the same test bench).
 */

#include <gtest/gtest.h>

#include "core/sim.h"
#include "stdlib/test_memory.h"
#include "tile/dotprod.h"
#include "tile/tile.h"

namespace cmtl {
namespace tile {
namespace {

/** Accelerator under test + memory + a direct cpu-port driver. */
class AccelHarness : public Model
{
  public:
    std::unique_ptr<DotProductBase> accel;
    stdlib::TestMemory mem;
    ParentReqRespBundle cpu;
    std::unique_ptr<stdlib::ParentReqRespQueueAdapter> driver;

    explicit AccelHarness(Level level)
        : Model(nullptr, "harness"), mem(this, "mem", 1, 2),
          cpu(this, "cpu", cpuIfcTypes())
    {
        switch (level) {
          case Level::FL:
            accel = std::make_unique<DotProductFL>(this, "accel");
            break;
          case Level::CL:
            accel = std::make_unique<DotProductCL>(this, "accel");
            break;
          case Level::RTL:
            accel = std::make_unique<DotProductRTL>(this, "accel");
            break;
        }
        connectReqResp(*this, cpu, accel->cpu_ifc);
        connectReqResp(*this, accel->mem_ifc, mem.ifc[0]);
        driver = std::make_unique<stdlib::ParentReqRespQueueAdapter>(cpu);
        tickFl("drive", [this] { driver->xtick(); }, driver->writes());
    }

    /** Run one dot product through the control protocol. */
    uint32_t
    compute(SimulationTool &sim, uint32_t size, uint32_t src0,
            uint32_t src1)
    {
        auto &types = driver->types;
        driver->pushReq(types.req.pack({1, size}));
        driver->pushReq(types.req.pack({2, src0}));
        driver->pushReq(types.req.pack({3, src1}));
        driver->pushReq(types.req.pack({0, 0}));
        int guard = 0;
        while (driver->resp_q.empty() && ++guard < 200000)
            sim.cycle();
        EXPECT_LT(guard, 200000) << "accelerator never responded";
        if (driver->resp_q.empty())
            return 0xdeadbeef;
        return static_cast<uint32_t>(
            types.resp.get(driver->getResp(), "data").toUint64());
    }
};

class DotProdLevels : public ::testing::TestWithParam<Level>
{};

TEST_P(DotProdLevels, ComputesDotProducts)
{
    AccelHarness h(GetParam());
    // src0 = 1..n at 0x100, src1 = 2,4,6,... at 0x200.
    for (uint32_t i = 0; i < 16; ++i) {
        h.mem.writeWord(0x100 + i * 4, i + 1);
        h.mem.writeWord(0x200 + i * 4, 2 * (i + 1));
    }
    auto elab = h.elaborate();
    SimulationTool sim(elab);
    sim.reset();

    for (uint32_t n : {1u, 3u, 16u}) {
        uint32_t expect = 0;
        for (uint32_t i = 0; i < n; ++i)
            expect += (i + 1) * 2 * (i + 1);
        EXPECT_EQ(h.compute(sim, n, 0x100, 0x200), expect)
            << "size " << n;
    }
}

TEST_P(DotProdLevels, BackToBackRunsReuseConfiguration)
{
    AccelHarness h(GetParam());
    for (uint32_t i = 0; i < 8; ++i) {
        h.mem.writeWord(0x100 + i * 4, 3);
        h.mem.writeWord(0x300 + i * 4, 7);
    }
    auto elab = h.elaborate();
    SimulationTool sim(elab);
    sim.reset();
    // Same configuration twice, then a different src0.
    EXPECT_EQ(h.compute(sim, 8, 0x100, 0x300), 8u * 21);
    EXPECT_EQ(h.compute(sim, 8, 0x100, 0x300), 8u * 21);
    EXPECT_EQ(h.compute(sim, 8, 0x300, 0x300), 8u * 49);
}

TEST_P(DotProdLevels, WrapsModulo32Bits)
{
    AccelHarness h(GetParam());
    for (uint32_t i = 0; i < 4; ++i) {
        h.mem.writeWord(0x100 + i * 4, 0x90000000u + i);
        h.mem.writeWord(0x200 + i * 4, 0x80000001u);
    }
    auto elab = h.elaborate();
    SimulationTool sim(elab);
    sim.reset();
    uint32_t expect = 0;
    for (uint32_t i = 0; i < 4; ++i)
        expect += (0x90000000u + i) * 0x80000001u;
    EXPECT_EQ(h.compute(sim, 4, 0x100, 0x200), expect);
}

INSTANTIATE_TEST_SUITE_P(Levels, DotProdLevels,
                         ::testing::Values(Level::FL, Level::CL,
                                           Level::RTL),
                         [](const auto &info) {
                             return levelName(info.param);
                         });

TEST(DotProdTiming, ClPipelinesFlMemoryAccess)
{
    // The CL model pipelines memory requests; the FL model issues one
    // at a time (paper Figures 7 vs 8): CL completes in fewer cycles.
    uint64_t cycles[2];
    int idx = 0;
    for (Level level : {Level::FL, Level::CL}) {
        AccelHarness h(level);
        for (uint32_t i = 0; i < 32; ++i) {
            h.mem.writeWord(0x100 + i * 4, i);
            h.mem.writeWord(0x400 + i * 4, i);
        }
        auto elab = h.elaborate();
        SimulationTool sim(elab);
        sim.reset();
        uint64_t start = sim.numCycles();
        h.compute(sim, 32, 0x100, 0x400);
        cycles[idx++] = sim.numCycles() - start;
    }
    EXPECT_LT(cycles[1] * 2, cycles[0])
        << "CL should be at least 2x faster than unpipelined FL";
}

} // namespace
} // namespace tile
} // namespace cmtl
