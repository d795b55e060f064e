/**
 * Cache verification: all three implementation levels must be
 * functionally equivalent to a flat memory under arbitrary request
 * streams, and the real caches must actually cache.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "core/sim.h"
#include "stdlib/test_memory.h"
#include "tile/cache.h"
#include "tile/tile.h"

namespace cmtl {
namespace tile {
namespace {

/** Cache under test, with a memory behind it and a direct driver. */
class CacheHarness : public Model
{
  public:
    std::unique_ptr<CacheBase> cache;
    stdlib::TestMemory mem;
    ParentReqRespBundle port;
    std::unique_ptr<stdlib::ParentReqRespQueueAdapter> driver;

    explicit CacheHarness(Level level)
        : Model(nullptr, "h"), mem(this, "mem", 1, 2),
          port(this, "port", memIfcTypes())
    {
        switch (level) {
          case Level::FL:
            cache = std::make_unique<CacheFL>(this, "cache");
            break;
          case Level::CL:
            cache = std::make_unique<CacheCL>(this, "cache", 16);
            break;
          case Level::RTL:
            cache = std::make_unique<CacheRTL>(this, "cache", 16);
            break;
        }
        connectReqResp(*this, port, cache->proc_ifc);
        connectReqResp(*this, cache->mem_ifc, mem.ifc[0]);
        driver = std::make_unique<stdlib::ParentReqRespQueueAdapter>(
            port, 4);
        tickFl("drive", [this] { driver->xtick(); }, driver->writes());
    }

    Bits
    transact(SimulationTool &sim, MemReqType type, uint32_t addr,
             uint32_t data = 0)
    {
        driver->pushReq(
            makeMemReq(driver->types.req, type, addr, data));
        int guard = 0;
        while (driver->resp_q.empty() && ++guard < 10000)
            sim.cycle();
        EXPECT_LT(guard, 10000) << "cache never responded";
        return driver->getResp();
    }
};

class CacheLevels : public ::testing::TestWithParam<Level>
{};

TEST_P(CacheLevels, RandomStreamMatchesFlatMemory)
{
    CacheHarness h(GetParam());
    auto elab = h.elaborate();
    SimulationTool sim(elab);
    sim.reset();

    std::mt19937_64 rng(42);
    std::map<uint32_t, uint32_t> model; // flat reference memory
    const auto &resp_t = h.driver->types.resp;
    for (int i = 0; i < 300; ++i) {
        // Small address pool provokes hits, conflicts and evictions.
        uint32_t addr = static_cast<uint32_t>(rng() % 64) * 4 +
                        (rng() % 2 ? 0x400 : 0);
        if (rng() % 3 == 0) {
            uint32_t value = static_cast<uint32_t>(rng());
            h.transact(sim, MemReqType::Write, addr, value);
            model[addr] = value;
        } else {
            Bits resp = h.transact(sim, MemReqType::Read, addr);
            uint32_t expect =
                model.count(addr) ? model[addr] : 0;
            ASSERT_EQ(resp_t.get(resp, "data").toUint64(), expect)
                << "addr 0x" << std::hex << addr << " op " << std::dec
                << i;
        }
    }
}

TEST_P(CacheLevels, WritesReachBackingMemory)
{
    // Write-through: the store is visible in the backing memory.
    CacheHarness h(GetParam());
    auto elab = h.elaborate();
    SimulationTool sim(elab);
    sim.reset();
    h.transact(sim, MemReqType::Write, 0x123 & ~3u, 0xabcd1234);
    sim.cycle(20);
    EXPECT_EQ(h.mem.readWord(0x123 & ~3u), 0xabcd1234u);
}

INSTANTIATE_TEST_SUITE_P(Levels, CacheLevels,
                         ::testing::Values(Level::FL, Level::CL,
                                           Level::RTL),
                         [](const auto &info) {
                             return levelName(info.param);
                         });

TEST(CacheBehaviour, RepeatAccessesHitAndAreFaster)
{
    for (Level level : {Level::CL, Level::RTL}) {
        CacheHarness h(level);
        auto elab = h.elaborate();
        SimulationTool sim(elab);
        sim.reset();
        // First touch misses; re-reads hit.
        h.transact(sim, MemReqType::Read, 0x100);
        uint64_t start = sim.numCycles();
        for (int i = 0; i < 8; ++i)
            h.transact(sim, MemReqType::Read, 0x100);
        uint64_t hit_time = sim.numCycles() - start;

        // Distinct lines each time: all misses.
        start = sim.numCycles();
        for (int i = 0; i < 8; ++i)
            h.transact(sim, MemReqType::Read,
                       0x1000 + static_cast<uint32_t>(i) * 64);
        uint64_t miss_time = sim.numCycles() - start;
        EXPECT_LT(hit_time * 3, miss_time * 2)
            << levelName(level) << " hits should be faster";
        EXPECT_EQ(h.cache->numMisses(), 9u) << levelName(level);
        EXPECT_EQ(h.cache->numAccesses(), 17u) << levelName(level);
    }
}

TEST(CacheBehaviour, SpatialLocalityWithinALine)
{
    // Reading the 4 words of one line costs one miss.
    for (Level level : {Level::CL, Level::RTL}) {
        CacheHarness h(level);
        auto elab = h.elaborate();
        SimulationTool sim(elab);
        sim.reset();
        for (uint32_t w = 0; w < 4; ++w)
            h.transact(sim, MemReqType::Read, 0x200 + w * 4);
        EXPECT_EQ(h.cache->numMisses(), 1u) << levelName(level);
    }
}

TEST(CacheBehaviour, ConflictingLinesEvict)
{
    // 16-line direct-mapped cache, 16B lines: addresses 16*16=256
    // bytes apart collide.
    for (Level level : {Level::CL, Level::RTL}) {
        CacheHarness h(level);
        auto elab = h.elaborate();
        SimulationTool sim(elab);
        sim.reset();
        h.transact(sim, MemReqType::Read, 0x100);
        h.transact(sim, MemReqType::Read, 0x100 + 256); // evicts
        h.transact(sim, MemReqType::Read, 0x100);       // misses again
        EXPECT_EQ(h.cache->numMisses(), 3u) << levelName(level);
    }
}

} // namespace
} // namespace tile
} // namespace cmtl
