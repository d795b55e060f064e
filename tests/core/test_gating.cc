/**
 * Activity-gating equivalence (SimConfig::gating).
 *
 * The contract under test: gating is a pure optimization. A gated run
 * — on the sequential kernel (per-step dirty bits over the static
 * schedule) and on ParSim (per-island quiescence, closed over the push
 * graph) — must be bit-identical to the same run with gating off:
 * every net every sampled cycle, the full VCD byte stream, and the
 * end-to-end workload statistics. The tests also assert the gate
 * actually fires (gatedSteps() > 0) so a silently disabled gate cannot
 * pass as "equivalent", and stress the external-write path by poking
 * driven nets mid-run on both sides.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/psim.h"
#include "core/sim.h"
#include "core/vcd.h"
#include "net/traffic.h"

namespace cmtl {
namespace {

using net::MeshTrafficTop;
using net::NetLevel;

SimConfig
gateCfg(Backend backend, int threads, bool gating)
{
    SimConfig cfg;
    cfg.backend = backend;
    cfg.threads = threads;
    cfg.gating = gating;
    return cfg;
}

std::unique_ptr<MeshTrafficTop>
makeTop(uint64_t seed)
{
    // 0.15 injection leaves real idle stretches, so gating has
    // something to skip; seeds vary per test to decorrelate them.
    return std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16, 4,
                                            0.15, seed);
}

void
expectSameState(Simulator &a, Simulator &b, const std::string &ctx)
{
    const auto &nets = a.elaboration().nets;
    for (const Net &net : nets) {
        ASSERT_EQ(a.readNet(net.id), b.readNet(net.id))
            << ctx << ": net " << net.name << " diverged at cycle "
            << a.numCycles();
    }
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * Lockstep a gated simulator against an ungated one over identically
 * constructed designs, poking the same driven net mid-run on both
 * (drivers must overwrite the poked value on the next settle even
 * when gating considered their steps clean).
 */
void
runGatingEquiv(Backend backend, int threads, int cycles, uint64_t seed)
{
    auto ta = makeTop(seed);
    auto tb = makeTop(seed);
    auto on =
        makeSimulator(ta->elaborate(), gateCfg(backend, threads, true));
    auto off =
        makeSimulator(tb->elaborate(), gateCfg(backend, threads, false));

    std::ostringstream ctx;
    ctx << "backend=" << backend << " threads=" << threads;

    on->reset();
    off->reset();
    int poke_net = static_cast<int>(on->elaboration().nets.size()) / 2;
    for (int c = 0; c < cycles; ++c) {
        if (c == cycles / 2) {
            Bits v(on->elaboration().nets[poke_net].nbits, 1);
            on->pokeNet(poke_net, v);
            off->pokeNet(poke_net, v);
        }
        on->cycle();
        off->cycle();
        if (c % 16 == 15)
            expectSameState(*on, *off, ctx.str());
    }
    expectSameState(*on, *off, ctx.str());
    EXPECT_EQ(ta->stats().received, tb->stats().received) << ctx.str();
    EXPECT_EQ(ta->stats().latency_sum, tb->stats().latency_sum)
        << ctx.str();
    EXPECT_GT(tb->stats().received, 0u) << "degenerate scenario";
    // The ungated side must never count a gated step (whether the
    // gated side fires here depends on traffic; GatingQuiescence
    // asserts firing under controlled conditions).
    EXPECT_EQ(off->gatedSteps(), 0u) << ctx.str();
}

class GatingEquiv
    : public ::testing::TestWithParam<std::tuple<int, Backend>>
{};

TEST_P(GatingEquiv, StateAndStatsMatchUngated)
{
    auto [threads, backend] = GetParam();
    runGatingEquiv(backend, threads, 128, 31 + threads);
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndSpec, GatingEquiv,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(Backend::OptInterp,
                                         Backend::Bytecode)));

TEST(GatingVcd, ByteIdenticalWaveformsBothKernels)
{
    const std::string on_path = ::testing::TempDir() + "gate_on.vcd";
    const std::string off_path = ::testing::TempDir() + "gate_off.vcd";
    for (int threads : {1, 4}) {
        auto ta = makeTop(23);
        auto tb = makeTop(23);
        {
            auto on = makeSimulator(
                ta->elaborate(),
                gateCfg(Backend::Bytecode, threads, true));
            VcdWriter vcd(*on, on_path);
            on->reset();
            on->cycle(96);
            vcd.close();
        }
        {
            auto off = makeSimulator(
                tb->elaborate(),
                gateCfg(Backend::Bytecode, threads, false));
            VcdWriter vcd(*off, off_path);
            off->reset();
            off->cycle(96);
            vcd.close();
        }
        std::string a = slurp(on_path);
        std::string b = slurp(off_path);
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a, b) << "VCD streams differ at threads=" << threads;
    }
    std::remove(on_path.c_str());
    std::remove(off_path.c_str());
}

/**
 * A design with no stimulus goes fully quiescent: after reset settles,
 * every subsequent sequential comb step / ParSim island superstep that
 * recomputes an unchanged value must be skipped, so the gated-step
 * counter grows every cycle — on both kernels, unspecialized and on
 * bytecode.
 */
class GatingQuiescence
    : public ::testing::TestWithParam<std::tuple<int, Backend>>
{};

TEST_P(GatingQuiescence, IdleDesignSkipsMostWork)
{
    auto [threads, backend] = GetParam();
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                                4, 0.0, 3);
    auto sim =
        makeSimulator(top->elaborate(), gateCfg(backend, threads, true));
    sim->reset();
    sim->cycle(8); // drain any reset transient
    uint64_t before = sim->gatedSteps();
    sim->cycle(64);
    uint64_t gained = sim->gatedSteps() - before;
    // At 0.0 injection nothing moves; expect at least one gated
    // step/superstep per cycle (in practice nearly the whole
    // schedule sequentially, every island's supersteps on ParSim).
    EXPECT_GE(gained, 64u);
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndSpec, GatingQuiescence,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(Backend::OptInterp,
                                         Backend::Bytecode)));

} // namespace
} // namespace cmtl
