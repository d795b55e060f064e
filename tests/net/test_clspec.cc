/**
 * RouterCLSpec — the CL mesh in the specializable IR subset — must be
 * cycle-exact with the lambda-based RouterCL, fully specializable,
 * translatable, and identical under every execution backend.
 */

#include <gtest/gtest.h>

#include "core/sim.h"
#include "core/translate.h"
#include "net/traffic.h"

namespace cmtl {
namespace {

using net::MeshTrafficTop;
using net::NetLevel;

class ClSpecEquiv
    : public ::testing::TestWithParam<std::tuple<int, double>>
{};

TEST_P(ClSpecEquiv, CycleExactWithLambdaClRouter)
{
    auto [nrouters, rate] = GetParam();
    auto a = std::make_unique<MeshTrafficTop>("a", NetLevel::CL,
                                              nrouters, 4, rate, 9);
    auto b = std::make_unique<MeshTrafficTop>("b", NetLevel::CLSpec,
                                              nrouters, 4, rate, 9);
    auto ea = a->elaborate();
    auto eb = b->elaborate();
    SimulationTool sa(ea), sb(eb);
    sa.cycle(400);
    sb.cycle(400);
    EXPECT_EQ(a->stats().generated, b->stats().generated);
    EXPECT_EQ(a->stats().injected, b->stats().injected);
    EXPECT_EQ(a->stats().received, b->stats().received);
    EXPECT_EQ(a->stats().latency_sum, b->stats().latency_sum);
    EXPECT_EQ(a->stats().latency_max, b->stats().latency_max);
    EXPECT_EQ(a->inFlight(), b->inFlight());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ClSpecEquiv,
    ::testing::Combine(::testing::Values(16, 64),
                       ::testing::Values(0.05, 0.3, 0.8)),
    [](const auto &info) {
        return "n" + std::to_string(std::get<0>(info.param)) + "_r" +
               std::to_string(static_cast<int>(
                   std::get<1>(info.param) * 100));
    });

TEST(ClSpec, FullySpecializable)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::CLSpec,
                                                16, 4, 0.2, 5);
    auto elab = top->elaborate();
    SimConfig cfg;
    cfg.backend = Backend::Bytecode;
    SimulationTool sim(elab, cfg);
    EXPECT_EQ(sim.specStats().numSpecialized,
              sim.specStats().numBlocks - 1); // all but the harness
}

TEST(ClSpec, TranslatesToVerilog)
{
    net::MeshNetworkCLSpec netm(nullptr, "net", 4, 16, 16, 4);
    auto elab = netm.elaborate();
    std::string v = TranslationTool().translate(*elab);
    EXPECT_NE(v.find("module RouterCLSpec_0_4"), std::string::npos);
    EXPECT_NE(v.find("reg  [23:0] q0 [0:3];"), std::string::npos);
}

TEST(ClSpec, IdenticalStatsAcrossAllBackends)
{
    net::NetStats golden{};
    bool first = true;
    for (const char *name : {"optinterp", "bytecode", "cpp-block", "interp",
                             "interp+bytecode", "interp+cpp-block"}) {
        SimConfig cfg = SimConfig::fromString(name);
        if (nativeBlocks(cfg.backend) && !CppJit::compilerAvailable())
            continue;
        const bool boxed = boxedHost(cfg.backend);
        auto top = std::make_unique<MeshTrafficTop>(
            "top", NetLevel::CLSpec, 16, 4, 0.25, 77);
        auto elab = top->elaborate();
        SimulationTool sim(elab, cfg);
        sim.cycle(boxed ? 150 : 400);
        if (first) {
            golden = top->stats();
            first = false;
        } else if (boxed) {
            // Shorter run under the slow boxed interpreter: only
            // check internal agreement through a fresh golden run.
            auto top2 = std::make_unique<MeshTrafficTop>(
                "top2", NetLevel::CLSpec, 16, 4, 0.25, 77);
            auto elab2 = top2->elaborate();
            SimulationTool sim2(elab2);
            sim2.cycle(150);
            EXPECT_EQ(top->stats().received, top2->stats().received);
            EXPECT_EQ(top->stats().latency_sum, top2->stats().latency_sum);
        } else {
            EXPECT_EQ(top->stats().received, golden.received);
            EXPECT_EQ(top->stats().latency_sum, golden.latency_sum);
        }
    }
}

} // namespace
} // namespace cmtl
