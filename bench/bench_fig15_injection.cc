/**
 * @file
 * Figure 15: SimJIT performance vs. load.
 *
 * Impact of injection rate on 64-node CL and RTL mesh simulations.
 * The paper observes: PyPy speedups are roughly flat across loads;
 * SimJIT speedups grow with load (more time in optimized code per
 * simulated cycle) and flatten past the saturation point near 30%
 * injection; SimJIT-CL+PyPy spans 23-49x and SimJIT-RTL+PyPy
 * 77-192x.
 */

#include "common.h"
#include "net/traffic.h"

namespace {

using namespace cmtl;
using namespace cmtl::bench;
using namespace cmtl::net;

constexpr int kNodes = 64;
constexpr int kEntries = 4;

RateResult
measurePoint(NetLevel level, const SimConfig &cfg, double injection)
{
    return measureRate(
        [&] {
            static std::unique_ptr<MeshTrafficTop> top;
            top = std::make_unique<MeshTrafficTop>(
                "top", level, kNodes, kEntries, injection, 1);
            auto elab = top->elaborate();
            return std::make_unique<SimulationTool>(elab, cfg);
        },
        1.0);
}

} // namespace

int
main(int argc, char **argv)
{
    SimOptions opts = SimOptions::parse(argc, argv);
    bool full = opts.full;
    std::vector<double> rates = {0.02, 0.10, 0.20, 0.30, 0.40};
    if (full)
        rates = {0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40};

    std::printf("Figure 15: speedup vs injection rate, 64-node mesh\n");
    std::printf("(speedups over the CPython analog at the same load)\n");

    for (NetLevel level : {NetLevel::CLSpec, NetLevel::RTL}) {
        rule('=');
        std::printf("%s network\n", level == NetLevel::CLSpec
                                        ? "CL (IR subset)"
                                        : netLevelName(level));
        rule('=');
        std::printf("%-14s", "config");
        for (double r : rates)
            std::printf(" %7.0f%%", r * 100);
        std::printf("\n");

        std::vector<double> interp_rate;
        for (const ModeSpec &mode : paperModes(opts)) {
            std::printf("%-14s", mode.name.c_str());
            std::fflush(stdout);
            int i = 0;
            for (double inj : rates) {
                RateResult r = measurePoint(level, mode.cfg, inj);
                if (mode.cfg.backend == Backend::Interp) {
                    interp_rate.push_back(r.cycles_per_second);
                    std::printf(" %7.0f/s", r.cycles_per_second);
                } else {
                    std::printf(" %7.1fx",
                                r.cycles_per_second / interp_rate[i]);
                }
                std::fflush(stdout);
                ++i;
            }
            std::printf("\n");
        }
    }
    return 0;
}
