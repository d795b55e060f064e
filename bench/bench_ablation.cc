/**
 * @file
 * Ablations of the framework's design choices (DESIGN.md Section 6).
 *
 *  1. Combinational scheduling: event-driven with sensitivity lists
 *     vs. statically levelized execution, on both storage backends.
 *  2. Signal storage: boxed dictionary (CPython analog) vs. dense
 *     slot arena (PyPy analog), at fixed scheduling policy.
 *  3. Specialization engine: tree-walk interpretation vs. bytecode
 *     vs. compiled C++, on the fully-specializable RTL mesh.
 */

#include "common.h"
#include "net/traffic.h"

namespace {

using namespace cmtl;
using namespace cmtl::bench;
using namespace cmtl::net;

double
rate(NetLevel level, Backend backend, SchedMode sched = SchedMode::Auto)
{
    SimConfig cfg;
    cfg.backend = backend;
    cfg.sched = sched;
    return measureRate(
               [&] {
                   static std::unique_ptr<MeshTrafficTop> top;
                   top = std::make_unique<MeshTrafficTop>(
                       "top", level, 16, 4, 0.3, 1);
                   auto elab = top->elaborate();
                   return std::make_unique<SimulationTool>(elab, cfg);
               },
               1.0)
        .cycles_per_second;
}

} // namespace

int
main(int argc, char **argv)
{
    (void)fullScale(argc, argv);
    std::printf("Design-choice ablations (16-node meshes, cycles/s)\n");

    rule('=');
    std::printf("1. scheduling policy (spec off)\n");
    rule('=');
    std::printf("%-8s %-8s %12s %12s %9s\n", "net", "storage", "event",
                "static", "ratio");
    for (NetLevel level : {NetLevel::CLSpec, NetLevel::RTL}) {
        for (Backend backend : {Backend::Interp, Backend::OptInterp}) {
            double r_ev = rate(level, backend, SchedMode::Event);
            double r_st = rate(level, backend, SchedMode::Static);
            std::printf("%-8s %-8s %12.0f %12.0f %8.2fx\n",
                        netLevelName(level),
                        backend == Backend::Interp ? "boxed" : "slot",
                        r_ev, r_st, r_st / r_ev);
        }
    }

    rule('=');
    std::printf("2. storage backend (auto scheduling)\n");
    rule('=');
    std::printf("%-8s %12s %12s %9s\n", "net", "boxed", "slot",
                "ratio");
    for (NetLevel level :
         {NetLevel::FL, NetLevel::CLSpec, NetLevel::RTL}) {
        double r_b = rate(level, Backend::Interp, SchedMode::Static);
        double r_s = rate(level, Backend::OptInterp, SchedMode::Static);
        std::printf("%-8s %12.0f %12.0f %8.2fx\n", netLevelName(level),
                    r_b, r_s, r_s / r_b);
    }

    rule('=');
    std::printf("3. specialization engine (slot storage, RTL mesh)\n");
    rule('=');
    std::printf("%-12s %12s\n", "engine", "cycles/s");
    std::printf("%-12s %12.0f\n", "tree-walk",
                rate(NetLevel::RTL, Backend::OptInterp));
    std::printf("%-12s %12.0f\n", "bytecode",
                rate(NetLevel::RTL, Backend::Bytecode));
    if (CppJit::compilerAvailable()) {
        std::printf("%-12s %12.0f\n", "compiled C++",
                    rate(NetLevel::RTL, Backend::CppBlock));
    }
    return 0;
}
