/**
 * @file
 * Figure 16: SimJIT specializer overheads.
 *
 * Breaks down the one-time cost of run-time specializer creation for
 * 16- and 64-node CL and RTL meshes: elaboration (elab), code
 * generation (cgen), Verilog translation (veri — the verilation-stage
 * analog, exercised for RTL only), external compilation (comp),
 * dlopen+symbol binding (wrap) and simulator datastructure creation
 * (simc), under both host-execution modes. A second table shows the
 * effect of the translation cache (paper Section IV-A): compile and
 * wrap costs become one-time.
 *
 * Paper reference: compile time dominates everywhere; RTL overheads
 * greatly exceed CL; 64-node RTL took 230s at -O1 in 2014.
 */

#include <unistd.h>

#include <cstdlib>

#include "common.h"
#include "core/translate.h"
#include "net/traffic.h"

namespace {

using namespace cmtl;
using namespace cmtl::bench;
using namespace cmtl::net;

struct Overheads
{
    double elab, cgen, veri, comp, wrap, simc;
    bool cache_hit;
};

Overheads
measure(NetLevel level, int nodes, Backend backend, bool use_cache,
        const std::string &cache_dir)
{
    Overheads out{};
    auto top = std::make_unique<MeshTrafficTop>("top", level, nodes, 4,
                                                0.3, 1);
    Stopwatch sw;
    auto elab = top->elaborate();
    out.elab = sw.elapsed();

    // The verilation-stage analog: translate the RTL network (the
    // translatable subtree, without the lambda-based test harness) to
    // Verilog — the paper's SimJIT-RTL pipeline step.
    if (level == NetLevel::RTL) {
        MeshNetworkRTL netm(nullptr, "net", nodes, 16, 16, 4);
        auto nelab = netm.elaborate();
        Stopwatch vs;
        TranslationTool().translate(*nelab);
        out.veri = vs.elapsed();
    }

    SimConfig cfg;
    cfg.backend = backend;
    cfg.jit_cache = use_cache;
    cfg.jit_cache_dir = cache_dir;
    SimulationTool sim(elab, cfg);
    const SpecStats &stats = sim.specStats();
    out.cgen = stats.codegenSeconds;
    out.comp = stats.compileSeconds;
    out.wrap = stats.wrapSeconds;
    out.simc = stats.simCreateSeconds;
    out.cache_hit = stats.cacheHit;
    return out;
}

void
printRow(const char *level, int nodes, const char *exec,
         const Overheads &o)
{
    std::printf("%-4s %4d  %-7s %7.2f %7.2f %7.2f %8.2f %7.3f %7.3f "
                "%8.2f%s\n",
                level, nodes, exec, o.elab, o.cgen, o.veri, o.comp,
                o.wrap, o.simc,
                o.elab + o.cgen + o.veri + o.comp + o.wrap + o.simc,
                o.cache_hit ? "  (cache hit)" : "");
}

} // namespace

int
main(int argc, char **argv)
{
    if (!CppJit::compilerAvailable()) {
        std::printf("Figure 16: skipped — no host C++ compiler for the "
                    "SimJIT-C++ backend.\n");
        return 0;
    }
    (void)fullScale(argc, argv);

    // A private cache directory so 'cold' is genuinely cold.
    std::string cold_dir =
        "/tmp/cmtl-fig16-" + std::to_string(::getpid());

    std::printf("Figure 16: specializer creation overheads (seconds)\n");
    std::printf("%-4s %4s  %-7s %7s %7s %7s %8s %7s %7s %8s\n", "net",
                "size", "exec", "elab", "cgen", "veri", "comp", "wrap",
                "simc", "total");
    rule();

    for (NetLevel level : {NetLevel::CLSpec, NetLevel::RTL}) {
        for (int nodes : {16, 64}) {
            for (Backend backend :
                 {Backend::InterpCppBlock, Backend::CppBlock}) {
                Overheads o = measure(level, nodes, backend,
                                      /*use_cache=*/false, cold_dir);
                printRow(level == NetLevel::CLSpec ? "CL" : "RTL",
                         nodes,
                         boxedHost(backend) ? "CPython" : "PyPy", o);
            }
        }
    }

    rule();
    std::printf("with the translation cache warm (second run of the "
                "same design):\n");
    Overheads warm = measure(NetLevel::RTL, 64, Backend::CppBlock,
                             true, cold_dir);
    printRow("RTL", 64, "PyPy", warm);

    std::system(("rm -rf " + cold_dir).c_str());
    return 0;
}
