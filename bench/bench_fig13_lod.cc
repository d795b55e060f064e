/**
 * @file
 * Figure 13: simulator performance vs. level of detail.
 *
 * All 27 ⟨Processor, Cache, Accelerator⟩ compositions of the compute
 * tile execute the matrix-vector-multiplication kernel under the
 * CPython analog and under SimJIT+PyPy. Performance is wall-clock to
 * complete the workload, normalized against a pure instruction-set
 * simulator (the paper's LOD=1 baseline; here the host-native
 * GoldenIss standing in for the PyPy ISS). LOD = p + c + a with
 * FL=1, CL=2, RTL=3.
 *
 * Expected shape (paper): normalized performance trends downward as
 * LOD grows; a large drop between the ISS and ⟨FL,FL,FL⟩ (the cost of
 * modular port-based modeling); SimJIT+PyPy shifts every point up,
 * with ⟨RTL,RTL,RTL⟩ recovering strongly because the whole design
 * specializes as one unit. Note: our CL components are host lambdas
 * (arbitrary-Python analogs), so unlike the paper's run SimJIT-CL has
 * no CL cache to specialize; CL components benefit from the PyPy axis
 * only.
 */

#include "common.h"
#include "tile/programs.h"
#include "tile/tile.h"

namespace {

using namespace cmtl;
using namespace cmtl::bench;
using namespace cmtl::tile;

double
runTile(Level p, Level c, Level a, const SimConfig &cfg,
        const Workload &w)
{
    // Repeat whole workload executions until the measurement is
    // stable; simulator construction and specialization overheads are
    // excluded (Figure 13 studies steady-state simulation rate).
    double total = 0.0;
    int reps = 0;
    while (total < 0.25 && reps < 200) {
        auto t = std::make_unique<Tile>("tile", p, c, a);
        t->loadProgram(w.image);
        loadMvmultData(t->mem(), w);
        auto elab = t->elaborate();
        SimulationTool sim(elab, cfg);
        sim.reset();
        Stopwatch sw;
        uint64_t guard = 0;
        while (!t->halted() && ++guard < 100000)
            sim.cycle(64);
        total += sw.elapsed();
        ++reps;
    }
    return total / reps;
}

} // namespace

int
main(int argc, char **argv)
{
    SimOptions opts = SimOptions::parse(argc, argv);
    bool full = opts.full;
    const int n = full ? 64 : 16;
    Workload w = makeMvmultAccel(n);

    // LOD-1 baseline: the instruction-set simulator. Repeat until
    // measurable.
    double iss_time;
    {
        Stopwatch sw;
        int reps = 0;
        do {
            GoldenIss iss(w.image);
            for (uint32_t i = 0;
                 i < static_cast<uint32_t>(w.n) * w.n; ++i)
                iss.writeMem(w.matrix_addr + i * 4, mvmultElement(1, i));
            for (uint32_t i = 0; i < static_cast<uint32_t>(w.n); ++i)
                iss.writeMem(w.vector_addr + i * 4,
                             mvmultElement(2, i));
            iss.run(100000000);
            ++reps;
        } while (sw.elapsed() < 0.2);
        iss_time = sw.elapsed() / reps;
    }

    SimConfig cpython;
    cpython.backend = Backend::Interp;
    SimConfig simjit = simjitConfig(opts);

    std::printf("Figure 13: simulator performance vs level of detail\n");
    std::printf("workload: %dx%d mvmult on the accelerator tile; "
                "performance normalized\nagainst the ISS baseline "
                "(%.2f us per run)\n\n",
                n, n, iss_time * 1e6);
    std::printf("%-12s %3s  %14s %14s %10s\n", "<P,C,A>", "LOD",
                "CPython", "SimJIT+PyPy", "shift");
    rule();

    const Level levels[] = {Level::FL, Level::CL, Level::RTL};
    for (Level p : levels) {
        for (Level c : levels) {
            for (Level a : levels) {
                double t_interp = runTile(p, c, a, cpython, w);
                double t_spec = runTile(p, c, a, simjit, w);
                int lod = lodScore(p) + lodScore(c) + lodScore(a);
                std::printf("%-12s %3d  %14.6f %14.6f %9.1fx\n",
                            (std::string(levelName(p)) + "," +
                             levelName(c) + "," + levelName(a))
                                .c_str(),
                            lod, iss_time / t_interp,
                            iss_time / t_spec, t_interp / t_spec);
                std::fflush(stdout);
            }
        }
    }
    rule();
    std::printf("ISS baseline plots at LOD 1, normalized performance "
                "1.0\n");
    return 0;
}
