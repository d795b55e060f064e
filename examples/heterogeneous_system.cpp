/**
 * @file
 * The paper's Figure 5a as a runnable program: accelerator-augmented
 * compute tiles interconnected by an on-chip network, each tile at a
 * different mix of abstraction levels, sharing one memory node.
 *
 * Every tile runs the accelerated matrix-vector multiply, discovers
 * its id through the memory node's who-am-I register, and writes its
 * results to a private region. The run demonstrates mixed-level
 * simulation: FL tiles finish in few (but inaccurate) cycles, RTL
 * tiles take realistically many, all in one simulation.
 *
 * Usage: heterogeneous_system [n] [--backend=<b>] [--profile[=json]]
 *                             [--vcd=path] [--checkpoint=path[:N]]
 *                             [--resume=path]
 *
 * --backend selects the execution backend by its canonical name
 * (interp, optinterp, bytecode, cpp-block, cpp-design, ...). With
 * --profile the whole run is SimScope-instrumented and ends with
 * the hot kernel-type and hot-block rankings and val/rdy channel
 * stats; --profile=json instead ends the output with one line of
 * JSON, the scope_version 5 SimScope::snapshot().
 *
 * --checkpoint / --resume capture and restore the simulation state
 * (core/snap.h). Mixed-level tiles carry FL/CL host state outside the
 * net list; models that do not serialize it are reported at resume
 * time, so a digest mismatch after restoring is attributable.
 */

#include <cstdio>
#include <memory>

#include "core/scope.h"
#include "core/sim.h"
#include "core/snap.h"
#include "core/vcd.h"
#include "stdlib/options.h"
#include "tile/multitile.h"

using namespace cmtl;
using namespace cmtl::tile;
using cmtl::stdlib::SimOptions;

int
main(int argc, char **argv)
{
    SimOptions opts = SimOptions::parse(argc, argv);
    int n = opts.intArg(8);
    bool profile = opts.profile, profile_json = opts.profile_json;

    std::vector<std::array<Level, 3>> levels = {
        {Level::FL, Level::FL, Level::FL},
        {Level::CL, Level::CL, Level::CL},
        {Level::RTL, Level::RTL, Level::RTL},
    };
    Workload w = makeMvmultMultiTile(n, /*use_accel=*/true);
    MultiTileSystem sys("sys", levels);
    sys.loadProgram(w.image);
    loadMvmultData(sys.memNode(), w);

    auto elab = sys.elaborate();
    SimulationTool sim(elab, opts.cfg);
    std::unique_ptr<SimScope> scope;
    if (profile) {
        scope = std::make_unique<SimScope>(sim);
        scope->traceAllValRdy();
    }

    if (!opts.checkpoint_path.empty() || !opts.resume.empty()) {
        // The processor tiles keep FL/CL host state outside the net
        // list and (unlike the network models) do not serialize it, so
        // say which models a checkpoint cannot carry before relying on
        // one.
        auto opaque = opaqueStateModels(*elab);
        if (!opaque.empty()) {
            std::printf("note: %zu model(s) carry unserialized host "
                        "state (first: %s); checkpoints of this design "
                        "restore nets/arrays only\n",
                        opaque.size(), opaque.front().c_str());
        }
    }
    try {
        if (!opts.resume.empty()) {
            SimSnapshot snap = snapLoadFile(opts.resume);
            snapRestore(sim, snap);
            std::printf("resumed %s at cycle %llu (digest %016llx)\n",
                        opts.resume.c_str(),
                        static_cast<unsigned long long>(snap.cycle),
                        static_cast<unsigned long long>(snap.digest()));
        } else {
            sim.reset();
        }
    } catch (const SnapError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }

    // Waveform and checkpoint writers attach after any restore so the
    // VCD timestamps continue the original waveform exactly.
    std::unique_ptr<VcdWriter> vcd;
    if (!opts.vcd.empty())
        vcd = std::make_unique<VcdWriter>(sim, opts.vcd);
    CheckpointManager ckpt(opts.checkpoint_path, opts.checkpoint_every);
    if (!opts.checkpoint_path.empty()) {
        ckpt.attach(sim);
        std::printf("checkpointing to %s every %llu cycles\n",
                    ckpt.path().c_str(),
                    static_cast<unsigned long long>(ckpt.everyCycles()));
    }

    std::printf("3 heterogeneous tiles, %dx%d mvmult each, shared "
                "memory over the network\n\n",
                n, n);
    uint64_t max_cycles = opts.cycles ? opts.cycles : 10000000;
    std::vector<uint64_t> halted_at(levels.size(), 0);
    while (!sys.allHalted() && sim.numCycles() < max_cycles) {
        sim.cycle();
        for (int t = 0; t < sys.numTiles(); ++t) {
            if (halted_at[t] == 0 && sys.tile(t).halted())
                halted_at[t] = sim.numCycles();
        }
    }
    sim.cycle(500);

    auto expect = expectedMvmult(w);
    for (int t = 0; t < sys.numTiles(); ++t) {
        bool ok = true;
        uint32_t base = w.out_addr + static_cast<uint32_t>(t) * n * 4;
        for (int r = 0; r < n; ++r) {
            ok &= sys.memNode().readWord(
                      base + static_cast<uint32_t>(r) * 4) ==
                  expect[r];
        }
        std::printf("tile %d <%s,%s,%s>: halted at cycle %8llu, "
                    "results %s\n",
                    t, levelName(levels[t][0]), levelName(levels[t][1]),
                    levelName(levels[t][2]),
                    static_cast<unsigned long long>(halted_at[t]),
                    ok ? "OK" : "WRONG");
    }
    std::printf("\nmemory node served %llu requests over the "
                "network\n",
                static_cast<unsigned long long>(
                    sys.memNode().numRequests()));
    if (scope) {
        if (profile_json)
            std::printf("\n%s\n", scope->snapshot().encode().c_str());
        else
            std::printf("\n%s", scope->report().c_str());
        scope->detach();
    }
    return 0;
}
