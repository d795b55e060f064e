/**
 * @file
 * The paper's Section III-D case study as a runnable program.
 *
 * Sweeps offered load on a mesh network at a chosen abstraction level
 * and prints the latency/throughput curve, demonstrating how one
 * test harness drives FL, CL and RTL implementations interchangeably.
 * Also dumps a short VCD waveform of the RTL mesh.
 *
 * Usage: mesh_network [fl|cl|clspec|rtl] [nrouters]
 *                     [--backend=<b>] [--threads N] [--profile[=json]]
 *                     [--traffic=pattern] [--seed=N]
 *                     [--cycles=N] [--vcd=path] [--audit]
 *                     [--checkpoint=path[:N]] [--resume=path]
 *
 * --traffic picks the spatial/temporal traffic pattern (uniform,
 * tornado, hotspot, bit-complement, bursty; default uniform) and
 * --seed the RNG seed (default 7), so any curve in the output is
 * reproducible from its command line.
 *
 * --audit is a pure static mode: partition the design at the requested
 * thread count (at least 2) and run the race auditor over it, printing
 * the verdict and exiting nonzero on any violation — no simulation.
 *
 * --backend selects the execution backend by its canonical name
 * (interp, optinterp, bytecode, cpp-block, cpp-design, ...); the
 * default is the plain arena interpreter. With --threads N > 1 the
 * sweep runs on the parallel ParSim kernel (bit-identical to the
 * sequential one) and prints its partition report. With --profile a
 * SimScope-instrumented run follows the sweep and prints the
 * hot kernel-type and hot-block rankings, phase timing and val/rdy
 * channel stats; --profile=json instead ends the output with one line
 * of JSON: SimScope::snapshot() (scope_version 5: phases, hot blocks,
 * kernel types, channels and the JIT costs under perfbench's metric
 * names).
 *
 * With --checkpoint and/or --resume the program switches to a single
 * long fixed-seed run (30% injection) that periodically snapshots its
 * complete state and/or restores it: kill the run at any point and
 * resume from the latest checkpoint — on any backend or thread count —
 * and the final state digest is identical to the uninterrupted run's.
 */

#include <algorithm>
#include <cstdio>

#include "core/psim.h"
#include "core/race_audit.h"
#include "core/scope.h"
#include "core/sim.h"
#include "core/snap.h"
#include "core/stats.h"
#include "core/vcd.h"
#include "net/traffic.h"
#include "stdlib/options.h"

using namespace cmtl;
using namespace cmtl::net;
using cmtl::stdlib::SimOptions;

namespace {

/**
 * Checkpoint / crash-resume mode. The run is deterministic (fixed
 * seed), so the digest printed at the final cycle must match between
 * an uninterrupted run and any snapshot-resumed continuation.
 */
int
runCheckpointMode(const SimOptions &opts, NetLevel level, int nrouters,
                  uint64_t seed, TrafficPattern pattern)
{
    uint64_t cycles = opts.cycles ? opts.cycles : 8000;
    auto top = std::make_unique<MeshTrafficTop>("top", level, nrouters,
                                                4, 0.30, seed, pattern);
    auto elab = top->elaborate();
    auto sim = makeSimulator(elab, opts.cfg);

    if (!opts.resume.empty()) {
        SimSnapshot snap = snapLoadFile(opts.resume);
        snapRestore(*sim, snap);
        std::printf("resumed %s at cycle %llu (digest %016llx)\n",
                    opts.resume.c_str(),
                    static_cast<unsigned long long>(snap.cycle),
                    static_cast<unsigned long long>(snap.digest()));
    }

    // Attach the waveform writer after any restore so its initial
    // dump (and timestamps) continue the original waveform exactly.
    std::unique_ptr<VcdWriter> vcd;
    if (!opts.vcd.empty())
        vcd = std::make_unique<VcdWriter>(*sim, opts.vcd);

    CheckpointManager ckpt(opts.checkpoint_path, opts.checkpoint_every);
    if (!opts.checkpoint_path.empty()) {
        ckpt.attach(*sim);
        std::printf("checkpointing to %s every %llu cycles\n",
                    ckpt.path().c_str(),
                    static_cast<unsigned long long>(ckpt.everyCycles()));
    }

    while (sim->numCycles() < cycles)
        sim->cycle();

    std::printf("cycle %llu state digest %016llx\n",
                static_cast<unsigned long long>(sim->numCycles()),
                static_cast<unsigned long long>(stateDigest(*sim)));
    std::printf("generated %llu injected %llu received %llu "
                "avg latency %.2f\n",
                static_cast<unsigned long long>(top->stats().generated),
                static_cast<unsigned long long>(top->stats().injected),
                static_cast<unsigned long long>(top->stats().received),
                top->stats().avgLatency());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    SimOptions opts = SimOptions::parse(argc, argv);
    NetLevel level = opts.level == "fl"       ? NetLevel::FL
                     : opts.level == "clspec" ? NetLevel::CLSpec
                     : opts.level == "rtl"    ? NetLevel::RTL
                                              : NetLevel::CL;
    int nrouters = opts.intArg(16);
    uint64_t seed = opts.seed_set ? opts.seed : 7;
    TrafficPattern pattern = TrafficPattern::Uniform;
    if (!opts.traffic.empty() &&
        !trafficPatternFromName(opts.traffic, &pattern)) {
        std::fprintf(stderr,
                     "%s: unknown traffic pattern '%s' (uniform | "
                     "tornado | hotspot | bit-complement | bursty)\n",
                     argv[0], opts.traffic.c_str());
        return 2;
    }

    if (!opts.checkpoint_path.empty() || !opts.resume.empty()) {
        try {
            return runCheckpointMode(opts, level, nrouters, seed,
                                     pattern);
        } catch (const SnapError &e) {
            std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
            return 1;
        }
    }
    int threads = opts.threads;
    bool profile = opts.profile, profile_json = opts.profile_json;
    const SimConfig &cfg = opts.cfg;

    if (opts.audit) {
        // Static mode: prove the partition invariants that make the
        // BSP schedule race-free, without simulating a cycle.
        auto top = std::make_unique<MeshTrafficTop>("top", level,
                                                    nrouters, 4, 0.30,
                                                    seed, pattern);
        auto elab = top->elaborate();
        int nislands = std::max(threads, 2);
        RaceAuditReport report =
            auditPartition(*elab, partitionDesign(*elab, nislands));
        std::printf("%s mesh, %d routers, %d islands\n%s",
                    netLevelName(level), nrouters, nislands,
                    report.format().c_str());
        return report.ok() ? 0 : 1;
    }

    std::printf("%s mesh, %d routers, %s traffic (seed %llu), %d "
                "thread(s), backend %s\n\n",
                netLevelName(level), nrouters,
                trafficPatternName(pattern),
                static_cast<unsigned long long>(seed), threads,
                cfg.toString().c_str());
    std::printf("%9s %12s %12s\n", "injection", "avg latency",
                "throughput");
    bool reported = false;
    for (double inj : {0.02, 0.10, 0.20, 0.30, 0.40}) {
        auto top = std::make_unique<MeshTrafficTop>(
            "top", level, nrouters, 4, inj, seed, pattern);
        auto elab = top->elaborate();
        auto sim = makeSimulator(elab, cfg);
        sim->cycle(500);
        top->resetStats();
        sim->cycle(2000);
        std::printf("%8.0f%% %12.2f %11.1f%%\n", inj * 100,
                    top->stats().avgLatency(),
                    top->stats().throughput(nrouters) * 100);
        if (threads > 1 && !reported) {
            reported = true;
            std::printf("\n%s\n", simulatorReport(*sim).c_str());
        }
    }

    if (profile) {
        // Profiled run near saturation: hot kernel types, hot blocks
        // with hierarchical paths, phase timing and every val/rdy
        // channel in the design.
        auto ptop = std::make_unique<MeshTrafficTop>(
            "top", level, nrouters, 4, 0.30, seed, pattern);
        auto psim = makeSimulator(ptop->elaborate(), cfg);
        SimScope scope(*psim);
        int nchannels = scope.traceAllValRdy();
        psim->cycle(1000);
        if (profile_json) {
            // Machine-readable snapshot as the last line of output.
            std::printf("\n%s\n", scope.snapshot().encode().c_str());
        } else {
            std::printf("\nprofile (injection 30%%, 1000 cycles, %d "
                        "channels traced):\n%s",
                        nchannels, scope.report().c_str());
        }
        scope.detach();
        return 0;
    }

    // Waveform dump of a short RTL run (viewable with gtkwave).
    // --vcd overrides the artifact path; the default lands in the
    // current directory (the build tree when run from there), and
    // *.vcd is gitignored either way.
    std::string vcd_path =
        opts.vcd.empty() ? "mesh_network.vcd" : opts.vcd;
    std::printf("\ndumping %s (RTL 2x2 mesh, 50 cycles)...\n",
                vcd_path.c_str());
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 4,
                                                2, 0.2, 3);
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    VcdWriter vcd(sim, vcd_path);
    sim.cycle(50);
    std::printf("done.\n");
    return 0;
}
