/**
 * @file
 * ParSim thread-scaling baseline.
 *
 * Sweeps the parallel kernel across thread counts {1,2,4,8,16} on the
 * parallelism-relevant workloads — mesh RTL networks near saturation
 * at 8x8, 32x32 and (with --full) 64x64 terminals, plus the multi-tile
 * system over the CL mesh — and records the machine-readable perf
 * baseline in BENCH_parallel_scaling.json. Speedups are self-relative
 * (ParSim at N threads vs the sequential SimulationTool on the same
 * design and backend), the honest number for a bulk-synchronous
 * kernel: it includes every barrier and boundary-push cost.
 *
 * Each point is the median of measureRate's repeated rounds, with the
 * rounds' min and max. A point counts the OS threads it runs: ParSim
 * runs one worker per island plus the coordinating thread. Points
 * whose OS threads exceed the host's hardware threads are marked
 * "oversubscribed": true and carry NO speedup field — a number
 * measured with spin-barrier workers time-slicing against each other
 * is an overhead datapoint, not a scaling claim. Each parallel point
 * also records the partition quality (cut_tokens, imbalance) and the
 * barrier wait, so scaling regressions can be attributed to
 * partitioning or synchronization. The file records the host's CPU
 * count and L2 size: a speedup above the thread count on a design
 * that outgrows one core's cache comes from cache capacity, not from
 * parallel work.
 */


#include "common.h"
#include "core/psim.h"
#include "core/stats.h"
#include "net/traffic.h"
#include "tile/multitile.h"

namespace {

using namespace cmtl;
using namespace cmtl::bench;
using net::MeshTrafficTop;
using net::NetLevel;

SimConfig
cfgFor(Backend backend, int threads)
{
    SimConfig cfg;
    cfg.backend = backend;
    cfg.threads = threads;
    return cfg;
}

std::unique_ptr<Simulator>
makeMesh(int nrouters, Backend backend, int threads)
{
    static std::unique_ptr<MeshTrafficTop> top;
    top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, nrouters,
                                           4, 0.30, 1);
    return makeSimulator(top->elaborate(), cfgFor(backend, threads));
}

std::unique_ptr<Simulator>
makeMultiTile(Backend backend, int threads)
{
    using namespace tile;
    static std::unique_ptr<MultiTileSystem> sys;
    static Workload w = makeMvmultMultiTile(8, false);
    sys = std::make_unique<MultiTileSystem>(
        "sys",
        std::vector<std::array<Level, 3>>(
            4, {Level::RTL, Level::RTL, Level::RTL}),
        /*cl_network=*/true);
    sys->loadProgram(w.image);
    loadMvmultData(sys->memNode(), w);
    return makeSimulator(sys->elaborate(), cfgFor(backend, threads));
}

struct Scenario
{
    std::string name;
    Backend backend;
    std::function<std::unique_ptr<Simulator>(Backend, int)> make;
    uint64_t probe_cycles; //!< SimScope'd fixed-length phase probe
};

std::string
backendName(Backend backend)
{
    SimConfig cfg;
    cfg.backend = backend;
    return cfg.toString();
}

std::function<std::unique_ptr<Simulator>(Backend, int)>
meshFactory(int nrouters)
{
    return [nrouters](Backend backend, int threads) {
        return makeMesh(nrouters, backend, threads);
    };
}

} // namespace

int
main(int argc, char **argv)
{
    SimOptions opts = SimOptions::parse(argc, argv);
    bool full = opts.full;
    double budget = full ? 4.0 : 1.0;
    std::vector<int> thread_counts = {1, 2, 4, 8, 16};

    std::vector<Scenario> scenarios = {
        {"mesh_rtl_8x8", Backend::OptInterp, meshFactory(64), 192},
        {"mesh_rtl_8x8_bytecode", Backend::Bytecode, meshFactory(64),
         192},
        {"mesh_rtl_32x32", Backend::Bytecode, meshFactory(1024), 96},
        {"multitile_4rtl_mesh", Backend::Bytecode, makeMultiTile, 192},
    };
    if (full) {
        scenarios.push_back(
            {"mesh_rtl_64x64", Backend::Bytecode, meshFactory(4096), 48});
    }
    if (opts.backend_set) {
        // --backend=<b>: sweep just that backend on the small mesh and
        // the multi-tile system.
        std::string b = backendName(opts.cfg.backend);
        scenarios = {
            {"mesh_rtl_8x8_" + b, opts.cfg.backend, meshFactory(64), 192},
            {"multitile_4rtl_mesh_" + b, opts.cfg.backend, makeMultiTile,
             192},
        };
    }

    Json json = Json::object();
    json.set("bench", Json::string("parallel_scaling"));
    const int host_cpus = hostFields(json);
    json.set("full", Json::boolean(full));

    std::printf("ParSim thread scaling (host cpus: %d)\n", host_cpus);
    std::printf("NOTE: points running more OS threads (islands + 1 "
                "coordinator) than %d host cpus are marked "
                "oversubscribed (no speedup claim)\n",
                host_cpus);
    Json scenario_rows = Json::array();

    for (const Scenario &sc : scenarios) {
        rule('=');
        std::printf("%s (backend %s)\n", sc.name.c_str(),
                    backendName(sc.backend).c_str());
        rule('=');
        std::printf("%8s %14s %10s %10s %10s\n", "threads",
                    "cycles/s", "speedup", "islands", "cut");

        Json points = Json::array();

        double base_rate = 0.0;
        for (int threads : thread_counts) {
            RateResult r = measureRate(
                [&] { return sc.make(sc.backend, threads); }, budget);
            if (threads == 1)
                base_rate = r.cycles_per_second;
            double speedup =
                base_rate > 0 ? r.cycles_per_second / base_rate : 0.0;

            // Partition shape and per-phase breakdown at this thread
            // count (threads=1 is the sequential kernel: one island,
            // no barriers). The probe run is short and SimScope'd:
            // island compute vs barrier-wait vs boundary traffic.
            int nislands = 1, nlevels = 1, cut = 0, os_threads = 1;
            double imbalance = 1.0;
            std::unique_ptr<Simulator> probe =
                sc.make(sc.backend, threads);
            if (auto *par =
                    dynamic_cast<ParSimulationTool *>(probe.get())) {
                nislands = par->plan().nislands;
                nlevels = par->plan().nlevels;
                cut = par->plan().cutTokens;
                imbalance = par->plan().imbalance();
                os_threads = nislands + 1;
                if (threads == thread_counts[1])
                    std::printf("%s", simulatorReport(*par).c_str());
            }
            const bool oversubscribed =
                host_cpus > 0 && os_threads > host_cpus;
            SimScope profiler(*probe);
            probe->cycle(sc.probe_cycles);
            SimScope::PhaseBreakdown pb = profiler.phaseBreakdown();
            Json metrics = profiler.snapshot();
            profiler.detach();

            if (oversubscribed) {
                std::printf("%8d %14.0f %10s %10d %10d\n", threads,
                            r.cycles_per_second, "oversub", nislands, cut);
            } else {
                std::printf("%8d %14.0f %9.2fx %10d %10d\n", threads,
                            r.cycles_per_second, speedup, nislands, cut);
            }
            std::printf("         rate: median of %d rounds, min %.0f, "
                        "max %.0f; %d OS threads\n",
                        r.rounds, r.min_cycles_per_second,
                        r.max_cycles_per_second, os_threads);
            std::printf(
                "         phase: compute %.4fs  barrier %.4fs  "
                "boundary %llu B (%llu cycles)\n",
                pb.settle_seconds + pb.tick_seconds + pb.flop_seconds,
                pb.barrier_seconds,
                static_cast<unsigned long long>(pb.boundary_bytes),
                static_cast<unsigned long long>(sc.probe_cycles));

            Json pt = Json::object();
            pt.set("threads", Json::number(threads));
            pt.set("os_threads", Json::number(os_threads));
            pt.set("cycles_per_second", Json::number(r.cycles_per_second));
            pt.set("min_cycles_per_second",
                   Json::number(r.min_cycles_per_second));
            pt.set("max_cycles_per_second",
                   Json::number(r.max_cycles_per_second));
            pt.set("rounds", Json::number(r.rounds));
            // No speedup claim for a point that time-sliced its
            // spin-barrier workers on too few cores.
            pt.set("oversubscribed", Json::boolean(oversubscribed));
            if (!oversubscribed)
                pt.set("speedup_vs_1thread", Json::number(speedup));
            pt.set("setup_seconds", Json::number(r.setup_seconds));
            pt.set("measured_cycles", Json::number(r.measured_cycles));
            pt.set("islands", Json::number(nislands));
            pt.set("settle_supersteps", Json::number(nlevels));
            pt.set("cut_tokens", Json::number(cut));
            pt.set("imbalance", Json::number(imbalance));
            pt.set("probe_cycles", Json::number(sc.probe_cycles));
            pt.set("barrier_seconds", Json::number(pb.barrier_seconds));
            pt.set("metrics", std::move(metrics));
            points.push(std::move(pt));
        }
        scenario_rows.push(
            Json::object()
                .set("name", Json::string(sc.name))
                .set("backend", Json::string(backendName(sc.backend)))
                .set("points", std::move(points)));
    }
    json.set("scenarios", std::move(scenario_rows));
    writeJson("BENCH_parallel_scaling.json", json);
    std::printf("wrote BENCH_parallel_scaling.json\n");
    return 0;
}
