/**
 * @file
 * Figure 14: SimJIT mesh network performance.
 *
 * 64-node FL, CL and RTL mesh networks operating near saturation,
 * simulated under every framework configuration plus the hand-written
 * C++ baseline. For each target simulation length the table reports
 * the speedup over CPython-analog execution, both excluding one-time
 * specialization overheads (the paper's solid lines / warm-cache
 * behaviour) and including them (dotted lines).
 *
 * Paper reference points (64-node mesh, 10M cycles): PyPy 12x (CL) /
 * 6x (RTL); SimJIT 30x / 63x; SimJIT+PyPy 75x / 200x; hand-written
 * C++ 300x (CL) / 1200x (verilated Verilog, RTL); SimJIT+PyPy within
 * 4x / 6x of hand-written code. The FL network sees only the PyPy
 * axis (no FL specializer exists, Figure 14a).
 */

#include "common.h"
#include "net/traffic.h"
#include "refcpp/refnet.h"

namespace {

using namespace cmtl;
using namespace cmtl::bench;
using namespace cmtl::net;

constexpr int kNodes = 64;
constexpr int kEntries = 4;
constexpr double kInjection = 0.30; //!< near saturation (paper Fig 14)

RateResult
measureLevel(NetLevel level, const SimConfig &cfg)
{
    return measureRate([&] {
        static std::unique_ptr<MeshTrafficTop> top;
        top = std::make_unique<MeshTrafficTop>("top", level, kNodes,
                                               kEntries, kInjection, 1);
        auto elab = top->elaborate();
        return std::make_unique<SimulationTool>(elab, cfg);
    });
}

} // namespace

int
main(int argc, char **argv)
{
    SimOptions opts = SimOptions::parse(argc, argv);
    bool full = opts.full;
    std::vector<uint64_t> targets = {1000, 10000, 100000, 1000000};
    if (full)
        targets.push_back(10000000);

    // The paper's four configurations plus the tiered per-batch JIT
    // (SimJIT v2); --backend=<b> restricts the sweep to the CPython
    // baseline and that one backend.
    std::vector<ModeSpec> modes = paperModes(opts);
    if (!opts.backend_set && CppJit::compilerAvailable())
        modes.push_back(
            {"SimJIT-design", SimConfig::fromString("cpp-design")});

    std::printf("Figure 14: 64-node mesh simulator performance "
                "(injection %.0f%%)\n",
                kInjection * 100);
    std::printf("speedups vs CPython-analog at the same target cycles; "
                "'total' includes\nmeasured specialization overheads "
                "(cold overheads appear in Figure 16)\n");

    // The hand-written C++ baseline (one implementation, serves as
    // the comparator for both CL and RTL, standing in for the paper's
    // hand C++ / verilated-Verilog baselines).
    refcpp::RefMeshCL ref(kNodes, kEntries, kInjection, 1);
    ref.cycle(256);
    Stopwatch ref_sw;
    uint64_t ref_cycles = 0;
    while (ref_sw.elapsed() < 2.0) {
        ref.cycle(4096);
        ref_cycles += 4096;
    }
    double ref_rate = static_cast<double>(ref_cycles) / ref_sw.elapsed();

    Json json = Json::object();
    json.set("bench", Json::string("fig14_mesh"));
    hostFields(json);
    json.set("nodes", Json::number(kNodes));
    json.set("injection_rate", Json::number(kInjection));
    json.set("handcpp_cycles_per_second", Json::number(ref_rate));
    Json levels = Json::array();

    for (NetLevel level :
         {NetLevel::FL, NetLevel::CLSpec, NetLevel::RTL}) {
        rule('=');
        std::printf("%s network (paper Fig 14%c)\n",
                    level == NetLevel::CLSpec ? "CL (IR subset)"
                                              : netLevelName(level),
                    level == NetLevel::FL    ? 'a'
                    : level == NetLevel::CLSpec ? 'b'
                                                : 'c');
        rule('=');

        std::vector<std::pair<ModeSpec, RateResult>> results;
        for (const ModeSpec &mode : modes) {
            if (level == NetLevel::FL && specializes(mode.cfg.backend))
                continue; // no FL specializer exists (paper Sec IV)
            results.emplace_back(mode,
                                 measureLevel(level, mode.cfg));
        }

        Json configs = Json::array();
        for (const auto &[mode, r] : results) {
            Json row = Json::object();
            row.set("config", Json::string(mode.name));
            row.set("backend", Json::string(mode.cfg.toString()));
            row.set("cycles_per_second", Json::number(r.cycles_per_second));
            row.set("setup_seconds", Json::number(r.setup_seconds));
            row.set("codegen_seconds", Json::number(r.spec.codegenSeconds));
            row.set("compile_seconds", Json::number(r.spec.compileSeconds));
            row.set("compile_ms", Json::number(r.spec.compileSeconds * 1e3));
            // -1 = no tier swap (not a tiered backend); 0 = the
            // native module was live before the first cycle.
            row.set("tier_swap_cycle",
                    Json::number(static_cast<int>(r.spec.tierSwapCycle)));
            row.set("cache_hit", Json::boolean(r.spec.cacheHit));
            configs.push(std::move(row));
        }
        Json entry = Json::object();
        entry.set("level", Json::string(netLevelName(level)));
        entry.set("configs", std::move(configs));
        // One SimScope'd short run per level (interp config): phase
        // split, hot blocks and val/rdy channel stats for this design.
        auto make = [&] {
            static std::unique_ptr<MeshTrafficTop> top;
            top = std::make_unique<MeshTrafficTop>(
                "top", level, kNodes, kEntries, kInjection, 1);
            return std::unique_ptr<Simulator>(
                std::make_unique<SimulationTool>(top->elaborate(),
                                                 modes.front().cfg));
        };
        entry.set("metrics", profileSnapshot(make, 96));
        levels.push(std::move(entry));

        const RateResult &interp = results.front().second;
        std::printf("%-14s %12s %8s", "config", "cycles/s",
                    "setup(s)");
        for (uint64_t n : targets)
            std::printf("  %8s@%-6s", "exec", std::to_string(n).c_str());
        std::printf("\n");
        for (const auto &[mode, r] : results) {
            std::printf("%-14s %12.0f %8.2f", mode.name.c_str(),
                        r.cycles_per_second, r.setup_seconds);
            for (uint64_t n : targets) {
                double solid = projectedTime(interp, n, false) /
                               projectedTime(r, n, false);
                double dotted = projectedTime(interp, n, false) /
                                projectedTime(r, n, true);
                std::printf("  %7.1fx/%-6.1f", solid, dotted);
            }
            std::printf("\n");
        }
        if (level != NetLevel::FL) {
            std::printf("%-14s %12.0f %8.2f", "hand C++", ref_rate,
                        0.0);
            for (uint64_t n : targets) {
                double solid = (static_cast<double>(n) /
                                interp.cycles_per_second) /
                               (static_cast<double>(n) / ref_rate);
                std::printf("  %7.1fx/%-6.1f", solid, solid);
            }
            std::printf("\n");
            const auto &[best_mode, best] = results.back();
            std::printf("--> %s within %.1fx of hand-written "
                        "C++ (paper: %s)\n",
                        best_mode.name.c_str(),
                        ref_rate / best.cycles_per_second,
                        level == NetLevel::RTL ? "6x" : "4x");
            // cpp-design vs cpp-block: the same kernels, one C-ABI
            // crossing per batch of same-type blocks instead of one
            // per block.
            const RateResult *block = nullptr, *design = nullptr;
            for (const auto &[mode, r] : results) {
                std::string b = mode.cfg.toString();
                if (b == "cpp-block")
                    block = &r;
                else if (b == "cpp-design")
                    design = &r;
            }
            if (block && design) {
                std::printf("--> cpp-design %.1fx over cpp-block "
                            "(tier swap at cycle %lld, compile "
                            "%.0f ms)\n",
                            design->cycles_per_second /
                                block->cycles_per_second,
                            static_cast<long long>(
                                design->spec.tierSwapCycle),
                            design->spec.compileSeconds * 1e3);
            }
        }
    }
    json.set("levels", std::move(levels));

    // Code generation on the RTL mesh: per-block (cpp-block) vs
    // per-batch (cpp-design) calls of one library — emitted TU size
    // and kernel count (one per block type, equal on both), compile
    // time, steady-state rate and the arena's flop plan.
    rule('=');
    std::printf("code generation (RTL mesh)\n");
    rule('=');
    Json codegen = Json::array();
    {
        std::vector<SimConfig> cfgs;
        if (CppJit::compilerAvailable()) {
            cfgs.push_back(SimConfig::fromString("cpp-block"));
            cfgs.push_back(SimConfig::fromString("cpp-design"));
        } else {
            cfgs.push_back(SimConfig::fromString("bytecode"));
        }
        for (const SimConfig &cfg : cfgs) {
            RateResult r = measureLevel(NetLevel::RTL, cfg);
            std::printf("%-14s %12.0f cycles/s  TU %8llu B  %d kernel(s) "
                        "for %d block(s)  compile %6.0f ms  %d "
                        "words/phase  %d flop range(s)\n",
                        cfg.toString().c_str(), r.cycles_per_second,
                        static_cast<unsigned long long>(
                            r.spec.emittedTuBytes),
                        r.spec.kernelTypes, r.spec.numSpecialized,
                        r.spec.compileSeconds * 1e3,
                        r.layout.words_per_phase,
                        r.layout.flop_memcpy_ranges);
            Json row = Json::object();
            row.set("backend", Json::string(cfg.toString()));
            row.set("cycles_per_second", Json::number(r.cycles_per_second));
            row.set("emitted_tu_bytes", Json::number(static_cast<uint64_t>(
                                            r.spec.emittedTuBytes)));
            row.set("kernel_types", Json::number(r.spec.kernelTypes));
            row.set("specialized_blocks",
                    Json::number(r.spec.numSpecialized));
            row.set("compile_ms", Json::number(r.spec.compileSeconds * 1e3));
            row.set("words_per_phase",
                    Json::number(r.layout.words_per_phase));
            row.set("flop_memcpy_ranges",
                    Json::number(r.layout.flop_memcpy_ranges));
            codegen.push(std::move(row));
        }
    }
    json.set("codegen", std::move(codegen));

    // Checkpoint cost and warm start (SimSnap): snapshot the RTL mesh
    // at a fixed cycle, restore into a fresh simulator and measure the
    // steady-state rate from there — the "resume a long run" point.
    rule('=');
    std::printf("checkpoint/warm start (RTL mesh, interp)\n");
    rule('=');
    WarmStartResult ws = measureWarmStart(
        [&] {
            static std::unique_ptr<MeshTrafficTop> top;
            top = std::make_unique<MeshTrafficTop>(
                "top", NetLevel::RTL, kNodes, kEntries, kInjection, 1);
            auto elab = top->elaborate();
            return std::unique_ptr<Simulator>(
                std::make_unique<SimulationTool>(elab,
                                                 modes.front().cfg));
        },
        full ? 5000 : 1000, full ? 2.0 : 1.0);
    std::printf("snapshot at cycle %llu: %llu bytes, %.2f ms capture, "
                "%.2f ms restore\nwarm-start rate %.0f cycles/s\n",
                static_cast<unsigned long long>(ws.snap_cycle),
                static_cast<unsigned long long>(ws.snapshot_bytes),
                ws.snapshot_ms, ws.restore_ms, ws.cycles_per_second);
    Json ckpt = Json::object();
    ckpt.set("level", Json::string("rtl"));
    ckpt.set("backend", Json::string(modes.front().cfg.toString()));
    ckpt.set("snap_cycle", Json::number(ws.snap_cycle));
    ckpt.set("snapshot_bytes", Json::number(ws.snapshot_bytes));
    ckpt.set("snapshot_ms", Json::number(ws.snapshot_ms));
    ckpt.set("restore_ms", Json::number(ws.restore_ms));
    ckpt.set("warm_start",
             Json::object().set("cycles_per_second",
                                Json::number(ws.cycles_per_second)));
    json.set("checkpoint", std::move(ckpt));

    writeJson("BENCH_fig14_mesh.json", json);
    std::printf("wrote BENCH_fig14_mesh.json\n");
    return 0;
}
