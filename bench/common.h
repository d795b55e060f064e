/**
 * @file
 * Shared infrastructure for the figure-reproduction benchmarks.
 *
 * Each bench binary regenerates one table or figure of the paper.
 * Simulation rates are measured adaptively (warmup, then timed chunks
 * until a minimum wall-clock budget), and speedup-vs-simulated-cycles
 * curves are derived from measured steady-state rates plus measured
 * one-time overheads: time(N) = setup + N / rate. Our interpreters
 * have cycle-invariant cost (no warmup effects), so this is exact,
 * and it keeps the default bench runtime in minutes. Pass --full for
 * paper-scale parameters.
 */

#ifndef CMTL_BENCH_COMMON_H
#define CMTL_BENCH_COMMON_H

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/json.h"
#include "core/scope.h"
#include "core/sim.h"
#include "core/snap.h"
#include "core/timing.h"
#include "stdlib/options.h"

namespace cmtl {
namespace bench {

using stdlib::SimOptions;

/** One execution configuration mapped to a paper configuration. */
struct ModeSpec
{
    std::string name; //!< the paper's name for this configuration
    SimConfig cfg;
};

/**
 * The four framework configurations of the paper's Figure 14, in
 * order, as labels over backend names. SimJIT rows use the per-block
 * compiled-C++ specializer when a host compiler is available, else
 * the bytecode engine (reported).
 */
inline std::vector<ModeSpec>
paperModes()
{
    const bool cc = CppJit::compilerAvailable();
    const std::pair<const char *, const char *> labels[] = {
        {"CPython", "interp"},
        {"PyPy", "optinterp"},
        {"SimJIT", cc ? "interp+cpp-block" : "interp+bytecode"},
        {"SimJIT+PyPy", cc ? "cpp-block" : "bytecode"},
    };
    std::vector<ModeSpec> modes;
    for (const auto &[label, backend] : labels)
        modes.push_back({label, SimConfig::fromString(backend)});
    return modes;
}

/**
 * Restrict the paper configurations to the CPython baseline (the
 * speedup denominator) plus the backend named on the command line.
 * Without --backend this is exactly paperModes().
 */
inline std::vector<ModeSpec>
paperModes(const SimOptions &opts)
{
    if (!opts.backend_set)
        return paperModes();
    SimConfig chosen = opts.cfg;
    chosen.threads = 1;
    std::vector<ModeSpec> modes;
    modes.push_back(paperModes().front()); // CPython baseline
    if (chosen.backend != Backend::Interp)
        modes.push_back({chosen.toString(), chosen});
    return modes;
}

/** True when --full / CMTL_BENCH_FULL=1 requests paper-scale runs. */
inline bool
fullScale(int argc, char **argv)
{
    return SimOptions::parse(argc, argv).full;
}

/**
 * The default single-thread SimJIT configuration (per-block compiled
 * C++ when a host compiler exists, bytecode otherwise), overridden by
 * --backend=<b> when given on the command line.
 */
inline SimConfig
simjitConfig(const SimOptions &opts)
{
    SimConfig cfg;
    if (opts.backend_set) {
        cfg = opts.cfg;
        cfg.threads = 1;
        return cfg;
    }
    cfg.backend = CppJit::compilerAvailable() ? Backend::CppBlock
                                              : Backend::Bytecode;
    return cfg;
}

/** Result of an adaptive rate measurement. */
struct RateResult
{
    double cycles_per_second = 0.0; //!< median over the rounds
    double min_cycles_per_second = 0.0;
    double max_cycles_per_second = 0.0;
    int rounds = 0;
    double setup_seconds = 0.0; //!< simulator construction (this run)
    SpecStats spec;
    LayoutStats layout;
    uint64_t measured_cycles = 0; //!< over all rounds
};

/**
 * Measure the steady-state simulation rate of a simulator produced by
 * @p make_sim. The factory owns its model; the callback returns a
 * ready simulator (either kernel behind the Simulator interface).
 * After warm-up, five timed rounds split @p budget_seconds evenly;
 * the result is their median rate with its min and max.
 */
inline RateResult
measureRate(const std::function<std::unique_ptr<Simulator>()> &make,
            double budget_seconds = 2.0, uint64_t warmup_cycles = 64)
{
    constexpr int rounds = 5;
    RateResult out;
    Stopwatch setup;
    std::unique_ptr<Simulator> sim = make();
    out.setup_seconds = setup.elapsed();

    sim->cycle(warmup_cycles);
    // Tiered cpp-design: drain the bytecode warm-up tier so the timed
    // loop sees native steady state only. The drained cycles land in
    // setup_seconds-equivalent territory via spec.tierSwapCycle.
    while (sim->tierPending())
        sim->cycle(warmup_cycles);
    // The first round grows the chunk until one chunk is a sizable
    // share of a round; later rounds keep it.
    const double round_budget = budget_seconds / rounds;
    uint64_t chunk = std::max<uint64_t>(16, warmup_cycles / 4);
    std::vector<double> rates;
    for (int r = 0; r < rounds; ++r) {
        Stopwatch timer;
        uint64_t cycles = 0;
        while (timer.elapsed() < round_budget) {
            sim->cycle(chunk);
            cycles += chunk;
            if (r == 0 && timer.elapsed() < round_budget / 8)
                chunk *= 2;
        }
        rates.push_back(static_cast<double>(cycles) / timer.elapsed());
        out.measured_cycles += cycles;
    }
    std::sort(rates.begin(), rates.end());
    const size_t mid = rates.size() / 2;
    out.cycles_per_second = rates.size() % 2
                                ? rates[mid]
                                : (rates[mid - 1] + rates[mid]) / 2;
    out.min_cycles_per_second = rates.front();
    out.max_cycles_per_second = rates.back();
    out.rounds = rounds;
    // Read spec stats after the run: a tiered backend fills in its
    // compile time and tier-swap cycle only once the swap happens.
    out.spec = sim->specStats();
    out.layout = sim->layoutStats();
    return out;
}

/** Result of a checkpoint/warm-start measurement. */
struct WarmStartResult
{
    uint64_t snap_cycle = 0;      //!< cycle the snapshot was taken at
    uint64_t snapshot_bytes = 0;  //!< encoded image size
    double snapshot_ms = 0.0;     //!< capture + encode wall time
    double restore_ms = 0.0;      //!< decode + restore wall time
    /** Steady-state rate of the restored (warm-started) run. */
    double cycles_per_second = 0.0;
};

/**
 * Measure SimSnap checkpoint cost and the warm-start rate: run a
 * simulator to @p snap_cycle, snapshot it, then restore the image into
 * a *second* fresh simulator and time its steady-state rate from
 * there. The first simulator is destroyed before the second is made,
 * because bench factories replace a function-static top model.
 */
inline WarmStartResult
measureWarmStart(const std::function<std::unique_ptr<Simulator>()> &make,
                 uint64_t snap_cycle = 5000, double budget_seconds = 1.0)
{
    WarmStartResult out;
    out.snap_cycle = snap_cycle;

    std::unique_ptr<Simulator> sim = make();
    sim->cycle(snap_cycle);
    Stopwatch snap_sw;
    std::string image = snapSave(*sim).encode();
    out.snapshot_ms = snap_sw.elapsed() * 1e3;
    out.snapshot_bytes = image.size();
    sim.reset();

    std::unique_ptr<Simulator> resumed = make();
    Stopwatch restore_sw;
    snapRestore(*resumed, SimSnapshot::decode(image));
    out.restore_ms = restore_sw.elapsed() * 1e3;

    resumed->cycle(64);
    uint64_t chunk = 256, cycles = 0;
    Stopwatch timer;
    while (timer.elapsed() < budget_seconds) {
        resumed->cycle(chunk);
        cycles += chunk;
        if (timer.elapsed() < budget_seconds / 8)
            chunk *= 2;
    }
    out.cycles_per_second = static_cast<double>(cycles) / timer.elapsed();
    return out;
}

/**
 * Run a short profiled simulation and return the SimScope snapshot
 * (phases, hot blocks, traced val/rdy channels, JIT costs) for a
 * BENCH_*.json "metrics" section.
 */
inline Json
profileSnapshot(const std::function<std::unique_ptr<Simulator>()> &make,
                uint64_t cycles = 192)
{
    std::unique_ptr<Simulator> sim = make();
    SimScope scope(*sim);
    scope.traceAllValRdy();
    sim->cycle(cycles);
    return scope.snapshot();
}

/** Derived total wall time for simulating @p n target cycles. */
inline double
projectedTime(const RateResult &r, uint64_t n, bool include_setup)
{
    double t = static_cast<double>(n) / r.cycles_per_second;
    return include_setup ? t + r.setup_seconds : t;
}

inline void
rule(char c = '-', int width = 78)
{
    for (int i = 0; i < width; ++i)
        std::putchar(c);
    std::putchar('\n');
}

/** Write @p json to @p path as one line (a BENCH_*.json baseline). */
inline void
writeJson(const std::string &path, const Json &json)
{
    std::ofstream out(path);
    out << json.encode() << '\n';
    if (!out)
        std::perror(("cannot write " + path).c_str());
}

/**
 * Record the host a BENCH file was measured on: CPU count and model,
 * L2 size per core (0 when the C library cannot tell), and the
 * compiler and flags the bench was built with. Returns the CPU count
 * it wrote.
 */
inline int
hostFields(Json &json)
{
    const int host_cpus =
        static_cast<int>(std::thread::hardware_concurrency());
    // The first "model name" line of /proc/cpuinfo, "" without one.
    std::string cpu_model;
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            cpu_model = line.substr(line.find(':') + 1);
            cpu_model.erase(0, cpu_model.find_first_not_of(" \t"));
            break;
        }
    }
    const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
    json.set("host_cpus", Json::number(host_cpus));
    json.set("cpu_model", Json::string(cpu_model));
    json.set("l2_cache_bytes",
             Json::number(static_cast<uint64_t>(l2 > 0 ? l2 : 0)));
    json.set("compiler", Json::string(CMTL_BENCH_COMPILER));
    json.set("cxx_flags", Json::string(CMTL_BENCH_CXX_FLAGS));
    return host_cpus;
}

} // namespace bench
} // namespace cmtl

#endif // CMTL_BENCH_COMMON_H
