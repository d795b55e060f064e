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
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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
 * Run a short profiled simulation and return the SimScope JSON
 * snapshot (phases, hot blocks, traced val/rdy channels, metrics) for
 * a BENCH_*.json "metrics" section.
 */
inline std::string
profileSnapshot(const std::function<std::unique_ptr<Simulator>()> &make,
                uint64_t cycles = 192)
{
    std::unique_ptr<Simulator> sim = make();
    SimScope scope(*sim);
    scope.traceAllValRdy();
    sim->cycle(cycles);
    std::string json = scope.jsonSnapshot();
    scope.detach();
    return json;
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

/**
 * Minimal streaming JSON writer for machine-readable bench baselines
 * (BENCH_*.json). Handles nesting and comma placement; values are
 * written eagerly, so memory use is constant.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(const std::string &path)
        : out_(std::fopen(path.c_str(), "w"))
    {
        if (!out_)
            std::perror(("cannot write " + path).c_str());
    }

    ~JsonWriter()
    {
        if (out_) {
            std::fputc('\n', out_);
            std::fclose(out_);
        }
    }

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    JsonWriter &
    beginObject()
    {
        sep();
        raw("{");
        fresh_.push_back(true);
        return *this;
    }

    JsonWriter &
    endObject()
    {
        fresh_.pop_back();
        raw("}");
        return *this;
    }

    JsonWriter &
    beginArray()
    {
        sep();
        raw("[");
        fresh_.push_back(true);
        return *this;
    }

    JsonWriter &
    endArray()
    {
        fresh_.pop_back();
        raw("]");
        return *this;
    }

    JsonWriter &
    key(const std::string &k)
    {
        sep();
        writeString(k);
        raw(":");
        pending_value_ = true;
        return *this;
    }

    JsonWriter &
    value(const std::string &v)
    {
        sep();
        writeString(v);
        return *this;
    }

    JsonWriter &
    value(const char *v)
    {
        return value(std::string(v));
    }

    JsonWriter &
    value(double v)
    {
        sep();
        if (out_)
            std::fprintf(out_, "%.6g", v);
        return *this;
    }

    JsonWriter &
    value(uint64_t v)
    {
        sep();
        if (out_)
            std::fprintf(out_, "%llu",
                         static_cast<unsigned long long>(v));
        return *this;
    }

    JsonWriter &
    value(int v)
    {
        sep();
        if (out_)
            std::fprintf(out_, "%d", v);
        return *this;
    }

    JsonWriter &
    value(bool v)
    {
        sep();
        raw(v ? "true" : "false");
        return *this;
    }

    /** key + scalar value in one call. */
    template <typename T>
    JsonWriter &
    field(const std::string &k, const T &v)
    {
        key(k);
        return value(v);
    }

    /** Embed pre-serialized JSON (e.g. a SimScope snapshot) verbatim. */
    JsonWriter &
    rawValue(const std::string &json)
    {
        sep();
        raw(json.c_str());
        return *this;
    }

  private:
    void
    sep()
    {
        if (pending_value_) {
            // The comma (if any) was written with the key.
            pending_value_ = false;
            return;
        }
        if (!fresh_.empty()) {
            if (!fresh_.back())
                raw(",");
            fresh_.back() = false;
        }
    }

    void
    raw(const char *s)
    {
        if (out_)
            std::fputs(s, out_);
    }

    void
    writeString(const std::string &s)
    {
        if (!out_)
            return;
        std::fputc('"', out_);
        for (char c : s) {
            if (c == '"' || c == '\\')
                std::fputc('\\', out_);
            std::fputc(c, out_);
        }
        std::fputc('"', out_);
    }

    std::FILE *out_;
    std::vector<bool> fresh_; //!< per nesting level: no entry yet
    bool pending_value_ = false;
};

/**
 * Record the host a BENCH file was measured on: CPU count, L2 size
 * per core (0 when the C library cannot tell), and the compiler and
 * flags the bench was built with. Returns the CPU count it wrote.
 */
inline int
hostFields(JsonWriter &json)
{
    const int host_cpus =
        static_cast<int>(std::thread::hardware_concurrency());
    json.field("host_cpus", host_cpus);
    const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
    json.field("l2_cache_bytes", static_cast<uint64_t>(l2 > 0 ? l2 : 0));
    json.field("compiler", CMTL_BENCH_COMPILER);
    json.field("cxx_flags", CMTL_BENCH_CXX_FLAGS);
    return host_cpus;
}

} // namespace bench
} // namespace cmtl

#endif // CMTL_BENCH_COMMON_H
